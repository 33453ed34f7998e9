"""Workloads of the cfmimo benchmark.

Each workload is a fixed simulator configuration plus the calls a user makes on
it. The run's ``--seed`` becomes the configuration seed, so the same seed gives
the same deployments, placements and random streams. ``tiny`` variants keep the
same calls on a toy deployment, for the benchmark's self-test.

* ``paper_fixed``: ``run_episode`` on the reference scenario (K=40, L=36, C=9,
  N=4, n_mc=100), strategy ``fixed`` at 2 dB and 30 km/h. The Monte-Carlo
  moment tensors do almost all of the work and set the peak memory.
* ``handover_churn``: the same deployment running ``opportunistic`` at 1 dB and
  120 km/h with serving size 8, measurement size 16 and n_mc=4. Channel
  refresh, per-UE loops and cluster churn carry the step.
* ``desk_sweep``: ``run_campaign`` at desk scale (K=10, L=16, C=4, N=4) over
  all four strategies at 3 and 120 km/h with one worker per core: per-episode
  set-up, the process pool and small-array overhead.

``run_unit`` is the unit of work the benchmark times: one episode, or one
campaign. It uses only ``SimConfig``, ``run_episode`` and ``run_campaign``, so
it runs unchanged on the frozen copy of the simulator (see ``worker.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from cfmimo import SimConfig, run_campaign, run_episode
from cfmimo.clustering import (
    CELLULAR_HANDOVER,
    FIXED,
    FIXED_RECLUSTER,
    OPPORTUNISTIC,
    OPPORTUNISTIC_RELOAD,
    PRIMARY_CHANGE,
    STRATEGIES,
)
from cfmimo.geometry import DeploymentConfig

# The seed the recorded reference values in recorded.json were computed with.
DEFAULT_SEED = 1
SCALES = ("full", "tiny")

_TINY_DEPLOYMENT = DeploymentConfig(grid_side_m=400.0, num_orus=4, num_odus=1, antennas_per_oru=2, num_ues=4)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    An ``episodes`` workload calls ``run_episode`` on setups 0, 1, 2, ... of the
    run's seed; a traced run covers the first ``traced_episodes`` of them. A
    ``campaign`` workload calls ``run_campaign`` over ``strategies`` x
    ``speeds``; a traced run covers every episode of one campaign.
    """

    name: str
    kind: str  # "episodes" or "campaign"
    config: SimConfig
    strategy: str = FIXED
    threshold_db: float = 0.0
    speed_kmh: float = 0.0
    strategies: tuple = ()
    speeds: tuple = ()
    traced_episodes: int = 0

    def with_seed(self, seed: int) -> SimConfig:
        return replace(self.config, seed=int(seed))


def _clusters(config: SimConfig, serving: int, measurement: int) -> SimConfig:
    return replace(config, handover=replace(config.handover, serving_size=serving, measurement_size=measurement))


def build(name: str, scale: str = "full") -> Workload:
    """The workload ``name`` at ``full`` (benchmark) or ``tiny`` (self-test) scale."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    tiny = scale == "tiny"
    if name == "paper_fixed":
        # One-step episodes: a 20-step paper episode takes about 30 s, longer
        # than one measuring window, and every step has the same shapes, so
        # short episodes give a median over several samples per run.
        config = SimConfig(n_mc=100, sim_time_s=0.5)
        if tiny:
            config = _clusters(replace(config, deployment=_TINY_DEPLOYMENT, n_mc=4), 2, 3)
        return Workload(name, "episodes", config, FIXED, 2.0, 30.0, traced_episodes=4)
    if name == "handover_churn":
        # Five-step episodes, under a second each: the host's speed wanders
        # within seconds, so the benchmark pairs many short units (bench.py).
        config = _clusters(SimConfig(n_mc=4, sim_time_s=2.5), 8, 16)
        if tiny:
            config = _clusters(replace(config, deployment=_TINY_DEPLOYMENT, n_mc=2, sim_time_s=1.0), 2, 3)
        return Workload(name, "episodes", config, OPPORTUNISTIC, 1.0, 120.0, traced_episodes=4)
    if name == "desk_sweep":
        desk = DeploymentConfig(grid_side_m=1000.0, num_orus=16, num_odus=4, antennas_per_oru=4, num_ues=10)
        # One setup of five-step episodes: a campaign takes about a second.
        config = _clusters(SimConfig(deployment=desk, n_mc=100, sim_time_s=2.5, n_setups=1), 8, 10)
        if tiny:
            config = _clusters(replace(config, deployment=_TINY_DEPLOYMENT, n_mc=4, sim_time_s=1.0, n_setups=1), 2, 3)
        return Workload(name, "campaign", config, strategies=STRATEGIES, speeds=(3.0, 120.0))
    raise ValueError(f"unknown workload {name!r}")


def run_unit(w: Workload, cfg: SimConfig, unit: int, parallelism: int):
    """One unit of work: episode ``unit`` (its setup index), or one whole campaign."""
    if w.kind == "campaign":
        return run_campaign(cfg, strategies=w.strategies, speeds=w.speeds, parallelism=parallelism)
    return run_episode(cfg, unit, strategy=w.strategy, threshold_db=w.threshold_db, speed_kmh=w.speed_kmh)


NAMES = ("paper_fixed", "handover_churn", "desk_sweep")

# Handover event kinds the benchmark counts; one per-layer counter each.
EVENT_KINDS = (PRIMARY_CHANGE, FIXED_RECLUSTER, OPPORTUNISTIC_RELOAD, CELLULAR_HANDOVER)
