"""Episode and campaign drivers.

An episode advances one deployment through ``sim_time / T_s`` steps: move UEs,
evolve shadow fading, rebuild channel statistics, run the strategy's cluster
update, estimate effective-gain statistics by Monte Carlo, solve the
second-stage weights, and score per-UE spectral efficiency, while the signaling
ledger collects data- and control-plane costs. A campaign sweeps
(strategy, threshold, speed) cells with ``n_setups`` independent episodes each.

Seeds are derived per setup from a hash of the setup index, so every cell
replays the same deployment and random streams (common random numbers), adding
sweep cells never changes existing ones, and episodes are bit-reproducible
regardless of execution order or parallelism. No strategy draws from the
stream, so one driver, ``_run_lockstep``, runs all cells of a (setup, speed) in
lockstep: motion, shadowing, channel statistics, the Monte-Carlo channel draws
and the estimates of every (O-RU, UE) pair some cell serves are computed once
per step, and each cell runs only its cluster update, combiners, second stage
and signaling on them. ``run_episode`` is its one-cell case, and a campaign
runs one lockstep job per (speed, setup) group, so each cell's numbers are
bit-identical to its own ``run_episode``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import clustering, geometry, signaling
from .channel import ShadowFading, refresh_statistics
from .combining import draw_estimates, gain_moments, second_stage, served_combiners
from .config import SimConfig, apply_setting
from .errors import ConfigurationError, NumericalError, SimulationError
from .pilots import PilotConfig

KMH_TO_MPS = 1.0 / 3.6


def episode_seed(campaign_seed: int, setup: int) -> np.random.SeedSequence:
    """Stable per-setup seed, independent of the sweep cell.

    All (strategy, threshold, speed) cells replay the same setups: identical
    deployments, placements, and noise streams (common random numbers), so
    cross-cell comparisons are paired and adding sweep cells never perturbs the
    random streams of existing ones.
    """
    key = f"setup|{int(setup)}"
    digest = hashlib.blake2s(key.encode(), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence([int(campaign_seed) & 0xFFFFFFFFFFFFFFFF, *words])


@dataclass
class EpisodeResult:
    """Per-step per-UE spectral efficiency plus the episode's events and ledger."""

    strategy: str
    threshold_db: float
    speed_kmh: float
    sim_time_s: float
    se: np.ndarray  # (n_steps, K) bits/s/Hz, NaN marks invalid samples
    events: list
    ledger: signaling.SignalingLedger
    invalid_samples: int = 0

    @property
    def mean_se(self) -> float:
        if np.all(np.isnan(self.se)):
            return float("nan")
        return float(np.nanmean(self.se))

    def handover_frequency(self) -> np.ndarray:
        """Handovers per second for every UE, under the strategy's own definition."""
        kind = clustering.HANDOVER_KINDS[self.strategy]
        ues = np.array([event.ue for event in self.events if event.kind == kind], dtype=int)
        return np.bincount(ues, minlength=self.se.shape[1]) / self.sim_time_s

    @property
    def mean_handover_frequency(self) -> float:
        return float(self.handover_frequency().mean())


def resolve_cell(config: SimConfig, strategy=None, threshold_db=None, speed_kmh=None):
    """Resolved (handover config, reported threshold, speed) of one sweep cell.

    Unset values take the configuration's. Each cell value is set on the key it
    overrides and checked by that key's rules in ``SimConfig.resolve``: the
    threshold is the handover margin of fixed and opportunistic, the hysteresis
    of cellular, and 0 for the ubiquitous baseline, which has no handover; the
    speed is a one-entry ``speeds_kmh``.
    """
    cfg = config if strategy is None else apply_setting(config, "strategy", strategy)
    key = "cellular_hysteresis_db" if cfg.handover.strategy == clustering.CELLULAR else "threshold_db"
    if cfg.handover.strategy == clustering.UBIQUITOUS:
        threshold_db = 0.0
    if threshold_db is not None:
        cfg = apply_setting(cfg, key, float(threshold_db))
    if speed_kmh is not None:
        cfg = apply_setting(cfg, "speeds_kmh", (float(speed_kmh),))
    cfg = cfg.resolve()
    return cfg.handover, float(getattr(cfg.handover, key)), float(cfg.speeds_kmh[0])


def run_episode(
    config: SimConfig,
    setup: int = 0,
    strategy: str | None = None,
    threshold_db: float | None = None,
    speed_kmh: float | None = None,
) -> EpisodeResult:
    """Run one episode; cell parameters default to the configuration's values."""
    handover_cfg, threshold, speed = resolve_cell(config, strategy, threshold_db, speed_kmh)
    (outcome,) = _run_lockstep(config, [(handover_cfg, threshold)], speed, setup)
    if isinstance(outcome, SimulationError):
        raise outcome
    return outcome


@dataclass
class _Lane:
    """What one cell of a lockstep episode carries from step to step."""

    handover: clustering.HandoverConfig
    threshold_db: float
    se: np.ndarray | None = None
    ledger: signaling.SignalingLedger | None = None
    events: list = field(default_factory=list)
    invalid: int = 0
    state: clustering.ClusterState | None = None
    error: SimulationError | None = None


_STEP_FAILURES = (NumericalError, MemoryError)  # what ends a step's lanes; numpy's MemoryError names the size


def _abort(lanes, step: int, replay: str, exc: Exception) -> None:
    """End ``lanes`` at ``step``; ``replay`` names the speed, seed and setup that reproduce the episode."""
    for lane in lanes:
        lane.error = SimulationError(
            f"episode aborted at step {step} "
            f"(strategy={lane.handover.strategy}, threshold={lane.threshold_db:g} dB, {replay}): {exc}"
        )
        lane.error.__cause__ = exc


def _run_lockstep(cfg: SimConfig, cells: list, speed_kmh: float, setup: int) -> list:
    """Episodes of one setup and speed for every (handover config, threshold) cell.

    No strategy draws from the episode's generator, so all cells see the same
    deployment, motion, shadowing, channel statistics and Monte-Carlo draws.
    Each step does that work once, after every cell's cluster update, and
    estimates the pairs any cell serves; each cell then runs its own combiners
    and gain moments, second stage and signaling, and writes only into its own
    arrays. Returns an EpisodeResult or a SimulationError per cell, in order:
    a NumericalError or MemoryError in a cell's own stage ends that cell, one
    in the set-up or a shared stage ends every live cell. The cells and the
    speed come resolved from ``resolve_cell``; ``cfg`` supplies only settings
    that resolving leaves as they are.
    """
    rng = np.random.default_rng(episode_seed(cfg.seed, setup))
    replay = f"speed={speed_kmh:g} km/h, seed={cfg.seed}, setup={setup}"
    dep = cfg.deployment
    n_antennas = dep.antennas_per_oru
    sigma2 = cfg.sigma2_mw
    channel_args = (
        cfg.angle_spread_rad, n_antennas, cfg.antenna_spacing_wl, cfg.min_distance_m, cfg.check_quadrature
    )
    lanes = [_Lane(handover, threshold) for handover, threshold in cells]
    try:
        topology = geometry.generate_deployment(dep, rng)
        neighbors = clustering.NeighborTable(topology)
        positions = geometry.uniform_positions(dep.num_ues, dep.grid_side_m, rng)
        headings = geometry.uniform_headings(dep.num_ues, rng)
        speeds = np.full(dep.num_ues, speed_kmh * KMH_TO_MPS)
        shadow = ShadowFading.initial(dep.num_orus, dep.num_ues, cfg.sigma_sf_db, cfg.shadow_alpha_per_m, rng)
        pilot_cfg = PilotConfig.uniform(dep.num_ues, cfg.tau_p, cfg.power_mw)
        for lane in lanes:
            lane.se = np.zeros((cfg.n_steps, dep.num_ues))
            lane.ledger = signaling.SignalingLedger(dep.num_orus, dep.num_odus)
    except _STEP_FAILURES as exc:
        _abort(lanes, 0, replay, exc)
        return [lane.error for lane in lanes]

    for step in range(cfg.n_steps + 1):  # step 0 is the set-up
        live = [lane for lane in lanes if lane.error is None]
        if not live:
            break
        try:
            if step:
                positions = geometry.advance_positions(positions, speeds, headings, cfg.ts_s, dep.grid_side_m)
                shadow = shadow.evolve(speeds, cfg.ts_s, rng)
            stats = None  # the previous step's stacks are freed before the next ones are built
            stats = refresh_statistics(topology, positions, shadow, *channel_args)
        except _STEP_FAILURES as exc:
            _abort(live, step, replay, exc)
            break
        updated = []
        for lane in live:
            try:
                if step == 0:
                    lane.state = clustering.initial_clusters(
                        stats.beta_lin, topology, lane.handover, n_antennas, neighbors
                    )
                    continue
                lane.state, step_events = clustering.strategy_step(
                    lane.state, stats.beta_db, stats.beta_lin, topology, neighbors, lane.handover, n_antennas, step
                )
                updated.append((lane, step_events))
            except _STEP_FAILURES as exc:
                _abort([lane], step, replay, exc)
        if not updated:
            continue
        # Estimates are formed for the pairs some updated cell serves.
        needed = np.logical_or.reduce([lane.state.serving for lane, _ in updated])
        try:
            draws = draw_estimates(stats, pilot_cfg, sigma2, cfg.n_mc, rng, needed)
        except _STEP_FAILURES as exc:
            _abort([lane for lane, _ in updated], step, replay, exc)
            break
        stats = None  # the cells read only the draws: the covariance and factor stacks are freed
        # The cell serving the most pairs runs last and solves its combiners
        # into the shared estimates, which no other cell reads after it.
        updated.sort(key=lambda item: int(item[0].state.serving.sum()))
        for index, (lane, step_events) in enumerate(updated):
            try:
                last = index == len(updated) - 1
                combiners = served_combiners(lane.state.serving, draws, pilot_cfg.power_mw, sigma2, into_estimates=last)
                moments = gain_moments(combiners, sigma2, pilot_cfg.power_mw)
                del combiners  # not kept into the second stage
                # Weights use the statistics a primary O-DU can collect (UEs
                # sharing a serving O-RU); the achievable SE is charged with
                # interference from every UE.
                _, se = second_stage(moments, pilot_cfg.power_mw)
                lane.se[step - 1] = cfg.prelog * se
                lane.invalid += int(np.isnan(se).sum())
                delta = (
                    signaling.account_data_plane(lane.state, cfg.frame, topology.odu_of_oru)
                    + signaling.account_control_plane(step_events, lane.state, topology.odu_of_oru)
                    + signaling.account_statistics_exchange(lane.state, topology.odu_of_oru)
                )
                lane.ledger.record(step, delta)
                lane.events.extend(step_events)
            except _STEP_FAILURES as exc:
                _abort([lane], step, replay, exc)
        del draws  # the true channels are not kept into the next step
    return [
        lane.error
        or EpisodeResult(
            lane.handover.strategy, lane.threshold_db, speed_kmh, cfg.sim_time_s,
            lane.se, lane.events, lane.ledger, lane.invalid,
        )
        for lane in lanes
    ]


@dataclass
class CellAggregate:
    """Mean and standard error over setups for one (strategy, threshold, speed) cell."""

    strategy: str
    threshold_db: float
    speed_kmh: float
    mean_se: float
    se_stderr: float
    ho_freq: float
    ho_stderr: float
    ric_msgs: float
    inter_odu_samples: float
    n_setups: int


@dataclass
class AggregateResult:
    rows: list

    CSV_HEADER = ",".join(f.name for f in fields(CellAggregate) if f.name != "n_setups")

    def to_csv(self) -> str:
        columns = self.CSV_HEADER.split(",")
        lines = [self.CSV_HEADER]
        for r in self.rows:
            values = [getattr(r, name) for name in columns]
            lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in values))
        return "\n".join(lines) + "\n"

    def row(self, strategy: str, threshold_db: float | None = None, speed_kmh: float | None = None):
        for r in self.rows:
            if r.strategy != strategy:
                continue
            if threshold_db is not None and abs(r.threshold_db - threshold_db) > 1e-9:
                continue
            if speed_kmh is not None and abs(r.speed_kmh - speed_kmh) > 1e-9:
                continue
            return r
        raise KeyError(f"no aggregate row for ({strategy}, {threshold_db}, {speed_kmh})")


def campaign_cells(config: SimConfig, strategies, thresholds, speeds):
    """Cartesian sweep cells (strategy, threshold, speed); baselines ignore the threshold axis."""
    cells = []
    for strategy in strategies:
        handover = strategy in (clustering.FIXED, clustering.OPPORTUNISTIC)
        for threshold in thresholds if handover else [None]:
            for speed in speeds:
                _, cell_threshold, cell_speed = resolve_cell(config, strategy, threshold, speed)
                cells.append((strategy, cell_threshold, cell_speed))
    return cells


def pool_size(parallelism: int, num_jobs: int) -> int:
    """Worker processes for a campaign: at most one per job and one per core this process may run on.
    ``parallelism`` must be an int (not a bool) of at least 1."""
    if isinstance(parallelism, bool) or not isinstance(parallelism, int) or parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1 and an int, got {parallelism!r}")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(parallelism, num_jobs, cores)


def plan_jobs(cells, n_setups: int, workers: int) -> list:
    """Lockstep jobs ``(speed, setup, cell indices)`` of a campaign over ``cells``.

    The cells of one speed share every draw of a setup, so each (speed, setup)
    group is one job, in order of first speed, then setup. With fewer groups
    than ``workers``, each group's cells are split into ceil(workers / groups)
    contiguous sub-groups of near-equal size (at least one cell each), so that
    no worker sits idle.
    """
    speeds = list(dict.fromkeys(speed for _, _, speed in cells))
    groups = [
        (speed, setup, [i for i, cell in enumerate(cells) if cell[2] == speed])
        for speed in speeds
        for setup in range(n_setups)
    ]
    parts = -(-workers // len(groups))
    jobs = []
    for speed, setup, members in groups:
        n_parts = min(parts, len(members))
        bounds = [len(members) * j // n_parts for j in range(n_parts + 1)]
        jobs += [(speed, setup, members[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return jobs


def _campaign_outcome(result: EpisodeResult) -> tuple:
    """What a campaign averages over setups, in CellAggregate's order: mean SE,
    handover frequency, RIC and inter-O-DU totals."""
    return (result.mean_se, result.mean_handover_frequency, result.ledger.total_ric, result.ledger.total_inter_odu)


def _lockstep_job(args):
    """Campaign outcome or SimulationError of each cell of one job."""
    config, speed, setup, cells = args
    lanes = [resolve_cell(config, strategy, threshold, speed)[:2] for strategy, threshold, _ in cells]
    return [
        outcome if isinstance(outcome, SimulationError) else _campaign_outcome(outcome)
        for outcome in _run_lockstep(config, lanes, speed, setup)
    ]


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def run_campaign(
    config: SimConfig,
    strategies=None,
    thresholds=None,
    speeds=None,
    parallelism: int = 1,
) -> AggregateResult:
    """Sweep cells x setups and aggregate in a fixed reduction order.

    Episodes are fully determined by their derived seed, so results are
    bit-identical for any parallelism level; aggregation always reduces setups
    in ascending order. An empty strategies, thresholds or speeds axis raises
    ConfigurationError before any episode runs.
    """
    cfg = config.resolve()
    strategies = list(strategies) if strategies is not None else [cfg.handover.strategy]
    thresholds = list(thresholds) if thresholds is not None else [cfg.handover.threshold_db]
    speeds = list(speeds) if speeds is not None else list(cfg.speeds_kmh)
    for name, axis in (("strategies", strategies), ("thresholds", thresholds), ("speeds", speeds)):
        if not axis:
            raise ConfigurationError(f"the {name} axis of the sweep is empty")
    cells = campaign_cells(cfg, strategies, thresholds, speeds)
    workers = pool_size(parallelism, len(cells) * cfg.n_setups)
    jobs = plan_jobs(cells, cfg.n_setups, workers)
    job_args = [(cfg, speed, setup, [cells[i] for i in members]) for speed, setup, members in jobs]
    workers = min(workers, len(jobs))
    if workers > 1:
        # The pool's modules (multiprocessing, concurrent.futures and what they pull in) load
        # only here, so episodes and serial campaigns never import them. numpy loads
        # numpy.random on first use; loaded before the fork, it is inherited instead of
        # imported by every worker of every campaign.
        from concurrent.futures import ProcessPoolExecutor

        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_lockstep_job, job_args, chunksize=1))
    else:
        results = [_lockstep_job(args) for args in job_args]
    outcomes = {}
    for (_, setup, members), result in zip(jobs, results):
        outcomes.update(((idx, setup), outcome) for idx, outcome in zip(members, result))
    rows = []
    for idx, cell in enumerate(cells):
        block = [outcomes[idx, setup] for setup in range(cfg.n_setups)]
        for outcome in block:
            if isinstance(outcome, SimulationError):
                raise outcome
        se, ho, ric, inter = np.array(block, dtype=float).T
        rows.append(
            CellAggregate(
                *cell,
                float(se.mean()), _stderr(se), float(ho.mean()), _stderr(ho), float(ric.mean()), float(inter.mean()),
                cfg.n_setups,
            )
        )
    return AggregateResult(rows)


def episodes_to_csv(results) -> str:
    """Long-format per-step per-UE spectral efficiency for one or more episodes."""
    lines = ["setup,step,ue,se_bits_per_hz"]
    for setup, result in enumerate(results):
        n_steps, num_ues = result.se.shape
        for step in range(n_steps):
            for k in range(num_ues):
                lines.append(f"{setup},{step + 1},{k},{result.se[step, k]:.17g}")
    return "\n".join(lines) + "\n"
