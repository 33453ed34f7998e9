"""Traced rebuild of the cfmimo episode loop.

``traced_episode`` repeats ``cfmimo.simulate.run_episode`` call for call through
the package's public functions and records one span around each call into a
module; consecutive calls into the same module share a span. The benchmark
compares every traced episode with ``run_episode`` (see ``compare_episodes``)
and fails the run unless they agree bit for bit, so the spans describe the
program that users run.

In addition, each step times ``pilots.mmse_filters``, ``pilots.observe_pilots``
and ``pilots.apply_filters`` on that step's statistics. These probe spans draw
from their own generator, so the episode's random stream is untouched, and
their time is kept out of the step time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from cfmimo import clustering, geometry, signaling
from cfmimo.channel import ShadowFading, refresh_statistics, sample_channels
from cfmimo.combining import lsfd_weights, simulate_gain_moments, stats_for_ue, uplink_sinr
from cfmimo.errors import NumericalError, SimulationError
from cfmimo.pilots import PilotConfig, apply_filters, mmse_filters, observe_pilots
from cfmimo.simulate import KMH_TO_MPS, EpisodeResult, episode_seed

STEP = "simulate.step"
# Spans of the pilot probe; their time is not part of the step.
PROBES = ("pilots.filters", "channel.sample", "pilots.observe", "pilots.apply")


@dataclass
class Span:
    episode: int
    step: int  # 0 is the episode's set-up, 1.. its steps
    name: str
    start: float
    end: float
    parent: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans of one episode share its index."""

    def __init__(self):
        self.spans: list[Span] = []
        self.episode = 0
        self.step = 0
        self.gauges: dict[str, float] = {}
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append(Span(self.episode, self.step, name, start, end, parent))

    def gauge(self, name: str, value: float) -> None:
        """Keep the largest value seen under ``name``."""
        self.gauges[name] = max(value, self.gauges.get(name, value))

    def probe_time(self, episode: int) -> float:
        return sum(s.duration for s in self.spans if s.episode == episode and s.name in PROBES)


def traced_episode(
    config,
    setup: int,
    strategy: str,
    threshold_db: float,
    speed_kmh: float,
    tracer: Tracer,
    probe_rng: np.random.Generator,
) -> EpisodeResult:
    """``run_episode(config, setup, strategy, threshold_db, speed_kmh)`` with spans."""
    cfg = config.resolve()
    speed = float(speed_kmh)
    threshold = 0.0 if strategy == clustering.UBIQUITOUS else float(threshold_db)
    handover_cfg = replace(cfg.handover, strategy=strategy)
    if strategy == clustering.CELLULAR:
        handover_cfg = replace(handover_cfg, cellular_hysteresis_db=threshold)
    else:
        handover_cfg = replace(handover_cfg, threshold_db=threshold)
    rng = np.random.default_rng(episode_seed(cfg.seed, setup))
    dep = cfg.deployment
    n_antennas = dep.antennas_per_oru
    sigma2 = cfg.sigma2_mw
    span = tracer.span
    tracer.step = 0

    with span("geometry.deployment"):
        topology = geometry.generate_deployment(dep, rng)
    with span("clustering.setup"):
        neighbors = clustering.NeighborTable(topology)
    with span("geometry.placement"):
        positions = geometry.uniform_positions(dep.num_ues, dep.grid_side_m, rng)
        headings = geometry.uniform_headings(dep.num_ues, rng)
    speeds = np.full(dep.num_ues, speed * KMH_TO_MPS)
    with span("channel.shadow"):
        shadow = ShadowFading.initial(dep.num_orus, dep.num_ues, cfg.sigma_sf_db, cfg.shadow_alpha_per_m, rng)
    pilot_cfg = PilotConfig.uniform(dep.num_ues, cfg.tau_p, cfg.power_mw)
    with span("channel.refresh"):
        stats = refresh_statistics(
            topology, positions, shadow, cfg.angle_spread_rad, n_antennas,
            cfg.antenna_spacing_wl, cfg.min_distance_m, cfg.check_quadrature,
        )
    with span("clustering.setup"):
        state = clustering.initial_clusters(stats.beta_lin, topology, handover_cfg, n_antennas, neighbors)

    ledger = signaling.SignalingLedger(dep.num_orus, dep.num_odus)
    se = np.zeros((cfg.n_steps, dep.num_ues))
    events: list = []
    invalid = 0
    for step in range(1, cfg.n_steps + 1):
        tracer.step = step
        with span(STEP):
            try:
                with span("geometry.motion"):
                    positions = geometry.advance_positions(positions, speeds, headings, cfg.ts_s, dep.grid_side_m)
                with span("channel.shadow"):
                    shadow = shadow.evolve(speeds, cfg.ts_s, rng)
                with span("channel.refresh"):
                    stats = refresh_statistics(
                        topology, positions, shadow, cfg.angle_spread_rad, n_antennas,
                        cfg.antenna_spacing_wl, cfg.min_distance_m, cfg.check_quadrature,
                    )
                tracer.gauge("channel.cov_bytes", stats.covariance.nbytes + stats.factor.nbytes)
                with span("clustering.step"):
                    state, step_events = clustering.strategy_step(
                        state, stats.beta_db, stats.beta_lin, topology, neighbors, handover_cfg, n_antennas, step
                    )
                _probe_pilots(stats, pilot_cfg, sigma2, cfg.n_mc, tracer, probe_rng)
                with span("combining.moments"):
                    moments = simulate_gain_moments(state.serving, stats, pilot_cfg, sigma2, cfg.n_mc, rng)
                # g[d, l, k, i] is the einsum intermediate of simulate_gain_moments.
                g_bytes = cfg.n_mc * dep.num_orus * dep.num_ues**2 * np.dtype(complex).itemsize
                tracer.gauge("combining.moment_bytes", g_bytes + moments.second_moment.nbytes)
                for k in range(dep.num_ues):
                    with span("combining.lsfd_sinr"):
                        weights = lsfd_weights(stats_for_ue(moments, k), pilot_cfg.power_mw)
                        eval_stats = stats_for_ue(moments, k, all_interferers=True)
                        _, se_k = uplink_sinr(weights, eval_stats, pilot_cfg.power_mw)
                    se[step - 1, k] = cfg.prelog * se_k
                    if np.isnan(se_k):
                        invalid += 1
            except NumericalError as exc:
                raise SimulationError(
                    f"episode aborted at step {step} "
                    f"(strategy={handover_cfg.strategy}, speed={speed:g} km/h): {exc}"
                ) from exc
            with span("signaling.account"):
                delta = (
                    signaling.account_data_plane(state, cfg.frame, topology.odu_of_oru)
                    + signaling.account_control_plane(step_events, state, topology.odu_of_oru)
                    + signaling.account_statistics_exchange(state, topology.odu_of_oru)
                )
                ledger.record(step, delta)
            events.extend(step_events)
    return EpisodeResult(handover_cfg.strategy, threshold, speed, cfg.sim_time_s, se, events, ledger, invalid)


def _probe_pilots(stats, pilot_cfg, sigma2, n_mc, tracer, probe_rng) -> None:
    """Time the pilot stages of the Monte-Carlo moments on this step's statistics."""
    with tracer.span("pilots.filters"):
        filters, _ = mmse_filters(stats.covariance, pilot_cfg, sigma2)
    with tracer.span("channel.sample"):
        channels = sample_channels(stats.factor, n_mc, probe_rng)
    with tracer.span("pilots.observe"):
        observations = observe_pilots(channels, pilot_cfg, sigma2, probe_rng)
    with tracer.span("pilots.apply"):
        apply_filters(filters, observations)


def episode_digest(result: EpisodeResult) -> dict:
    """What must agree between the traced loop and ``run_episode``."""
    ledger = result.ledger
    return {
        "events": [(e.t, e.ue, e.kind, e.old, e.new) for e in result.events],
        "ledger": {
            "fronthaul": ledger.total_fronthaul,
            "inter_odu": ledger.total_inter_odu,
            "ric": ledger.total_ric,
            "stats_msgs": ledger.total_stats_msgs,
        },
        "invalid_samples": result.invalid_samples,
    }


def compare_episodes(traced: EpisodeResult, program: EpisodeResult) -> list[str]:
    """Differences between a traced episode and ``run_episode``; empty when identical.

    Per-step SE must match bit for bit (NaN where NaN), and handover events and
    ledger totals exactly.
    """
    problems = []
    if traced.se.shape != program.se.shape:
        problems.append(f"SE shape {traced.se.shape} != {program.se.shape}")
    elif not np.array_equal(traced.se.view(np.uint64), program.se.view(np.uint64)):
        step, ue = np.argwhere(traced.se.view(np.uint64) != program.se.view(np.uint64))[0]
        problems.append(
            f"SE differs at step {step + 1}, UE {ue}: {traced.se[step, ue]!r} != {program.se[step, ue]!r}"
        )
    mine, theirs = episode_digest(traced), episode_digest(program)
    for key in mine:
        if mine[key] != theirs[key]:
            problems.append(f"{key} differs: traced {_short(mine[key])} != program {_short(theirs[key])}")
    return problems


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:197] + "..."
