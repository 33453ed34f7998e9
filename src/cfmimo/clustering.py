"""Serving-cluster formation and handover.

Four strategies share one state representation:

* ``fixed``: a central controller picks the strongest O-RUs from the UE's
  measurement cluster; the UE re-triggers the whole procedure when the summed
  cluster gain falls a hysteresis margin below its value at formation.
* ``opportunistic``: each UE keeps one primary O-RU; O-RUs autonomously fill
  their remaining capacity (at most N served UEs each) with the strongest
  candidates that track them, swapping only when a candidate beats a currently
  served UE by the hysteresis margin.
* ``ubiquitous``: every O-RU serves every UE (upper baseline, capacity waived).
* ``cellular``: all O-RUs of a single O-DU serve the UE (lower baseline) with a
  classical strongest-neighbor-plus-hysteresis handover between O-DUs.

``initial_clusters`` forms the t=0 state and ``strategy_step`` advances it; both
call the strategy's one cluster builder (``_form_fixed``, ``_track`` plus
``_reload_orus``, ``_serve_odu``). Every strongest-first choice is a stable sort
of the negated gains, so equal gains go to the lower index.

Gains enter in dB wherever a hysteresis margin applies and linearly wherever
powers are summed. Downlink gain measurements are modeled as error-free
knowledge of the uplink large-scale gain (reciprocity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .errors import ConfigurationError

FIXED = "fixed"
OPPORTUNISTIC = "opportunistic"
UBIQUITOUS = "ubiquitous"
CELLULAR = "cellular"
STRATEGIES = (FIXED, OPPORTUNISTIC, UBIQUITOUS, CELLULAR)

PRIMARY_CHANGE = "primary_change"
FIXED_RECLUSTER = "fixed_recluster"
OPPORTUNISTIC_RELOAD = "opportunistic_reload"
CELLULAR_HANDOVER = "cellular_handover"

# Event kinds that count as handovers for the per-strategy handover-frequency metric.
HANDOVER_KINDS = {
    FIXED: PRIMARY_CHANGE,
    OPPORTUNISTIC: PRIMARY_CHANGE,
    CELLULAR: CELLULAR_HANDOVER,
    UBIQUITOUS: None,
}


@dataclass
class HandoverConfig:
    """Strategy selection plus the thresholds and cluster sizes it needs."""

    strategy: str = FIXED
    threshold_db: float = 2.0
    serving_size: int = 16
    measurement_size: int = 25
    cellular_hysteresis_db: float = 2.0

    # The hysteresis margins in dB; a margin of +inf never triggers.
    MARGINS = ("threshold_db", "cellular_hysteresis_db")

    def validate(self, num_orus: int, num_ues: int, antennas_per_oru: int) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        for name in self.MARGINS:
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be >= 0 dB, got {getattr(self, name):g}")
        if not (1 <= self.serving_size <= self.measurement_size <= num_orus):
            raise ConfigurationError(
                "need 1 <= serving_size <= measurement_size <= num_orus "
                f"(got {self.serving_size}, {self.measurement_size}, {num_orus})"
            )
        if self.strategy == OPPORTUNISTIC and num_ues > num_orus * antennas_per_oru:  # a primary O-RU per UE
            raise ConfigurationError(
                "opportunistic needs num_ues <= num_orus * antennas_per_oru, "
                f"got {num_ues} > {num_orus} * {antennas_per_oru}"
            )


@dataclass
class HandoverEvent:
    """One triggering condition at one step. For O-RU reload events the acting
    O-RU is stored in old/new and ue is -1."""

    t: int
    ue: int
    kind: str
    old: int
    new: int


def events_to_csv(events) -> str:
    lines = ["t,ue,kind,old,new"]
    lines += [f"{e.t},{e.ue},{e.kind},{e.old},{e.new}" for e in events]
    return "\n".join(lines) + "\n"


class NeighborTable:
    """O-RU neighbor order under the torus metric, ties broken by index."""

    def __init__(self, topology: geometry.Topology):
        dist, _ = geometry.wrap_distance_and_angle(topology.oru_positions, topology.oru_positions, topology.grid_side_m)
        self.order = np.argsort(dist, axis=1, kind="stable")

    def measurement_set(self, primary: int, size: int) -> np.ndarray:
        return self.order[primary, :size]


@dataclass
class ClusterState:
    """Primary O-RU, measurement and serving clusters, and the serving map.

    ``serving[l, k]`` being True is the single source of truth for both views
    (k in D_l and l in M_k^s). ``reference_power`` is the linear gain sum of the
    serving cluster at formation time (fixed strategy only, else NaN).
    """

    strategy: str
    primary: np.ndarray  # (K,) int
    measurement: np.ndarray  # (L, K) bool
    serving: np.ndarray  # (L, K) bool
    reference_power: np.ndarray  # (K,) float
    serving_odu: np.ndarray | None = None  # (K,) int, cellular only

    def copy(self) -> "ClusterState":
        """A state that shares no array with this one."""
        return replace(
            self,
            primary=self.primary.copy(),
            measurement=self.measurement.copy(),
            serving=self.serving.copy(),
            reference_power=self.reference_power.copy(),
            serving_odu=None if self.serving_odu is None else self.serving_odu.copy(),
        )

    @property
    def num_orus(self) -> int:
        return self.serving.shape[0]

    @property
    def num_ues(self) -> int:
        return self.serving.shape[1]

    def primary_counts(self) -> np.ndarray:
        return np.bincount(self.primary, minlength=self.num_orus)

    def validate(self, n_antennas: int | None = None) -> None:
        """Structural invariants; capacity is only checked for the opportunistic
        strategy (the only one with a per-O-RU limit) when n_antennas is given."""
        for k in range(self.num_ues):
            if not self.serving[self.primary[k], k]:
                raise AssertionError(f"primary O-RU of UE {k} is not serving it")
            if not self.measurement[self.primary[k], k]:
                raise AssertionError(f"primary O-RU of UE {k} is outside its measurement cluster")
        if np.any(self.serving & ~self.measurement):
            raise AssertionError("serving cluster not contained in measurement cluster")
        if n_antennas is not None and self.strategy == OPPORTUNISTIC:
            loads = self.serving.sum(axis=1)
            if np.any(loads > n_antennas):
                raise AssertionError(f"O-RU capacity exceeded: max load {int(loads.max())} > {n_antennas}")
            if np.any(self.primary_counts() > n_antennas):
                raise AssertionError("more primary UEs than antennas on an O-RU")


def _ranked(gains: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Ascending ``candidates`` ordered strongest first by ``gains``; the stable
    sort leaves equal gains in ascending index order."""
    return candidates[np.argsort(-gains[candidates], kind="stable")]


def initial_clusters(
    beta_lin: np.ndarray,
    topology: geometry.Topology,
    cfg: HandoverConfig,
    n_antennas: int,
    neighbors: NeighborTable | None = None,
) -> ClusterState:
    """Form the t=0 cluster state for the configured strategy."""
    l_num, k_num = beta_lin.shape
    cfg.validate(l_num, k_num, n_antennas)
    everywhere = np.ones((l_num, k_num), dtype=bool)
    state = ClusterState(
        cfg.strategy,
        primary=np.argmax(beta_lin, axis=0),
        measurement=everywhere,
        serving=everywhere.copy(),
        reference_power=np.full(k_num, np.nan),
    )
    ues = np.arange(k_num)
    if cfg.strategy == UBIQUITOUS:
        return state
    if cfg.strategy == CELLULAR:
        state.serving_odu = np.zeros(k_num, dtype=int)
        _serve_odu(state, ues, state.primary, topology.odu_of_oru)
        return state
    neighbors = NeighborTable(topology) if neighbors is None else neighbors
    if cfg.strategy == FIXED:
        _form_fixed(state, ues, beta_lin, neighbors, cfg)
        return state
    # Opportunistic: each UE in turn claims its strongest O-RU with spare primary
    # capacity; every O-RU then fills its remaining capacity.
    counts = np.zeros(l_num, dtype=int)
    for k in ues:
        ranked = _ranked(beta_lin[:, k], np.arange(l_num))
        _track(state, k, ranked[counts[ranked] < n_antennas][0], neighbors, cfg)
        counts[state.primary[k]] += 1
    _reload_orus(state, np.arange(l_num), beta_lin, n_antennas)
    return state


def _form_fixed(state: ClusterState, ues: np.ndarray, beta_lin: np.ndarray, neighbors: NeighborTable, cfg: HandoverConfig) -> None:
    """(Re)build the fixed clusters of ``ues`` in place: strongest O-RU as primary,
    its nearest neighbors as measurement cluster, their strongest ``serving_size``
    as serving cluster, whose gain sum (ascending O-RU order) is the reference."""
    primaries = np.argmax(beta_lin[:, ues], axis=0)
    members = np.sort(neighbors.order[primaries, : cfg.measurement_size], axis=1)
    state.primary[ues] = primaries
    state.measurement[:, ues] = False
    state.measurement[members, ues[:, None]] = True
    state.serving[:, ues] = False
    for k, members_k in zip(ues, members):
        chosen = np.sort(_ranked(beta_lin[:, k], members_k)[: cfg.serving_size])
        state.serving[chosen, k] = True
        state.reference_power[k] = beta_lin[chosen, k].sum()


def _track(state: ClusterState, k: int, primary: int, neighbors: NeighborTable, cfg: HandoverConfig) -> None:
    """Make ``primary`` UE k's primary O-RU and its neighbors the UE's
    measurement cluster (opportunistic strategy)."""
    state.primary[k] = primary
    state.measurement[:, k] = False
    state.measurement[neighbors.measurement_set(primary, cfg.measurement_size), k] = True


def _reload_orus(state: ClusterState, orus: np.ndarray, gains: np.ndarray, n_antennas: int) -> None:
    """Reset the served rows of ``orus`` to their primary UEs plus the strongest
    non-primary candidates tracking them, up to the capacity limit.

    The rows are ranked in one pass: a reload reads the primaries and the
    measurement clusters, never another row's served set.
    """
    own = state.primary[None, :] == orus[:, None]  # (R, K)
    order = np.argsort(-gains[orus], axis=1, kind="stable")
    rows = np.arange(orus.size)[:, None]
    ranked = (state.measurement[orus] & ~own)[rows, order]
    ranked &= np.cumsum(ranked, axis=1) <= n_antennas - own.sum(axis=1, keepdims=True)
    own[rows, order] |= ranked
    state.serving[orus] = own


def _serve_odu(state: ClusterState, ues: np.ndarray, best_oru: np.ndarray, odu_of_oru: np.ndarray) -> None:
    """Serve (and measure) ``ues`` by every O-RU of the O-DU hosting their
    ``best_oru``, which becomes their primary (cellular strategy)."""
    state.primary[ues] = best_oru
    state.serving_odu[ues] = odu_of_oru[best_oru]
    member = odu_of_oru[:, None] == state.serving_odu[ues][None, :]
    state.serving[:, ues] = member
    state.measurement[:, ues] = member


def fixed_handover_step(
    state: ClusterState,
    beta_lin: np.ndarray,
    neighbors: NeighborTable,
    cfg: HandoverConfig,
    t: int,
):
    """One fixed-strategy monitoring step.

    Each UE compares the current summed serving-cluster gain against the value
    stored at formation; a drop of more than threshold_db rebuilds primary,
    measurement and serving clusters and resets the reference power.
    """
    state = state.copy()
    current = np.einsum("lk,lk->k", state.serving, beta_lin)
    triggered = np.flatnonzero(current < state.reference_power * 10.0 ** (-cfg.threshold_db / 10.0))
    old_primaries = state.primary[triggered]
    _form_fixed(state, triggered, beta_lin, neighbors, cfg)
    events: list[HandoverEvent] = []
    for k, old in zip(triggered.tolist(), old_primaries.tolist()):
        new = int(state.primary[k])
        events.append(HandoverEvent(t, k, FIXED_RECLUSTER, old, new))
        if new != old:
            events.append(HandoverEvent(t, k, PRIMARY_CHANGE, old, new))
    return state, events


def opportunistic_track(
    state: ClusterState,
    beta_db: np.ndarray,
    neighbors: NeighborTable,
    cfg: HandoverConfig,
    n_antennas: int,
    t: int,
):
    """One opportunistic tracking step: per-UE primary handovers, then per-O-RU
    reloads.

    A UE hands over when some other O-RU in its measurement cluster beats the
    primary's gain by more than threshold_db; the strongest such O-RU with spare
    primary capacity wins. Both affected O-RUs then re-fill their capacity. An
    O-RU reloads when a tracked, unserved UE beats one of its served UEs by more
    than threshold_db; reloads never drop primary UEs.
    """
    state = state.copy()
    events: list[HandoverEvent] = []
    threshold = cfg.threshold_db
    counts = state.primary_counts()
    # Only UE k's own iteration changes its primary and measurement cluster, so
    # the UEs with no O-RU beating the primary can be dropped up front.
    beats = state.measurement & (beta_db > beta_db[state.primary, np.arange(state.num_ues)] + threshold)
    for k in np.flatnonzero(beats.any(axis=0)).tolist():
        members = np.flatnonzero(state.measurement[:, k])
        current = int(state.primary[k])
        stronger = _ranked(beta_db[:, k], members[beta_db[members, k] > beta_db[current, k] + threshold])
        free = stronger[counts[stronger] < n_antennas]
        if free.size == 0:
            continue  # no O-RU beats the primary, or every one that does is full
        target = int(free[0])
        counts[current] -= 1
        counts[target] += 1
        _track(state, k, target, neighbors, cfg)
        # O-RUs no longer tracking the UE stop serving it immediately.
        state.serving[~state.measurement[:, k], k] = False
        _reload_orus(state, np.array([current, target]), beta_db, n_antennas)
        events.append(HandoverEvent(t, k, PRIMARY_CHANGE, current, target))
    # A reload only rewrites its own O-RU's row, so every trigger can be read
    # from the state after the handovers.
    best_candidate = np.where(state.measurement & ~state.serving, beta_db, -np.inf).max(axis=1)
    worst_served = np.where(state.serving, beta_db, np.inf).min(axis=1)
    triggered = np.flatnonzero(best_candidate > worst_served + threshold)
    _reload_orus(state, triggered, beta_db, n_antennas)
    events += [HandoverEvent(t, -1, OPPORTUNISTIC_RELOAD, l, l) for l in triggered.tolist()]
    return state, events


def cellular_handover_step(state: ClusterState, beta_lin: np.ndarray, topology: geometry.Topology, hysteresis_db: float, t: int):
    """Classical inter-O-DU handover: switch when the best outside O-RU beats the
    best in-O-DU O-RU by more than the hysteresis margin."""
    state = state.copy()
    ues = np.arange(state.num_ues)
    inside = topology.odu_of_oru[:, None] == state.serving_odu[None, :]
    best_inside = np.where(inside, beta_lin, -np.inf).max(axis=0)
    best_outside = np.argmax(np.where(inside, -np.inf, beta_lin), axis=0)
    moved = np.flatnonzero(beta_lin[best_outside, ues] > best_inside * 10.0 ** (hysteresis_db / 10.0))
    old_odus = state.serving_odu[moved]
    _serve_odu(state, moved, best_outside[moved], topology.odu_of_oru)
    events = [
        HandoverEvent(t, k, CELLULAR_HANDOVER, old, new)
        for k, old, new in zip(moved.tolist(), old_odus.tolist(), state.serving_odu[moved].tolist())
    ]
    return state, events


def strategy_step(
    state: ClusterState,
    beta_db: np.ndarray,
    beta_lin: np.ndarray,
    topology: geometry.Topology,
    neighbors: NeighborTable,
    cfg: HandoverConfig,
    n_antennas: int,
    t: int,
):
    """Dispatch one per-step cluster update for the state's strategy."""
    if state.strategy == FIXED:
        return fixed_handover_step(state, beta_lin, neighbors, cfg, t)
    if state.strategy == OPPORTUNISTIC:
        return opportunistic_track(state, beta_db, neighbors, cfg, n_antennas, t)
    if state.strategy == CELLULAR:
        return cellular_handover_step(state, beta_lin, topology, cfg.cellular_hysteresis_db, t)
    return state, []
