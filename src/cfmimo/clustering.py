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

    def validate(self, num_orus: int) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.threshold_db < 0 or self.cellular_hysteresis_db < 0:
            raise ConfigurationError("hysteresis thresholds must be >= 0 dB")
        if not (1 <= self.serving_size <= self.measurement_size <= num_orus):
            raise ConfigurationError(
                "need 1 <= serving_size <= measurement_size <= num_orus "
                f"(got {self.serving_size}, {self.measurement_size}, {num_orus})"
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
        dist = geometry.wrap_distance_matrix(
            topology.oru_positions, topology.oru_positions, topology.grid_side_m
        )
        l_num = topology.num_orus
        self.order = np.stack(
            [np.lexsort((np.arange(l_num), dist[l])) for l in range(l_num)]
        )

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

    def serving_cluster(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.serving[:, k])

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


def select_primary(gains_k: np.ndarray) -> int:
    """Strongest O-RU for one UE (first index wins on ties)."""
    if len(gains_k) == 0:
        raise ConfigurationError("need at least one O-RU")
    return int(np.argmax(gains_k))


def fixed_cluster(beta_lin_k: np.ndarray, measurement_idx: np.ndarray, serving_size: int):
    """Strongest ``serving_size`` O-RUs of the measurement cluster, by gain.

    Returns (serving indices ascending, reference power = linear gain sum).
    Ties resolve to the lowest O-RU index.
    """
    if serving_size > measurement_idx.size:
        raise ConfigurationError("serving_size exceeds the measurement cluster")
    members = np.sort(measurement_idx)
    ranked = members[np.argsort(-beta_lin_k[members], kind="stable")]
    chosen = np.sort(ranked[:serving_size])
    return chosen, float(beta_lin_k[chosen].sum())


def _top_candidates(beta_l: np.ndarray, candidates: np.ndarray, count: int) -> np.ndarray:
    """Strongest ``count`` candidate UEs for one O-RU, ties by UE index."""
    if count <= 0 or candidates.size == 0:
        return candidates[:0]
    ranked = candidates[np.argsort(-beta_l[candidates], kind="stable")]
    return ranked[:count]


def _measurement_mask(primaries: np.ndarray, neighbors: NeighborTable, size: int) -> np.ndarray:
    l_num = neighbors.order.shape[0]
    mask = np.zeros((l_num, primaries.size), dtype=bool)
    for k, p in enumerate(primaries):
        mask[neighbors.measurement_set(int(p), size), k] = True
    return mask


def _fixed_state_for_ue(state: ClusterState, k: int, beta_lin: np.ndarray, neighbors: NeighborTable, cfg: HandoverConfig) -> None:
    """(Re)build UE k's fixed-strategy clusters in place: primary by argmax,
    measurement cluster around it, serving cluster by gain, reference power."""
    primary = select_primary(beta_lin[:, k])
    meas = neighbors.measurement_set(primary, cfg.measurement_size)
    serving, ref_power = fixed_cluster(beta_lin[:, k], meas, cfg.serving_size)
    state.primary[k] = primary
    state.measurement[:, k] = False
    state.measurement[meas, k] = True
    state.serving[:, k] = False
    state.serving[serving, k] = True
    state.reference_power[k] = ref_power


def initial_clusters(
    beta_lin: np.ndarray,
    topology: geometry.Topology,
    cfg: HandoverConfig,
    n_antennas: int,
    neighbors: NeighborTable | None = None,
) -> ClusterState:
    """Form the t=0 cluster state for the configured strategy."""
    if cfg.strategy in (UBIQUITOUS, CELLULAR):
        return baseline_assign(cfg.strategy, beta_lin, topology)
    if neighbors is None:
        neighbors = NeighborTable(topology)
    cfg.validate(topology.num_orus)
    l_num, k_num = beta_lin.shape
    if cfg.strategy == FIXED:
        state = ClusterState(
            FIXED,
            primary=np.zeros(k_num, dtype=int),
            measurement=np.zeros((l_num, k_num), dtype=bool),
            serving=np.zeros((l_num, k_num), dtype=bool),
            reference_power=np.full(k_num, np.nan),
        )
        for k in range(k_num):
            _fixed_state_for_ue(state, k, beta_lin, neighbors, cfg)
        return state
    return opportunistic_init(beta_lin, topology, n_antennas, cfg, neighbors)


def opportunistic_init(
    beta_lin: np.ndarray,
    topology: geometry.Topology,
    n_antennas: int,
    cfg: HandoverConfig,
    neighbors: NeighborTable | None = None,
) -> ClusterState:
    """Initial autonomous cluster formation.

    Every UE first claims its strongest O-RU as primary; when an O-RU already
    holds ``n_antennas`` primary UEs, later UEs (ascending index) fall through to
    their next-strongest O-RU with spare primary capacity. Each O-RU then fills
    its remaining capacity with the strongest non-primary UEs whose measurement
    cluster contains it.
    """
    if neighbors is None:
        neighbors = NeighborTable(topology)
    l_num, k_num = beta_lin.shape
    if k_num > l_num * n_antennas:
        raise ConfigurationError(
            f"{k_num} UEs cannot all obtain a primary O-RU: capacity is {l_num * n_antennas}"
        )
    primary = np.zeros(k_num, dtype=int)
    counts = np.zeros(l_num, dtype=int)
    for k in range(k_num):
        ranked = np.argsort(-beta_lin[:, k], kind="stable")
        chosen = next(int(l) for l in ranked if counts[l] < n_antennas)
        primary[k] = chosen
        counts[chosen] += 1
    measurement = _measurement_mask(primary, neighbors, cfg.measurement_size)
    serving = np.zeros((l_num, k_num), dtype=bool)
    serving[primary, np.arange(k_num)] = True
    for l in range(l_num):
        _reload_oru(serving, l, beta_lin, measurement, primary, n_antennas)
    return ClusterState(
        OPPORTUNISTIC,
        primary=primary,
        measurement=measurement,
        serving=serving,
        reference_power=np.full(k_num, np.nan),
    )


def _reload_oru(
    serving: np.ndarray,
    l: int,
    beta: np.ndarray,
    measurement: np.ndarray,
    primary: np.ndarray,
    n_antennas: int,
) -> None:
    """Reset O-RU l's served set to its primary UEs plus the strongest
    non-primary candidates tracking it, up to the capacity limit."""
    own_primaries = np.flatnonzero(primary == l)
    spare = n_antennas - own_primaries.size
    candidates = np.flatnonzero(measurement[l] & (primary != l))
    picked = _top_candidates(beta[l], candidates, spare)
    serving[l, :] = False
    serving[l, own_primaries] = True
    serving[l, picked] = True


def baseline_assign(strategy: str, beta_lin: np.ndarray, topology: geometry.Topology) -> ClusterState:
    """All-serve (ubiquitous) or single-O-DU (cellular) assignment."""
    l_num, k_num = beta_lin.shape
    if strategy == UBIQUITOUS:
        return ClusterState(
            UBIQUITOUS,
            primary=np.argmax(beta_lin, axis=0),
            measurement=np.ones((l_num, k_num), dtype=bool),
            serving=np.ones((l_num, k_num), dtype=bool),
            reference_power=np.full(k_num, np.nan),
        )
    if strategy != CELLULAR:
        raise ConfigurationError(f"baseline strategy must be ubiquitous or cellular, got {strategy!r}")
    best_oru = np.argmax(beta_lin, axis=0)
    serving_odu = topology.odu_of_oru[best_oru]
    serving = topology.odu_of_oru[:, None] == serving_odu[None, :]
    return ClusterState(
        CELLULAR,
        primary=best_oru.astype(int),
        measurement=serving.copy(),
        serving=serving,
        reference_power=np.full(k_num, np.nan),
        serving_odu=serving_odu.astype(int),
    )


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
    events: list[HandoverEvent] = []
    current = np.einsum("lk,lk->k", state.serving, beta_lin)
    triggered = current < state.reference_power * 10.0 ** (-cfg.threshold_db / 10.0)
    for k in np.flatnonzero(triggered):
        old_primary = int(state.primary[k])
        _fixed_state_for_ue(state, int(k), beta_lin, neighbors, cfg)
        events.append(HandoverEvent(t, int(k), FIXED_RECLUSTER, old_primary, int(state.primary[k])))
        if state.primary[k] != old_primary:
            events.append(HandoverEvent(t, int(k), PRIMARY_CHANGE, old_primary, int(state.primary[k])))
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
    for k in range(state.num_ues):
        members = np.flatnonzero(state.measurement[:, k])
        current = int(state.primary[k])
        gains = beta_db[members, k]
        best = members[np.argmax(gains)]
        if best == current or beta_db[best, k] <= beta_db[current, k] + threshold:
            continue
        ranked = members[np.argsort(-gains, kind="stable")]
        target = -1
        for cand in ranked:
            if cand == current or beta_db[cand, k] <= beta_db[current, k] + threshold:
                continue
            if counts[cand] < n_antennas:
                target = int(cand)
                break
        if target < 0:
            continue  # every sufficiently stronger O-RU is full of primary UEs
        counts[current] -= 1
        counts[target] += 1
        state.primary[k] = target
        new_meas = neighbors.measurement_set(target, cfg.measurement_size)
        state.measurement[:, k] = False
        state.measurement[new_meas, k] = True
        # O-RUs no longer tracking the UE stop serving it immediately.
        state.serving[~state.measurement[:, k], k] = False
        _reload_oru(state.serving, current, beta_db, state.measurement, state.primary, n_antennas)
        _reload_oru(state.serving, target, beta_db, state.measurement, state.primary, n_antennas)
        events.append(HandoverEvent(t, k, PRIMARY_CHANGE, current, target))
    for l in range(state.num_orus):
        served = np.flatnonzero(state.serving[l])
        candidates = np.flatnonzero(state.measurement[l] & ~state.serving[l])
        if served.size == 0 or candidates.size == 0:
            continue
        if beta_db[l, candidates].max() > beta_db[l, served].min() + threshold:
            _reload_oru(state.serving, l, beta_db, state.measurement, state.primary, n_antennas)
            events.append(HandoverEvent(t, -1, OPPORTUNISTIC_RELOAD, l, l))
    return state, events


def cellular_handover_step(state: ClusterState, beta_lin: np.ndarray, topology: geometry.Topology, hysteresis_db: float, t: int):
    """Classical inter-O-DU handover: switch when the best outside O-RU beats the
    best in-O-DU O-RU by more than the hysteresis margin."""
    state = state.copy()
    events: list[HandoverEvent] = []
    margin = 10.0 ** (hysteresis_db / 10.0)
    for k in range(state.num_ues):
        inside = topology.odu_of_oru == state.serving_odu[k]
        best_inside = beta_lin[inside, k].max()
        outside_gains = np.where(inside, -np.inf, beta_lin[:, k])
        best_outside_oru = int(np.argmax(outside_gains))
        if beta_lin[best_outside_oru, k] > best_inside * margin:
            old = int(state.serving_odu[k])
            new = int(topology.odu_of_oru[best_outside_oru])
            state.serving_odu[k] = new
            member = topology.odu_of_oru == new
            state.serving[:, k] = member
            state.measurement[:, k] = member
            state.primary[k] = best_outside_oru
            events.append(HandoverEvent(t, k, CELLULAR_HANDOVER, old, new))
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
