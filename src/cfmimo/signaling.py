"""Control- and data-plane signaling cost accounting.

Four counter classes are tracked per step and cumulatively:

* ``fronthaul``: samples each O-RU forwards to its O-DU (tau_u per served UE per
  coherence block);
* ``inter_odu``: samples non-primary serving O-DUs forward to a UE's primary
  O-DU (tau_u per unique contributing O-DU per block);
* ``ric``: controller messages (gain reports on fixed-strategy reclusters, one
  notification per opportunistic primary change, one per cellular handover);
* ``stats_msgs``: expected-effective-gain exchanges, one message per
  (non-primary serving O-DU, UE) per statistics epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import clustering
from .errors import ConfigurationError


@dataclass
class FrameConfig:
    """Data symbols per coherence block and blocks simulated per step."""

    tau_u: int = 100
    blocks_per_step: int = 1


@dataclass
class LedgerDelta:
    """Additive contribution of one accounting call."""

    fronthaul: np.ndarray  # (L,) samples per O-RU -> O-DU link
    inter_odu: np.ndarray  # (C, C) samples source O-DU -> destination O-DU
    ric: np.ndarray  # (C,) messages per source O-DU
    stats_msgs: np.ndarray  # (C, C) messages source O-DU -> destination O-DU

    @classmethod
    def zeros(cls, num_orus: int, num_odus: int) -> "LedgerDelta":
        return cls(
            np.zeros(num_orus, dtype=np.int64),
            np.zeros((num_odus, num_odus), dtype=np.int64),
            np.zeros(num_odus, dtype=np.int64),
            np.zeros((num_odus, num_odus), dtype=np.int64),
        )

    def __add__(self, other: "LedgerDelta") -> "LedgerDelta":
        return LedgerDelta(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(LedgerDelta)))


class SignalingLedger:
    """Monotone counters with per-step history and cumulative totals."""

    def __init__(self, num_orus: int, num_odus: int):
        self.num_orus = num_orus
        self.num_odus = num_odus
        self.cumulative = LedgerDelta.zeros(num_orus, num_odus)
        self.steps: list[tuple[int, LedgerDelta]] = []

    def record(self, step: int, delta: LedgerDelta) -> None:
        if any(np.any(getattr(delta, f.name) < 0) for f in fields(LedgerDelta)):
            raise ConfigurationError("ledger deltas must be non-negative")
        self.steps.append((step, delta))
        self.cumulative = self.cumulative + delta

    @property
    def total_fronthaul(self) -> int:
        return int(self.cumulative.fronthaul.sum())

    @property
    def total_inter_odu(self) -> int:
        return int(self.cumulative.inter_odu.sum())

    @property
    def total_ric(self) -> int:
        return int(self.cumulative.ric.sum())

    @property
    def total_stats_msgs(self) -> int:
        return int(self.cumulative.stats_msgs.sum())

    def to_csv(self) -> str:
        """Long-format export: step, counter class, source, destination, amount."""
        lines = ["step,counter,source,destination,amount"]
        for step, delta in self.steps:
            for l in np.flatnonzero(delta.fronthaul):
                lines.append(f"{step},fronthaul,{l},odu,{int(delta.fronthaul[l])}")
            for src, dst in zip(*np.nonzero(delta.inter_odu)):
                lines.append(f"{step},inter_odu,{src},{dst},{int(delta.inter_odu[src, dst])}")
            for src in np.flatnonzero(delta.ric):
                lines.append(f"{step},ric,{src},ric,{int(delta.ric[src])}")
            for src, dst in zip(*np.nonzero(delta.stats_msgs)):
                lines.append(f"{step},stats,{src},{dst},{int(delta.stats_msgs[src, dst])}")
        return "\n".join(lines) + "\n"


def _remote_serving_counts(state: clustering.ClusterState, odu_of_oru: np.ndarray) -> np.ndarray:
    """(C, C) count of UEs per (serving O-DU, primary O-DU) pair of distinct O-DUs.

    Entry [c, p] is the number of UEs whose primary O-RU sits under O-DU p and
    whose serving cluster holds at least one O-RU under O-DU c != p.
    """
    odus = np.arange(int(np.max(odu_of_oru)) + 1)
    oru_in_odu = (odu_of_oru[:, None] == odus).astype(np.int64)  # (L, C)
    primary = odu_of_oru[state.primary][:, None] == odus  # (K, C)
    serves = (state.serving.T.astype(np.int64) @ oru_in_odu) > 0  # (K, C)
    return (serves & ~primary).T.astype(np.int64) @ primary.astype(np.int64)


def account_data_plane(
    state: clustering.ClusterState, frame: FrameConfig, odu_of_oru: np.ndarray
) -> LedgerDelta:
    """Per-block sample transfers implied by the current serving map.

    Every O-RU forwards tau_u samples per served UE to its O-DU; for every UE,
    each unique serving O-DU other than the primary O-DU forwards tau_u combined
    samples to the primary O-DU.
    """
    remote = _remote_serving_counts(state, odu_of_oru)
    delta = LedgerDelta.zeros(state.num_orus, remote.shape[0])
    samples = frame.tau_u * frame.blocks_per_step
    delta.fronthaul += samples * state.serving.sum(axis=1)
    delta.inter_odu += samples * remote
    return delta


def account_control_plane(
    events, state: clustering.ClusterState, odu_of_oru: np.ndarray
) -> LedgerDelta:
    """Controller messages for one step's handover events.

    Fixed reclusters cost one gain report per measurement-cluster O-RU (the
    post-recluster cluster, attributed to the owning O-DUs); opportunistic
    primary changes and cellular handovers cost one notification each.
    """
    num_odus = int(np.max(odu_of_oru)) + 1
    delta = LedgerDelta.zeros(state.num_orus, num_odus)
    for event in events:
        if event.kind == clustering.FIXED_RECLUSTER:
            for l in np.flatnonzero(state.measurement[:, event.ue]):
                delta.ric[int(odu_of_oru[l])] += 1
        elif event.kind == clustering.PRIMARY_CHANGE and state.strategy == clustering.OPPORTUNISTIC:
            delta.ric[int(odu_of_oru[event.new])] += 1
        elif event.kind == clustering.CELLULAR_HANDOVER:
            delta.ric[event.new] += 1
    return delta


def account_statistics_exchange(
    state: clustering.ClusterState, odu_of_oru: np.ndarray
) -> LedgerDelta:
    """One expected-gain message per (non-primary serving O-DU, UE) per epoch."""
    remote = _remote_serving_counts(state, odu_of_oru)
    delta = LedgerDelta.zeros(state.num_orus, remote.shape[0])
    delta.stats_msgs += remote
    return delta
