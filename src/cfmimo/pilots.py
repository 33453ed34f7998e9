"""Pilot assignment, uplink pilot observation, and MMSE channel estimation.

The simulator works directly on the decorrelated per-UE pilot observation
y = sum_{i sharing the pilot} sqrt(tau_p p_i) h_i + noise, which is a sufficient
statistic for the tau_p-symbol pilot block; the full received pilot matrix is
only ever built in test oracles, as are per-UE loops over the pilot slots: the
slot signals and the per-slot MMSE Gram add one reuse round at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal_draws
from .errors import ConfigurationError

# Bytes of the temporaries of one add in `slot_observations`.
_ADD_BYTES = 1 << 18


def assign_pilots(num_ues: int, tau_p: int) -> np.ndarray:
    """Pilot index per UE: distinct while K <= tau_p, round-robin reuse beyond."""
    if num_ues < 1 or tau_p < 1:
        raise ConfigurationError("num_ues and tau_p must be >= 1")
    return np.arange(num_ues) % tau_p


@dataclass
class PilotConfig:
    """Pilot block length, per-UE pilot index, and per-UE transmit power (mW).

    Derived once from the index: ``slot_of_ue``, each UE's pilot slot (the pilots
    in use numbered 0, 1, ... in ascending order), and ``reuse_rounds``, the (UEs,
    their slots) index runs of each round; round r holds the r-th UE of every slot.
    """

    tau_p: int
    pilot_index: np.ndarray  # (K,) int in [0, tau_p)
    power_mw: np.ndarray  # (K,) > 0

    @classmethod
    def uniform(cls, num_ues: int, tau_p: int, power_mw: float) -> "PilotConfig":
        return cls(tau_p, assign_pilots(num_ues, tau_p), np.full(num_ues, float(power_mw)))

    def __post_init__(self):
        self.slot_of_ue = np.unique(self.pilot_index, return_inverse=True)[1]
        order = np.argsort(self.slot_of_ue, kind="stable")  # by slot, then by UE
        rank = np.empty_like(order)  # UEs before k on k's slot
        rank[order] = np.arange(order.size) - np.searchsorted(self.slot_of_ue[order], self.slot_of_ue[order])
        rounds = [np.flatnonzero(rank == r) for r in range(rank.max() + 1)]
        self.reuse_rounds = [(index_run(ues), index_run(self.slot_of_ue[ues])) for ues in rounds]


def observe_pilots(
    channels: np.ndarray, pilots: PilotConfig, sigma2_mw: float, rng: np.random.Generator
) -> np.ndarray:
    """Decorrelated pilot observations for every (O-RU, UE) pair.

    ``channels`` has shape (..., L, K, N); the result matches it. UEs sharing a
    pilot see the same superposed signal and the same projected noise vector,
    drawn once per (O-RU, pilot slot) with covariance sigma2 * I: the slot
    signals of `slot_observations`, gathered per UE.
    """
    return slot_observations(channels, pilots, sigma2_mw, rng)[..., pilots.slot_of_ue, :]


def slot_observations(
    channels: np.ndarray, pilots: PilotConfig, sigma2_mw: float, rng: np.random.Generator
) -> np.ndarray:
    """Received pilot signal per (O-RU, pilot slot).

    ``channels`` has shape (..., L, K, N); the signals are (..., L, slots, N):
    noise with covariance sigma2 * I drawn once per (O-RU, slot), plus
    sqrt(tau_p p_k) h_k of every UE k on the slot, added into the noise buffer
    one reuse round at a time, in blocks of O-RUs whose (..., O-RUs, UEs, N)
    temporaries fit in _ADD_BYTES (one O-RU's at the reference scenario).
    The adds are elementwise, so the blocks leave no trace in the bits. UE k
    observes ``signals[..., pilots.slot_of_ue[k], :]``.
    """
    channels = np.asarray(channels)
    scale = np.sqrt(pilots.tau_p * pilots.power_mw).astype(complex)  # (K,), cast once, not per add
    received = complex_normal_draws(
        channels.shape[:-2] + (pilots.slot_of_ue.max() + 1, channels.shape[-1]), rng, np.sqrt(sigma2_mw / 2.0)
    )
    pair_bytes = channels[..., 0, 0, :].nbytes  # the draws of one (O-RU, UE) pair
    for ues, dest in pilots.reuse_rounds:
        amplitude = scale[ues, None]
        block = max(1, _ADD_BYTES // (pair_bytes * amplitude.shape[0]))  # O-RUs per add
        for start in range(0, channels.shape[-3], block):
            orus = slice(start, start + block)
            received[..., orus, dest, :] += amplitude * channels[..., orus, ues, :]
    return received


def index_run(index: np.ndarray):
    """``index``, or the slice it spans when it is one ascending run: indexing with that takes a view."""
    return slice(index[0], index[-1] + 1) if index.size and (index[1:] - index[:-1] == 1).all() else index


def mmse_filters(cov: np.ndarray, pilots: PilotConfig, sigma2_mw: float, needed: np.ndarray | None = None):
    """Per-(O-RU, UE) MMSE filters and error covariances.

    ``cov`` is the (L, K, N, N) covariance stack. Returns (filters, error_covs):
    h_hat = filters[l, k] @ y[l, k]. Without ``needed`` both are (L, K, N, N);
    with an (L, K) bool map ``needed`` only its pairs are solved, and both are
    (P, N, N) stacks in the order of ``np.nonzero(needed)``. The regularized
    pilot Gram matrix is shared by all UEs on one pilot slot, so it is built
    per slot, one reuse round at a time; each pair is then solved alone, so
    its bits do not depend on which other pairs are solved.

    The estimate is sqrt(tau_p p_k) R Psi^{-1} y with
    Psi = sum_i tau_p p_i R_i + sigma2 I over the UEs sharing k's pilot, and
    the error covariance is R - tau_p p_k R Psi^{-1} R.
    """
    l_num, k_num, n, _ = cov.shape
    gram = np.zeros((l_num, pilots.slot_of_ue.max() + 1, n, n), dtype=complex)
    for ues, dest in pilots.reuse_rounds:
        gram[:, dest] += (pilots.tau_p * pilots.power_mw[ues])[:, None, None] * cov[:, ues]
    gram += sigma2_mw * np.eye(n)
    orus, ues = np.nonzero(np.ones((l_num, k_num), dtype=bool) if needed is None else needed)
    pair_cov = cov[orus, ues]
    solved = np.linalg.solve(gram[orus, pilots.slot_of_ue[ues]], pair_cov)  # Psi^{-1} R per pair
    amplitude = np.sqrt(pilots.tau_p * pilots.power_mw[ues])[:, None, None]
    filters = amplitude * solved.conj().swapaxes(-1, -2)
    error_covs = pair_cov - amplitude * filters @ pair_cov
    error_covs = 0.5 * (error_covs + error_covs.conj().swapaxes(-1, -2))
    if needed is None:
        return filters.reshape(cov.shape), error_covs.reshape(cov.shape)
    return filters, error_covs


def apply_filters(filters: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Batched h_hat = W y over leading draw axes: (L,K,N,N) x (...,L,K,N), or
    (P,N,N) x (...,P,N) for P gathered pairs; each pair is one matrix-vector product."""
    return (filters @ observations[..., None])[..., 0]
