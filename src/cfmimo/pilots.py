"""Pilot assignment, uplink pilot observation, and MMSE channel estimation.

The simulator works directly on the decorrelated per-UE pilot observation
y = sum_{i sharing the pilot} sqrt(tau_p p_i) h_i + noise, which is a sufficient
statistic for the tau_p-symbol pilot block; the full received pilot matrix is
only ever built in test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import complex_normal_draws
from .errors import ConfigurationError


def assign_pilots(num_ues: int, tau_p: int) -> np.ndarray:
    """Pilot index per UE: distinct while K <= tau_p, round-robin reuse beyond."""
    if num_ues < 1 or tau_p < 1:
        raise ConfigurationError("num_ues and tau_p must be >= 1")
    return np.arange(num_ues) % tau_p


@dataclass
class PilotConfig:
    """Pilot block length, per-UE pilot index, and per-UE transmit power (mW)."""

    tau_p: int
    pilot_index: np.ndarray  # (K,) int in [0, tau_p)
    power_mw: np.ndarray  # (K,) > 0

    @classmethod
    def uniform(cls, num_ues: int, tau_p: int, power_mw: float) -> "PilotConfig":
        return cls(tau_p, assign_pilots(num_ues, tau_p), np.full(num_ues, float(power_mw)))


def observe_pilots(
    channels: np.ndarray, pilots: PilotConfig, sigma2_mw: float, rng: np.random.Generator
) -> np.ndarray:
    """Decorrelated pilot observations for every (O-RU, UE) pair.

    ``channels`` has shape (..., L, K, N); the result matches it. UEs sharing a
    pilot see the same superposed signal and the same projected noise vector,
    drawn once per (O-RU, pilot slot) with covariance sigma2 * I: the slot
    signals of `slot_observations`, gathered per UE.
    """
    received, slot_of_ue = slot_observations(channels, pilots, sigma2_mw, rng)
    return received[..., slot_of_ue, :]


def slot_observations(
    channels: np.ndarray, pilots: PilotConfig, sigma2_mw: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Received pilot signal per (O-RU, pilot slot) and the slot of every UE.

    ``channels`` has shape (..., L, K, N); the signals are (..., L, slots, N):
    noise with covariance sigma2 * I drawn once per (O-RU, slot), plus
    sqrt(tau_p p_k) h_k of every UE k on the slot. Each UE's scaled channel is
    added into its slot of the noise buffer, so besides ``channels`` only the
    result is live. UE k observes ``signals[..., slot_of_ue[k], :]``.
    """
    channels = np.asarray(channels)
    slots, slot_of_ue = np.unique(pilots.pilot_index, return_inverse=True)
    scale = np.sqrt(pilots.tau_p * pilots.power_mw)  # (K,)
    received = complex_normal_draws(channels.shape[:-2] + (slots.size, channels.shape[-1]), rng)
    received *= np.sqrt(sigma2_mw / 2.0)
    for k, slot in enumerate(slot_of_ue):
        received[..., slot, :] += scale[k] * channels[..., k, :]
    return received, slot_of_ue


def mmse_filters(cov: np.ndarray, pilots: PilotConfig, sigma2_mw: float):
    """Precompute per-(O-RU, UE) MMSE filters and error covariances.

    ``cov`` is the (L, K, N, N) covariance stack. Returns (filters, error_covs)
    of the same shape: h_hat = filters[l, k] @ y[l, k]. The regularized pilot
    Gram matrix is shared by all UEs on one pilot slot, so it is built per slot.

    The estimate is sqrt(tau_p p_k) R Psi^{-1} y with
    Psi = sum_i tau_p p_i R_i + sigma2 I over the UEs sharing k's pilot, and
    the error covariance is R - tau_p p_k R Psi^{-1} R.
    """
    l_num, k_num, n, _ = cov.shape
    slots, slot_of_ue = np.unique(pilots.pilot_index, return_inverse=True)
    tau_p = pilots.tau_p
    gram = np.zeros((l_num, slots.size, n, n), dtype=complex)
    for k in range(k_num):
        gram[:, slot_of_ue[k]] += tau_p * pilots.power_mw[k] * cov[:, k]
    gram += sigma2_mw * np.eye(n)
    solved = np.linalg.solve(gram[:, slot_of_ue], cov)  # Psi^{-1} R per (l, k)
    filters = np.sqrt(tau_p * pilots.power_mw)[None, :, None, None] * solved.conj().swapaxes(-1, -2)
    error_covs = cov - np.sqrt(tau_p * pilots.power_mw)[None, :, None, None] * filters @ cov
    error_covs = 0.5 * (error_covs + error_covs.conj().swapaxes(-1, -2))
    return filters, error_covs


def apply_filters(filters: np.ndarray, observations: np.ndarray) -> np.ndarray:
    """Batched h_hat = W y over leading draw axes: (L,K,N,N) x (...,L,K,N), or
    (P,N,N) x (...,P,N) for P gathered pairs; each pair is one matrix-vector product."""
    return (filters @ observations[..., None])[..., 0]
