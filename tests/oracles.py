"""Scalar reference oracles for the batched kernels in ``cfmimo``.

Each function computes one quantity the slow, obvious way: one point pair, one
UE or one (O-RU, UE) pair at a time, with plain loops. The tests compare the
production kernels against them.
"""

import math

import numpy as np


def wrap_distance(a, b, grid_side: float) -> float:
    """Torus distance: minimum Euclidean distance over the 9 tile images of ``b``."""
    return min(
        math.hypot(b[0] + i * grid_side - a[0], b[1] + j * grid_side - a[1])
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
    )


def step_ue(position, speed_mps: float, heading_rad: float, ts_s: float) -> np.ndarray:
    """One UE moved speed * ts_s along its heading, not folded onto the torus."""
    delta = speed_mps * ts_s
    return np.asarray(position, dtype=float) + delta * np.array([math.cos(heading_rad), math.sin(heading_rad)])


def mmse_estimate(cov, sharer_covs, observation, tau_p: int, powers_mw, k_local: int, sigma2_mw: float):
    """MMSE estimate of one channel vector and its error covariance.

    ``sharer_covs`` holds the covariances of every UE on the target's pilot (the
    target included) and ``powers_mw`` their powers; the target is entry
    ``k_local``. Returns (h_hat, error_cov) with
    h_hat = sqrt(tau_p p_k) R Psi^{-1} y, Psi = sum_i tau_p p_i R_i + sigma2 I,
    and error_cov = R - tau_p p_k R Psi^{-1} R.
    """
    n = cov.shape[0]
    powers_mw = np.asarray(powers_mw, dtype=float)
    gram = sigma2_mw * np.eye(n, dtype=complex)
    for p_i, cov_i in zip(powers_mw, sharer_covs):
        gram = gram + tau_p * p_i * cov_i
    p_k = powers_mw[k_local]
    filt = np.sqrt(tau_p * p_k) * np.linalg.solve(gram, cov).conj().T
    error_cov = cov - np.sqrt(tau_p * p_k) * filt @ cov
    return filt @ observation, 0.5 * (error_cov + error_cov.conj().T)


def remote_serving_counts(serving, primary, odu_of_oru) -> np.ndarray:
    """(C, C) count of UEs per (serving O-DU, primary O-DU) pair of distinct O-DUs,
    one UE and one serving O-DU at a time."""
    num_odus = int(np.max(odu_of_oru)) + 1
    counts = np.zeros((num_odus, num_odus), dtype=np.int64)
    for k in range(serving.shape[1]):
        primary_odu = int(odu_of_oru[primary[k]])
        for c in np.unique(odu_of_oru[serving[:, k]]):
            if int(c) != primary_odu:
                counts[int(c), primary_odu] += 1
    return counts


def full_gain_moments(combiners, h):
    """Effective-gain moments over every O-RU, from the full per-draw gain array.

    ``combiners`` and ``h`` are (d, L, K, N) draws. Builds g[d, l, k, i] =
    v_{l,k}^H h_{l,i} and returns (mean_gain (K, L), second_moment (K, K, L, L),
    mean_abs2 (K, L), combiner_power (K, L)), with second_moment[k, i] =
    E[g_ki g_ki^H] and combiner_power[k, l] = E[||v_{l,k}||^2].
    """
    n_mc = h.shape[0]
    g = np.einsum("dlkn,dlin->dlki", combiners.conj(), h)
    mean_gain = np.einsum("dlkk->kl", g) / n_mc
    second_moment = np.einsum("dlki,dmki->kilm", g, g.conj()) / n_mc
    mean_abs2 = np.einsum("dlkk,dlkk->kl", g, g.conj()).real / n_mc
    combiner_power = np.einsum("dlkn,dlkn->kl", combiners, combiners.conj()).real / n_mc
    return mean_gain, second_moment, mean_abs2, combiner_power
