"""Two-stage uplink combining: local per-O-RU MMSE combiners plus a statistics-only
second stage that weights the local estimates at the UE's primary O-DU.

The second-stage weights need only expected effective gains, estimated here by
Monte Carlo over joint draws of (true channel, channel estimate). Entries for
O-RUs outside a UE's serving cluster are exactly zero throughout: a combiner is
only computed where the UE is served, and everything downstream inherits that
support. The moments are therefore formed and stored on each UE's serving
support only: a step holds the draws, O(d L K N) entries for d draws, plus the
O(K^2 S^2) moment blocks for serving clusters of at most S O-RUs, and never a
per-draw gain array over all (O-RU, UE, UE) triples.

The draws of channels, pilot observations and estimates (`draw_estimates`) do
not depend on the serving clusters, so several serving maps can score their
combiners and gains on one realization (`serving_gain_moments`);
`simulate_gain_moments` is the composition of the two for one map.

Memory bound: at most three draw-sized (d, L, K, N) complex arrays are live at
once along the draw pipeline (channels, pilot observations, estimates,
combiners); every other temporary is a fraction of one. Draws are filled and
scaled in place, and no stage writes into an array it was passed.

The second stage (`second_stage`) solves the weights and scores the SINR of all
UEs of one support size in one batch. `lsfd_weights` and `uplink_sinr` run the
same kernel on one UE's `stats_for_ue` view and give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pilots as pilots_mod
from .channel import ChannelStatistics, sample_channels
from .errors import NumericalError


def local_mmse_combiners(
    serving: np.ndarray, h_hat: np.ndarray, error_covs: np.ndarray, powers_mw: np.ndarray, sigma2_mw: float
) -> np.ndarray:
    """Local MMSE combiners of every served (O-RU, UE) pair, per draw.

    ``h_hat`` holds estimates (d, L, K, N) and ``error_covs`` their error
    covariances (L, K, N, N). The combiner of UE k at O-RU l is
    p_k (sum_{i in D_l} p_i (h_hat_i h_hat_i^H + C_i) + sigma2 I)^{-1} h_hat_k,
    with D_l the UEs O-RU l serves; it is zero where l does not serve k.
    Besides ``h_hat`` and the result, one array of its size is live at a time.
    """
    # Per-O-RU combiner Gram matrix over its served UEs, shared by all of them:
    # the conjugate of (p-weighted conj(h_hat))^T h_hat.
    weights = serving * powers_mw[None, :]  # (L, K)
    scaled_conj = h_hat.conj()
    scaled_conj *= weights[..., None]
    gram = scaled_conj.swapaxes(-1, -2) @ h_hat  # (d, L, N, N)
    del scaled_conj
    np.conjugate(gram, out=gram)
    gram += np.einsum("lk,lkmn->lmn", weights, error_covs)[None, ...]
    gram += sigma2_mw * np.eye(h_hat.shape[-1])

    combiners = np.linalg.solve(gram, h_hat.swapaxes(-1, -2)).swapaxes(-1, -2)  # (d, L, K, N)
    combiners *= weights[None, :, :, None]
    return combiners


@dataclass
class GainMoments:
    """Monte-Carlo effective-gain moments for every UE at once, on serving supports.

    With S_k the ascending serving O-RUs of UE k (s_k of them) and g_ki[l] =
    v_{l,k}^H h_{l,i}:

    mean_gain[k, l]                  = E[g_kk[l]], zero for l outside S_k
    second_moment[k, i, :s_k, :s_k]  = E[g_ki g_ki^H] restricted to S_k x S_k;
                                       the padding up to S_max is zero
    noise_diag[k, l]                 = sigma2 * E[||v_{l,k}||^2]
    share[k, i]                      = True when UEs k and i share at least one serving O-RU

    Off the support every moment is exactly zero, so the padded layout loses
    nothing; it takes K^2 S_max^2 complex entries instead of K^2 L^2.
    """

    mean_gain: np.ndarray  # (K, L) complex
    second_moment: np.ndarray  # (K, K, S_max, S_max) complex
    noise_diag: np.ndarray  # (K, L) real
    share: np.ndarray  # (K, K) bool
    serving: np.ndarray  # (L, K) bool
    n_mc: int


@dataclass
class EstimationDraws:
    """One Monte-Carlo realization of the estimation chain, independent of the clusters.

    It depends only on the channel statistics, the pilots and the random stream,
    so every serving map of a step can score its gains on the same draws.
    ``estimates`` is set to None once the last serving map has its combiners.
    """

    channels: np.ndarray  # (d, L, K, N) true channels
    estimates: np.ndarray | None  # (d, L, K, N) MMSE estimates
    error_covs: np.ndarray  # (L, K, N, N) estimation error covariances


def draw_estimates(
    stats: ChannelStatistics,
    pilots: pilots_mod.PilotConfig,
    sigma2_mw: float,
    n_mc: int,
    rng: np.random.Generator,
) -> EstimationDraws:
    """True channels from the current covariances, decorrelated pilot observations
    (shared noise per pilot slot) and their MMSE estimates, for ``n_mc`` draws."""
    if n_mc < 1:
        raise NumericalError("n_mc must be >= 1")
    filters, error_covs = pilots_mod.mmse_filters(stats.covariance, pilots, sigma2_mw)
    h = sample_channels(stats.factor, n_mc, rng)  # (d, L, K, N)
    h_hat = pilots_mod.apply_filters(filters, pilots_mod.observe_pilots(h, pilots, sigma2_mw, rng))
    return EstimationDraws(h, h_hat, error_covs)


def serving_gain_moments(
    draws: EstimationDraws,
    serving: np.ndarray,
    powers_mw: np.ndarray,
    sigma2_mw: float,
    release_estimates: bool = True,
) -> GainMoments:
    """Local combiners of one serving map on shared draws, and its effective-gain moments.

    Nothing is written into ``draws``' arrays. With ``release_estimates`` the
    estimates are dropped from ``draws`` once the combiners are formed, since
    the gains need only the true channels and the combiners; the last serving
    map of a step passes it, so the gain loop runs with two draw-sized arrays.
    The effective gains of one UE are formed on its serving support at a time.
    """
    serving = np.asarray(serving, dtype=bool)
    l_num, k_num = serving.shape
    h = draws.channels
    n_mc = h.shape[0]
    combiners = local_mmse_combiners(serving, draws.estimates, draws.error_covs, powers_mw, sigma2_mw)
    if release_estimates:
        draws.estimates = None

    supports = [np.flatnonzero(serving[:, k]) for k in range(k_num)]
    s_max = max(support.size for support in supports)
    mean_gain = np.zeros((k_num, l_num), dtype=complex)
    second_moment = np.zeros((k_num, k_num, s_max, s_max), dtype=complex)
    for k, support in enumerate(supports):
        s = support.size
        # g_k[d, l, i] = v_{l,k}^H h_{l,i} over k's serving O-RUs l.
        g_k = (h[:, support] @ combiners[:, support, k, :, None].conj())[..., 0]
        mean_gain[k, support] = g_k[:, :, k].sum(axis=0) / n_mc
        a = g_k.transpose(2, 1, 0)  # (K, s, d)
        second_moment[k, :, :s, :s] = a @ a.conj().swapaxes(-1, -2) / n_mc
    power = np.einsum("dlkn,dlkn->kl", combiners.real, combiners.real)
    power += np.einsum("dlkn,dlkn->kl", combiners.imag, combiners.imag)
    noise_diag = sigma2_mw * power / n_mc
    share = (serving.T.astype(int) @ serving.astype(int)) > 0
    return GainMoments(mean_gain, second_moment, noise_diag, share, serving, n_mc)


def simulate_gain_moments(
    serving: np.ndarray,
    stats: ChannelStatistics,
    pilots: pilots_mod.PilotConfig,
    sigma2_mw: float,
    n_mc: int,
    rng: np.random.Generator,
) -> GainMoments:
    """Joint Monte Carlo of channels, estimates, combiners, and effective gains.

    Each draw regenerates the full estimation chain (`draw_estimates`), then the
    per-O-RU local combiners over the served sets and the effective-gain moments
    (`serving_gain_moments`).
    """
    draws = draw_estimates(stats, pilots, sigma2_mw, n_mc, rng)
    return serving_gain_moments(draws, serving, pilots.power_mw, sigma2_mw)


def second_stage(moments: GainMoments, powers_mw: np.ndarray):
    """Second-stage weights and spectral efficiency of every UE at once.

    Returns (weights (K, L), se (K,)): per UE the weights of `lsfd_weights` on
    the statistics of the UEs sharing a serving O-RU, embedded into L
    dimensions, and se = log2(1 + gamma) of `uplink_sinr` charged with every
    UE's interference. se is NaN where the sample is invalid, among them every
    unserved UE, whose weights are zero.

    UEs are batched by support size s, in chunks (`_chunk_rows`), through the
    kernel of the one-UE entry points, whose arithmetic does not depend on the
    batch: a UE gets the same bits alone as in any chunk. In the weight system,
    UEs sharing no serving O-RU enter with power 0, which leaves the sequential
    interferer sum of `_denominators` unchanged.
    """
    k_num, l_num = moments.mean_gain.shape
    s_max = moments.second_moment.shape[-1]
    weights = np.zeros((k_num, l_num), dtype=complex)
    se = np.full(k_num, np.nan)
    sizes = moments.serving.sum(axis=0)
    for s in np.unique(sizes[sizes > 0]):
        group = np.flatnonzero(sizes == s)
        rows = _chunk_rows(k_num, s_max, s)
        for start in range(0, group.size, rows):
            ues = group[start : start + rows]
            supports = np.nonzero(moments.serving[:, ues].T)[1].reshape(ues.size, s)
            blocks = moments.second_moment[ues, :, :s, :s]
            noise = moments.noise_diag[ues[:, None], supports]
            mean = moments.mean_gain[ues[:, None], supports]
            p_self = powers_mw[ues]
            sharers = np.where(moments.share[ues], powers_mw, 0.0)
            a = _solve_weights(blocks, sharers, noise, mean, p_self, ues, supports)
            weights[ues[:, None], supports] = a
            se[ues] = _sinr(a, blocks, powers_mw[None, :], noise, mean, p_self)[1]
    return weights, se


def _chunk_rows(k_num: int, s_max: int, s: int) -> int:
    """UEs of support size ``s`` per chunk of `second_stage`: the two (rows, K, s, s)
    temporaries of a chunk stay within one (K, K, S_max, S_max) block array."""
    return max(1, k_num * s_max**2 // (2 * s * s))


def _denominators(blocks: np.ndarray, powers: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """sum_i powers[:, i] blocks[:, i] + diag(noise), per row of a batch.

    ``blocks`` is (G, I, s, s), ``powers`` (G, I) and ``noise`` (G, s). The
    interferer sum runs over a real view whose innermost axis holds the real
    and imaginary parts, so numpy adds the terms in order for every shape,
    s = 1 included (a complex ``sum(axis=1)`` turns pairwise there), and a term
    of power 0 leaves the sum unchanged.
    """
    terms = np.multiply(blocks, powers[:, :, None, None], order="C")
    denom = terms.view(float).sum(axis=1).view(complex)
    diag = np.arange(noise.shape[-1])
    denom[:, diag, diag] += noise
    return denom


def _solve_weights(blocks, powers, noise, mean, p_self, ues, supports) -> np.ndarray:
    """Weights p_k D_k^{-1} E[g_kk] on the support, per row, with D_k from
    `_denominators`; a singular D_k raises NumericalError naming UE and support."""
    denom = _denominators(blocks, powers, noise)
    try:
        solution = np.linalg.solve(denom, mean[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        for ue, support, matrix in zip(ues, supports, denom):
            if _singular(matrix):
                raise NumericalError(f"singular weight system of UE {ue} on O-RU support {support.tolist()}") from exc
        raise
    return p_self[:, None] * solution


def _singular(matrix: np.ndarray) -> bool:
    try:
        np.linalg.solve(matrix, matrix[:, 0])
    except np.linalg.LinAlgError:
        return True
    return False


def _sinr(a, blocks, powers, noise, mean, p_self):
    """(gamma, se) per row for weights ``a`` (G, s) on the support:
    gamma = p_k |a^H m|^2 / a^H (D_k - p_k m m^H) a with m = E[g_kk], and
    se = log2(1 + gamma). A non-positive or non-finite interference makes both NaN.

    The products are elementwise and summed along the last axis, so a row's
    bits do not depend on the others.
    """
    denom = _denominators(blocks, powers, noise)
    denom -= p_self[:, None, None] * (mean[:, :, None] * mean.conj()[:, None, :])
    signal = p_self * np.abs((a.conj() * mean).sum(axis=-1)) ** 2
    interference = (a.conj() * (denom * a[:, None, :]).sum(axis=-1)).sum(axis=-1).real
    valid = np.isfinite(interference) & (interference > 0.0)
    gamma = np.divide(signal, interference, out=np.full_like(signal, np.nan), where=valid)
    return gamma, np.log2(1.0 + gamma)


@dataclass
class EffectiveGainStats:
    """Effective-gain statistics for one UE, restricted to its interferer set."""

    ue: int
    support: np.ndarray  # serving O-RU indices, ascending
    mean_gain: np.ndarray  # (L,) complex, E[g_kk]
    second_moments: np.ndarray  # (I, s, s) E[g_ki g_ki^H] on the support, row j for interferers[j]
    noise_diag: np.ndarray  # (L,) real, diagonal of F_k
    interferers: np.ndarray  # (I,) UE indices sharing a serving O-RU (self included)


def stats_for_ue(moments: GainMoments, k: int, all_interferers: bool = False) -> EffectiveGainStats:
    """Extract one UE's view from bulk moments.

    By default the interferer set is the UEs sharing a serving O-RU with ``k``
    (the statistics a primary O-DU can collect scalably, used for the weight
    solve). With ``all_interferers=True`` every UE is included, which is what an
    achievable-rate evaluation must charge for.
    """
    support = np.flatnonzero(moments.serving[:, k])
    if all_interferers:
        interferers = np.arange(moments.share.shape[0])
    else:
        interferers = np.flatnonzero(moments.share[k])
    s = support.size
    return EffectiveGainStats(
        ue=k,
        support=support,
        mean_gain=moments.mean_gain[k],
        second_moments=moments.second_moment[k, interferers, :s, :s],
        noise_diag=moments.noise_diag[k],
        interferers=interferers,
    )


def _one_ue(stats: EffectiveGainStats, powers_mw: np.ndarray):
    """One UE as a one-row batch of the second-stage kernel:
    (blocks, powers, noise, mean, p_self)."""
    support = stats.support
    return (
        stats.second_moments[None],
        powers_mw[stats.interferers][None],
        stats.noise_diag[support][None],
        stats.mean_gain[support][None],
        powers_mw[[stats.ue]],
    )


def lsfd_weights(stats: EffectiveGainStats, powers_mw: np.ndarray) -> np.ndarray:
    """Second-stage weights maximizing the combined-SINR ratio for one UE.

    Solves p_k (sum_{i in interferers} p_i E[g_ki g_ki^H] + F_k)^{-1} E[g_kk]
    on the serving support and embeds the result into L dimensions (zeros
    elsewhere); the one-UE case of `second_stage`.
    """
    weights = np.zeros_like(stats.mean_gain)
    if stats.support.size:
        weights[stats.support] = _solve_weights(
            *_one_ue(stats, powers_mw), [stats.ue], stats.support[None]
        )[0]
    return weights


def uplink_sinr(weights: np.ndarray, stats: EffectiveGainStats, powers_mw: np.ndarray):
    """Effective uplink SINR and spectral efficiency of any weights for one UE.

    gamma = p_k |a^H E[g_kk]|^2 /
            a^H (sum_i p_i E[g_ki g_ki^H] - p_k E[g_kk] E[g_kk]^H + F_k) a
    and se = log2(1 + gamma), the one-UE case of `second_stage`'s scoring. A
    non-positive or non-finite denominator marks the sample invalid: (nan, nan)
    is returned.
    """
    gamma, se = _sinr(weights[stats.support][None], *_one_ue(stats, powers_mw))
    return float(gamma[0]), float(se[0])
