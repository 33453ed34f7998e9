"""Two-stage uplink combining: local per-O-RU MMSE combiners plus a statistics-only
second stage that weights the local estimates at the UE's primary O-DU.

The second-stage weights need only expected effective gains, estimated here by
Monte Carlo over joint draws of (true channel, channel estimate). Entries for
O-RUs outside a UE's serving cluster are exactly zero throughout: a combiner is
only computed where the UE is served, and everything downstream inherits that
support. The moments are therefore formed and stored on each UE's serving
support only: a step holds the draws, O(d L K N) entries for d draws, plus the
O(K^2 S^2) moment blocks for serving clusters of at most S O-RUs, and never a
per-draw gain array over all (O-RU, UE, UE) triples nor a per-UE copy of the
channels: the gains of one UE at a time go into one reused (K, S, d) buffer. At
the reference scenario (n_mc=100) `gain_moments` takes ~42 ms per step for a
fixed cell and ~109 ms for a ubiquitous one (~57 and ~164 ms with the copy).

The channel and pilot-noise draws (`draw_estimates`) do not depend on the
serving clusters, so several serving maps can score their combiners
(`served_combiners`) and gains (`gain_moments`) on one realization; the MMSE
estimates are formed only for the (O-RU, UE) pairs some of these maps serve,
and each map solves its combiners and noise terms only for the pairs it
serves. The caller owns the lifetimes: it drops the estimates once the last
map has its combiners, and a map's combiners once its gains are formed.
`simulate_gain_moments` is the composition for one map.

Memory bound: two draw-sized (d, L, K, N) complex arrays are live at once, the
channels and the per-(O-RU, pilot slot) pilot signals; the observations,
estimates and combiners hold d N entries per needed or served pair, at most
L K of them. Every other temporary is a fraction of a draw-sized array. Draws
are filled and scaled in place, and no stage writes into an array it was passed.

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


@dataclass
class ServedCombiners:
    """Local combiners of the served (O-RU, UE) pairs of one serving map.

    ``values[:, column[l, k]]`` is the (d, N) combiner of UE k at O-RU l;
    ``column`` is -1 where l does not serve k, whose combiner is zero.
    """

    values: np.ndarray  # (d, S, N) complex, S served pairs, stored antenna-major
    column: np.ndarray  # (L, K) int


def served_combiners(
    serving: np.ndarray,
    estimates: np.ndarray,
    column: np.ndarray,
    error_covs: np.ndarray,
    powers_mw: np.ndarray,
    sigma2_mw: float,
) -> ServedCombiners:
    """Local MMSE combiners of the (O-RU, UE) pairs a serving map serves, per draw.

    The combiner of UE k at O-RU l is
    p_k (sum_{i in D_l} p_i (h_hat_i h_hat_i^H + C_i) + sigma2 I)^{-1} h_hat_k,
    with D_l the UEs O-RU l serves; only l's served columns are solved. O-RUs
    of equal load |D_l| are batched, so each (draw, O-RU) system is factored
    once and solved for its own served UEs only.

    ``estimates`` (d, P, N) holds the estimates of P pairs, ``estimates[:,
    column[l, k]]`` that of UE k at O-RU l (the layout of `EstimationDraws`);
    every served pair must be among them. ``error_covs`` (L, K, N, N) are the
    estimation error covariances.

    The Gram sums and the solves run on the served columns in ascending UE
    order, and the result is written antenna-major, as a dense solve over all
    K columns lays it out: each served column has the dense solve's bits, and
    so do the sums over it (the noise terms of `gain_moments`).
    """
    serving = np.asarray(serving, dtype=bool)
    loads = serving.sum(axis=1)
    k_num = serving.shape[1]
    n_mc, _, n_ant = estimates.shape
    if np.any(column[serving] < 0):
        raise ValueError("the serving map serves (O-RU, UE) pairs that were not estimated")
    weights = serving * powers_mw[None, :]  # (L, K), zero where l does not serve k
    error_terms = np.einsum("lk,lkmn->lmn", weights, error_covs)

    served_column = np.full(serving.shape, -1)
    values = np.empty((n_mc, n_ant, int(loads.sum())), dtype=complex)  # antenna-major
    start = 0
    for load in np.unique(loads[loads > 0]):
        orus = np.flatnonzero(loads == load)
        ues = np.nonzero(serving[orus])[1].reshape(orus.size, load)  # (G, load), ascending
        stop = start + ues.size
        served_column[orus[:, None], ues] = np.arange(start, stop).reshape(ues.shape)
        est = _take(estimates, column[orus[:, None], ues])  # (d, G, load, N)
        # Per-O-RU Gram over its served UEs: the conjugate of (p-weighted conj(h_hat))^T h_hat.
        terms, term_powers = est, powers_mw[ues]
        if load == 1 < k_num:
            # numpy forms a one-term product outside BLAS, with other bits than
            # the BLAS sum over K terms; a zero second term keeps it in BLAS.
            terms = np.concatenate((est, np.zeros_like(est)), axis=2)
            term_powers = np.concatenate((term_powers, np.zeros_like(term_powers)), axis=1)
        scaled_conj = terms.conj()
        scaled_conj *= term_powers[..., None]
        gram = scaled_conj.swapaxes(-1, -2) @ terms  # (d, G, N, N)
        del scaled_conj, terms
        np.conjugate(gram, out=gram)
        gram += error_terms[orus][None]
        gram += sigma2_mw * np.eye(n_ant)
        solved = np.linalg.solve(gram, est.swapaxes(-1, -2))  # (d, G, N, load)
        del est, gram
        out = values[:, :, start:stop].reshape(n_mc, n_ant, *ues.shape).swapaxes(1, 2)  # (d, G, N, load)
        np.multiply(solved, powers_mw[ues][None, :, None, :], out=out)
        start = stop
    return ServedCombiners(values.swapaxes(1, 2), served_column)


def _take(array: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``array[:, index]``; a view, not a copy, when ``index`` is one ascending run,
    as for a cell that serves every estimated pair."""
    run = pilots_mod.index_run(index.ravel())
    if isinstance(run, slice):
        return array[:, run].reshape(array.shape[:1] + index.shape + array.shape[2:])
    return array[:, index]


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


@dataclass
class EstimationDraws:
    """One Monte-Carlo realization of the estimation chain, independent of the clusters.

    The draws depend only on the channel statistics, the pilots and the random
    stream, so every serving map of a step can score its gains on them; the
    estimates are formed for the needed (O-RU, UE) pairs only, those some
    serving map of the step serves. ``estimates[:, column[l, k]]`` is the
    (d, N) estimate of UE k at O-RU l, and ``column`` is -1 for a pair not
    estimated. A driver may set ``estimates`` to None once the last serving map
    has its combiners.
    """

    channels: np.ndarray  # (d, L, K, N) true channels
    estimates: np.ndarray | None  # (d, P, N) MMSE estimates of the P needed pairs
    column: np.ndarray  # (L, K) int
    error_covs: np.ndarray  # (L, K, N, N) estimation error covariances


def draw_estimates(
    stats: ChannelStatistics,
    pilots: pilots_mod.PilotConfig,
    sigma2_mw: float,
    n_mc: int,
    rng: np.random.Generator,
    needed: np.ndarray,
) -> EstimationDraws:
    """True channels from the current covariances, decorrelated pilot observations
    (shared noise per pilot slot) and the MMSE estimates of the ``needed``
    (L, K) pairs, for ``n_mc`` draws.

    Every channel and every (O-RU, pilot slot) noise vector is drawn, so the
    random stream does not depend on ``needed``; the pilot observations are
    gathered and filtered for the needed pairs only, one pair at a time, so an
    estimate has the same bits whichever other pairs are needed.
    """
    if n_mc < 1:
        raise NumericalError("n_mc must be >= 1")
    filters, error_covs = pilots_mod.mmse_filters(stats.covariance, pilots, sigma2_mw)
    h = sample_channels(stats.factor, n_mc, rng)  # (d, L, K, N)
    received = pilots_mod.slot_observations(h, pilots, sigma2_mw, rng)
    orus, ues = np.nonzero(needed)
    observations = received[:, orus, pilots.slot_of_ue[ues]]  # (d, P, N)
    del received
    h_hat = pilots_mod.apply_filters(filters[orus, ues], observations)
    column = np.full(np.shape(needed), -1)
    column[orus, ues] = np.arange(orus.size)
    return EstimationDraws(h, h_hat, column, error_covs)


def gain_moments(
    channels: np.ndarray, combiners: ServedCombiners, serving: np.ndarray, sigma2_mw: float
) -> GainMoments:
    """Effective-gain moments of one serving map from the true (d, L, K, N)
    ``channels`` and the map's served combiners.

    Nothing is written into the arrays passed, and the channels are not copied:
    each serving O-RU l of UE k writes v_{l,k}^H h_{l,i} of every UE i into a
    (K, S_max, d) buffer that all UEs reuse, whose rows are BLAS-ready for the Grams.
    """
    serving = np.asarray(serving, dtype=bool)
    l_num, k_num = serving.shape
    n_mc = channels.shape[0]
    supports = [np.flatnonzero(serving[:, k]) for k in range(k_num)]
    s_max = max(support.size for support in supports)
    mean_gain = np.zeros((k_num, l_num), dtype=complex)
    second_moment = np.zeros((k_num, k_num, s_max, s_max), dtype=complex)
    gains = np.zeros((k_num, s_max, n_mc), dtype=complex)  # [i, j, d]: g_ki at O-RU S_k[j]
    for k, support in enumerate(supports):
        s = support.size
        v_k = combiners.values[:, combiners.column[support, k], :, None].conj()  # (d, s, N, 1)
        for j, l in enumerate(support):
            np.matmul(channels[:, l], v_k[:, j], out=gains[:, j].T[..., None])
        mean_gain[k, support] = gains[k, :s].sum(axis=-1) / n_mc
        # numpy sends a one-row Gram to BLAS's dot, whose rounding depends on the stride; the draws
        # go K entries apart there, as in the (d, s, K) gains of oracles.gathered_gain_moments.
        a = np.ascontiguousarray(gains[:, 0].T).T[:, None] if s == 1 else gains[:, :s]
        np.divide(a @ a.conj().swapaxes(-1, -2), n_mc, out=second_moment[k, :, :s, :s])
    # Summed over draws, then antennas, per served pair (the values are antenna-major).
    power = np.einsum("dsn,dsn->s", combiners.values.real, combiners.values.real)
    power += np.einsum("dsn,dsn->s", combiners.values.imag, combiners.values.imag)
    orus, ues = np.nonzero(serving)
    noise_diag = np.zeros((k_num, l_num))
    noise_diag[ues, orus] = sigma2_mw * power[combiners.column[orus, ues]] / n_mc
    share = (serving.T.astype(int) @ serving.astype(int)) > 0
    return GainMoments(mean_gain, second_moment, noise_diag, share, serving)


def simulate_gain_moments(
    serving: np.ndarray,
    stats: ChannelStatistics,
    pilots: pilots_mod.PilotConfig,
    sigma2_mw: float,
    n_mc: int,
    rng: np.random.Generator,
) -> GainMoments:
    """Joint Monte Carlo of channels, estimates, combiners, and effective gains.

    Each draw regenerates the estimation chain for the served pairs
    (`draw_estimates`), then the per-O-RU local combiners over the served sets
    (`served_combiners`) and the effective-gain moments (`gain_moments`).
    """
    draws = draw_estimates(stats, pilots, sigma2_mw, n_mc, rng, serving)
    combiners = served_combiners(serving, draws.estimates, draws.column, draws.error_covs, pilots.power_mw, sigma2_mw)
    draws.estimates = None  # the gains need only the true channels and the combiners
    return gain_moments(draws.channels, combiners, serving, sigma2_mw)


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
