"""Two-stage uplink combining: local per-O-RU MMSE combiners plus a statistics-only
second stage that weights the local estimates at the UE's primary O-DU.

The second-stage weights need only expected effective gains, estimated here by
Monte Carlo over joint draws of (true channel, channel estimate). Entries for
O-RUs outside a UE's serving cluster are exactly zero throughout: a combiner is
only computed where the UE is served, and everything downstream inherits that
support. The moments are therefore formed and stored on each UE's serving
support only, and only the two that the second stage solves: a step holds the
draws, O(d L K N) entries for d draws, plus two (K, S, S) moments for serving
clusters of at most S O-RUs. The UEs of one support size s are formed in
batches of bounded bytes (one UE at the reference scenario, up to 12 at
n_mc=4), and a batch's (K, s, s) interferer Grams are reduced into its
moments as soon as they are formed, so the K^2 S^2 interferer blocks are never
held at once, nor is a per-draw gain array over all (O-RU, UE, UE) triples or
a per-UE copy of the channels.

The channel and pilot-noise draws (`draw_estimates`) do not depend on the
serving clusters, so several serving maps can score their combiners
(`served_combiners`) and gains (`gain_moments`) on one realization; the MMSE
filters and estimates are formed only for the (O-RU, UE) pairs some of these
maps serve, and each map solves its combiners and noise terms only for the
pairs it serves. A map's combiners carry its served pairs and the draws'
channels, which `gain_moments` reads from them. The last map of a step solves
its combiners into the estimates' buffer, and the draws then drop their
estimates; the caller drops a map's combiners once its gains are formed.
`simulate_gain_moments` is the composition for one map.

Memory bound: one draw-sized (d, L, K, N) complex array is live, the
channels, which are drawn and mixed in place, and one (d, P, N) pair buffer
for the P <= L K needed pairs: the observations (the slot signals of the
observed (O-RU, pilot slot) entries, whose rows alone of the slot noise are
kept, gathered per pair where pairs share an entry), into which the estimates
are filtered and the last map's combiners solved; other maps' combiners take
a fresh (d, S, N) buffer. The pilot Grams, filters and error covariances take
N^2 per observed entry or needed pair. Every other temporary is a fraction of
a draw-sized array: the draws are made in chunks, and mixed and filtered in
blocks, of about 128 kB (one draw at least), `served_combiners` solves in
blocks of draws of about _SOLVE_BYTES (1 MiB), and `gain_moments` in batches
of _BATCH_BYTES, except that its Gram buffer holds one UE's (K, s, s) Grams
even when they alone pass the batch bound; it outgrows a draw only when
S_max^2 > d L N (ubiquitous serving at small n_mc). Draws are filled and
scaled in place; only the last map's combiners are written into an array a
stage was passed.

The second stage (`second_stage`) solves the weights and scores the SINR of all
UEs of one support size in one batch, straight from their (G, s, s) moments.
`lsfd_weights` and `uplink_sinr` run the same kernel on one UE's
`stats_for_ue` view and give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pilots as pilots_mod
from .channel import ChannelStatistics, sample_channels
from .errors import NumericalError

# Bytes of gains and Grams per `gain_moments` batch of at least one UE: one UE at the reference
# scenario (n_mc=100), up to 12 UEs at n_mc=4 with K=40. Larger batches are mapped afresh on every
# call in the forked workers of a desk-scale campaign (at 1 MiB, ~180 page faults more per call).
_BATCH_BYTES = 1 << 18
# Bytes of Grams, right-hand sides and their temporaries per block of draws in `served_combiners`:
# all 100 draws of most O-RU groups of the reference scenario's fixed clusters, 3 draws of the 36
# O-RUs that serve all 40 UEs under ubiquitous serving. Smaller blocks slow the reference scenario;
# larger ones raise a desk-scale campaign's peak memory.
_SOLVE_BYTES = 1 << 20


@dataclass
class ServedCombiners:
    """Local combiners of the served (O-RU, UE) pairs of one serving map.

    ``values[:, column[l, k]]`` is the (d, N) combiner of UE k at O-RU l;
    ``column`` is -1 where l does not serve k, whose combiner is zero, so
    ``column >= 0`` is the serving map. ``values`` is pair-major: a fresh
    buffer of the served pairs in ``np.nonzero`` order, or the draws'
    estimates buffer, which the last map of a step owns.
    """

    values: np.ndarray  # (d, S, N) or (d, P, N) complex, pair-major
    column: np.ndarray  # (L, K) int
    channels: np.ndarray  # (d, L, K, N) the draws' true channels, not a copy


def served_combiners(
    serving: np.ndarray, draws: EstimationDraws, powers_mw: np.ndarray, sigma2_mw: float, into_estimates: bool = False
) -> ServedCombiners:
    """Local MMSE combiners of the (O-RU, UE) pairs a serving map serves, per draw.

    The combiner of UE k at O-RU l is
    p_k (sum_{i in D_l} p_i (h_hat_i h_hat_i^H + C_i) + sigma2 I)^{-1} h_hat_k,
    with D_l the UEs O-RU l serves; only l's served columns are solved.

    ``draws`` supplies the estimates and error covariances of the estimated
    pairs (`EstimationDraws`); every served pair must be among them, and only
    ``into_estimates`` writes into them. Each O-RU's error term
    sum_{i in D_l} p_i C_li is summed over its served UEs in ascending order.

    The O-RUs of equal load |D_l| form one group, whose systems are laid out
    batch-last: (N, N, G, b) Grams and (N, load, G, b) right-hand sides for
    its G O-RUs and a block of b draws. The Grams are summed term by term in
    ascending UE order and every system is solved by one LDL^H elimination
    vectorized over the trailing axes (`_hpd_solve`). All arithmetic is
    elementwise over the systems, so a combiner's bits depend neither on the
    block nor on the other O-RUs of its group. Blocks of draws hold at most
    about _SOLVE_BYTES of Grams, right-hand sides and temporaries (at least
    one draw). A singular system raises NumericalError naming its O-RU and
    draw. The combiners go into a fresh buffer, or with ``into_estimates`` (the
    last map of a step) into the estimates' columns of the served pairs, after
    which the draws drop their estimates: a pair's estimate is read only by its
    own O-RU's systems, so each block overwrites exactly the columns it gathered.
    """
    serving = np.asarray(serving, dtype=bool)
    n_mc, _, n_ant = draws.estimates.shape
    if np.any(draws.column[serving] < 0):
        raise ValueError("the serving map serves (O-RU, UE) pairs that were not estimated")

    values = draws.estimates if into_estimates else np.empty((n_mc, np.count_nonzero(serving), n_ant), dtype=complex)
    ranks = serving.cumsum().reshape(serving.shape) - 1  # np.nonzero order
    served_column = np.where(serving, draws.column if into_estimates else ranks, -1)
    for load, group, group_ues in _equal_rows(serving):  # group_ues: (G, load)
        pairs = draws.column[group[:, None], group_ues].T  # (load, G)
        targets = served_column[group[:, None], group_ues].T
        powers = powers_mw[group_ues].T[..., None]  # (load, G, 1)
        # sum_{i in D_l} p_i C_li + sigma2 I as (N, N, G, 1); accumulate adds in ascending i.
        error = np.add.accumulate(powers[..., None] * draws.error_covs[pairs], axis=0)[-1]
        fixed = (error + sigma2_mw * np.eye(n_ant)).transpose(1, 2, 0)[..., None]
        step = max(1, _SOLVE_BYTES // (group.size * (2 * n_ant + 3 * load) * n_ant * 16))  # draws per block
        for first in range(0, n_mc, step):
            block = slice(first, first + step)
            est = draws.estimates[block][:, pairs].transpose(3, 1, 2, 0)  # (N, load, G, b)
            solved = np.multiply(est, powers, out=np.empty(est.shape, dtype=complex))  # p_k h_k, solved in place
            conj_est = np.conjugate(est, out=np.empty(est.shape, dtype=complex))
            del est  # the gather goes before the Gram is formed, its conjugate before the solve
            gram = _gram(solved, conj_est, fixed)
            del conj_est
            _hpd_solve(gram, solved, group, first)
            values[block, targets] = solved.transpose(3, 1, 2, 0)
    if into_estimates:
        draws.estimates = None
    return ServedCombiners(values, served_column, draws.channels)


def _equal_rows(mask: np.ndarray):
    """(count, rows, members) for each nonzero count of True entries in the rows of a 2-D bool
    ``mask``, ascending: the ascending rows with that count, and their (rows, count) columns of
    the True entries, ascending along each row. The distinct counts come from ``np.bincount``:
    ``np.unique`` would import numpy.ma into every process on its first episode."""
    counts = mask.sum(axis=1)
    for count in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        rows = np.flatnonzero(counts == count)
        yield count, rows, np.nonzero(mask[rows])[1].reshape(rows.size, count)


def _gram(scaled, conj_est, fixed):
    """The (N, N, G, b) Grams sum_i p_i h_i h_i^H + ``fixed`` from the (N, load, G, b)
    ``scaled`` p_i h_i and ``conj_est`` conj(h_i), summed in ascending i."""
    gram = np.empty(fixed.shape[:2] + scaled.shape[2:], dtype=complex)
    gram[...] = fixed
    term = np.empty_like(gram)
    for i in range(scaled.shape[1]):
        np.multiply(scaled[:, None, i], conj_est[None, :, i], out=term)
        gram += term
    return gram


def _hpd_solve(gram, x, orus, first_draw):
    """Solve each (N, N) Hermitian positive-definite system of the (N, N, G, b)
    ``gram`` in place for its (N, load) right-hand sides in ``x`` (N, load, G, b).

    The LDL^H factorization without pivoting, backward stable for such
    matrices, runs on the trailing axes elementwise, so a system's bits do not
    depend on the others; the operands of every product have equal ndim, as
    numpy rounds a lone complex element broadcast across dimensions otherwise.
    Both arrays must be C-contiguous; ``gram`` is overwritten. A pivot whose
    real part is not above N eps times its system's largest diagonal entry
    (NaN and infinite pivots included) raises NumericalError naming the O-RU
    (``orus[g]``) and the draw (``first_draw + b``).
    """
    n_ant, _, _, n_draws = gram.shape
    gram = gram.reshape(n_ant, n_ant, -1)  # views: one axis over the systems
    x = x.reshape(n_ant, x.shape[1], -1)
    relative = n_ant * np.finfo(float).eps
    floor = np.diagonal(gram).real.max(axis=-1) * relative
    inverse = np.empty((n_ant, gram.shape[-1]), dtype=complex)  # D^-1
    for k in range(n_ant):
        pivot = gram[k, k].real
        if not (pivot > floor).all():
            g, b = divmod(np.flatnonzero(~(pivot > floor))[0], n_draws)
            raise NumericalError(
                f"singular combiner system of O-RU {orus[g]} in draw {first_draw + b}: pivot "
                f"{pivot[g * n_draws + b]:.3g} is not above {n_ant} eps times its largest diagonal entry "
                f"{floor[g * n_draws + b] / relative:.3g}"
            )
        np.divide(1.0, pivot, out=inverse[k])
        if k + 1 < n_ant:
            column = gram[k + 1 :, k]
            conj_column = column.conj()
            column *= inverse[None, k]  # column k of L
            gram[k + 1 :, k + 1 :] -= column[:, None] * conj_column[None]
    for k in range(n_ant - 1):  # L y = x
        x[k + 1 :] -= gram[k + 1 :, k, None] * x[None, k]
    x *= inverse[:, None]
    for k in range(n_ant - 1, 0, -1):  # L^H x = D^-1 y
        x[:k] -= gram[k, :k, None].conj() * x[None, k]


@dataclass
class GainMoments:
    """What the second stage solves, for every UE at once, on serving supports.

    With S_k the ascending serving O-RUs of UE k (s_k of them), g_ki[l] =
    v_{l,k}^H h_{l,i}, p_i the transmit powers given to `gain_moments` and
    F_k = diag(sigma2 E[||v_{l,k}||^2]) on S_k:

    mean_gain[k, l]               = E[g_kk[l]], zero for l outside S_k
    second_moment[k, :s_k, :s_k]  = sum over every UE i of p_i E[g_ki g_ki^H] + F_k,
                                    the denominator of the SINR
    sharer_moment[k, :s_k, :s_k]  = the same sum over the UEs sharing a serving
                                    O-RU with k (k included), which the weights solve

    Both moments are restricted to S_k x S_k, and the padding up to S_max is
    zero; each takes K S_max^2 complex entries.
    """

    mean_gain: np.ndarray  # (K, L) complex
    second_moment: np.ndarray  # (K, S_max, S_max) complex
    sharer_moment: np.ndarray  # (K, S_max, S_max) complex
    serving: np.ndarray  # (L, K) bool


@dataclass
class EstimationDraws:
    """One Monte-Carlo realization of the estimation chain, independent of the clusters.

    The draws depend only on the channel statistics, the pilots and the random
    stream, so every serving map of a step can score its gains on them; the
    MMSE filters, error covariances and estimates are formed for the needed
    (O-RU, UE) pairs only, those some serving map of the step serves.
    ``estimates[:, column[l, k]]`` is the (d, N) estimate of UE k at O-RU l
    and ``error_covs[column[l, k]]`` its (N, N) error covariance; ``column``
    is -1 for a pair not estimated. Both stacks hold the P needed pairs in
    ``np.nonzero(needed)`` order, so only the channels span every pair. The
    estimates take the observations' buffer, and the last serving map solves its
    combiners into it (`served_combiners` with ``into_estimates``), dropping them.
    """

    channels: np.ndarray  # (d, L, K, N) true channels
    estimates: np.ndarray | None  # (d, P, N) MMSE estimates of the P needed pairs
    column: np.ndarray  # (L, K) int
    error_covs: np.ndarray  # (P, N, N) estimation error covariances of the needed pairs


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
    random stream does not depend on ``needed``; the channels are the one
    draw-sized array (`sample_channels` mixes them in place). The pilot stage
    is formed on the needed pairs and on the (O-RU, slot) entries they observe
    only: the MMSE filters and error covariances are solved from an (E, N, N)
    stack of pilot Grams (`pilots.mmse_filters`) and kept as (P, N, N) stacks,
    and only the observed entries' noise rows are kept as they are drawn, each
    entry's slot signal added once and read by its needed pairs
    (`pilots.observe_pilots`). Each pair is filtered alone, so an estimate and
    its error covariance have the same bits whichever other pairs are needed.
    The estimates are filtered into the observations' (d, P, N) buffer in place.
    """
    if n_mc < 1:
        raise NumericalError("n_mc must be >= 1")
    orus, ues = np.nonzero(needed)
    filters, error_covs = pilots_mod.mmse_filters(stats.covariance, pilots, sigma2_mw, needed)
    h = sample_channels(stats.factor, n_mc, rng)  # (d, L, K, N)
    observations = pilots_mod.observe_pilots(h, pilots, sigma2_mw, rng, needed)  # (d, P, N)
    h_hat = pilots_mod.apply_filters(filters, observations, out=observations)  # the estimates replace them
    column = np.full(np.shape(needed), -1)
    column[orus, ues] = np.arange(orus.size)
    return EstimationDraws(h, h_hat, column, error_covs)


def gain_moments(combiners: ServedCombiners, sigma2_mw: float, powers_mw: np.ndarray) -> GainMoments:
    """Effective-gain moments of the pairs ``combiners`` serve, on the true (d, L, K, N)
    channels they carry, with the UEs' transmit powers.

    Nothing is written into the arrays passed, and the channels are not copied.
    The UEs of one support size s are formed in batches of at most _BATCH_BYTES
    of gains and Grams. Each serving O-RU l of a batch's UE k writes
    v_{l,k}^H h_{l,i} of every UE i into the batch's (n, s, K, d) gains, whose
    rows are BLAS-ready for the (n, K, s, s) Grams E[g_ki g_ki^H], held in one
    buffer for all batches. Both interferer sums are one product of each UE's
    (2, K) power rows with its Grams viewed as (K, 2 s^2) reals; the noise goes
    onto the diagonal. Every product is per UE, so no bit depends on the batch.
    """
    channels = combiners.channels
    serving = combiners.column >= 0
    l_num, k_num = serving.shape
    n_mc = channels.shape[0]
    share = _sharers(serving)
    # Row 0 weighs every UE; row 1 the UEs sharing a serving O-RU, the others with power 0.
    powers = np.stack((np.broadcast_to(powers_mw, share.shape), np.where(share, powers_mw, 0.0)), axis=1)
    # Per column, summed in order over draws, then antennas: order="F" with the draw label after the
    # antenna label runs the columns innermost, so no bit depends on the buffer's width or the column.
    power = np.einsum("xsa,xsa->s", combiners.values.real, combiners.values.real, order="F")
    power += np.einsum("xsa,xsa->s", combiners.values.imag, combiners.values.imag, order="F")
    noise = sigma2_mw * power / n_mc  # the diagonal of F_k, per served pair
    groups = list(_equal_rows(serving.T))  # per support size s, its UEs and their (G, s) supports
    s_max = groups[-1][0] if groups else 0
    mean_gain = np.zeros((k_num, l_num), dtype=complex)
    second_moment = np.zeros((k_num, s_max, s_max), dtype=complex)
    sharer_moment = np.zeros((k_num, s_max, s_max), dtype=complex)
    step = {s: max(1, _BATCH_BYTES // (k_num * s * (n_mc + s) * 16)) for s, _, _ in groups}  # UEs per batch
    # One buffer holds every batch's Grams: a ubiquitous UE's alone pass glibc's mmap threshold
    # at K=160, and mapped afresh per batch they cost system time.
    grams = np.empty(k_num * max((min(ues.size, step[s]) * s * s for s, ues, _ in groups), default=0), dtype=complex)
    for s, same, same_supports in groups:
        for start in range(0, same.size, step[s]):
            ues, supports = same[start : start + step[s]], same_supports[start : start + step[s]]
            columns = combiners.column[supports, ues[:, None]]
            v = combiners.values[:, columns, :, None].conj().transpose(1, 2, 0, 3, 4)  # (n, s, d, N, 1)
            gains = np.empty((ues.size, s, k_num, n_mc), dtype=complex)  # [b, j, i, d]: g_ki at O-RU S_k[j]
            out = gains.transpose(0, 1, 3, 2)[..., None]  # (n, s, d, K, 1): a row of K gains spans d entries
            for b, support in enumerate(supports.tolist()):
                for j, l in enumerate(support):
                    np.matmul(channels[:, l], v[b, j], out=out[b, j])
            mean_gain[ues[:, None], supports] = gains[np.arange(ues.size), :, ues].sum(axis=-1) / n_mc
            a = gains.swapaxes(1, 2)  # [b, i, j, d], rows contiguous along the draws
            if s == 1:
                # numpy sends a one-row Gram to BLAS's dot, whose rounding depends on the stride; the draws
                # go K entries apart there, as in the (d, s, K) gains of oracles.gathered_gain_moments.
                a = np.ascontiguousarray(a.swapaxes(1, 3)).swapaxes(1, 3)
            blocks = grams[: ues.size * k_num * s * s].reshape(ues.size, k_num, s, s)
            np.matmul(a, a.conj().swapaxes(-1, -2), out=blocks)
            blocks /= n_mc
            sums = (powers[ues] @ blocks.reshape(ues.size, k_num, s * s).view(float)).view(complex)  # (n, 2, s^2)
            sums[..., :: s + 1] += noise[columns][:, None]
            second_moment[ues, :s, :s] = sums[:, 0].reshape(-1, s, s)
            sharer_moment[ues, :s, :s] = sums[:, 1].reshape(-1, s, s)
    return GainMoments(mean_gain, second_moment, sharer_moment, serving)


def _sharers(serving: np.ndarray) -> np.ndarray:
    """(K, K) bool: UEs k and i share a serving O-RU. One float64 product, which
    numpy sends to BLAS (an integer product runs outside it, ~0.5 s at K=640);
    the counts are exact in float64."""
    return (serving.T.astype(float) @ serving.astype(float)) > 0


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
    (`served_combiners`, into the estimates) and the effective-gain moments of
    those combiners (`gain_moments`), with the pilot powers as the transmit powers.
    """
    draws = draw_estimates(stats, pilots, sigma2_mw, n_mc, rng, serving)
    combiners = served_combiners(serving, draws, pilots.power_mw, sigma2_mw, into_estimates=True)
    return gain_moments(combiners, sigma2_mw, pilots.power_mw)


def second_stage(moments: GainMoments, powers_mw: np.ndarray):
    """Second-stage weights and spectral efficiency of every UE at once.

    Returns (weights (K, L), se (K,)): per UE the weights of `lsfd_weights` on
    the sharer moment, embedded into L dimensions, and se = log2(1 + gamma) of
    `uplink_sinr` on the moment over every UE. se is NaN where the sample is
    invalid, among them every unserved UE, whose weights are zero.

    UEs are batched by support size s, straight from their (G, s, s) moments,
    through the kernel of the one-UE entry points, whose arithmetic does not
    depend on the batch: a UE gets the same bits alone as in any batch.
    ``powers_mw`` gives only p_k here; the interferer powers are those the
    moments were formed with.
    """
    k_num, l_num = moments.mean_gain.shape
    weights = np.zeros((k_num, l_num), dtype=complex)
    se = np.full(k_num, np.nan)
    for s, ues, supports in _equal_rows(moments.serving.T):
        mean = moments.mean_gain[ues[:, None], supports]
        p_self = powers_mw[ues]
        a = _solve_weights(moments.sharer_moment[ues, :s, :s], mean, p_self, ues, supports)
        weights[ues[:, None], supports] = a
        se[ues] = _sinr(a, moments.second_moment[ues, :s, :s], mean, p_self)[1]
    return weights, se


def _solve_weights(denom, mean, p_self, ues, supports) -> np.ndarray:
    """Weights p_k D_k^{-1} E[g_kk] on the support, per row of the (G, s, s)
    sharer moments ``denom``; a singular D_k raises NumericalError naming UE and support."""
    try:
        solution = np.linalg.solve(denom, mean[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        for ue, support, matrix in zip(ues, supports, denom):
            try:
                np.linalg.solve(matrix, matrix[:, 0])
            except np.linalg.LinAlgError:
                raise NumericalError(f"singular weight system of UE {ue} on O-RU support {support.tolist()}") from exc
        raise
    return p_self[:, None] * solution


def _sinr(a, moment, mean, p_self):
    """(gamma, se) per row for weights ``a`` (G, s) on the support and the
    (G, s, s) moments D_k over every UE:
    gamma = p_k |a^H m|^2 / a^H (D_k - p_k m m^H) a with m = E[g_kk], and
    se = log2(1 + gamma). A non-positive or non-finite interference makes both NaN.

    The products are elementwise and summed along the last axis, so a row's
    bits do not depend on the others.
    """
    denom = moment - p_self[:, None, None] * (mean[:, :, None] * mean.conj()[:, None, :])
    signal = p_self * np.abs((a.conj() * mean).sum(axis=-1)) ** 2
    interference = (a.conj() * (denom * a[:, None, :]).sum(axis=-1)).sum(axis=-1).real
    valid = np.isfinite(interference) & (interference > 0.0)
    gamma = np.divide(signal, interference, out=np.full_like(signal, np.nan), where=valid)
    return gamma, np.log2(1.0 + gamma)


@dataclass
class EffectiveGainStats:
    """One UE's view of `GainMoments`: its support, mean gains and one (s, s) moment."""

    ue: int
    support: np.ndarray  # serving O-RU indices, ascending
    mean_gain: np.ndarray  # (L,) complex, E[g_kk]
    second_moment: np.ndarray  # (s, s) sum_i p_i E[g_ki g_ki^H] + F_k on the support


def stats_for_ue(moments: GainMoments, k: int, all_interferers: bool = False) -> EffectiveGainStats:
    """Extract one UE's view from bulk moments.

    By default the moment sums over the UEs sharing a serving O-RU with ``k``
    (the statistics a primary O-DU can collect scalably, used for the weight
    solve). With ``all_interferers=True`` it sums over every UE, which is what
    an achievable-rate evaluation must charge for.
    """
    support = np.flatnonzero(moments.serving[:, k])
    s = support.size
    moment = moments.second_moment if all_interferers else moments.sharer_moment
    return EffectiveGainStats(k, support, moments.mean_gain[k], moment[k, :s, :s])


def lsfd_weights(stats: EffectiveGainStats, powers_mw: np.ndarray) -> np.ndarray:
    """Second-stage weights maximizing the combined-SINR ratio for one UE.

    Solves p_k D_k^{-1} E[g_kk] with D_k = ``stats.second_moment`` on the
    serving support and embeds the result into L dimensions (zeros elsewhere);
    the one-UE case of `second_stage`. ``powers_mw`` gives only p_k: the
    interferer powers are those given to `gain_moments`, on which the MMSE
    combiners already depend.
    """
    weights = np.zeros_like(stats.mean_gain)
    if stats.support.size:
        weights[stats.support] = _solve_weights(
            stats.second_moment[None], stats.mean_gain[stats.support][None], powers_mw[[stats.ue]],
            [stats.ue], stats.support[None],
        )[0]
    return weights


def uplink_sinr(weights: np.ndarray, stats: EffectiveGainStats, powers_mw: np.ndarray):
    """Effective uplink SINR and spectral efficiency of any weights for one UE.

    gamma = p_k |a^H E[g_kk]|^2 / a^H (D_k - p_k E[g_kk] E[g_kk]^H) a with
    D_k = ``stats.second_moment``, and se = log2(1 + gamma), the one-UE case of
    `second_stage`'s scoring. ``powers_mw`` gives only p_k: the interferer
    powers are those given to `gain_moments`. A non-positive or non-finite
    denominator marks the sample invalid: (nan, nan) is returned.
    """
    support = stats.support
    gamma, se = _sinr(
        weights[support][None], stats.second_moment[None], stats.mean_gain[support][None], powers_mw[[stats.ue]]
    )
    return float(gamma[0]), float(se[0])
