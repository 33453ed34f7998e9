"""Temporally evolving channel statistics and correlated Rayleigh realizations.

Large-scale terms carry the temporal correlation: log-normal shadowing follows a
first-order autoregression whose coefficient depends on the distance moved per
sample, and path loss tracks the wrap-around distance. Spatial structure comes
from a one-ring scatterer model around each UE, evaluated per step and per
(O-RU, UE) pair by Gauss-Legendre quadrature with the fewest nodes whose
a-priori error bound is at most eps / 8: 11 nodes and a bound of 2.6e-19 at
the reference scenario, and QUADRATURE_NODES at most. The nodes and weights
are derived here by Newton's method on the Legendre recurrence
(`_gauss_legendre`), within 7e-15 of numpy's `leggauss` at 11 nodes, so
`numpy.polynomial` and its eigensolver are never loaded. Small-scale vectors are
drawn i.i.d. across coherence blocks: at these sampling times the classical
Jakes coefficient is already near zero (see `jakes_autocorrelation`, whose J0
is a certified midpoint quadrature in numpy), so per-sample small-scale
correlation is not worth modeling. The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import geometry
from .errors import NumericalError

SPEED_OF_LIGHT = 299_792_458.0

# Path-loss constants in dB for distance in meters.
PATH_LOSS_INTERCEPT_DB = -34.0
PATH_LOSS_SLOPE_DB = 38.0

DEFAULT_MIN_DISTANCE_M = 1.0
# The most Gauss-Legendre nodes `one_ring_covariance` derives (`_ring_node_count`);
# configurations that no smaller count certifies to eps / 8 get this many. The
# reference scenario derives 11 nodes, whose error bound is 2.6e-19.
QUADRATURE_NODES = 64
QUADRATURE_TOL = 1e-9
PSD_CLIP_REL_TOL = 1e-9
# Bytes of one complex (angles, nodes) temporary of the one-ring quadrature:
# below glibc's default mmap threshold (128 KiB), the allocator reuses them from
# call to call; whole (L, K, nodes) arrays were unmapped and page-faulted in
# again on every refresh. At 11 nodes a block is 727 angles.
_RING_BYTES = 128_000
# Bytes of one chunk of real normal draws in `complex_normal_draws` and of one
# block of draws `_blockwise_matvec` mixes or filters, below the mmap threshold for
# the same reason; whole draw-sized temporaries took 4.6 MB (float draws) and 9.2 MB
# (mixed channels) at the reference scenario. A chunk or block holds one draw
# at least. `_bessel_j0` sums its cosines in chunks of the same size.
_DRAW_BYTES = 128_000
# The largest |x| `_bessel_j0` accepts: its node count grows as e |x| / 4, so
# 1e8 takes ~7e7 cosines, about a second.
_J0_MAX_ARGUMENT = 1e8


def _j0_node_count(x: float) -> int:
    """Midpoint nodes M = ceil(e x / 4) + 20 for J0(x), x >= 0: an a-priori error bound below eps / 8.

    The M-node midpoint rule for (1/pi) * integral_0^pi cos(x sin t) dt
    integrates every term of cos(x sin t) = J0(x) + 2 sum_k J_2k(x) cos(2 k t)
    exactly except those with k a multiple of M, each of which it takes as
    (-1)^(k/M): it misses J0(x) by 2 sum_{j>=1} (-1)^j J_2jM(x). With
    |J_n(x)| <= t_n = (x/2)^n / n! and 2M >= x, t_(n+1) / t_n < 1/2, so the
    tail is at most 2 t_2M / (1 - 4^-M) <= (8/3) t_2M; 2M >= e x / 2 >= 1.36 x. By
    (2M)! >= (2M/e)^(2M) and ln z >= 1 - 1/z at z = 4M / (e x) >= 1, ln t_2M <= 2M ln(e x / (4M))
    <= -2 (M - e x / 4) <= -40, and (8/3) e^-40 = 1.1e-17 < eps / 8 = 2.8e-17.
    """
    return math.ceil(math.e * x / 4) + 20


def _bessel_j0(x: float) -> float:
    """J0(x) by the midpoint rule for (1/pi) * integral_0^pi cos(x sin t) dt.

    The node count ceil(e |x| / 4) + 20 (`_j0_node_count`, 22 nodes at the
    first zero 2.405) has an a-priori error bound below eps / 8. Rounding of
    the phases x sin t, ~eps |x| each, sets the error beyond that: within
    2.2e-13 of `scipy.special.j0` up to |x| = 1e6. The cosines are summed in
    chunks of _DRAW_BYTES, so memory does not grow with |x|. As in scipy, NaN
    and +-inf give NaN. Finite |x| above _J0_MAX_ARGUMENT raises ValueError,
    since the node count grows with |x|.
    """
    x = abs(float(x))
    if not math.isfinite(x):
        return math.nan
    if x > _J0_MAX_ARGUMENT:
        raise ValueError(f"J0 argument {x:.6g} exceeds {_J0_MAX_ARGUMENT:g}")
    nodes = _j0_node_count(x)
    per_chunk = _DRAW_BYTES // 8
    total = 0.0
    for start in range(0, nodes, per_chunk):
        phase = np.arange(start, min(start + per_chunk, nodes), dtype=float)
        phase += 0.5
        phase *= np.pi / nodes
        np.sin(phase, out=phase)
        phase *= x
        total += float(np.cos(phase, out=phase).sum())
    return total / nodes


def jakes_autocorrelation(fc_hz: float, speed_mps: float, ts_s: float) -> float:
    """Classical small-scale correlation J0(pi * D_s * T_s) with Doppler spread D_s = 2 f_c v / c.

    Kept as a documented reference: for sub-6GHz carriers and sampling periods of
    hundreds of milliseconds the argument is far into the Bessel tail, so
    consecutive small-scale realizations are effectively uncorrelated. J0 comes
    from `_bessel_j0`, a certified quadrature within 1e-12 of
    `scipy.special.j0`; the simulator itself never calls this function.
    """
    doppler_spread = 2.0 * fc_hz * speed_mps / SPEED_OF_LIGHT
    return _bessel_j0(np.pi * doppler_spread * ts_s)


@dataclass
class ShadowFading:
    """Per-(O-RU, UE) shadow fading in dB with AR(1) temporal evolution.

    The autoregression coefficient for a UE moving distance v*T_s between samples
    is exp(-alpha * v * T_s), with alpha the reciprocal decorrelation distance.
    The stationary distribution of every entry is N(0, sigma_db^2).
    """

    values_db: np.ndarray  # (L, K)
    sigma_db: float
    alpha_per_m: float

    @classmethod
    def initial(
        cls, num_orus: int, num_ues: int, sigma_db: float, alpha_per_m: float, rng: np.random.Generator
    ) -> "ShadowFading":
        values = sigma_db * rng.standard_normal((num_orus, num_ues))
        return cls(values, sigma_db, alpha_per_m)

    def evolve(self, speeds_mps: np.ndarray, ts_s: float, rng: np.random.Generator) -> "ShadowFading":
        """One AR(1) step: F <- rho F + sqrt(1 - rho^2) * N(0, sigma^2), rho per UE."""
        rho = shadow_correlation(self.alpha_per_m, speeds_mps, ts_s)[None, :]
        innovation = self.sigma_db * rng.standard_normal(self.values_db.shape)
        new_values = rho * self.values_db + np.sqrt(1.0 - rho**2) * innovation
        return replace(self, values_db=new_values)


def shadow_correlation(alpha_per_m: float, speed_mps, ts_s: float):
    """AR(1) coefficient exp(-alpha * v * T_s) for one sampling interval, per speed."""
    return np.exp(-alpha_per_m * np.asarray(speed_mps) * ts_s)


def path_loss_db(distance_m, shadow_db=0.0, min_distance_m: float = DEFAULT_MIN_DISTANCE_M):
    """Large-scale gain in dB: -34 - 38 log10(d) + F, with d clamped below at min_distance_m."""
    d = np.maximum(np.asarray(distance_m, dtype=float), min_distance_m)
    return PATH_LOSS_INTERCEPT_DB - PATH_LOSS_SLOPE_DB * np.log10(d) + shadow_db


def db_to_linear(value_db):
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_(n-1)(x) by the three-term recurrence j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2)."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, p_prev


@lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per node count.

    The nodes are the roots of P_n, n = ``nodes``: Newton's method on the
    three-term recurrence, from x_i = cos(pi (i - 1/4) / (n + 1/2)), until no
    node moves by more than 1e-15 (at most five steps up to n = 4000). The
    weights are 2 (1 - x^2) / (n P_(n-1)(x))^2 with P_(n-1) - x P_n in place of
    P_(n-1), that is 2 / ((1 - x^2) P_n'(x)^2): the two agree at an exact root,
    and the second is n + 1 times less sensitive to the node's rounding
    (3.4e-13 against 3.8e-11 off a 40-digit reference at n = 128). As in
    numpy's `leggauss`, nodes and weights are symmetrized and the weights
    scaled to sum to 2. Against `leggauss` the nodes agree within 1.2e-16 and
    the weights within 7e-15 at n = 11 and 2e-11 up to n = 128, which is about
    `leggauss`'s own error there (1.4e-11 at n = 128).
    """
    x = np.cos(np.pi * (np.arange(nodes, 0, -1) - 0.25) / (nodes + 0.5))  # ascending
    while True:
        p, p_prev = _legendre_pair(nodes, x)
        step = p * (x * x - 1.0) / (nodes * (x * p - p_prev))  # P_n / P_n'
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    p, p_prev = _legendre_pair(nodes, x)
    w = 2.0 * (1.0 - x * x) / (nodes * (p_prev - x * p)) ** 2
    x = (x - x[::-1]) / 2
    w = (w + w[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _ring_lag_coefficients(
    phi: np.ndarray, spread_rad: float, num_antennas: int, spacing_wl: float, nodes: int
) -> np.ndarray:
    """Normalized lag coefficients c_d = mean over the ring of exp(2 pi j d_H d sin(angle)).

    Gauss-Legendre quadrature over [phi - spread, phi + spread]; `phi` may be any
    shape, output has one extra trailing axis of length num_antennas (lags 0..N-1).
    The lag-d integrand is the d-th power of the lag-1 phasor
    base = exp(2 pi j d_H sin(angle)), so one phasor is evaluated per node and
    lag d is the previous lag's phasors times `base`; each lag is reduced with
    the weights straight into the output. Lag 0 is the analytic 1 and is not
    evaluated. At zero spread the ring collapses to its centre angle (one node
    of unit weight), which gives the steering-vector lags. Angles are processed
    in blocks of at least two whose complex (angles, nodes) temporaries fit
    in _RING_BYTES; each angle's row is reduced with the same bits in any
    block.
    """
    phi = np.asarray(phi, dtype=float)
    if spread_rad == 0.0:
        offsets, half_w = np.zeros(1), np.ones(1)
    else:
        x, w = _gauss_legendre(nodes)
        offsets, half_w = spread_rad * x, 0.5 * w  # uniform density: (1 / 2 xi) * integral
    flat_phi = phi.reshape(-1)
    coeff = np.empty((flat_phi.size, num_antennas), dtype=complex)
    coeff[:, 0] = 1.0
    block = max(2, _RING_BYTES // (16 * offsets.size))
    for start in range(0, flat_phi.size, block):
        # numpy reduces a lone row with a dot product, whose bits differ from the
        # matrix-vector product's: a last block of one angle takes the one before along.
        rows = slice(max(0, min(start, flat_phi.size - 2)), start + block)
        phase = np.sin(flat_phi[rows, None] + offsets)
        phase *= 2.0 * np.pi * spacing_wl
        base = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=base.real)
        np.sin(phase, out=base.imag)
        power = base.copy()
        for lag in range(1, num_antennas):
            if lag > 1:
                power *= base
            np.matmul(power, half_w, out=coeff[rows, lag])
    return coeff.reshape(phi.shape + (num_antennas,))


def _toeplitz_from_lags(coeff: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrices from lag coefficients; trailing axis N -> (N, N)."""
    n = coeff.shape[-1]
    full = np.concatenate([coeff[..., :0:-1].conj(), coeff], axis=-1)  # lags -(N-1)..(N-1)
    idx = np.arange(n)[None, :] - np.arange(n)[:, None] + (n - 1)  # [m, n] -> n - m
    return np.take(full, idx, axis=-1)  # C-ordered, where full[..., idx] puts the batch axes last


@lru_cache(maxsize=256)
def _ring_quadrature_error_bound(spread_rad: float, num_antennas: int, spacing_wl: float, nodes: int) -> float:
    """A-priori bound on |quadrature - exact ring mean| of every lag, for every centre angle.

    The lag-d integrand f(x) = exp(2 pi j d_H d sin(phi + xi x)) on [-1, 1] is
    entire, and on the Bernstein ellipse E_rho (semi-minor axis
    b = (rho - 1/rho) / 2) |f| <= M = exp(a sinh(|xi| b)) for every real phi,
    with a = 2 pi |d_H| (N - 1) covering every lag. Gauss-Legendre quadrature
    with m nodes then misses the integral by at most
    (64/15) M rho^(-2(m-1)) / (rho^2 - 1) for any rho > 1 (Trefethen, "Is Gauss
    quadrature better than Clenshaw-Curtis?", SIAM Review 50(1), 2008,
    Thm 4.5, whose n counts n + 1 nodes); the ring mean is half the integral.
    The bound is minimized over a fixed log-spaced grid of rho, in logs so that
    nothing overflows, and capped at 2, which |quadrature - exact| never
    exceeds. A non-finite spread or spacing gets an infinite bound.
    """
    if not (np.isfinite(spread_rad) and np.isfinite(spacing_wl)):
        return np.inf
    a = 2.0 * np.pi * abs(spacing_wl) * (num_antennas - 1)
    rho = 1.0 + np.logspace(-4.0, 2.0, 241)
    # sinh overflows to inf on ellipses too wide to help; with a = 0, M is 1 (not 0 * inf).
    with np.errstate(over="ignore"):
        log_growth = a * np.sinh(abs(spread_rad) * (rho - 1.0 / rho) / 2.0) if a else 0.0
    log_bound = (
        np.log(32.0 / 15.0)
        + log_growth
        - 2.0 * (nodes - 1) * np.log(rho)
        - np.log(rho**2 - 1.0)
    )
    return float(np.exp(min(log_bound.min(), np.log(2.0))))


@lru_cache(maxsize=256)
def _ring_node_count(spread_rad: float, num_antennas: int, spacing_wl: float) -> int:
    """Fewest Gauss-Legendre nodes m <= QUADRATURE_NODES whose a-priori error bound
    (`_ring_quadrature_error_bound`) is at most eps / 8, for every centre angle.

    QUADRATURE_NODES when no such m exists, among them a non-finite spread or
    spacing, whose bound is infinite. At the reference scenario (10 degrees,
    N = 4, half a wavelength) m is 11, with a bound of 2.6e-19.
    """
    target = np.finfo(float).eps / 8
    return next(
        (
            m
            for m in range(1, QUADRATURE_NODES + 1)
            if _ring_quadrature_error_bound(spread_rad, num_antennas, spacing_wl, m) <= target
        ),
        QUADRATURE_NODES,
    )


def _doubling_check_proved(
    phi: np.ndarray, spread_rad: float, num_antennas: int, spacing_wl: float, nodes: int
) -> bool:
    """Whether the doubling check of `one_ring_covariance` provably passes for these angles.

    The check compares the lags at ``nodes`` and ``2 * nodes``; their computed
    difference is at most the two quadrature errors (`_ring_quadrature_error_bound`)
    plus the rounding of both evaluations; truncation and rounding each get
    half of QUADRATURE_TOL. Rounding is estimated to first order with a wide margin:
    the angle phi + xi x is off by ~eps (|phi| + |xi|), which the lag phases
    multiply by up to 2 pi d_H (N - 1), and the sines, powers and node sums add
    a few eps each. The estimate is what keeps huge angles (|phi| ~ 1e10,
    where rounding alone moves the check by ~5e-9) from being certified. With
    fewer than two antennas only the analytic lag 0 exists, so the check
    always passes; a non-finite spread or angle is never certified.
    """
    if num_antennas < 2:
        return True
    spread_rad, spacing_wl = float(spread_rad), float(spacing_wl)
    truncation = sum(
        _ring_quadrature_error_bound(spread_rad, num_antennas, spacing_wl, m) for m in (nodes, 2 * nodes)
    )
    lag_phase = 2.0 * np.pi * abs(spacing_wl) * (num_antennas - 1)
    angle = float(np.abs(phi).max(initial=0.0)) + abs(spread_rad) + 1.0
    rounding = 64.0 * np.finfo(float).eps * ((lag_phase + num_antennas) * angle + 3.0 * nodes)
    return truncation <= QUADRATURE_TOL / 2 and rounding <= QUADRATURE_TOL / 2


def one_ring_covariance(
    beta_lin,
    aoa_rad,
    spread_rad: float,
    num_antennas: int,
    spacing_wl: float,
    nodes: int | None = None,
    check: bool = True,
) -> np.ndarray:
    """Spatial covariances of a ULA facing a uniform ring of scatterers.

    ``beta_lin`` and ``aoa_rad`` share any shape (scalars, or (L, K) for every
    (O-RU, UE) pair); the result appends two antenna axes: (..., N, N). Entry
    (m, n) is beta times the average of exp(2 pi j d_H (n - m) sin(angle)) over
    angles uniform in [aoa - spread, aoa + spread], evaluated with fixed
    Gauss-Legendre quadrature so results are deterministic. Without ``nodes``
    the node count is the fewest whose a-priori error bound is at most eps / 8
    (`_ring_node_count`, at most QUADRATURE_NODES): 11 nodes and a bound of
    2.6e-19 at the reference scenario, the cap only for wide arrays at wide
    spreads. Each evaluation takes one complex exponential per (pair, node);
    the higher lags are powers of it (see `_ring_lag_coefficients`).

    With ``check`` (and a nonzero spread) the call makes sure that doubling
    the node count moves no entry by more than QUADRATURE_TOL, and raises
    NumericalError otherwise (non-converged quadrature). The check is proved
    when `_doubling_check_proved` holds: an a-priori Gauss-Legendre error bound
    for ``nodes`` and ``2 * nodes`` plus a rounding estimate stay within
    QUADRATURE_TOL for every angle in ``aoa_rad`` (at the reference scenario the
    bound is ~3e-19). Otherwise, e.g. for wide spreads at large antenna
    spacings, a non-finite spread or angle, the lags are evaluated again at
    ``2 * nodes`` and compared; a NaN difference, from a NaN spread or angle,
    fails the check. Either way the verdict and the returned values are the
    same; a proof only saves the second evaluation.
    """
    phi = np.asarray(aoa_rad)
    if nodes is None:
        nodes = _ring_node_count(float(spread_rad), num_antennas, float(spacing_wl))
    coeff = _ring_lag_coefficients(phi, spread_rad, num_antennas, spacing_wl, nodes)
    if (
        check
        and spread_rad != 0.0
        and not _doubling_check_proved(phi, spread_rad, num_antennas, spacing_wl, nodes)
    ):
        refined = _ring_lag_coefficients(phi, spread_rad, num_antennas, spacing_wl, 2 * nodes)
        worst = float(np.abs(coeff - refined).max())
        if not worst <= QUADRATURE_TOL:  # a NaN difference fails too
            raise NumericalError(
                f"one-ring quadrature not converged: doubling nodes moved an entry by {worst:.3e}"
            )
    return np.asarray(beta_lin)[..., None, None] * _toeplitz_from_lags(coeff)


def covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Factor A with A A^H = R for stacked Hermitian PSD matrices.

    Tries batched Cholesky; on failure (rank-deficient or near-singular R) falls
    back to an eigendecomposition, clipping eigenvalues in [-tol*trace, 0) to 0
    and rejecting anything more negative.
    """
    cov = np.asarray(cov)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(cov)
    trace = np.trace(cov, axis1=-2, axis2=-1).real
    floor = -PSD_CLIP_REL_TOL * np.maximum(trace, np.finfo(float).tiny)
    if np.any(w < floor[..., None]):
        worst = float((w / np.maximum(trace[..., None], np.finfo(float).tiny)).min())
        raise NumericalError(f"covariance has negative eigenvalue beyond tolerance (min rel {worst:.3e})")
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def sample_channels(factor: np.ndarray, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Stacked draws h = A z for factors (L, K, N, N) -> realizations (n_draws, L, K, N).

    z ~ CN(0, I) is drawn already scaled by 1/sqrt(2), the reciprocal numpy's
    complex division by sqrt(2) multiplies with, so it has the bits of z / sqrt(2).
    It is then mixed into h in place a block of draws at a time (`_blockwise_matvec`), so the
    draws hold one array of the result's shape and one block besides.
    """
    h = complex_normal_draws((n_draws,) + factor.shape[:-1], rng, 1.0 / np.sqrt(2.0))
    return _blockwise_matvec(factor, h, out=h)


def _blockwise_matvec(matrices: np.ndarray, vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched A v over the leading draw axis, (..., N, N) x (d, ..., N): the channel mixing and
    `pilots.apply_filters`. Blocks of about _DRAW_BYTES of draws go through one block-sized buffer
    into ``out`` (a fresh array by default), which may be ``vectors``: each block is read whole
    before it is written, and a product reads its own pair and draw only, so no bit depends on it."""
    out = np.empty(vectors.shape, dtype=complex) if out is None else out
    per_block = max(1, _DRAW_BYTES // max(1, vectors[:1].nbytes))
    buffer = np.empty((min(per_block, len(vectors)),) + vectors.shape[1:] + (1,), dtype=complex)
    for start in range(0, len(vectors), per_block):
        block = vectors[start : start + per_block, ..., None]
        np.matmul(matrices, block, out=buffer[: len(block)])
        out[start : start + per_block] = buffer[: len(block), ..., 0]
    return out


def _rows(stack: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``stack[..., index, :]``: a view when ``index`` is one ascending run, else a copy gathered by
    ``np.take``; the kept rows of `complex_normal_draws` and the pilot stage's gathers. The span of
    the ends is tested first: it rules out most gathers of a reuse round without the elementwise
    test."""
    if index.size and index[-1] - index[0] == index.size - 1 and (index[1:] - index[:-1] == 1).all():
        return stack[..., index[0] : index[-1] + 1, :]
    return np.take(stack, index, axis=-2)


def complex_normal_draws(shape: tuple, rng: np.random.Generator, scale: float, rows=None) -> np.ndarray:
    """scale (x + j y) with x and then y standard normal draws of ``shape`` from ``rng``, keeping
    the ``rows`` (an index array) of the second-last axis, or every row by default.

    The values and the stream position equal those of
    ``((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale)[..., rows, :]``,
    but only the kept complex array is allocated: each part is drawn in chunks
    of whole (rows, columns) matrices of about _DRAW_BYTES (chunked draws
    continue the stream as one draw does), and each chunk's kept rows are
    scaled straight into the real or imaginary entries.
    """
    *lead, n_rows, n_cols = shape
    count = int(np.prod(lead))
    z = np.empty((count, n_rows if rows is None else len(rows), n_cols), dtype=complex)
    per_chunk = max(1, _DRAW_BYTES // max(1, 8 * n_rows * n_cols))
    for part in (z.real, z.imag):
        for start in range(0, count, per_chunk):
            chunk = part[start : start + per_chunk]
            draws = rng.standard_normal((chunk.shape[0], n_rows, n_cols))
            np.multiply(draws if rows is None else _rows(draws, rows), scale, out=chunk)
            del draws  # before the next chunk is drawn
    return z.reshape(tuple(lead) + z.shape[1:])


@dataclass
class ChannelStatistics:
    """Per-step second-order state: gains, angles, covariances and their factors."""

    beta_db: np.ndarray  # (L, K)
    beta_lin: np.ndarray  # (L, K)
    aoa_rad: np.ndarray  # (L, K)
    covariance: np.ndarray  # (L, K, N, N)
    factor: np.ndarray  # (L, K, N, N), factor @ factor^H = covariance


def refresh_statistics(
    topology: geometry.Topology,
    ue_positions: np.ndarray,
    shadow: ShadowFading,
    spread_rad: float,
    num_antennas: int,
    spacing_wl: float,
    min_distance_m: float = DEFAULT_MIN_DISTANCE_M,
    check_quadrature: bool = True,
) -> ChannelStatistics:
    """Rebuild beta and the spatial covariances for every (O-RU, UE) pair.

    Distances and angles use the nearest torus image of each UE; covariances are
    regenerated from scratch (angles move with the UE every step). A gain that
    is not finite in linear scale (e.g. shadowing so wide that 10^(beta_db/10)
    overflows) raises NumericalError naming the first such pair; underflow to 0
    is allowed.
    """
    dist, aoa = geometry.wrap_distance_and_angle(topology.oru_positions, ue_positions, topology.grid_side_m)
    beta_db = path_loss_db(dist, shadow.values_db, min_distance_m)
    with np.errstate(over="ignore"):  # reported below
        beta_lin = db_to_linear(beta_db)
    if not np.isfinite(beta_lin).all():
        oru, ue = np.argwhere(~np.isfinite(beta_lin))[0]
        raise NumericalError(
            f"large-scale gain of (O-RU {oru}, UE {ue}) is not finite: beta_db = {beta_db[oru, ue]:.6g}"
        )
    cov = one_ring_covariance(beta_lin, aoa, spread_rad, num_antennas, spacing_wl, check=check_quadrature)
    factor = covariance_factor(cov)
    return ChannelStatistics(beta_db, beta_lin, aoa, cov, factor)
