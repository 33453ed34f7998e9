"""Scalar reference oracles for the batched kernels in ``cfmimo``.

Each function computes one quantity the slow, obvious way: one point pair, one
UE or one (O-RU, UE) pair at a time, with plain loops. The tests compare the
production kernels against them.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.spatial import Voronoi
from scipy.special import gammaln, jv


def wrap_distance_and_angle(a, b, grid_side: float):
    """Torus distance and broadside azimuth of the pair (``a``, ``b``) by a search over the nine tile images of ``b``.

    Each image's displacement is (b + offset * side) - a and its squared length
    dx * dx + dy * dy. The images are tried direct first, and a later one
    replaces the best only when strictly nearer, so a tie keeps the earlier
    image. The azimuth is arctan2(dx, dy), 0 for coincident points.
    """
    best = None
    for i, j in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        dx = (b[0] + i * grid_side) - a[0]
        dy = (b[1] + j * grid_side) - a[1]
        if best is None or dx * dx + dy * dy < best[0]:
            best = (dx * dx + dy * dy, dx, dy)
    d2, dx, dy = best
    return np.sqrt(d2), 0.0 if dx == 0.0 and dy == 0.0 else np.arctan2(dx, dy)


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


def mmse_filters(cov, pilots, sigma2_mw: float):
    """Per-(O-RU, UE) MMSE filters and error covariances, with each pilot slot's Gram built one UE at a time.

    ``cov`` is (L, K, N, N). Psi of a slot starts at zero and adds
    tau_p p_k R_k of its UEs in ascending k before sigma2 I; the filter of UE k
    is sqrt(tau_p p_k) (Psi^{-1} R_k)^H and the error covariance
    R_k - tau_p p_k R_k Psi^{-1} R_k, made Hermitian.
    """
    l_num, k_num, n, _ = cov.shape
    slots, slot_of_ue = np.unique(pilots.pilot_index, return_inverse=True)
    tau_p = pilots.tau_p
    gram = np.zeros((l_num, slots.size, n, n), dtype=complex)
    for k in range(k_num):
        gram[:, slot_of_ue[k]] += tau_p * pilots.power_mw[k] * cov[:, k]
    gram += sigma2_mw * np.eye(n)
    solved = np.linalg.solve(gram[:, slot_of_ue], cov)
    filters = np.sqrt(tau_p * pilots.power_mw)[None, :, None, None] * solved.conj().swapaxes(-1, -2)
    error_covs = cov - np.sqrt(tau_p * pilots.power_mw)[None, :, None, None] * filters @ cov
    return filters, 0.5 * (error_covs + error_covs.conj().swapaxes(-1, -2))


def ring_lag_oracle(phi: float, spread_rad: float, num_antennas: int, spacing_wl: float) -> np.ndarray:
    """One-ring lag coefficients c_0..c_{N-1} of one angle from the Jacobi-Anger series.

    exp(j a sin(t)) = sum_n J_n(a) exp(j n t), so the ring average of lag d
    (a = 2 pi d_H d over angles uniform in [phi - xi, phi + xi]) is
    c_d = sum_n J_n(a) exp(j n phi) sin(n xi) / (n xi), the last factor being 1
    for n = 0 and for xi = 0 (the steering-vector lags). J_n(a) turns to decay
    only over a transition of width ~a^(1/3) past n = a, so the series is cut
    at |n| <= a + 15 a^(1/3) + 40 with a = 2 pi d_H (N - 1), where J_n(a) is far
    below double precision (a cut at a + 40 alone leaves ~1e-10 at a = 190).
    """
    a_max = 2.0 * math.pi * abs(spacing_wl) * (num_antennas - 1)
    terms = math.ceil(a_max + 15.0 * a_max ** (1.0 / 3.0)) + 40
    n = np.arange(-terms, terms + 1)
    ring = np.exp(1j * n * phi) * np.sinc(n * spread_rad / math.pi)
    return np.array([jv(n, 2.0 * math.pi * spacing_wl * d) @ ring for d in range(num_antennas)])


def sample_channels(factor, n_draws: int, rng) -> np.ndarray:
    """Channel draws h = A z, with z built as one complex expression of two real draws."""
    shape = (n_draws,) + factor.shape[:-1]
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return (factor @ z[..., None])[..., 0]


def observe_pilots(channels, pilots, sigma2_mw: float, rng) -> np.ndarray:
    """Decorrelated pilot observations with the pilot superposition as a one-hot matmul.

    ``channels`` is (..., L, K, N). The (slots, K) matrix of per-UE pilot
    amplitudes sums the channels of every UE on each pilot slot; noise with
    covariance sigma2 * I is drawn once per (O-RU, slot), and the slot signals
    are gathered back per UE.
    """
    k = channels.shape[-2]
    slots, slot_of_ue = np.unique(pilots.pilot_index, return_inverse=True)
    scale = np.sqrt(pilots.tau_p * pilots.power_mw)
    onehot = np.zeros((k, slots.size))
    onehot[np.arange(k), slot_of_ue] = 1.0
    superposed = (onehot.T * scale) @ channels
    noise_shape = channels.shape[:-2] + (slots.size, channels.shape[-1])
    noise = np.sqrt(sigma2_mw / 2.0) * (rng.standard_normal(noise_shape) + 1j * rng.standard_normal(noise_shape))
    return (superposed + noise)[..., slot_of_ue, :]


def slot_observations(channels, pilots, sigma2_mw: float, rng):
    """Received pilot signal per (O-RU, pilot slot) and the slot of every UE, one UE at a time.

    ``channels`` is (..., L, K, N). Noise with covariance sigma2 * I is drawn
    once per (O-RU, slot), and each UE's sqrt(tau_p p_k) h_k is added into its
    slot in ascending k.
    """
    slots, slot_of_ue = np.unique(pilots.pilot_index, return_inverse=True)
    scale = np.sqrt(pilots.tau_p * pilots.power_mw)
    shape = channels.shape[:-2] + (slots.size, channels.shape[-1])
    received = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(sigma2_mw / 2.0)
    for k, slot in enumerate(slot_of_ue):
        received[..., slot, :] += scale[k] * channels[..., k, :]
    return received, slot_of_ue


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


def local_mmse_combiners(serving, h_hat, error_covs, powers_mw, sigma2_mw):
    """Dense local MMSE combiners of every (O-RU, UE) pair, per draw: one solve
    per (draw, O-RU) over all K columns, unserved ones zeroed afterwards.

    ``h_hat`` holds estimates (d, L, K, N) and ``error_covs`` their error
    covariances (L, K, N, N). The combiner of UE k at O-RU l is
    p_k (sum_{i in D_l} p_i (h_hat_i h_hat_i^H + C_i) + sigma2 I)^{-1} h_hat_k,
    with D_l the UEs O-RU l serves; it is zero where l does not serve k.
    """
    weights = serving * powers_mw[None, :]  # (L, K)
    scaled_conj = h_hat.conj()
    scaled_conj *= weights[..., None]
    gram = scaled_conj.swapaxes(-1, -2) @ h_hat  # (d, L, N, N)
    np.conjugate(gram, out=gram)
    gram += np.einsum("lk,lkmn->lmn", weights, error_covs)[None, ...]
    gram += sigma2_mw * np.eye(h_hat.shape[-1])
    combiners = np.linalg.solve(gram, h_hat.swapaxes(-1, -2)).swapaxes(-1, -2)  # (d, L, K, N)
    combiners *= weights[None, :, :, None]
    return combiners


def one_ue_lp_mmse_moments(beta, interferer_gains, powers_mw, tau_p: int, sigma2_mw: float, n_ant: int):
    """Exact moments of the local-MMSE chain for UE 0 served alone by s O-RUs.

    UE 0 has covariance R_l = beta[l] I at its serving O-RU l, the only UE that
    O-RU serves; the pilots are orthogonal, and UE i >= 1 is served nowhere and
    has R_li = interferer_gains[l, i - 1] I. With p = powers_mw[0] the MMSE
    error covariance is c I, c = beta sigma2 / (tau_p p beta + sigma2); by
    Sherman-Morrison the combiner is v = p h_hat / (p x + a) with a = p c + sigma2
    and x = ||h_hat||^2 ~ Gamma(N, beta - c). Per O-RU, by 1-D integrals against
    that density:

        m         = E[g_00]   = E[p x / (p x + a)]
        power     = E||v||^2  = E[p^2 x / (p x + a)^2]
        E|g_00|^2             = E[p^2 x^2 / (p x + a)^2] + c power
        E|g_0i|^2             = b_li power

    The gains of distinct O-RUs are independent, and an interferer's have mean
    zero, so the (s, s) moments are p m m^T off the diagonal. Returns
    (mean_gain (s,), power (s,), second_moment (s, s), sharer_moment (s, s)) in
    the convention of `combining.GainMoments`: second_moment sums p_i E[g_0i
    g_0i^H] over every UE, sharer_moment over UE 0 alone (no other UE shares its
    O-RUs), and both add sigma2 E||v_l||^2 on the diagonal.
    """
    p = float(powers_mw[0])
    mean, power, self_moment = [], [], []
    for b in np.asarray(beta, dtype=float):
        c = b * sigma2_mw / (tau_p * p * b + sigma2_mw)
        a, theta = p * c + sigma2_mw, b - c
        log_norm = gammaln(n_ant) + n_ant * math.log(theta)

        def expect(f):
            density = lambda x: f(x) * math.exp((n_ant - 1) * math.log(x) - x / theta - log_norm) if x > 0 else 0.0
            return quad(density, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]

        mean.append(expect(lambda x: p * x / (p * x + a)))
        power.append(expect(lambda x: p**2 * x / (p * x + a) ** 2))
        self_moment.append(expect(lambda x: (p * x / (p * x + a)) ** 2) + c * power[-1])
    mean, power = np.array(mean), np.array(power)
    sharer = p * np.outer(mean, mean)
    sharer[np.diag_indices(mean.size)] = p * np.array(self_moment) + sigma2_mw * power
    interference = (np.asarray(interferer_gains, dtype=float) @ np.asarray(powers_mw[1:], dtype=float)) * power
    second = sharer + np.diag(interference)
    return mean, power, second, sharer


def full_gain_moments(combiners, h):
    """Effective-gain moments over every O-RU, from the full per-draw gain array.

    ``combiners`` and ``h`` are (d, L, K, N) draws. Builds g[d, l, k, i] =
    v_{l,k}^H h_{l,i} and returns (mean_gain (K, L), second_moment (K, K, L, L),
    combiner_power (K, L)), with second_moment[k, i] = E[g_ki g_ki^H] and
    combiner_power[k, l] = E[||v_{l,k}||^2].
    """
    n_mc = h.shape[0]
    g = np.einsum("dlkn,dlin->dlki", combiners.conj(), h)
    mean_gain = np.einsum("dlkk->kl", g) / n_mc
    second_moment = np.einsum("dlki,dmki->kilm", g, g.conj()) / n_mc
    combiner_power = np.einsum("dlkn,dlkn->kl", combiners, combiners.conj()).real / n_mc
    return mean_gain, second_moment, combiner_power


def combiner_power(values):
    """sum over draws and antennas of |v|^2 per column of a (d, W, N) combiner buffer, the reals and
    then the imaginary parts, each summed one entry at a time in draw-major, antenna-minor order:
    what numpy's einsum does over a copy laid out antenna-major, (d, N, W), whose columns are the
    inner loop."""
    antenna_major = np.ascontiguousarray(values.swapaxes(1, 2)).swapaxes(1, 2)
    power = np.einsum("dsn,dsn->s", antenna_major.real, antenna_major.real)
    power += np.einsum("dsn,dsn->s", antenna_major.imag, antenna_major.imag)
    return power


def gathered_gain_moments(channels, combiners, serving, sigma2_mw: float, powers_mw):
    """Effective-gain moments on the serving supports, one UE at a time from a
    copy of the channels at its serving O-RUs.

    ``channels`` are the (d, L, K, N) draws and ``combiners`` a
    `combining.ServedCombiners`. Per UE k with ascending support S_k (s_k
    O-RUs), g_k[d, j, i] = v_{S_k[j],k}^H h_{S_k[j],i} over the gathered
    channels h[:, S_k], and the interferer Grams of A = g_k.transpose(2, 1, 0)
    are one product A A^H / d. Returns (mean_gain (K, L), second_moment (K,
    S_max, S_max), sharer_moment (K, S_max, S_max)) in the layout of
    `combining.GainMoments`: both interferer sums are one real product of the
    (2, K) power rows, ``powers_mw`` over every UE and over the UEs sharing a
    serving O-RU with k (the others with power 0), with the (K, s^2) Grams
    viewed as (K, 2 s^2) reals; then sigma2 E[||v_{l,k}||^2] goes onto the
    diagonal.
    """
    l_num, k_num = serving.shape
    n_mc = channels.shape[0]
    supports = [np.flatnonzero(serving[:, k]) for k in range(k_num)]
    s_max = max(support.size for support in supports)
    power = combiner_power(combiners.values)
    mean_gain = np.zeros((k_num, l_num), dtype=complex)
    second_moment = np.zeros((k_num, s_max, s_max), dtype=complex)
    sharer_moment = np.zeros((k_num, s_max, s_max), dtype=complex)
    for k, support in enumerate(supports):
        s = support.size
        v_k = combiners.values[:, combiners.column[support, k], :, None].conj()
        g_k = (channels[:, support] @ v_k)[..., 0]
        mean_gain[k, support] = g_k[:, :, k].sum(axis=0) / n_mc
        a = g_k.transpose(2, 1, 0)  # (K, s, d)
        blocks = a @ a.conj().swapaxes(-1, -2) / n_mc
        noise = sigma2_mw * power[combiners.column[support, k]] / n_mc
        sharers = serving[support].any(axis=0)
        rows = np.stack((powers_mw, np.where(sharers, powers_mw, 0.0)))
        totals = (rows @ blocks.reshape(k_num, s * s).view(float)).view(complex).reshape(2, s, s)
        for out, total in zip((second_moment, sharer_moment), totals):
            total[np.arange(s), np.arange(s)] += noise
            out[k, :s, :s] = total
    return mean_gain, second_moment, sharer_moment


def second_stage_oracle(moments, powers_mw):
    """Second-stage weights (K, L) and spectral efficiency (K,) one UE at a time.

    Per served UE k on its support S_k: the weights solve
    p_k D_k^{-1} E[g_kk] with D_k the sharer moment, and the SINR charges every
    UE, gamma = p_k |a^H m|^2 / a^H (D_k - p_k m m^H) a with m = E[g_kk] and D_k
    the moment over every UE, through np.outer and dense products.
    se = log2(1 + gamma) is NaN for an unserved UE and where the interference is
    not positive and finite; unserved UEs get zero weights.
    """
    k_num, l_num = moments.mean_gain.shape
    weights = np.zeros((k_num, l_num), dtype=complex)
    se = np.full(k_num, np.nan)
    for k in range(k_num):
        support = np.flatnonzero(moments.serving[:, k])
        s = support.size
        if s == 0:
            continue
        mean = moments.mean_gain[k, support]
        a = powers_mw[k] * np.linalg.solve(moments.sharer_moment[k, :s, :s], mean)
        weights[k, support] = a
        total = moments.second_moment[k, :s, :s] - powers_mw[k] * np.outer(mean, mean.conj())
        interference = (a.conj() @ total @ a).real
        if np.isfinite(interference) and interference > 0.0:
            se[k] = math.log2(1.0 + powers_mw[k] * abs(a.conj() @ mean) ** 2 / interference)
    return weights, se


def inter_odu_boundary_length(oru_positions, odu_of_oru, grid_side: float) -> float:
    """Total length of the torus boundaries between O-RU Voronoi cells of different O-DUs.

    `scipy.spatial.Voronoi` runs on the O-RUs tiled 3 x 3 around the grid, so
    every cell of the central tile is bounded. A ridge between two central
    O-RUs is one torus edge. A ridge between a central O-RU and an image of
    another crosses the tile's border, and the same torus edge appears once
    more from its other end, so each such ridge counts half: every
    wrap-around edge is counted once.
    """
    l_num = len(oru_positions)
    offsets = grid_side * np.array([(i, j) for i in (0, 1, -1) for j in (0, 1, -1)], dtype=float)
    voronoi = Voronoi((offsets[:, None, :] + np.asarray(oru_positions)[None]).reshape(-1, 2))
    total = 0.0
    for (p, q), ridge in zip(voronoi.ridge_points, voronoi.ridge_vertices):
        central = int(p < l_num) + int(q < l_num)  # the first tile is the central one
        if central and odu_of_oru[p % l_num] != odu_of_oru[q % l_num]:
            assert -1 not in ridge, "a central Voronoi cell is unbounded"
            a, b = voronoi.vertices[ridge]
            total += central / 2 * math.hypot(a[0] - b[0], a[1] - b[1])
    return total


def fixed_selection(gains, measurement_idx, serving_size: int):
    """Fixed-strategy serving cluster of one UE: the ``serving_size`` strongest
    O-RUs of its measurement cluster, equal gains going to the lower index.

    Returns (serving indices ascending, reference power = their gain sum taken
    in ascending O-RU order).
    """
    by_strength = sorted((int(l) for l in measurement_idx), key=lambda l: (-gains[l], l))
    chosen = sorted(by_strength[:serving_size])
    return chosen, float(np.asarray(gains)[chosen].sum())


def cellular_handover(serving_odu, primary, beta_lin, odu_of_oru, hysteresis_db: float):
    """Inter-O-DU handover of the cellular baseline, one UE at a time.

    A UE switches to the O-DU of the best O-RU outside its serving O-DU when that
    O-RU beats the best inside one by more than the hysteresis margin. Returns
    (serving_odu, primary, events) with events as (ue, old O-DU, new O-DU).
    """
    serving_odu, primary = np.array(serving_odu), np.array(primary)
    margin = 10.0 ** (hysteresis_db / 10.0)
    events = []
    for k in range(serving_odu.size):
        inside = odu_of_oru == serving_odu[k]
        best_inside = beta_lin[inside, k].max()
        best_outside_oru = int(np.argmax(np.where(inside, -np.inf, beta_lin[:, k])))
        if beta_lin[best_outside_oru, k] > best_inside * margin:
            new = int(odu_of_oru[best_outside_oru])
            events.append((k, int(serving_odu[k]), new))
            serving_odu[k] = new
            primary[k] = best_outside_oru
    return serving_odu, primary, events


def reload_oru(serving, primary, measurement, l, gains, n_antennas):
    """O-RU l's served row rewritten in place: its primary UEs, then its other
    tracking UEs strongest first (equal gains to the lower index) up to the
    capacity ``n_antennas``, one UE at a time."""
    own = [k for k in range(primary.size) if primary[k] == l]
    candidates = sorted((k for k in range(primary.size) if measurement[l, k] and primary[k] != l),
                        key=lambda k: (-gains[l, k], k))
    serving[l] = False
    for k in own + candidates[: max(n_antennas - len(own), 0)]:
        serving[l, k] = True


def opportunistic_clusters(beta_lin, neighbors, measurement_size: int, n_antennas: int):
    """t=0 opportunistic (primary, measurement, serving): each UE in turn claims
    its strongest O-RU with spare primary capacity and tracks that O-RU's
    nearest neighbors; then every O-RU reloads, one O-RU at a time."""
    l_num, k_num = beta_lin.shape
    primary = np.zeros(k_num, dtype=int)
    measurement = np.zeros((l_num, k_num), dtype=bool)
    counts = [0] * l_num
    for k in range(k_num):
        primary[k] = min((l for l in range(l_num) if counts[l] < n_antennas), key=lambda l: (-beta_lin[l, k], l))
        counts[primary[k]] += 1
        measurement[neighbors.measurement_set(primary[k], measurement_size), k] = True
    serving = np.zeros((l_num, k_num), dtype=bool)
    for l in range(l_num):
        reload_oru(serving, primary, measurement, l, beta_lin, n_antennas)
    return primary, measurement, serving


def opportunistic_track(primary, measurement, serving, beta_db, neighbors, measurement_size: int,
                        threshold_db: float, n_antennas: int, t: int):
    """One opportunistic tracking step one UE and one O-RU at a time.

    Returns new (primary, measurement, serving) and the events as (t, ue, kind,
    old, new) tuples: per UE in index order a handover to the strongest O-RU of
    its measurement cluster that beats the primary by more than the threshold
    and has spare primary capacity, then both O-RUs reload; finally every O-RU
    whose best unserved tracking UE beats its worst served UE by more than the
    threshold reloads.
    """
    primary, measurement, serving = np.array(primary), np.array(measurement), np.array(serving)
    l_num, k_num = serving.shape
    counts = [int(np.sum(primary == l)) for l in range(l_num)]
    events = []
    for k in range(k_num):
        current = int(primary[k])
        stronger = [l for l in range(l_num) if measurement[l, k] and beta_db[l, k] > beta_db[current, k] + threshold_db]
        free = sorted((l for l in stronger if counts[l] < n_antennas), key=lambda l: (-beta_db[l, k], l))
        if not free:
            continue
        target = free[0]
        counts[current] -= 1
        counts[target] += 1
        primary[k] = target
        measurement[:, k] = False
        measurement[neighbors.measurement_set(target, measurement_size), k] = True
        serving[~measurement[:, k], k] = False
        reload_oru(serving, primary, measurement, current, beta_db, n_antennas)
        reload_oru(serving, primary, measurement, target, beta_db, n_antennas)
        events.append((t, k, "primary_change", current, target))
    triggered = []
    for l in range(l_num):
        candidates = [beta_db[l, k] for k in range(k_num) if measurement[l, k] and not serving[l, k]]
        served = [beta_db[l, k] for k in range(k_num) if serving[l, k]]
        if candidates and served and max(candidates) > min(served) + threshold_db:
            triggered.append(l)
    for l in triggered:
        reload_oru(serving, primary, measurement, l, beta_db, n_antennas)
        events.append((t, -1, "opportunistic_reload", l, l))
    return primary, measurement, serving, events
