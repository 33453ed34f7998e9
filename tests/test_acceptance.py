"""Acceptance gate: trend reproduction at desk scale plus property/oracle suites.

Each test covers one numbered criterion and prints one pass line. Desk-scale
campaigns share setups across sweep cells (common random numbers), so ordering
gaps are certified with the standard error of the per-setup paired differences.
Episode results are memoized across criteria; the cells one (speed, setup)
still lacks run as one lockstep job.
"""

import time

import numpy as np

from cfmimo.channel import ShadowFading, one_ring_covariance, shadow_correlation
from cfmimo.clustering import (
    FIXED_RECLUSTER,
    PRIMARY_CHANGE,
    HandoverConfig,
    NeighborTable,
    fixed_handover_step,
    initial_clusters,
    opportunistic_track,
)
from cfmimo.combining import EffectiveGainStats, lsfd_weights, uplink_sinr
from cfmimo.config import SimConfig
from cfmimo.errors import SimulationError
from cfmimo.geometry import DeploymentConfig, generate_deployment
from cfmimo.signaling import account_control_plane
from cfmimo.simulate import _run_lockstep, resolve_cell, run_campaign
from oracles import mmse_estimate

SEED = 7

DESK = dict(
    deployment=DeploymentConfig(1000.0, 16, 4, 4, 10),
    ts_s=0.5,
    sim_time_s=10.0,
    n_mc=100,
    seed=SEED,
    speeds_kmh=(3.0,),
)


def desk_config(serving=8, measurement=10, n_setups=5):
    return SimConfig(
        handover=HandoverConfig("fixed", 2.0, serving, measurement),
        n_setups=n_setups,
        **DESK,
    )


_EPISODES: dict = {}


def episode_stats(cfg_key, cfg, cells):
    """Per-setup (mean SE, mean handover frequency) arrays of each requested
    (strategy, threshold, speed, setups) cell, memoized.

    The cells a (speed, setup) still lacks run as one lockstep job, which gives
    every cell the bits of its own ``run_episode``.
    """
    resolved = cfg.resolve()
    lacking: dict = {}
    for strategy, threshold, speed, setups in cells:
        for setup in range(setups):
            if (cfg_key, strategy, threshold, speed, setup) not in _EPISODES:
                lacking.setdefault((speed, setup), []).append((strategy, threshold))
    for (speed, setup), job in lacking.items():
        lanes = [resolve_cell(resolved, strategy, threshold, speed)[:2] for strategy, threshold in job]
        outcomes = _run_lockstep(resolved, lanes, float(speed), setup)
        for (strategy, threshold), outcome in zip(job, outcomes):
            if isinstance(outcome, SimulationError):
                raise outcome
            _EPISODES[cfg_key, strategy, threshold, speed, setup] = (outcome.mean_se, outcome.mean_handover_frequency)
    stats = []
    for strategy, threshold, speed, setups in cells:
        se, ho = zip(*(_EPISODES[cfg_key, strategy, threshold, speed, setup] for setup in range(setups)))
        stats.append((np.array(se), np.array(ho)))
    return stats


def paired_gap(a: np.ndarray, b: np.ndarray):
    d = a - b
    return d.mean(), d.std(ddof=1) / np.sqrt(d.size)


def test_criterion_1_se_ordering_at_walking_speed():
    """Ubiquitous > Fixed(2dB) > Cellular and Ubiquitous > Opportunistic(2dB) >
    Cellular at 3 km/h, each gap > 2 standard errors (paired over 5 shared
    setups), K=10, L=16, C=4, N=4, |serving|=8, within 10 minutes."""
    start = time.perf_counter()
    cfg = desk_config()
    thresholds = {"ubiquitous": None, "fixed": 2.0, "opportunistic": 2.0, "cellular": None}
    stats = episode_stats("desk", cfg, [(strategy, thr, 3.0, 5) for strategy, thr in thresholds.items()])
    cells = {strategy: se for strategy, (se, _) in zip(thresholds, stats)}
    for upper, lower in [
        ("ubiquitous", "fixed"),
        ("fixed", "cellular"),
        ("ubiquitous", "opportunistic"),
        ("opportunistic", "cellular"),
    ]:
        gap, stderr = paired_gap(cells[upper], cells[lower])
        assert gap > 0, f"{upper} not above {lower}"
        assert gap > 2 * stderr, f"{upper} vs {lower}: gap {gap:.4f} <= 2x stderr {stderr:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 1: SE ordering ubiquitous {cells['ubiquitous'].mean():.3f} > "
        f"fixed {cells['fixed'].mean():.3f} / opportunistic {cells['opportunistic'].mean():.3f} > "
        f"cellular {cells['cellular'].mean():.3f} (all gaps > 2 SE, {elapsed:.0f}s)"
    )


def test_criterion_2_speed_robustness():
    """Ubiquitous mean SE varies < 15% between 3 and 120 km/h; fixed(3dB) drops
    at 120 km/h by > 2 standard errors (paired over shared setups).

    The criterion pins neither load nor cluster sizes, so this test uses 20 UEs
    on the desk deployment with serving clusters of 4 of 16 O-RUs: dense enough
    that a stale cluster pays a measurable interference/misplacement penalty,
    small enough that episodes stay fast. 30 setups for the drop, 10 for the
    bounded-variation check."""
    cfg_dense = SimConfig(
        deployment=DeploymentConfig(1000.0, 16, 4, 4, 20),
        handover=HandoverConfig("fixed", 3.0, 4, 6),
        n_setups=30,
        ts_s=0.5,
        sim_time_s=10.0,
        n_mc=100,
        seed=SEED,
        speeds_kmh=(3.0,),
    )
    cells = [("ubiquitous", None, 3.0, 10), ("ubiquitous", None, 120.0, 10), ("fixed", 3.0, 3.0, 30), ("fixed", 3.0, 120.0, 30)]
    ubiq_3, ubiq_120, fixed_3, fixed_120 = (se for se, _ in episode_stats("desk-k20", cfg_dense, cells))
    variation = abs(ubiq_3.mean() - ubiq_120.mean()) / ubiq_3.mean()
    assert variation < 0.15, f"ubiquitous varies {variation:.1%} between 3 and 120 km/h"

    gap, stderr = paired_gap(fixed_3, fixed_120)
    assert gap > 2 * stderr, f"fixed(3dB) speed drop {gap:.4f} <= 2x stderr {stderr:.4f}"
    print(
        f"\nPASS criterion 2: ubiquitous variation {variation:.1%} < 15%; "
        f"fixed(3dB) drop {gap:.3f} bit/s/Hz = {gap / stderr:.1f} standard errors"
    )


def test_criterion_3_handover_frequency_trends():
    """Handover frequency: monotone non-decreasing in speed for fixed and
    opportunistic; freq(3dB) <= freq(2dB) at every speed; fixed <= opportunistic
    at equal threshold. 5 setups; violations tolerated only within one standard
    error of the paired per-setup differences."""
    cfg = desk_config()
    speeds = [3.0, 30.0, 60.0, 120.0]
    keys = [(strategy, thr, speed) for strategy in ("fixed", "opportunistic") for thr in (2.0, 3.0) for speed in speeds]
    freq = {key: ho for key, (_, ho) in zip(keys, episode_stats("desk", cfg, [key + (5,) for key in keys]))}
    for strategy in ("fixed", "opportunistic"):
        for thr in (2.0, 3.0):
            for lo, hi in zip(speeds, speeds[1:]):
                gap, stderr = paired_gap(freq[(strategy, thr, hi)], freq[(strategy, thr, lo)])
                assert gap >= -stderr, (
                    f"{strategy}({thr}dB): frequency not monotone {lo}->{hi} km/h "
                    f"(drop {-gap:.4f} > 1 stderr {stderr:.4f})"
                )
        for speed in speeds:
            gap, stderr = paired_gap(freq[(strategy, 2.0, speed)], freq[(strategy, 3.0, speed)])
            assert gap >= -stderr, f"{strategy}@{speed}: 3dB frequency above 2dB beyond 1 stderr"
    for thr in (2.0, 3.0):
        for speed in speeds:
            gap, stderr = paired_gap(freq[("opportunistic", thr, speed)], freq[("fixed", thr, speed)])
            assert gap >= -stderr, f"fixed above opportunistic at {thr}dB, {speed} km/h beyond 1 stderr"
    f2 = [freq[("fixed", 2.0, s)].mean() for s in speeds]
    o2 = [freq[("opportunistic", 2.0, s)].mean() for s in speeds]
    print(
        f"\nPASS criterion 3: handover frequency monotone in speed; fixed(2dB) {np.round(f2, 3)} "
        f"<= opportunistic(2dB) {np.round(o2, 3)} per second"
    )


def test_criterion_4_channel_model_oracles():
    """One-ring covariance vs 1e6-draw Monte Carlo within 1e-3 per entry;
    trace(R) = N beta to 1e-9 relative; shadow AR(1) lag-1 autocorrelation
    within 3 sigma over 1e5 steps. Under 2 minutes."""
    start = time.perf_counter()
    beta, phi, xi, n_ant, d_h = 0.8, np.pi / 5, np.deg2rad(10.0), 4, 0.5
    cov = one_ring_covariance(beta, phi, xi, n_ant, d_h)
    rng = np.random.default_rng(101)
    half = rng.uniform(-xi, xi, size=500_000)
    delta = np.concatenate([half, -half])
    lags = np.arange(n_ant)
    oracle = beta * np.exp(2j * np.pi * d_h * lags[:, None] * np.sin(phi + delta)).mean(axis=1)
    worst = 0.0
    for m in range(n_ant):
        for c in range(n_ant):
            lag = c - m
            expected = oracle[lag] if lag >= 0 else np.conj(oracle[-lag])
            worst = max(worst, abs(cov[m, c] - expected))
    assert worst < 1e-3, f"one-ring vs Monte-Carlo oracle deviates {worst:.2e}"
    assert abs(np.trace(cov).real - n_ant * beta) <= 1e-9 * n_ant * beta

    sigma, alpha, v, ts = 4.0, 0.05, 8.333, 0.5
    rho = shadow_correlation(alpha, v, ts)
    steps = 100_000
    rng = np.random.default_rng(102)
    shadow = ShadowFading.initial(1, 1, sigma, alpha, rng)
    series = np.empty(steps)
    for t in range(steps):
        shadow = shadow.evolve(np.array([v]), ts, rng)
        series[t] = shadow.values_db[0, 0]
    lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
    sigma_rho = np.sqrt((1 - rho**2) / steps)
    assert abs(lag1 - rho) < 3 * sigma_rho
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 4: one-ring oracle max dev {worst:.1e} < 1e-3; trace exact; "
        f"shadow lag-1 {lag1:.5f} vs {rho:.5f} within 3 sigma ({elapsed:.0f}s)"
    )


def test_criterion_5_estimation_oracles():
    """MMSE orthogonality and covariance consistency at N=4 with and without
    pilot contamination; scalar closed forms to 1e-12."""
    from test_pilots import _estimation_setup

    for contaminated in (False, True):
        cov, h, h_hat, error_covs = _estimation_setup(contaminated)
        n = h.shape[0]
        est_cov = np.einsum("dm,dn->mn", h_hat[:, 0], h_hat[:, 0].conj()) / n
        rel = np.linalg.norm(est_cov - (cov[0] - error_covs[0])) / np.linalg.norm(cov[0])
        assert rel < 0.02
        err = h[:, 0] - h_hat[:, 0]
        products = h_hat[:, 0][:, :, None] * err.conj()[:, None, :]
        cross = products.mean(axis=0)
        se_re = products.real.std(axis=0) / np.sqrt(n)
        se_im = products.imag.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(cross.real) <= 3 * se_re + 1e-12)
        assert np.all(np.abs(cross.imag) <= 3 * se_im + 1e-12)

    tau_p, p, beta, sigma2 = 10, 0.2, 0.5, 0.3
    y = np.array([0.3 + 0.9j])
    h_hat, error_cov = mmse_estimate(np.array([[beta]]), [np.array([[beta]])], y, tau_p, [p], 0, sigma2)
    expected = np.sqrt(tau_p * p) * beta / (tau_p * p * beta + sigma2) * y[0]
    assert abs(h_hat[0] - expected) < 1e-12
    assert abs(error_cov[0, 0] - beta * sigma2 / (tau_p * p * beta + sigma2)) < 1e-12
    _, balanced_error_cov = mmse_estimate(
        np.array([[beta]]), [np.array([[beta]])], y, tau_p, [p], 0, tau_p * p * beta
    )
    assert abs(balanced_error_cov[0, 0] - beta / 2) < 1e-12
    print("\nPASS criterion 5: MMSE consistency/orthogonality (clean + contaminated), scalar forms to 1e-12")


def _moment_instance(rng, n_oru, n_ue, support):
    """UE 0's mean gains (L,), per-UE second moments E[g_0i g_0i^H] (I, s, s) on
    ``support`` and noise diagonal (s,), from raw complex gain draws."""
    draws = 50
    g = rng.standard_normal((draws, n_oru, n_ue)) + 1j * rng.standard_normal((draws, n_oru, n_ue))
    mask = np.zeros(n_oru, dtype=bool)
    mask[support] = True
    g[:, ~mask, :] = 0.0
    mean = g[:, :, 0].mean(axis=0)
    blocks = np.einsum("dli,dmi->ilm", g[:, support], g[:, support].conj()) / draws
    noise = np.where(mask, rng.uniform(0.05, 0.4, size=n_oru), 0.0)[support]
    return mean, blocks, noise


def test_criterion_6_lsfd_optimality_and_scale_invariance():
    """Across 100 random statistics instances, the closed-form weights beat 1000
    random same-support perturbations (zero violations); SINR scale invariance
    holds to relative deviation < 1e-10."""
    rng = np.random.default_rng(300)
    violations = 0
    worst_scale_dev = 0.0
    for _ in range(100):
        n_oru = rng.integers(2, 6)
        n_ue = rng.integers(1, 5)
        size = rng.integers(1, n_oru + 1)
        support = np.sort(rng.choice(n_oru, size=size, replace=False))
        mean_gain, blocks, noise_diag = _moment_instance(rng, int(n_oru), int(n_ue), support)
        powers = rng.uniform(0.3, 3.0, size=int(n_ue))
        moment = np.tensordot(powers, blocks, 1) + np.diag(noise_diag)
        stats = EffectiveGainStats(ue=0, support=support, mean_gain=mean_gain, second_moment=moment)
        best = lsfd_weights(stats, powers)
        gamma_best, _ = uplink_sinr(best, stats, powers)

        scale = np.linalg.norm(best)
        noise = rng.standard_normal((1000, size)) + 1j * rng.standard_normal((1000, size))
        eps = 10 ** rng.uniform(-2, 0, size=(1000, 1))
        candidates = np.zeros((1000, len(best)), dtype=complex)
        candidates[:, support] = best[support] + eps * scale * noise
        denom = np.diag(noise_diag).astype(complex)
        for i, block in enumerate(blocks):
            denom = denom + powers[i] * block
        mean = stats.mean_gain[stats.support]
        denom = denom - powers[0] * np.outer(mean, mean.conj())
        a_sub = candidates[:, stats.support]
        nums = powers[0] * np.abs(a_sub.conj() @ mean) ** 2
        dens = np.einsum("cs,st,ct->c", a_sub.conj(), denom, a_sub).real
        gammas = np.where(dens > 0, nums / dens, np.inf)
        violations += int(np.sum(gammas > gamma_best * (1 + 1e-12)))

        for c in (0.37, -2.0 + 1.5j, 1e3j):
            gamma_scaled, _ = uplink_sinr(best * c, stats, powers)
            worst_scale_dev = max(worst_scale_dev, abs(gamma_scaled - gamma_best) / gamma_best)
    assert violations == 0, f"{violations} perturbations beat the closed-form weights"
    assert worst_scale_dev < 1e-10
    print(
        f"\nPASS criterion 6: 0/100000 perturbation wins; worst scale-invariance deviation {worst_scale_dev:.1e}"
    )


def test_criterion_7_cluster_algorithm_invariants():
    """1000-step randomized fuzz of the autonomous formation/tracking algorithms
    for N in {1, 2, 4}: per-O-RU capacity never exceeded, primaries never dropped
    by reloads, serving/served views and cluster containment consistent after
    every step."""
    for n_ant in (1, 2, 4):
        rng = np.random.default_rng(400 + n_ant)
        l_num, k_num = 8, min(2 * n_ant, 6)
        dep = DeploymentConfig(800.0, l_num, 4, n_ant, k_num)
        topology = generate_deployment(dep, rng)
        neighbors = NeighborTable(topology)
        cfg = HandoverConfig("opportunistic", 1.0, 3, 5)
        beta_db = -75.0 - 35.0 * rng.random((l_num, k_num))
        state = initial_clusters(10 ** (beta_db / 10.0), topology, cfg, n_ant, neighbors)
        state.validate(n_ant)
        for t in range(1, 1001):
            beta_db = beta_db + rng.normal(scale=2.5, size=beta_db.shape)
            if t % 97 == 0:
                beta_db += rng.normal(scale=8.0, size=beta_db.shape)
            state, events = opportunistic_track(state, beta_db, neighbors, cfg, n_ant, t)
            state.validate(n_ant)
            for event in events:
                if event.kind == "opportunistic_reload":
                    own = np.flatnonzero(state.primary == event.old)
                    assert np.all(state.serving[event.old, own]), "reload dropped a primary UE"
    print("\nPASS criterion 7: capacity, primary-retention and consistency invariants over 3x1000 fuzz steps")


def test_criterion_8_signaling_exactness():
    """Fixed-strategy worst case: when every UE reclusters in one step the
    controller burst equals |measurement cluster| * K exactly; opportunistic
    messages equal the number of primary changes exactly."""
    rng = np.random.default_rng(500)
    dep = DeploymentConfig(1000.0, 16, 4, 4, 10)
    topology = generate_deployment(dep, rng)
    neighbors = NeighborTable(topology)
    beta = 10 ** ((-80.0 - 30.0 * rng.random((16, 10))) / 10.0)
    cfg = HandoverConfig("fixed", 3.0, 8, 10)
    state = initial_clusters(beta, topology, cfg, 4, neighbors)
    state, events = fixed_handover_step(state, beta * 10 ** (-3.5 / 10.0), neighbors, cfg, 1)
    assert sum(1 for e in events if e.kind == FIXED_RECLUSTER) == 10
    delta = account_control_plane(events, state, topology.odu_of_oru)
    assert delta.ric.sum() == cfg.measurement_size * 10

    opp_cfg = HandoverConfig("opportunistic", 1.0, 3, 6)
    beta_db = -75.0 - 30.0 * rng.random((16, 10))
    opp_state = initial_clusters(10 ** (beta_db / 10.0), topology, opp_cfg, 4, neighbors)
    messages = changes = 0
    for t in range(1, 30):
        beta_db = beta_db + rng.normal(scale=4.0, size=beta_db.shape)
        opp_state, events = opportunistic_track(opp_state, beta_db, neighbors, opp_cfg, 4, t)
        changes += sum(1 for e in events if e.kind == PRIMARY_CHANGE)
        messages += int(account_control_plane(events, opp_state, topology.odu_of_oru).ric.sum())
    assert changes > 0, "fuzz produced no handovers to count"
    assert messages == changes
    print(
        f"\nPASS criterion 8: fixed burst = {cfg.measurement_size}*10 = {cfg.measurement_size * 10} messages; "
        f"opportunistic messages = primary changes = {changes}"
    )


def test_criterion_9_campaign_determinism():
    """Identical seeds give bit-identical campaign CSVs across two serial runs,
    and parallelism 8 agrees with parallelism 1 within 1e-12 per aggregate."""
    cfg = SimConfig(
        deployment=DeploymentConfig(500.0, 8, 4, 2, 4),
        handover=HandoverConfig("fixed", 2.0, 4, 6),
        sim_time_s=2.0,
        n_setups=2,
        n_mc=20,
        seed=99,
        speeds_kmh=(3.0, 30.0),
    )
    kwargs = dict(strategies=["fixed", "opportunistic"], thresholds=[2.0], speeds=[3.0, 30.0])
    serial_a = run_campaign(cfg, parallelism=1, **kwargs)
    serial_b = run_campaign(cfg, parallelism=1, **kwargs)
    assert serial_a.to_csv() == serial_b.to_csv()
    parallel = run_campaign(cfg, parallelism=8, **kwargs)
    for row_a, row_b in zip(serial_a.rows, parallel.rows):
        for field in ("mean_se", "se_stderr", "ho_freq", "ho_stderr", "ric_msgs", "inter_odu_samples"):
            a, b = getattr(row_a, field), getattr(row_b, field)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), f"{field} differs across parallelism"
    print("\nPASS criterion 9: bit-identical serial CSVs; parallel aggregates within 1e-12")
