"""Built-in oracle suite: fast, deterministic spot checks of the numerical core.

Each check re-derives an expected value through an independent route (brute-force
enumeration, Monte Carlo, scalar algebra, dense solves) and compares the
implementation against it. Run via ``cfmimo selftest``; the full pytest suite
covers the same ground far more thoroughly.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv

from . import clustering, geometry, signaling
from .channel import (
    covariance_factor,
    jakes_autocorrelation,
    one_ring_covariance,
    path_loss_db,
    sample_channels,
    shadow_correlation,
)
from .combining import lsfd_weights, uplink_sinr
from .config import SimConfig
from .pilots import PilotConfig, mmse_filters
from .simulate import run_episode

_CHECKS = []


def _check(name):
    def deco(fn):
        _CHECKS.append((name, fn))
        return fn

    return deco


@_check("torus distance equals 9-image brute force")
def _torus_distance():
    rng = np.random.default_rng(11)
    side = 750.0
    a = rng.uniform(0, side, size=(20, 2))
    b = rng.uniform(0, side, size=(10, 2))
    dist = geometry.wrap_distance_matrix(a, b, side)
    for i in range(20):
        for j in range(10):
            brute = min(
                float(np.hypot(b[j, 0] + x * side - a[i, 0], b[j, 1] + y * side - a[i, 1]))
                for x in (-1, 0, 1)
                for y in (-1, 0, 1)
            )
            assert abs(dist[i, j] - brute) < 1e-9


@_check("path loss and shadow correlation scalars")
def _scalars():
    assert abs(path_loss_db(1.0) - (-34.0)) < 1e-12
    assert abs(path_loss_db(100.0) - (-110.0)) < 1e-12
    assert abs(shadow_correlation(0.05, 8.333333, 0.5) - np.exp(-0.05 * 8.333333 * 0.5)) < 1e-12
    assert jakes_autocorrelation(3.5e9, 0.0, 0.5) == 1.0
    assert abs(jakes_autocorrelation(3.5e9, 0.8333, 0.5)) < 0.15


@_check("one-ring covariance matches its Monte-Carlo and Jacobi-Anger oracles")
def _one_ring():
    rng = np.random.default_rng(3)
    beta, phi, xi, n, d_h = 0.7, np.pi / 4, np.deg2rad(10.0), 4, 0.5
    cov = one_ring_covariance(beta, phi, xi, n, d_h)
    delta = xi * (2.0 * rng.random(200_000) - 1.0)
    delta = np.concatenate([delta, -delta])
    lags = np.arange(n)
    oracle = beta * np.exp(2j * np.pi * d_h * lags[:, None] * np.sin(phi + delta)).mean(axis=1)
    assert np.abs(cov[0] - oracle).max() < 3e-3
    # Jacobi-Anger: exp(j a sin t) = sum_n J_n(a) e^{jnt}; the ring average of
    # e^{jnt} is e^{jn phi} sin(n xi) / (n xi). |n| <= 60 is far past a = 3 pi.
    terms = np.arange(-60, 61)
    ring = np.exp(1j * terms * phi) * np.sinc(terms * xi / np.pi)
    series = beta * np.array([jv(terms, 2.0 * np.pi * d_h * d) @ ring for d in range(n)])
    assert np.abs(cov[0] - series).max() < 1e-13
    assert np.abs(np.trace(cov) - n * beta) < 1e-9
    assert np.abs(cov - cov.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(cov).min() > -1e-9 * np.trace(cov).real


@_check("channel sampler reproduces its covariance")
def _sampler():
    rng = np.random.default_rng(4)
    cov = one_ring_covariance(1.0, 0.3, np.deg2rad(10.0), 3, 0.5)
    draws = sample_channels(covariance_factor(cov)[None, None], 20_000, rng)[:, 0, 0]
    empirical = (draws[:, :, None] * draws.conj()[:, None, :]).mean(axis=0)
    rel = np.linalg.norm(empirical - cov) / np.linalg.norm(cov)
    assert rel < 0.05


@_check("scalar MMSE estimate matches closed form")
def _mmse_scalar():
    tau_p, p, beta, sigma2, y = 10, 0.2, 0.5, 0.3, np.array([1.0 - 0.5j])
    pilots = PilotConfig(tau_p, np.array([0]), np.array([p]))
    filters, error_covs = mmse_filters(np.full((1, 1, 1, 1), beta + 0j), pilots, sigma2)
    expected = np.sqrt(tau_p * p) * beta / (tau_p * p * beta + sigma2) * y
    assert np.abs(filters[0, 0] @ y - expected).max() < 1e-12
    assert abs(error_covs[0, 0, 0, 0] - beta * sigma2 / (tau_p * p * beta + sigma2)) < 1e-12


@_check("second-stage weights maximize the combined SINR")
def _lsfd_optimal():
    from .combining import EffectiveGainStats

    rng = np.random.default_rng(5)
    for _ in range(5):
        n_oru, n_ue = 3, 3
        g = (rng.standard_normal((60, n_oru, n_ue, n_ue)) + 1j * rng.standard_normal((60, n_oru, n_ue, n_ue)))
        powers = np.full(n_ue, 0.5)
        k = 0
        mean = g[:, :, k, k].mean(axis=0)
        second = np.einsum("dli,dmi->ilm", g[:, :, k], g[:, :, k].conj()) / 60
        stats = EffectiveGainStats(
            ue=k,
            support=np.arange(n_oru),
            mean_gain=mean,
            second_moments=second,
            noise_diag=np.full(n_oru, 0.1),
            interferers=np.arange(n_ue),
        )
        best = lsfd_weights(stats, powers)
        gamma_best, _ = uplink_sinr(best, stats, powers)
        gamma2, _ = uplink_sinr(best * (0.3 - 1.7j), stats, powers)
        assert abs(gamma_best - gamma2) / gamma_best < 1e-10
        for _ in range(200):
            other = best + 0.1 * (rng.standard_normal(n_oru) + 1j * rng.standard_normal(n_oru))
            gamma_other, _ = uplink_sinr(other, stats, powers)
            assert gamma_other <= gamma_best * (1 + 1e-12)


@_check("cluster algorithms hold their invariants under fuzzing")
def _cluster_fuzz():
    rng = np.random.default_rng(6)
    dep = geometry.DeploymentConfig(400.0, 8, 4, 2, 6)
    topology = geometry.generate_deployment(dep, rng)
    neighbors = clustering.NeighborTable(topology)
    cfg = clustering.HandoverConfig(
        strategy="opportunistic", threshold_db=1.0, serving_size=3, measurement_size=5
    )
    beta_db = -70.0 - 30.0 * rng.random((8, 6))
    state = clustering.initial_clusters(10 ** (beta_db / 10.0), topology, cfg, 2, neighbors)
    state.validate(2)
    for t in range(1, 51):
        beta_db = beta_db + rng.normal(scale=2.0, size=beta_db.shape)
        prev_primary = state.primary.copy()
        state, events = clustering.opportunistic_track(state, beta_db, neighbors, cfg, 2, t)
        state.validate(2)
        for e in events:
            if e.kind == clustering.OPPORTUNISTIC_RELOAD:
                assert np.all(state.serving[e.old, state.primary == e.old])


@_check("signaling counts are exact")
def _signaling():
    rng = np.random.default_rng(7)
    dep = geometry.DeploymentConfig(600.0, 8, 4, 4, 5)
    topology = geometry.generate_deployment(dep, rng)
    beta = rng.random((8, 5)) + 0.1
    ubiquitous = clustering.HandoverConfig(strategy="ubiquitous", serving_size=1, measurement_size=8)
    state = clustering.initial_clusters(beta, topology, ubiquitous, 4)
    frame = signaling.FrameConfig(tau_u=50, blocks_per_step=1)
    delta = signaling.account_data_plane(state, frame, topology.odu_of_oru)
    assert delta.fronthaul.sum() == 50 * 8 * 5
    assert delta.inter_odu.sum() == 50 * 5 * 3  # 3 non-primary O-DUs per UE
    events = [clustering.HandoverEvent(1, k, clustering.FIXED_RECLUSTER, 0, 1) for k in range(5)]
    fixed_state = state.copy()
    fixed_state.strategy = "fixed"
    fixed_state.measurement[:, :] = False
    fixed_state.measurement[:4, :] = True
    ctrl = signaling.account_control_plane(events, fixed_state, topology.odu_of_oru)
    assert ctrl.ric.sum() == 4 * 5


@_check("episodes are reproducible end to end")
def _episode_determinism():
    cfg = SimConfig(
        deployment=geometry.DeploymentConfig(500.0, 4, 4, 2, 3),
        handover=clustering.HandoverConfig("opportunistic", 2.0, 2, 3),
        n_setups=1,
        n_mc=20,
        sim_time_s=2.0,
        seed=123,
        speeds_kmh=(30.0,),
    )
    a = run_episode(cfg, 0)
    b = run_episode(cfg, 0)
    assert np.array_equal(a.se, b.se)
    assert len(a.events) == len(b.events)


def run_selftest(quick: bool = False) -> int:
    failures = 0
    for name, fn in _CHECKS:
        if quick and name in ("one-ring covariance matches its Monte-Carlo and Jacobi-Anger oracles",
                              "channel sampler reproduces its covariance"):
            print(f"skip - {name}")
            continue
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report any failure uniformly
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok   - {name}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return failures
