"""Shadow fading, path loss, one-ring covariances, and channel sampling."""

import itertools
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import oracles
from numpy.polynomial.legendre import leggauss
from oracles import ring_lag_oracle
from scipy.linalg import toeplitz
from scipy.special import j0

from cfmimo import channel
from cfmimo.channel import (
    QUADRATURE_TOL,
    ChannelStatistics,
    ShadowFading,
    covariance_factor,
    jakes_autocorrelation,
    one_ring_covariance,
    path_loss_db,
    refresh_statistics,
    sample_channels,
    shadow_correlation,
)
from cfmimo.clustering import HandoverConfig
from cfmimo.config import SimConfig
from cfmimo.errors import NumericalError
from cfmimo.geometry import DeploymentConfig, generate_deployment
from cfmimo.simulate import run_episode


class TestJakes:
    def test_zero_speed_is_one(self):
        assert jakes_autocorrelation(3.5e9, 0.0, 0.5) == 1.0

    def test_reference_point_is_deep_in_the_tail(self):
        rho = jakes_autocorrelation(3.5e9, 0.8333, 0.5)
        doppler = 2 * 3.5e9 * 0.8333 / 299_792_458.0
        assert rho == pytest.approx(float(j0(np.pi * doppler * 0.5)), abs=1e-12)
        assert abs(rho) < 0.15

    def test_large_arguments_stay_small(self):
        for ts in (0.5, 1.0, 3.0, 10.0):
            rho = jakes_autocorrelation(3.5e9, 2.0, ts)
            assert abs(rho) < 0.2

    @pytest.mark.parametrize(
        "x",
        [
            0.0,
            5e-324,  # x / 2 underflows to 0
            2.404825557695773,  # the first zero
            np.pi * 2 * 3.5e9 * 0.8333 / 299_792_458.0 * 0.5,  # the reference point
            np.pi * 2 * 3.5e9 * (30.0 / 3.6) / 299_792_458.0 * 0.5,  # demos/channel_evolution.py
            *np.logspace(-3.0, 6.0, 37),
        ],
    )
    def test_bessel_j0_matches_scipy(self, x):
        # Rounding of the phases x sin t, ~eps x each, sets the error for large x:
        # ~2e-13 at x = 1e6 against scipy, which reduces its argument with the same rounding.
        assert channel._bessel_j0(x) == pytest.approx(float(j0(x)), abs=1e-12)
        assert channel._bessel_j0(-x) == channel._bessel_j0(x)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_bessel_j0_non_finite_as_scipy(self, x):
        np.testing.assert_equal(channel._bessel_j0(x), float(j0(x)))

    def test_bessel_j0_rejects_arguments_beyond_its_limit(self):
        with pytest.raises(ValueError, match="exceeds"):
            channel._bessel_j0(2 * channel._J0_MAX_ARGUMENT)

    def test_bessel_j0_memory_does_not_grow_with_the_argument(self):
        # x = 1e6 takes 679,587 nodes: 5.4 MB of float64 phases if held at once.
        nodes = channel._j0_node_count(1e6)
        assert 8 * nodes > 5e6
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            channel._bessel_j0(1e6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * channel._DRAW_BYTES, f"peak {peak / 1e3:.0f} kB"


class TestShadowFading:
    def test_zero_speed_freezes_exactly(self):
        rng = np.random.default_rng(0)
        shadow = ShadowFading.initial(4, 3, 4.0, 0.05, rng)
        evolved = shadow.evolve(np.zeros(3), 0.5, rng)
        assert np.array_equal(evolved.values_db, shadow.values_db)

    def test_correlation_coefficients(self):
        assert shadow_correlation(0.05, 8.333333, 0.5) == pytest.approx(0.81194, abs=5e-5)
        assert shadow_correlation(0.05, 0.8333333, 0.5) == pytest.approx(0.97939, abs=5e-5)

    def test_ar_statistics_match_model(self):
        # Lag-1 autocorrelation and variance over 1e5 steps, within 3 sigma.
        rng = np.random.default_rng(5)
        sigma, alpha, v, ts = 4.0, 0.05, 8.0, 0.5
        rho = shadow_correlation(alpha, v, ts)
        n = 100_000
        shadow = ShadowFading.initial(1, 1, sigma, alpha, rng)
        series = np.empty(n)
        for t in range(n):
            shadow = shadow.evolve(np.array([v]), ts, rng)
            series[t] = shadow.values_db[0, 0]
        lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        se_rho = np.sqrt((1 - rho**2) / n)
        assert abs(lag1 - rho) < 3 * se_rho
        var = series.var()
        se_var = sigma**2 * np.sqrt(2.0 / n) * np.sqrt((1 + rho**2) / (1 - rho**2))
        assert abs(var - sigma**2) < 3 * se_var


class TestPathLoss:
    def test_values(self):
        assert path_loss_db(1.0, 0.0) == pytest.approx(-34.0)
        assert path_loss_db(100.0, 0.0) == pytest.approx(-110.0)
        assert path_loss_db(10.0, 5.0) == pytest.approx(-67.0)

    def test_minimum_distance_clamp(self):
        assert path_loss_db(0.001, 0.0) == path_loss_db(1.0, 0.0)


class TestOneRing:
    def test_diagonal_is_exactly_beta(self):
        cov = one_ring_covariance(0.37, 1.1, np.deg2rad(10.0), 4, 0.5)
        assert np.allclose(np.diag(cov), 0.37, rtol=0, atol=1e-15)

    def test_zero_spread_rank_one(self):
        cov = one_ring_covariance(2.0, 0.0, 0.0, 2, 0.5)
        assert np.allclose(cov, 2.0 * np.ones((2, 2)))
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # Frozen-seed antithetic oracle: ~1e6 uniform offsets on the ring.
        beta, phi, xi, n, d_h = 1.0, np.pi / 4, np.deg2rad(10.0), 4, 0.5
        rng = np.random.default_rng(2024)
        half = rng.uniform(-xi, xi, size=500_000)
        delta = np.concatenate([half, -half])
        lags = np.arange(n)
        oracle_lags = beta * np.exp(2j * np.pi * d_h * lags[:, None] * np.sin(phi + delta)).mean(axis=1)
        cov = one_ring_covariance(beta, phi, xi, n, d_h)
        for m in range(n):
            for c in range(n):
                lag = c - m
                expected = oracle_lags[lag] if lag >= 0 else np.conj(oracle_lags[-lag])
                assert abs(cov[m, c] - expected) < 1e-3

    def test_hermitian_psd_trace(self):
        rng = np.random.default_rng(3)
        beta = rng.uniform(1e-12, 1e-6, size=(5, 4))
        phi = rng.uniform(-np.pi, np.pi, size=(5, 4))
        cov = one_ring_covariance(beta, phi, np.deg2rad(10.0), 4, 0.5)
        herm = np.abs(cov - cov.conj().swapaxes(-1, -2)).max()
        assert herm < 1e-12
        traces = np.trace(cov, axis1=-2, axis2=-1).real
        assert np.allclose(traces, 4 * beta, rtol=1e-9)
        for idx in np.ndindex(5, 4):
            eig = np.linalg.eigvalsh(cov[idx])
            assert eig.min() > -1e-9 * traces[idx]
            single = one_ring_covariance(beta[idx], phi[idx], np.deg2rad(10.0), 4, 0.5)
            assert np.allclose(single, cov[idx], rtol=1e-12, atol=0)

    def test_nonconverged_quadrature_raises(self):
        with pytest.raises(NumericalError):
            one_ring_covariance(1.0, 0.0, 1.5, 16, 40.0, nodes=4, check=True)

    @pytest.mark.parametrize("nodes", [None, 64, 128])  # None: the derived count
    @pytest.mark.parametrize("spacing_wl", [0.5, 1.0])
    def test_batched_matches_jacobi_anger_oracle(self, nodes, spacing_wl):
        rng = np.random.default_rng((nodes or 0) + int(10 * spacing_wl))
        for n_ant in (1, 2, 4, 8):
            for spread_deg in (1.0, 10.0, 25.0, 40.0):
                xi = np.deg2rad(spread_deg)
                phi = rng.uniform(-np.pi, np.pi, size=(3, 5))
                cov = one_ring_covariance(np.ones(phi.shape), phi, xi, n_ant, spacing_wl, nodes=nodes)
                assert cov.shape == (3, 5, n_ant, n_ant)
                for idx in np.ndindex(phi.shape):
                    lags = ring_lag_oracle(phi[idx], xi, n_ant, spacing_wl)
                    assert np.abs(cov[idx] - toeplitz(lags.conj(), lags)).max() < 1e-13

    @pytest.mark.parametrize("spread_deg", [1.0, 10.0, 40.0])
    def test_scalar_matches_jacobi_anger_oracle(self, spread_deg):
        xi = np.deg2rad(spread_deg)
        for n_ant, spacing_wl in ((4, 0.5), (8, 1.0)):
            for nodes in (64, 128):
                cov = one_ring_covariance(1.0, 0.7, xi, n_ant, spacing_wl, nodes=nodes)
                lags = ring_lag_oracle(0.7, xi, n_ant, spacing_wl)
                assert np.abs(cov - toeplitz(lags.conj(), lags)).max() < 1e-13

    def test_zero_spread_matches_steering_oracle(self):
        phi = np.random.default_rng(12).uniform(-np.pi, np.pi, size=(2, 3))
        for n_ant, spacing_wl in ((4, 0.5), (8, 1.0)):
            cov = one_ring_covariance(np.ones(phi.shape), phi, 0.0, n_ant, spacing_wl)
            for idx in np.ndindex(phi.shape):
                lags = ring_lag_oracle(phi[idx], 0.0, n_ant, spacing_wl)
                assert np.abs(lags - np.exp(2j * np.pi * spacing_wl * np.arange(n_ant) * np.sin(phi[idx]))).max() < 1e-13
                assert np.abs(cov[idx] - toeplitz(lags.conj(), lags)).max() < 1e-13

    @pytest.mark.parametrize("nodes", [1, 11, 63])
    def test_angle_blocks_leave_no_trace_in_bits(self, monkeypatch, nodes):
        # Bounds of 1 angle (blocks of 2), 2, 7 and all 15 angles: blocks of 2
        # and 7 leave a last block of one angle.
        phi = np.random.default_rng(14).uniform(-np.pi, np.pi, size=(3, 5))
        spread = 0.0 if nodes == 1 else 0.2
        results = []
        for angles in (1, 2, 7, 15):
            monkeypatch.setattr(channel, "_RING_BYTES", angles * 16 * nodes)
            results.append(channel._ring_lag_coefficients(phi, spread, 4, 0.5, nodes))
        for coeff in results[:-1]:
            assert np.array_equal(coeff.view(np.uint64), results[-1].view(np.uint64))


def counting_lag_evaluations(monkeypatch):
    """Patch `_ring_lag_coefficients` to record the node count of every evaluation."""
    calls = []
    evaluate = channel._ring_lag_coefficients

    def counted(phi, spread_rad, num_antennas, spacing_wl, nodes):
        calls.append(nodes)
        return evaluate(phi, spread_rad, num_antennas, spacing_wl, nodes)

    monkeypatch.setattr(channel, "_ring_lag_coefficients", counted)
    return calls


# Spreads 1-80 degrees, 2-16 antennas, 0.25-10 wavelengths and 4-64 nodes: the
# certificate holds on part of the grid and fails on the rest.
CERTIFICATE_GRID = list(
    itertools.product((1.0, 10.0, 40.0, 80.0), (2, 4, 16), (0.25, 0.5, 2.0, 10.0), (4, 16, 64))
)


class TestGaussLegendreNodes:
    # Nodes and weights come from Newton's method in numpy; numpy's eigenvalue-based
    # `leggauss` is the reference, itself ~1.4e-11 off a 40-digit reference at n = 128.
    COUNTS = range(1, 129)

    def test_matches_leggauss(self):
        for n in self.COUNTS:
            x, w = channel._gauss_legendre(n)
            x_ref, w_ref = leggauss(n)
            assert x.shape == w.shape == (n,)
            assert np.abs(x - x_ref).max() <= 2.3e-16, n
            assert (np.abs(w - w_ref) / w_ref).max() <= 5e-11, n

    def test_integrates_polynomials_to_degree_2n_minus_1(self):
        for n in self.COUNTS:
            x, w = channel._gauss_legendre(n)
            for k in range(2 * n):
                exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
                assert abs(w @ x**k - exact) <= 1e-14, (n, k)

    def test_arrays_are_read_only(self):
        x, w = channel._gauss_legendre(11)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestDoublingCertificate:
    def test_certified_implies_evaluated_check_passes(self):
        rng = np.random.default_rng(31)
        certified = failed = 0
        for spread_deg, n_ant, spacing_wl, nodes in CERTIFICATE_GRID:
            xi = np.deg2rad(spread_deg)
            phi = rng.uniform(-np.pi, np.pi, size=32)
            coarse = channel._ring_lag_coefficients(phi, xi, n_ant, spacing_wl, nodes)
            fine = channel._ring_lag_coefficients(phi, xi, n_ant, spacing_wl, 2 * nodes)
            passes = np.abs(coarse - fine).max() <= QUADRATURE_TOL
            if channel._doubling_check_proved(phi, xi, n_ant, spacing_wl, nodes):
                certified += 1
                assert passes, (spread_deg, n_ant, spacing_wl, nodes)
            failed += not passes
        # The grid exercises both sides of the certificate.
        assert certified >= len(CERTIFICATE_GRID) // 3 and failed >= len(CERTIFICATE_GRID) // 4

    def test_bound_covers_error_against_jacobi_anger_oracle(self):
        rng = np.random.default_rng(32)
        for spread_deg, n_ant, spacing_wl, nodes in CERTIFICATE_GRID:
            xi = np.deg2rad(spread_deg)
            bound = channel._ring_quadrature_error_bound(xi, n_ant, spacing_wl, nodes)
            if bound >= 2.0:
                continue  # the trivial bound: quadrature and ring mean both have modulus <= 1
            phi = rng.uniform(-np.pi, np.pi, size=3)
            coeff = channel._ring_lag_coefficients(phi, xi, n_ant, spacing_wl, nodes)
            for i, angle in enumerate(phi):
                error = np.abs(coeff[i] - ring_lag_oracle(angle, xi, n_ant, spacing_wl)).max()
                assert error <= bound + 1e-12, (spread_deg, n_ant, spacing_wl, nodes, error, bound)

    def test_reference_refresh_evaluates_lags_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        topo = generate_deployment(DeploymentConfig(1000.0, 36, 9, 4, 40), rng)
        shadow = ShadowFading.initial(36, 40, 4.0, 0.05, rng)
        positions = rng.uniform(0, 1000.0, size=(40, 2))
        calls = counting_lag_evaluations(monkeypatch)
        refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 4, 0.5)
        assert calls == [11]
        assert channel._ring_quadrature_error_bound(np.deg2rad(10.0), 4, 0.5, 11) < 1e-18

    def test_uncertified_configuration_evaluates_the_check(self, monkeypatch):
        calls = counting_lag_evaluations(monkeypatch)
        with pytest.raises(NumericalError):
            one_ring_covariance(1.0, 0.0, 1.5, 16, 40.0, nodes=4, check=True)
        assert calls == [4, 8]

    def test_huge_angles_fall_back_to_the_evaluated_check(self, monkeypatch):
        # Truncation is negligible here, but rounding of phi + xi x near 1e10 rad
        # alone moves the doubled lags by more than QUADRATURE_TOL.
        phi = 1e10 + np.random.default_rng(0).uniform(-3.0, 3.0, size=64)
        xi = 1e-3
        assert channel._ring_node_count(xi, 4, 0.5) == 5
        assert channel._ring_quadrature_error_bound(xi, 4, 0.5, 5) < 1e-19
        assert not channel._doubling_check_proved(phi, xi, 4, 0.5, 5)
        calls = counting_lag_evaluations(monkeypatch)
        with pytest.raises(NumericalError):
            one_ring_covariance(np.ones(phi.shape), phi, xi, 4, 0.5)
        assert calls == [5, 10]

    def test_negative_zero_and_nan_spreads(self, monkeypatch):
        calls = counting_lag_evaluations(monkeypatch)
        xi = np.deg2rad(10.0)
        negative = one_ring_covariance(1.0, 0.7, -xi, 4, 0.5)
        assert calls == [11]
        lags = ring_lag_oracle(0.7, xi, 4, 0.5)
        assert np.abs(negative - toeplitz(lags.conj(), lags)).max() < 1e-13
        calls.clear()
        zero = one_ring_covariance(1.0, 0.7, 0.0, 4, 0.5)
        assert calls == [5]  # the count of a zero spread; the ring collapses to one node anyway
        assert np.array_equal(zero, one_ring_covariance(1.0, 0.7, 0.0, 4, 0.5, check=False))
        calls.clear()
        # Never certified: the check is evaluated, and a NaN difference fails it.
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="nan"):
            one_ring_covariance(1.0, 0.7, np.nan, 4, 0.5)
        assert calls == [64, 128]
        calls.clear()
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="nan"):
            one_ring_covariance(1.0, np.nan, xi, 4, 0.5)
        assert calls == [11, 22]

    def test_single_antenna_is_certified(self, monkeypatch):
        calls = counting_lag_evaluations(monkeypatch)
        cov = one_ring_covariance(2.0, 0.3, np.deg2rad(80.0), 1, 40.0, nodes=4)
        assert calls == [4]
        assert cov.shape == (1, 1) and cov[0, 0] == 2.0


EPS_TARGET = np.finfo(float).eps / 8


def ledger_entries(result):
    """Every per-step ledger delta of an episode, field by field."""
    return [(step, [getattr(delta, f.name).tolist() for f in fields(delta)]) for step, delta in result.ledger.steps]


class TestNodeCount:
    def test_fewest_nodes_whose_bound_is_within_target(self):
        bound = channel._ring_quadrature_error_bound
        certified = capped = 0
        for spread_deg, n_ant, spacing_wl in sorted({config[:3] for config in CERTIFICATE_GRID}):
            xi = np.deg2rad(spread_deg)
            m = channel._ring_node_count(xi, n_ant, spacing_wl)
            if bound(xi, n_ant, spacing_wl, m) <= EPS_TARGET:
                certified += 1
                assert m == 1 or bound(xi, n_ant, spacing_wl, m - 1) > EPS_TARGET, (spread_deg, n_ant, spacing_wl)
            else:
                capped += 1
                assert m == channel.QUADRATURE_NODES, (spread_deg, n_ant, spacing_wl)
        assert certified and capped

    def test_reference_scenario_takes_eleven_nodes(self):
        xi = np.deg2rad(10.0)
        assert channel._ring_node_count(xi, 4, 0.5) == 11
        assert channel._ring_quadrature_error_bound(xi, 4, 0.5, 10) > EPS_TARGET

    def test_cap_without_a_certified_count(self):
        assert channel._ring_node_count(np.nan, 4, 0.5) == channel.QUADRATURE_NODES
        assert channel._ring_node_count(np.deg2rad(10.0), 4, np.inf) == channel.QUADRATURE_NODES
        xi = np.deg2rad(80.0)
        assert channel._ring_node_count(xi, 16, 40.0) == channel.QUADRATURE_NODES
        assert channel._ring_quadrature_error_bound(xi, 16, 40.0, channel.QUADRATURE_NODES) > EPS_TARGET

    def test_desk_episode_matches_the_node_cap(self, monkeypatch):
        # Opportunistic at 120 km/h: the covariances move and clusters hand over every step.
        cfg = SimConfig(
            deployment=DeploymentConfig(1000.0, 16, 4, 4, 10), n_mc=50, sim_time_s=2.5, seed=3,
            handover=HandoverConfig("opportunistic", 1.0, 8, 10),
        )
        derived = run_episode(cfg, 0, speed_kmh=120.0)
        monkeypatch.setattr(channel, "_ring_node_count", lambda *config: channel.QUADRATURE_NODES)
        capped = run_episode(cfg, 0, speed_kmh=120.0)
        assert abs(derived.mean_se - capped.mean_se) <= 1e-10 * abs(capped.mean_se)
        assert derived.events and derived.events == capped.events
        assert ledger_entries(derived) == ledger_entries(capped)
        assert derived.invalid_samples == capped.invalid_samples


class TestSampling:
    def test_zero_covariance_gives_zero(self):
        factor = covariance_factor(np.zeros((1, 1, 3, 3), dtype=complex))
        h = sample_channels(factor, 5, np.random.default_rng(0))
        assert h.shape == (5, 1, 1, 3)
        assert np.all(h == 0)

    def test_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(4)
        beta = rng.uniform(0.2, 2.0, size=(3, 5))
        factor = covariance_factor(one_ring_covariance(beta, rng.uniform(-np.pi, np.pi, beta.shape), 0.2, 4, 0.5))
        draws, reference = np.random.default_rng(11), np.random.default_rng(11)
        h = sample_channels(factor, 7, draws)
        assert np.array_equal(h, oracles.sample_channels(factor, 7, reference))
        # The stream is left where the oracle leaves it.
        assert draws.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("chunk_doubles", [1, 13, 420])
    def test_chunked_draws_match_oracle_bit_for_bit(self, monkeypatch, chunk_doubles):
        # Budgets of 1, 13 and 420 real draws over the 7 x 3 x 5 x 4 draws: chunks of one (5, 4)
        # matrix, the least a chunk holds, and one chunk for each part. Chunked draws continue the
        # stream as one draw does, and the 1/sqrt(2) scale has the bits of the oracle's complex
        # division.
        monkeypatch.setattr(channel, "_DRAW_BYTES", 8 * chunk_doubles)
        rng = np.random.default_rng(4)
        beta = rng.uniform(0.2, 2.0, size=(3, 5))
        factor = covariance_factor(one_ring_covariance(beta, rng.uniform(-np.pi, np.pi, beta.shape), 0.2, 4, 0.5))
        draws, reference = np.random.default_rng(12), np.random.default_rng(12)
        h = sample_channels(factor, 7, draws)
        assert np.array_equal(h.view(np.uint64), oracles.sample_channels(factor, 7, reference).view(np.uint64))
        assert draws.bit_generator.state == reference.bit_generator.state
        scaled = channel.complex_normal_draws((2, 9), draws, 0.3)
        x, y = reference.standard_normal((2, 9)), reference.standard_normal((2, 9))
        assert np.array_equal(scaled.view(np.uint64), ((x + 1j * y) * 0.3).view(np.uint64))

    @pytest.mark.parametrize("draws_per_block", [1, 3, 7])
    def test_in_place_mixing_matches_oracle_bit_for_bit(self, monkeypatch, draws_per_block):
        # One draw of 3 x 5 x 4 complex entries takes 960 B: blocks of one, three (the last one
        # short) or all seven draws are mixed in place, and each has the bits of the oracle's one
        # product over every draw; the stream ends where the oracle's does.
        monkeypatch.setattr(channel, "_DRAW_BYTES", draws_per_block * 960)
        rng = np.random.default_rng(4)
        beta = rng.uniform(0.2, 2.0, size=(3, 5))
        factor = covariance_factor(one_ring_covariance(beta, rng.uniform(-np.pi, np.pi, beta.shape), 0.2, 4, 0.5))
        draws, reference = np.random.default_rng(12), np.random.default_rng(12)
        h = sample_channels(factor, 7, draws)
        assert np.array_equal(h.view(np.uint64), oracles.sample_channels(factor, 7, reference).view(np.uint64))
        assert draws.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("matrices_per_chunk", [1, 3, 20])
    def test_kept_rows_match_full_draw_bit_for_bit(self, monkeypatch, matrices_per_chunk):
        # (4, 5) draws of (6, 3) matrices in chunks of one, three or all 20 matrices: every kept
        # row, in any order, has the bits of the full draw's, and the stream ends where the full
        # draw leaves it, for no row, one row, a permuted subset and every row.
        monkeypatch.setattr(channel, "_DRAW_BYTES", matrices_per_chunk * 6 * 3 * 8)
        for rows in (np.array([], dtype=int), np.array([4]), np.array([5, 0, 2]), np.arange(6), None):
            draws, reference = np.random.default_rng(21), np.random.default_rng(21)
            kept = channel.complex_normal_draws((4, 5, 6, 3), draws, 0.7, rows)
            x, y = reference.standard_normal((4, 5, 6, 3)), reference.standard_normal((4, 5, 6, 3))
            full = (x + 1j * y) * 0.7
            assert np.array_equal(kept.view(np.uint64), (full if rows is None else full[..., rows, :]).view(np.uint64))
            assert draws.bit_generator.state == reference.bit_generator.state

    def test_sample_covariance_consistency(self):
        cov = one_ring_covariance(1.0, 0.6, np.deg2rad(10.0), 4, 0.5)
        factor = covariance_factor(cov)
        draws = sample_channels(factor[None, None], 100_000, np.random.default_rng(8))[:, 0, 0]
        empirical = np.einsum("dm,dn->mn", draws, draws.conj()) / draws.shape[0]
        rel = np.linalg.norm(empirical - cov) / np.linalg.norm(cov)
        assert rel < 0.02

    def test_rank_one_draws_parallel_to_steering(self):
        cov = one_ring_covariance(1.0, 0.4, 0.0, 4, 0.5)
        draws = sample_channels(covariance_factor(cov)[None, None], 20, np.random.default_rng(9))[:, 0, 0]
        steering = cov[:, 0] / np.linalg.norm(cov[:, 0])
        for h in draws:
            residual = h - steering * (steering.conj() @ h)
            # sqrt of clipped ~1e-16 eigenvalues leaves ~1e-8 relative residual
            assert np.linalg.norm(residual) < 1e-6 * max(np.linalg.norm(h), 1.0)

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(NumericalError):
            covariance_factor(bad)


class TestRefresh:
    def _setup(self, sigma_sf=0.0):
        rng = np.random.default_rng(4)
        dep = DeploymentConfig(1000.0, 4, 4, 2, 3)
        topo = generate_deployment(dep, rng)
        shadow = ShadowFading.initial(4, 3, sigma_sf, 0.05, rng)
        positions = rng.uniform(0, 1000.0, size=(3, 2))
        return topo, shadow, positions

    def test_static_inputs_static_outputs(self):
        topo, shadow, positions = self._setup()
        a = refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 2, 0.5)
        b = refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 2, 0.5)
        assert np.array_equal(a.beta_db, b.beta_db)
        assert np.array_equal(a.covariance, b.covariance)

    def test_receding_ue_gain_decreases(self):
        topo, shadow, _ = self._setup(sigma_sf=0.0)
        oru = topo.oru_positions[0]
        gains = []
        for d in np.linspace(20.0, 200.0, 12):
            pos = np.array([[oru[0] + d, oru[1]]]) % 1000.0
            stats = refresh_statistics(topo, pos, ShadowFading(np.zeros((4, 1)), 0.0, 0.05), np.deg2rad(10.0), 2, 0.5)
            gains.append(stats.beta_db[0, 0])
        assert np.all(np.diff(gains) < 0)

    def test_full_scale_refresh_under_one_second(self):
        rng = np.random.default_rng(6)
        dep = DeploymentConfig(1000.0, 36, 9, 4, 40)
        topo = generate_deployment(dep, rng)
        shadow = ShadowFading.initial(36, 40, 4.0, 0.05, rng)
        positions = rng.uniform(0, 1000.0, size=(40, 2))
        start = time.perf_counter()
        stats = refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 4, 0.5)
        elapsed = time.perf_counter() - start
        assert isinstance(stats, ChannelStatistics)
        assert stats.covariance.shape == (36, 40, 4, 4)
        assert elapsed < 1.0

    def test_peak_memory_at_reference_deployment(self):
        rng = np.random.default_rng(6)
        topo = generate_deployment(DeploymentConfig(1000.0, 36, 9, 4, 40), rng)
        shadow = ShadowFading.initial(36, 40, 4.0, 0.05, rng)
        positions = rng.uniform(0, 1000.0, size=(40, 2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 4, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"

    def test_quadrature_check_stays_on(self):
        topo, shadow, positions = self._setup()
        args = (topo, positions, shadow, np.deg2rad(80.0), 4, 40.0)
        with pytest.raises(NumericalError):
            refresh_statistics(*args, check_quadrature=True)
        stats = refresh_statistics(*args, check_quadrature=False)
        assert stats.covariance.shape == (4, 3, 4, 4)

    def test_non_finite_gain_raises_naming_the_pair(self):
        topo, _, positions = self._setup()
        values = np.zeros((4, 3))
        values[2, 1], values[3, 0] = 5000.0, 1e300
        with pytest.raises(NumericalError, match=r"\(O-RU 2, UE 1\) is not finite: beta_db = 4\d{3}"):
            refresh_statistics(topo, positions, ShadowFading(values, 0.0, 0.05), np.deg2rad(10.0), 2, 0.5)
        # Shadowing that wide on every pair stops at the gain, not in the factorization.
        topo, shadow, positions = self._setup(sigma_sf=5000.0)
        with pytest.raises(NumericalError, match="is not finite"):
            refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 4, 0.5)

    def test_underflowing_gain_is_zero(self):
        topo, _, positions = self._setup()
        values = np.zeros((4, 3))
        values[1, 2] = -5000.0
        stats = refresh_statistics(topo, positions, ShadowFading(values, 0.0, 0.05), np.deg2rad(10.0), 2, 0.5)
        assert stats.beta_lin[1, 2] == 0.0
        assert not np.any(stats.covariance[1, 2]) and not np.any(stats.factor[1, 2])

    def test_factor_reproduces_covariance(self):
        topo, shadow, positions = self._setup(sigma_sf=4.0)
        stats = refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 2, 0.5)
        rebuilt = stats.factor @ stats.factor.conj().swapaxes(-1, -2)
        assert np.allclose(rebuilt, stats.covariance, atol=1e-15 + 1e-9 * np.abs(stats.covariance).max())

    def test_beta_consistency(self):
        topo, shadow, positions = self._setup(sigma_sf=4.0)
        stats = refresh_statistics(topo, positions, shadow, np.deg2rad(10.0), 2, 0.5)
        assert np.allclose(10 * np.log10(stats.beta_lin), stats.beta_db)
