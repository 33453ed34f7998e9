"""Local combiners, effective-gain statistics, second-stage weights, SINR."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfmimo import combining
from cfmimo import pilots as pilots_mod
from cfmimo.channel import (
    ChannelStatistics,
    covariance_factor,
    one_ring_covariance,
    sample_channels,
)
from cfmimo.combining import (
    EffectiveGainStats,
    EstimationDraws,
    GainMoments,
    draw_estimates,
    gain_moments,
    lsfd_weights,
    second_stage,
    served_combiners,
    simulate_gain_moments,
    stats_for_ue,
    uplink_sinr,
)
from cfmimo.errors import NumericalError
from cfmimo.pilots import PilotConfig, apply_filters, mmse_filters, observe_pilots
from oracles import (
    combiner_power,
    full_gain_moments,
    gathered_gain_moments,
    local_mmse_combiners,
    one_ue_lp_mmse_moments,
    second_stage_oracle,
)


def make_stats(covs: np.ndarray) -> ChannelStatistics:
    """ChannelStatistics from a raw (L, K, N, N) covariance stack."""
    beta_lin = np.trace(covs, axis1=-2, axis2=-1).real / covs.shape[-1]
    return ChannelStatistics(
        beta_db=10 * np.log10(beta_lin),
        beta_lin=beta_lin,
        aoa_rad=np.zeros(covs.shape[:2]),
        covariance=covs,
        factor=covariance_factor(covs),
    )


def ring_stack(rng, l_num, k_num, n_ant, beta_scale=1.0):
    covs = np.empty((l_num, k_num, n_ant, n_ant), dtype=complex)
    for l in range(l_num):
        for k in range(k_num):
            covs[l, k] = one_ring_covariance(
                beta_scale * rng.uniform(0.2, 2.0), rng.uniform(-np.pi, np.pi),
                np.deg2rad(10.0), n_ant, 0.5,
            )
    return covs


def one_oru_combiners(h_hat, error_covs, powers, sigma2, serving=None):
    """Combiners of one O-RU and one draw: (K, N) estimates -> (K, N) combiners,
    zero rows for the UEs it does not serve."""
    k_num = h_hat.shape[0]
    serving = np.ones((1, k_num), dtype=bool) if serving is None else np.asarray([serving])
    draws = EstimationDraws(None, h_hat[None], np.arange(k_num)[None], error_covs)
    served = served_combiners(serving, draws, np.asarray(powers), sigma2)
    combiners = np.zeros_like(h_hat)
    ues = np.flatnonzero(serving[0])
    combiners[ues] = served.values[0, served.column[0, ues]]
    return combiners


class TestLpMmse:
    def test_single_ue_closed_form(self):
        beta, p, sigma2 = 0.8, 0.5, 0.3
        h_hat = np.array([[np.sqrt(beta), 0.0, 0.0]], dtype=complex)
        v = one_oru_combiners(h_hat, np.zeros((1, 3, 3)), [p], sigma2)[0]
        expected = p * np.sqrt(beta) / (p * beta + sigma2)
        assert np.allclose(v, [expected, 0.0, 0.0], rtol=1e-12)

    def test_unserved_ue_gets_zero(self):
        h_hat = np.ones((2, 2), dtype=complex)
        error_covs = np.stack([np.eye(2) * 0.1] * 2)
        v = one_oru_combiners(h_hat, error_covs, [1.0, 1.0], 0.2, serving=[True, False])
        assert np.all(v[1] == 0)
        assert np.all(h_hat == 1)  # the estimates passed in are not written into
        # The unserved UE stays out of the served UE's Gram matrix.
        assert np.allclose(v[0], one_oru_combiners(h_hat[:1], error_covs[:1], [1.0], 0.2)[0], rtol=1e-12)

    def test_two_ue_scalar_brute_force(self):
        p = {0: 0.7, 1: 1.3}
        h = {0: np.array([0.9 + 0.1j]), 1: np.array([-0.4 + 0.6j])}
        c = {0: np.array([[0.05]]), 1: np.array([[0.2]])}
        sigma2 = 0.15
        denominator = (
            p[0] * (abs(h[0][0]) ** 2 + c[0][0, 0])
            + p[1] * (abs(h[1][0]) ** 2 + c[1][0, 0])
            + sigma2
        )
        v = one_oru_combiners(np.stack([h[0], h[1]]), np.stack([c[0], c[1]]), [p[0], p[1]], sigma2)
        assert abs(v[1, 0] - p[1] * h[1][0] / denominator) < 1e-12


def served_sets(k_num, sets):
    """(L, K) serving map from the served UE list of each O-RU."""
    serving = np.zeros((len(sets), k_num), dtype=bool)
    for l, ues in enumerate(sets):
        serving[l, ues] = True
    return serving


# Six O-RUs and five UEs. In the first map UE 4 is unserved, O-RU 0 serves
# nobody and O-RU 1 one UE; in the second O-RUs 0 and 5 serve every UE.
SERVING_MAPS = (
    served_sets(5, [[], [2], [0, 1, 3], [0, 3], [1, 2, 3], [0, 1]]),
    served_sets(5, [[0, 1, 2, 3, 4], [1], [0, 4], [], [2, 3, 4], [0, 1, 2, 3, 4]]),
)


class TestServedCombiners:
    """The batch-last elimination against the dense LAPACK solve over all K columns."""

    # Largest deviation of a combiner from the dense solve, relative to its largest entry. LDL^H
    # and LAPACK's LU round differently; on these well-conditioned systems they differ by at most
    # 3.7e-14 (on the worst-conditioned systems of the benchmark workloads, 7.6e-10).
    RTOL = 1e-12

    @pytest.mark.parametrize("tau_p", [5, 2])  # orthogonal pilots, and shared ones (tau_p < K)
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("n_ant", [2, 4])
    def test_served_columns_match_dense_oracle(self, tau_p, which, n_ant):
        serving, other = SERVING_MAPS[which], SERVING_MAPS[1 - which]
        l_num, k_num = serving.shape
        rng = np.random.default_rng(20 + which)
        stats = make_stats(ring_stack(rng, l_num, k_num, n_ant))
        pilots = PilotConfig(tau_p, np.arange(k_num) % tau_p, rng.uniform(0.5, 2.0, size=k_num))
        sigma2, n_mc = 0.2, 30

        replay = np.random.default_rng(7)
        filters, error_covs = mmse_filters(stats.covariance, pilots, sigma2)
        h = sample_channels(stats.factor, n_mc, replay)
        h_hat = apply_filters(filters, observe_pilots(h, pilots, sigma2, replay))
        dense = local_mmse_combiners(serving, h_hat, error_covs, pilots.power_mw, sigma2)

        orus, ues = np.nonzero(serving)
        # The estimated pairs of a lockstep step are a superset of each cell's served pairs.
        for needed in (serving, serving | other, np.ones_like(serving)):
            draws = draw_estimates(stats, pilots, sigma2, n_mc, np.random.default_rng(7), needed)
            assert_same_bits(draws.channels, h)
            assert np.all(draws.column[~needed] == -1)
            estimated = np.nonzero(needed)
            assert_same_bits(draws.estimates[:, draws.column[estimated]], h_hat[:, estimated[0], estimated[1]])
            # The error covariances are one stack over the estimated pairs, in the estimates' order.
            assert draws.error_covs.shape == (needed.sum(), n_ant, n_ant)
            assert_same_bits(draws.error_covs[draws.column[estimated]], error_covs[estimated])

            served = served_combiners(serving, draws, pilots.power_mw, sigma2)
            assert served.values.shape == (n_mc, serving.sum(), n_ant)
            assert np.all(served.column[~serving] == -1)
            deviation = np.abs(served.values[:, served.column[orus, ues]] - dense[:, orus, ues]).max(axis=-1)
            assert np.all(deviation <= self.RTOL * np.abs(dense[:, orus, ues]).max(axis=-1))

            # With every power 0, each UE's moment holds its noise terms F_k alone.
            power = combiner_power(served.values)
            moments = gain_moments(served, sigma2, np.zeros(k_num))
            for k in range(k_num):
                support = np.flatnonzero(serving[:, k])
                noise = np.diag(sigma2 * power[served.column[support, k]] / n_mc).astype(complex)
                assert_same_bits(moments.second_moment[k, : support.size, : support.size], noise)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("n_ant", [2, 4])
    def test_bits_independent_of_blocks_and_group(self, monkeypatch, which, n_ant):
        # A bound of 1 byte solves one draw per block, the other all draws at once; and each
        # O-RU solved alone shares its group with no other O-RU.
        serving = SERVING_MAPS[which]
        rng = np.random.default_rng(30 + which)
        stats = make_stats(ring_stack(rng, *serving.shape, n_ant))
        pilots = PilotConfig(2, np.arange(serving.shape[1]) % 2, rng.uniform(0.5, 2.0, size=serving.shape[1]))
        draws = draw_estimates(stats, pilots, 0.2, 9, rng, serving)
        results = []
        for bound in (1, 1 << 62):
            monkeypatch.setattr(combining, "_SOLVE_BYTES", bound)
            results.append(served_combiners(serving, draws, pilots.power_mw, 0.2))
        assert_same_bits(results[0].values, results[1].values)
        whole = results[0]
        for l in np.flatnonzero(serving.any(axis=1)):
            alone = np.zeros_like(serving)
            alone[l] = serving[l]
            solo = served_combiners(alone, draws, pilots.power_mw, 0.2)
            ues = np.flatnonzero(serving[l])
            assert_same_bits(solo.values[:, solo.column[l, ues]], whole.values[:, whole.column[l, ues]])

    @pytest.mark.parametrize("tau_p", [5, 2])  # the observations a view of the slot signals; a gathered copy
    @pytest.mark.parametrize("block", [1, 3, None])  # draws per filter block; None: all draws in one
    def test_estimates_filtered_in_place(self, monkeypatch, tau_p, block):
        # The estimates replace the observations block by block, with the bits of the one-shot product.
        needed = SERVING_MAPS[0] | SERVING_MAPS[1]
        l_num, k_num = needed.shape
        n_ant, n_mc, sigma2 = 4, 10, 0.2
        rng = np.random.default_rng(40 + tau_p)
        stats = make_stats(ring_stack(rng, l_num, k_num, n_ant))
        pilots = PilotConfig(tau_p, np.arange(k_num) % tau_p, rng.uniform(0.5, 2.0, size=k_num))
        filters, _ = mmse_filters(stats.covariance, pilots, sigma2, needed)
        replay = np.random.default_rng(9)
        observations = observe_pilots(sample_channels(stats.factor, n_mc, replay), pilots, sigma2, replay, needed)
        expected = apply_filters(filters, observations)
        assert_same_bits(expected, (filters @ observations[..., None])[..., 0])

        calls = []

        def record(filters, observations, out=None):
            calls.append((observations.base is not None, out is observations))
            return apply_filters(filters, observations, out)

        monkeypatch.setattr(pilots_mod, "apply_filters", record)
        draw_bytes = needed.sum() * n_ant * np.dtype(complex).itemsize
        monkeypatch.setattr(pilots_mod, "_DRAW_BYTES", 1 << 62 if block is None else block * draw_bytes)
        draws = draw_estimates(stats, pilots, sigma2, n_mc, np.random.default_rng(9), needed)
        assert calls == [(tau_p >= k_num, True)]
        assert_same_bits(draws.estimates, expected)

    @pytest.mark.parametrize("n_mc", [7, 100])
    @pytest.mark.parametrize("case", ["needed-is-serving", "needed-wider", "one-pair", "random"])
    def test_combiners_solved_into_estimates(self, case, n_mc):
        # The last map solves its combiners into the estimates' columns of its served pairs. They, its
        # gain moments and its noise terms alone (every power 0) have the bits of a fresh buffer's,
        # whatever the buffer's width and the pairs' columns; the other columns keep their estimates.
        rng = np.random.default_rng(60 + n_mc)
        serving, other = SERVING_MAPS
        if case == "one-pair":
            serving = served_sets(5, [[], [], [3], [], [], []])
        elif case == "random":  # ~60 served pairs: the noise sum spans more than one einsum buffer
            serving, other = rng.random((2, 12, 10)) < 0.45
        needed = serving if case == "needed-is-serving" else serving | other
        l_num, k_num = serving.shape
        stats = make_stats(ring_stack(rng, l_num, k_num, 4))
        pilots = PilotConfig(2, np.arange(k_num) % 2, rng.uniform(0.5, 2.0, size=k_num))
        draws = draw_estimates(stats, pilots, 0.2, n_mc, rng, needed)
        estimates = draws.estimates
        before = estimates.copy()
        fresh = served_combiners(serving, draws, pilots.power_mw, 0.2)
        assert draws.estimates is estimates
        owned = served_combiners(serving, draws, pilots.power_mw, 0.2, into_estimates=True)
        assert draws.estimates is None
        assert owned.values is estimates and owned.channels is draws.channels
        assert np.array_equal(owned.column, np.where(serving, draws.column, -1))
        orus, ues = np.nonzero(serving)
        assert np.array_equal(fresh.column[orus, ues], np.arange(orus.size))  # np.nonzero order
        assert_same_bits(owned.values[:, owned.column[orus, ues]], fresh.values)
        kept = draws.column[needed & ~serving]
        assert_same_bits(owned.values[:, kept], before[:, kept])
        for powers in (pilots.power_mw, np.zeros(k_num)):
            expected, moments = gain_moments(fresh, 0.2, powers), gain_moments(owned, 0.2, powers)
            for name in ("mean_gain", "second_moment", "sharer_moment"):
                assert_same_bits(getattr(moments, name), getattr(expected, name))

    def test_singular_system_names_oru_and_draw(self):
        # One O-RU, two antennas, no estimation error and no noise: the Gram of two
        # estimates is singular exactly where they are parallel (draw 2), and a NaN
        # estimate (draw 4 of the second case) leaves no positive pivot either.
        rng = np.random.default_rng(8)
        h_hat = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        h_hat[2, 1] = (0.5 - 2j) * h_hat[2, 0]
        serving = np.ones((1, 2), dtype=bool)
        draws = EstimationDraws(None, h_hat, np.arange(2)[None], np.zeros((2, 2, 2), dtype=complex))
        with pytest.raises(NumericalError, match=r"singular combiner system of O-RU 0 in draw 2: pivot "):
            served_combiners(serving, draws, np.ones(2), 0.0)
        h_hat[2] = rng.standard_normal((2, 2))
        served_combiners(serving, draws, np.ones(2), 0.0)  # every draw full rank
        h_hat[4, 0, 1] = np.nan
        with pytest.raises(NumericalError, match=r"O-RU 0 in draw 4"):
            served_combiners(serving, draws, np.ones(2), 0.0)

    def test_unestimated_served_pair_raises(self):
        serving = SERVING_MAPS[0]
        rng = np.random.default_rng(3)
        stats = make_stats(ring_stack(rng, *serving.shape, 2))
        pilots = PilotConfig.uniform(serving.shape[1], 2, 1.0)
        needed = serving.copy()
        needed[2, 1] = False
        draws = draw_estimates(stats, pilots, 0.2, 4, rng, needed)
        with pytest.raises(ValueError, match="not estimated"):
            served_combiners(serving, draws, pilots.power_mw, 0.2)


class TestEffectiveGainStats:
    def test_near_perfect_csi_scalar_gain(self):
        # Huge pilot energy makes h_hat ~ h; the mean effective gain must match
        # a direct scalar Monte-Carlo of E[|h|^2 / (|h|^2 + sigma2)] (|h|^2 ~ Exp(1)).
        sigma2 = 0.5
        covs = np.ones((1, 1, 1, 1), dtype=complex)
        cfg = PilotConfig(1_000_000, np.array([0]), np.array([1.0]))
        moments = simulate_gain_moments(
            np.ones((1, 1), dtype=bool), make_stats(covs), cfg, sigma2, 20_000, np.random.default_rng(0)
        )
        stats = stats_for_ue(moments, 0)
        x = np.random.default_rng(1).exponential(size=1_000_000)
        oracle = (x / (x + sigma2)).mean()
        assert abs(stats.mean_gain[0].imag) < 5e-3
        assert stats.mean_gain[0].real > 0
        assert stats.mean_gain[0].real == pytest.approx(oracle, rel=0.02)

    def test_disjoint_serving_excludes_interferer(self):
        rng = np.random.default_rng(2)
        stats = make_stats(ring_stack(rng, 2, 2, 2))
        serving = np.array([[True, False], [False, True]])
        pilots = PilotConfig.uniform(2, 4, 1.0)
        draws = draw_estimates(stats, pilots, 0.3, 50, rng, serving)
        combiners = served_combiners(serving, draws, pilots.power_mw, 0.3)
        moments = gain_moments(combiners, 0.3, pilots.power_mw)
        ue = stats_for_ue(moments, 0)
        assert ue.second_moment.shape == (1, 1)
        assert np.array_equal(ue.support, [0])
        # The weight system leaves UE 1 out, exactly as if it sent at power 0 ...
        alone = gain_moments(combiners, 0.3, np.array([1.0, 0.0]))
        assert_same_bits(ue.second_moment, alone.second_moment[0])
        # ... and the SE is charged with its interference.
        assert stats_for_ue(moments, 0, all_interferers=True).second_moment[0, 0].real > ue.second_moment[0, 0].real

    def test_support_rows_zero(self):
        rng = np.random.default_rng(3)
        covs = ring_stack(rng, 3, 2, 2)
        serving = np.array([[True, True], [False, True], [True, False]])
        moments = simulate_gain_moments(serving, make_stats(covs), PilotConfig.uniform(2, 4, 1.0), 0.2, 40, rng)
        stats = stats_for_ue(moments, 0)
        assert np.array_equal(stats.support, [0, 2])
        assert stats.mean_gain[1] == 0
        # Moments are stored on the support only: one 2 x 2 block per UE and moment.
        assert moments.second_moment.shape == moments.sharer_moment.shape == (2, 2, 2)
        assert stats.second_moment.shape == (2, 2)

    def test_doubling_n_mc_halves_variance(self):
        rng = np.random.default_rng(4)
        covs = ring_stack(rng, 2, 2, 2)
        serving = np.ones((2, 2), dtype=bool)
        cfg = PilotConfig.uniform(2, 4, 1.0)
        stats_state = make_stats(covs)

        def spread(n_mc, reps, seed):
            seeds = np.random.SeedSequence(seed).spawn(reps)
            values = [
                simulate_gain_moments(serving, stats_state, cfg, 0.3, n_mc, np.random.default_rng(s))
                .mean_gain[0, 0].real
                for s in seeds
            ]
            return np.var(values)

        ratio = spread(40, 150, 10) / spread(80, 150, 11)
        assert 1.3 < ratio < 3.1


class TestExactChain:
    """The Monte-Carlo chain (draws, MMSE estimates, local combiners, gain moments,
    second stage) for one served UE against `oracles.one_ue_lp_mmse_moments`."""

    N_MC = 100_000
    # A Monte-Carlo mean must lie within Z standard errors of the exact value; the standard
    # error of each is its per-draw sample deviation over sqrt(N_MC), by the CLT.
    Z = 5.0
    # The SE is a ratio of moments: over 40 seeds at N_MC its relative deviation from the
    # exact moments' SE had mean 3e-4 and deviation 9e-4; the bound is 5 deviations.
    SE_RTOL = 4.5e-3

    def test_one_served_ue_matches_exact_moments(self):
        n_ant, tau_p, sigma2 = 4, 3, 0.5  # tau_p = K: orthogonal pilots
        beta = np.array([1.0, 0.4])  # UE 0 at its two serving O-RUs
        interferers = np.array([[0.3, 0.2], [0.1, 0.25]])  # UEs 1 and 2, served nowhere
        powers = np.array([1.0, 0.7, 1.3])
        gains = np.concatenate([beta[:, None], interferers], axis=1)
        eye = np.eye(n_ant, dtype=complex)
        stats = ChannelStatistics(
            10 * np.log10(gains), gains, np.zeros_like(gains), gains[..., None, None] * eye,
            np.sqrt(gains)[..., None, None] * eye,
        )
        serving = np.zeros(gains.shape, dtype=bool)
        serving[:, 0] = True
        pilots = PilotConfig(tau_p, np.arange(3), powers)
        draws = draw_estimates(stats, pilots, sigma2, self.N_MC, np.random.default_rng(2), serving)
        combiners = served_combiners(serving, draws, powers, sigma2)
        moments = gain_moments(combiners, sigma2, powers)
        se = second_stage(moments, powers)[1][0]

        mean, power, second, sharer = one_ue_lp_mmse_moments(beta, interferers, powers, tau_p, sigma2, n_ant)
        # The per-draw terms whose means the moments are: g_0i at each serving O-RU, ||v||^2.
        v = combiners.values[:, combiners.column[:, 0]]  # (d, s, N)
        g = np.einsum("dsn,dsin->dsi", v.conj(), draws.channels)
        v_power = (np.abs(v) ** 2).sum(axis=-1)
        own = powers[0] * g[:, :, None, 0] * g[:, None, :, 0].conj() + sigma2 * v_power[..., None] * np.eye(2)
        every = own + np.einsum("i,dsi,dti->dst", powers[1:], g[..., 1:], g[..., 1:].conj())
        for estimate, exact, samples in (
            (moments.mean_gain[0], mean, g[..., 0]),
            (moments.sharer_moment[0], sharer, own),
            (moments.second_moment[0], second, every),
            (v_power.mean(axis=0), power, v_power),
        ):
            bound = self.Z * samples.std(axis=0) / np.sqrt(self.N_MC)
            assert np.all(np.abs(estimate - exact) <= bound), (estimate, exact, bound)

        exact_moments = GainMoments(
            np.pad(mean[None], ((0, 2), (0, 0))), np.stack([second, 0 * second, 0 * second]),
            np.stack([sharer, 0 * sharer, 0 * sharer]), serving,
        )
        se_exact = second_stage(exact_moments, powers)[1][0]
        assert se == pytest.approx(se_exact, rel=self.SE_RTOL)


def assert_close(actual, expected, rel=1e-12):
    """Entries agree to ``rel`` times the largest magnitude of ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rel * np.abs(expected).max(initial=0.0))


class TestSupportMoments:
    """The support-restricted moments against sums over the full (K, K, L, L) tensor oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_tensor_oracle(self, seed):
        rng = np.random.default_rng(seed)
        l_num, k_num, n_mc, sigma2 = 6, 5, 30, 0.2
        stats = make_stats(ring_stack(rng, l_num, k_num, 2))
        # Unequal serving sizes in random order; one UE is not served at all.
        serving = np.zeros((l_num, k_num), dtype=bool)
        for k, size in enumerate(rng.permutation([0, 1, 2, 3, 6])):
            serving[rng.choice(l_num, size, replace=False), k] = True
        pilots = PilotConfig(2, np.arange(k_num) % 2, rng.uniform(0.5, 2.0, size=k_num))  # tau_p < K
        moments = simulate_gain_moments(serving, stats, pilots, sigma2, n_mc, np.random.default_rng(seed + 10))

        # Replay the same draws through the estimation chain, then form every gain.
        replay = np.random.default_rng(seed + 10)
        filters, error_covs = mmse_filters(stats.covariance, pilots, sigma2)
        h = sample_channels(stats.factor, n_mc, replay)
        h_hat = apply_filters(filters, observe_pilots(h, pilots, sigma2, replay))
        combiners = local_mmse_combiners(serving, h_hat, error_covs, pilots.power_mw, sigma2)
        mean_gain, second_moment, combiner_power = full_gain_moments(combiners, h)

        assert_close(moments.mean_gain, mean_gain)
        assert moments.second_moment.shape == moments.sharer_moment.shape == (k_num, 6, 6)
        powers = pilots.power_mw
        for k in range(k_num):
            support = np.flatnonzero(serving[:, k])
            s = support.size
            # The support blocks lose nothing: every full block is zero elsewhere.
            off_support = second_moment[k].copy()
            off_support[:, support[:, None], support] = 0
            assert not np.any(off_support)
            blocks = second_moment[k][:, support[:, None], support]  # (K, s, s)
            noise = np.diag(sigma2 * combiner_power[k, support])
            sharers = serving[support].any(axis=0)
            everyone = np.tensordot(powers, blocks, 1) + noise
            denom = np.tensordot(np.where(sharers, powers, 0.0), blocks, 1) + noise
            for moment, expected in ((moments.second_moment[k], everyone), (moments.sharer_moment[k], denom)):
                assert_close(moment[:s, :s], expected)
                assert not np.any(moment[s:]) and not np.any(moment[:, s:])
            if s == 0:
                assert not np.any(lsfd_weights(stats_for_ue(moments, k), pilots.power_mw))
                continue
            # Second-stage weights from the full blocks, as a dense solve on the support.
            expected = pilots.power_mw[k] * np.linalg.solve(denom, mean_gain[k, support])
            weights = lsfd_weights(stats_for_ue(moments, k), pilots.power_mw)
            assert_close(weights[support], expected, rel=1e-10)

    @staticmethod
    def _traced_reference_call(n_mc, clusters="fixed", with_second_stage=False):
        """Peak traced bytes of one call at the reference deployment, K=40, L=36, N=4:
        every UE served by 16 O-RUs (``fixed``), every O-RU serving 4 UEs
        (``opportunistic``) or every O-RU serving every UE (``ubiquitous``)."""
        rng = np.random.default_rng(12)
        l_num, k_num, n_ant = 36, 40, 4
        beta = rng.uniform(0.2, 2.0, size=(l_num, k_num))
        aoa = rng.uniform(-np.pi, np.pi, size=beta.shape)
        stats = make_stats(one_ring_covariance(beta, aoa, np.deg2rad(10.0), n_ant, 0.5))
        serving = np.zeros((l_num, k_num), dtype=bool)
        if clusters == "opportunistic":
            for l in range(l_num):
                serving[l, rng.choice(k_num, 4, replace=False)] = True
        elif clusters == "ubiquitous":
            serving[:] = True
        else:
            for k in range(k_num):
                serving[rng.choice(l_num, 16, replace=False), k] = True
        pilots = PilotConfig.uniform(k_num, 100, 1.0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            moments = simulate_gain_moments(serving, stats, pilots, 0.2, n_mc, rng)
            if with_second_stage:
                second_stage(moments, pilots.power_mw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        s_max = serving.sum(axis=0).max()
        assert moments.second_moment.shape == moments.sharer_moment.shape == (k_num, s_max, s_max)
        return peak

    def test_peak_memory_below_full_gain_array(self):
        n_mc = 20
        peak = self._traced_reference_call(n_mc)
        full_gain_bytes = n_mc * 36 * 40**2 * np.dtype(complex).itemsize  # g[d, l, k, i]: 18.4 MB
        assert peak < full_gain_bytes, f"peak {peak / 1e6:.1f} MB >= {full_gain_bytes / 1e6:.1f} MB"

    def test_peak_memory_at_reference_deployment(self):
        # At n_mc=100 the channels are the one draw-sized (d, L, K, N) array, 100 * 36 * 40 * 4 *
        # 16 B = 9.2 MB, and the one (d, P, N) pair buffer of the 640 served pairs takes 4.1 MB
        # (the observations, then the estimates in place, then the combiners solved into them):
        # 13.3 MB. The combiner solve's blocks of about 1 MiB add 1.2 MB, and the peak, 16.3 MB,
        # falls in `gain_moments`, whose per-UE gains and Grams add 2.8 MB. With separate
        # estimates and combiners beside the channels it read 18.8 MB; with a second
        # draw-sized array as well (the unmixed draws, or the slot noise of every (O-RU, slot)),
        # 23.6 MB.
        peak = self._traced_reference_call(100)
        assert peak < 17.5e6, f"peak {peak / 1e6:.1f} MB"

    def test_peak_memory_follows_served_pairs(self):
        # At 4 UEs per O-RU only the channels are draw-sized, 9.2 MB; the pair buffer of the 144
        # served pairs takes 0.9 MB and the combiner solve's blocks about 1 MiB: the peak reads
        # 11.5 MB (12.4 MB with separate estimates and combiners). With the slot noise of every
        # (O-RU, slot), another 9.2 MB, it read 20.1 MB.
        peak = self._traced_reference_call(100, "opportunistic")
        assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"

    def test_peak_memory_ubiquitous_with_second_stage(self):
        # Every UE's support is all 36 O-RUs. Two (K, S_max, S_max) moments take
        # 1.7 MB; (K, K, S_max, S_max) interferer blocks alone would take 33 MB.
        peak = self._traced_reference_call(20, "ubiquitous", with_second_stage=True)
        assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"


class TestGainKernel:
    """`gain_moments` against the per-UE gather of the channels (`oracles.gathered_gain_moments`)."""

    @staticmethod
    def _served(serving, n_mc, seed, n_ant=2):
        l_num, k_num = serving.shape
        rng = np.random.default_rng(seed)
        stats = make_stats(ring_stack(rng, l_num, k_num, n_ant))
        pilots = PilotConfig(2, np.arange(k_num) % 2, rng.uniform(0.5, 2.0, size=k_num))  # tau_p < K
        draws = draw_estimates(stats, pilots, 0.2, n_mc, rng, serving)
        combiners = served_combiners(serving, draws, pilots.power_mw, 0.2)
        return draws.channels, combiners, pilots.power_mw

    # Supports of 0 to 6 O-RUs, several single-O-RU UEs, and ubiquitous serving.
    MAPS = pytest.mark.parametrize(
        "serving",
        [
            served_sets(5, [[1], [0, 2], [2], [2, 3], [0, 2, 3], [2]]),
            SERVING_MAPS[0],
            served_sets(5, [[0], [1], [2], [3], [4], []]),
            np.ones((6, 5), dtype=bool),
        ],
        ids=["unserved-and-single", "mixed", "all-single", "ubiquitous"],
    )

    @MAPS
    @pytest.mark.parametrize("n_mc", [1, 7, 100])
    def test_matches_gather_oracle_bitwise(self, serving, n_mc):
        channels, combiners, powers = self._served(serving, n_mc, seed=n_mc)
        before = channels.copy(), combiners.values.copy()
        moments = gain_moments(combiners, 0.2, powers)
        mean_gain, second_moment, sharer_moment = gathered_gain_moments(channels, combiners, serving, 0.2, powers)
        assert_same_bits(moments.mean_gain, mean_gain)
        assert_same_bits(moments.second_moment, second_moment)
        assert_same_bits(moments.sharer_moment, sharer_moment)
        assert_same_bits(channels, before[0])
        assert_same_bits(combiners.values, before[1])

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("estimated", ["union", "every"])
    def test_lockstep_draws_match_gather_oracle_bitwise(self, which, estimated):
        # A lockstep step estimates the pairs any of its maps serves; each map's moments come from
        # its own served pairs alone, as if the draws had been estimated for that map.
        serving, other = SERVING_MAPS[which], SERVING_MAPS[1 - which]
        needed = serving | other if estimated == "union" else np.ones_like(serving)
        rng = np.random.default_rng(50 + which)
        stats = make_stats(ring_stack(rng, *serving.shape, 2))
        pilots = PilotConfig(2, np.arange(serving.shape[1]) % 2, rng.uniform(0.5, 2.0, size=serving.shape[1]))
        draws = draw_estimates(stats, pilots, 0.2, 7, rng, needed)
        combiners = served_combiners(serving, draws, pilots.power_mw, 0.2)
        assert combiners.channels is draws.channels
        moments = gain_moments(combiners, 0.2, pilots.power_mw)
        assert np.array_equal(moments.serving, serving)
        expected = gathered_gain_moments(draws.channels, combiners, serving, 0.2, pilots.power_mw)
        for name, value in zip(("mean_gain", "second_moment", "sharer_moment"), expected):
            assert_same_bits(getattr(moments, name), value)

    @MAPS
    @pytest.mark.parametrize("n_mc", [1, 7, 100])
    def test_batches_leave_no_trace_in_bits(self, monkeypatch, serving, n_mc):
        # A bound of 1 byte forms one UE per batch; the other every UE of one support size at once.
        channels, combiners, powers = self._served(serving, n_mc, seed=n_mc + 1)
        results = []
        for bound in (1, 1 << 62):
            monkeypatch.setattr(combining, "_BATCH_BYTES", bound)
            results.append(gain_moments(combiners, 0.2, powers))
        for name in ("mean_gain", "second_moment", "sharer_moment"):
            assert_same_bits(getattr(results[0], name), getattr(results[1], name))

    @pytest.mark.parametrize("seed", range(4))
    def test_equal_rows_partition_the_nonzero_rows(self, seed):
        rng = np.random.default_rng(seed)
        masks = [rng.random((9, 7)) < density for density in (0.2, 0.5, 0.8)]
        masks[1][[2, 5]] = False  # empty rows
        masks += [np.zeros((4, 6), dtype=bool), np.ones((5, 3), dtype=bool)]
        for mask in masks:
            counts, grouped = [], []
            for count, rows, members in combining._equal_rows(mask):
                assert members.shape == (rows.size, count)
                assert np.all(np.diff(rows) > 0)
                for row, columns in zip(rows, members):
                    assert np.array_equal(columns, np.flatnonzero(mask[row]))  # ascending
                counts.append(count)
                grouped += rows.tolist()
            assert counts == sorted(set(counts)) and 0 not in counts
            assert sorted(grouped) == np.flatnonzero(mask.any(axis=1)).tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_sharer_mask_matches_integer_product(self, seed):
        rng = np.random.default_rng(seed)
        for l_num, k_num, density in ((1, 1, 1.0), (6, 5, 0.3), (36, 40, 0.4), (20, 70, 0.05), (8, 9, 0.0)):
            serving = rng.random((l_num, k_num)) < density
            expected = (serving.T.astype(int) @ serving.astype(int)) > 0
            assert np.array_equal(combining._sharers(serving), expected)

    def test_no_channel_copy_at_reference_deployment(self):
        # Ubiquitous serving at K=40, L=36, N=4, n_mc=100: every UE's support
        # is every O-RU, so a per-UE gather of the channels alone would take
        # one draw-sized (d, L, K, N) array, 9.2 MB.
        l_num, k_num, n_mc = 36, 40, 100
        serving = np.ones((l_num, k_num), dtype=bool)
        channels, combiners, powers = self._served(serving, n_mc, seed=5, n_ant=4)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            moments = gain_moments(combiners, 0.2, powers)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (moments.mean_gain, moments.second_moment, moments.sharer_moment))
        assert peak - returned < channels.nbytes, f"{(peak - returned) / 1e6:.1f} MB besides the result"


def random_instance(rng, powers, n_oru=3, n_draws=60, support=None):
    """Moment-consistent statistics of UE 0, built from raw complex gain draws of
    ``powers.size`` UEs: sum_i p_i E[g_0i g_0i^H] plus a noise diagonal, on the support."""
    n_ue = powers.size
    g = rng.standard_normal((n_draws, n_oru, n_ue)) + 1j * rng.standard_normal((n_draws, n_oru, n_ue))
    if support is None:
        support = np.arange(n_oru)
    mask = np.zeros(n_oru, dtype=bool)
    mask[support] = True
    g[:, ~mask, :] = 0.0
    mean = g[:, :, 0].mean(axis=0)
    g_support = g[:, support]
    second = np.einsum("dli,dmi->ilm", g_support, g_support.conj()) / n_draws
    noise = np.where(mask, rng.uniform(0.05, 0.3, size=n_oru), 0.0)
    moment = np.tensordot(powers, second, 1) + np.diag(noise[support])
    return EffectiveGainStats(ue=0, support=np.asarray(support), mean_gain=mean, second_moment=moment)


class TestLsfdWeights:
    def test_scalar_support_scaling_invariance(self):
        rng = np.random.default_rng(7)
        powers = np.array([0.8, 1.1])
        stats = random_instance(rng, powers, n_oru=1)
        a = lsfd_weights(stats, powers)
        gamma, _ = uplink_sinr(a, stats, powers)
        for c in (0.1, 3.0, -2.0 + 1.0j):
            gamma_scaled, _ = uplink_sinr(a * c, stats, powers)
            assert abs(gamma_scaled - gamma) / gamma < 1e-10

    def test_symmetric_two_oru_equal_weights(self):
        mean = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        moment = np.array([[2.3, 0.5], [0.5, 2.3]], dtype=complex)
        stats = EffectiveGainStats(ue=0, support=np.array([0, 1]), mean_gain=mean, second_moment=moment)
        a = lsfd_weights(stats, np.array([1.0]))
        assert a[0] == pytest.approx(a[1])

    def test_dense_solve_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            powers = rng.uniform(0.5, 2.0, size=3)
            stats = random_instance(rng, powers)
            a = lsfd_weights(stats, powers)
            oracle = powers[0] * np.linalg.pinv(stats.second_moment) @ stats.mean_gain
            assert np.allclose(a, oracle, rtol=1e-8, atol=1e-10)

    def test_partial_support_embedding(self):
        rng = np.random.default_rng(9)
        stats = random_instance(rng, np.ones(3), n_oru=4, support=[1, 3])
        a = lsfd_weights(stats, np.ones(3))
        assert a[0] == 0 and a[2] == 0
        assert a[1] != 0 and a[3] != 0

    def test_singular_support_raises(self):
        stats = EffectiveGainStats(
            ue=0, support=np.array([0, 1]), mean_gain=np.ones(2, dtype=complex),
            second_moment=np.zeros((2, 2), dtype=complex),
        )
        with pytest.raises(NumericalError, match="support"):
            lsfd_weights(stats, np.ones(1))


class TestUplinkSinr:
    def _scalar_stats(self, second_moment):
        return EffectiveGainStats(
            ue=0, support=np.array([0]), mean_gain=np.array([1.0 + 0.0j]),
            second_moment=np.array([[second_moment]], dtype=complex),
        )

    def test_se_is_log2_of_one_plus_gamma(self):
        gamma, se = uplink_sinr(np.array([1.0 + 0j]), self._scalar_stats(2.0), np.ones(1))
        assert gamma == pytest.approx(1.0) and se == pytest.approx(1.0)
        gamma, se = uplink_sinr(np.array([1.0 + 0j]), self._scalar_stats(4.0 / 3.0), np.ones(1))
        assert gamma == pytest.approx(3.0) and se == pytest.approx(2.0)

    def test_zero_denominator_flags_invalid(self):
        gamma, se = uplink_sinr(np.array([1.0 + 0j]), self._scalar_stats(1.0), np.ones(1))
        assert np.isnan(gamma) and np.isnan(se)

    def test_weights_beat_random_perturbations(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            powers = rng.uniform(0.5, 2.0, size=3)
            stats = random_instance(rng, powers, n_oru=4, support=[0, 1, 3])
            best = lsfd_weights(stats, powers)
            gamma_best, _ = uplink_sinr(best, stats, powers)
            for _ in range(100):
                noise = np.zeros(4, dtype=complex)
                noise[stats.support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                gamma, _ = uplink_sinr(best + 0.2 * noise * np.linalg.norm(best), stats, powers)
                assert gamma <= gamma_best * (1 + 1e-12)

    def test_enlarging_cluster_does_not_decrease_mean_se(self):
        # Statistical monotonicity across 25 independent setups.
        deltas = []
        for setup in range(25):
            rng = np.random.default_rng(100 + setup)
            covs = ring_stack(rng, 3, 2, 2)
            cfg = PilotConfig.uniform(2, 4, 1.0)
            stats_state = make_stats(covs)
            serving_small = np.array([[True, True], [True, True], [False, True]])
            serving_big = np.ones((3, 2), dtype=bool)
            ses = []
            for serving in (serving_big, serving_small):
                moments = simulate_gain_moments(
                    serving, stats_state, cfg, 0.3, 400, np.random.default_rng(setup)
                )
                ue = stats_for_ue(moments, 0)
                _, se = uplink_sinr(lsfd_weights(ue, cfg.power_mw), ue, cfg.power_mw)
                ses.append(se)
            deltas.append(ses[0] - ses[1])
        assert np.mean(deltas) > -1e-3


def shared_pilot_moments(seed):
    """Moments of 12 UEs on 8 O-RUs with pilot sharing (tau_p = 3), one unserved
    UE and six support sizes, among them single-O-RU UEs with several sharers."""
    rng = np.random.default_rng(seed)
    l_num, k_num = 8, 12
    stats = make_stats(ring_stack(rng, l_num, k_num, 2))
    serving = np.zeros((l_num, k_num), dtype=bool)
    for k, size in enumerate(rng.permutation([0, 1, 1, 1, 2, 2, 3, 3, 4, 5, 8, 8])):
        serving[rng.choice(l_num, size, replace=False), k] = True
    pilots = PilotConfig(3, np.arange(k_num) % 3, rng.uniform(0.5, 2.0, size=k_num))
    return simulate_gain_moments(serving, stats, pilots, 0.2, 30, rng), pilots.power_mw


def per_ue_trio(moments, powers):
    """Weights and SE through the one-UE entry points, as the traced benchmark loop calls them."""
    k_num = moments.serving.shape[1]
    weights = np.stack([lsfd_weights(stats_for_ue(moments, k), powers) for k in range(k_num)])
    se = np.array([
        uplink_sinr(weights[k], stats_for_ue(moments, k, all_interferers=True), powers)[1] for k in range(k_num)
    ])
    return weights, se


def assert_same_bits(actual, expected):
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestSecondStage:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_ue_trio_bitwise(self, seed):
        moments, powers = shared_pilot_moments(seed)
        weights, se = second_stage(moments, powers)
        trio_weights, trio_se = per_ue_trio(moments, powers)
        assert_same_bits(weights, trio_weights)
        assert_same_bits(se, trio_se)
        sizes = moments.serving.sum(axis=0)
        assert np.isnan(se[sizes == 0]).all() and not weights[sizes == 0].any()
        assert np.isfinite(se[sizes > 0]).all()

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_matches_dense_oracle(self, seed):
        moments, powers = shared_pilot_moments(seed)
        weights, se = second_stage(moments, powers)
        oracle_weights, oracle_se = second_stage_oracle(moments, powers)
        for k in range(se.size):
            assert_close(weights[k], oracle_weights[k])
        assert np.array_equal(np.isnan(se), np.isnan(oracle_se))
        valid = ~np.isnan(se)
        np.testing.assert_allclose(se[valid], oracle_se[valid], rtol=1e-12, atol=0)

    def test_singular_support_names_the_ue(self):
        moments, powers = shared_pilot_moments(7)
        ue = int(np.flatnonzero(moments.serving.sum(axis=0) == 2)[0])
        sharer_moment = moments.sharer_moment.copy()
        sharer_moment[ue] = 0.0
        singular = replace(moments, sharer_moment=sharer_moment)
        support = np.flatnonzero(moments.serving[:, ue]).tolist()
        with pytest.raises(NumericalError, match=re.escape(f"UE {ue} on O-RU support {support}")):
            second_stage(singular, powers)
