"""Pilot assignment, observation, and MMSE estimation against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from cfmimo import channel, pilots
from cfmimo.channel import covariance_factor, one_ring_covariance, sample_channels
from cfmimo.errors import ConfigurationError
from cfmimo.pilots import (
    PilotConfig, apply_filters, assign_pilots, mmse_filters, observe_pilots,
)
import oracles
from oracles import mmse_estimate


def dft_pilots(tau_p):
    """Mutually orthogonal unit-modulus pilot matrix, columns phi_t with phi^H phi = tau_p."""
    n = np.arange(tau_p)
    return np.exp(-2j * np.pi * np.outer(n, n) / tau_p)


# Orthogonal pilots, round-robin reuse (one to six of seven UEs per slot), and
# permuted assignments, whose reuse rounds are not runs of UEs or slots.
REUSE_CASES = [(8, False), (1, False), (3, False), (6, False), (3, True), (6, True), (8, True)]


def reuse_case(tau_p, permuted, rng, k_num=7):
    """Pilot configuration of one REUSE_CASES entry, with random powers."""
    index = rng.permutation(k_num) % tau_p if permuted else assign_pilots(k_num, tau_p)
    return PilotConfig(tau_p, index, rng.uniform(0.5, 2.0, size=k_num))


def bits(array):
    """The raw 64-bit words of a float or complex array."""
    return np.ascontiguousarray(array).view(np.uint64)


class TestAssignment:
    def test_distinct_when_enough_pilots(self):
        idx = assign_pilots(40, 100)
        assert len(np.unique(idx)) == 40
        cfg = PilotConfig(100, idx, np.full(40, 100.0))
        for k in range(40):
            assert np.array_equal(np.flatnonzero(cfg.pilot_index == cfg.pilot_index[k]), [k])

    def test_forced_reuse(self):
        idx = assign_pilots(3, 1)
        assert np.array_equal(idx, [0, 0, 0])
        cfg = PilotConfig(1, idx, np.full(3, 100.0))
        assert np.array_equal(np.flatnonzero(cfg.pilot_index == cfg.pilot_index[1]), [0, 1, 2])

    def test_exact_fit_is_bijection(self):
        idx = assign_pilots(7, 7)
        assert sorted(idx.tolist()) == list(range(7))

    @pytest.mark.parametrize("seed", range(4))
    def test_reuse_rounds_match_triangular_rank(self, seed):
        # The rank of each UE on its slot against the K x K lower-triangle count it replaced.
        rng = np.random.default_rng(seed)
        for k_num, tau_p in ((1, 1), (7, 7), (10, 3), (40, 100), (64, 5), (30, 1)):
            for pilot_index in (assign_pilots(k_num, tau_p), rng.integers(0, tau_p, size=k_num)):
                cfg = PilotConfig(tau_p, pilot_index, np.ones(k_num))
                rank = np.tril(cfg.slot_of_ue[:, None] == cfg.slot_of_ue, -1).sum(axis=1)
                assert cfg.round_ue.shape == (rank.max() + 1, cfg.slot_of_ue.max() + 1)
                for r, members in enumerate(cfg.round_ue):
                    filled = np.flatnonzero(members >= 0)
                    assert np.array_equal(np.sort(members[filled]), np.flatnonzero(rank == r))
                    assert np.array_equal(cfg.slot_of_ue[members[filled]], filled)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_pilots(0, 4)


class TestObservation:
    def test_noiseless_orthogonal(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((1, 2, 3, 4)) + 1j * rng.standard_normal((1, 2, 3, 4))
        cfg = PilotConfig.uniform(3, 8, 50.0)
        y = observe_pilots(h, cfg, 0.0, rng)
        assert np.allclose(y, np.sqrt(8 * 50.0) * h)

    def test_shared_pilot_superposes(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        cfg = PilotConfig(4, np.array([2, 2, 0]), np.array([1.0, 4.0, 9.0]))
        y = observe_pilots(h, cfg, 0.0, rng)
        expected = np.sqrt(4 * 1.0) * h[:, 0] + np.sqrt(4 * 4.0) * h[:, 1]
        assert np.allclose(y[:, 0], expected)
        assert np.allclose(y[:, 1], expected)
        assert np.allclose(y[:, 2], np.sqrt(4 * 9.0) * h[:, 2])

    @pytest.mark.parametrize("tau_p", [6, 2])
    def test_matches_one_hot_oracle(self, tau_p):
        # Bit for bit with orthogonal pilots (tau_p >= K); with shared pilots the
        # per-slot sums are added in another order.
        rng = np.random.default_rng(5)
        k_num = 5
        h = rng.standard_normal((3, 4, k_num, 2)) + 1j * rng.standard_normal((3, 4, k_num, 2))
        cfg = PilotConfig(tau_p, rng.permutation(k_num) % tau_p, rng.uniform(0.5, 2.0, size=k_num))
        draws, reference = np.random.default_rng(13), np.random.default_rng(13)
        h_before = h.copy()
        y = observe_pilots(h, cfg, 0.3, draws)
        expected = oracles.observe_pilots(h, cfg, 0.3, reference)
        if tau_p >= k_num:
            assert np.array_equal(y, expected)
        else:
            np.testing.assert_allclose(y, expected, rtol=1e-14, atol=0)
        assert draws.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(h, h_before)

    @pytest.mark.parametrize("tau_p,permuted", REUSE_CASES)
    def test_slot_signals_match_loop_oracle_bitwise(self, tau_p, permuted):
        # Every pair, and needed maps of one pair, one O-RU row and about half the pairs: each
        # observation is its slot's signal, and the stream ends where the oracle's does.
        rng = np.random.default_rng(tau_p + 10 * permuted)
        h = rng.standard_normal((4, 5, 7, 3)) + 1j * rng.standard_normal((4, 5, 7, 3))
        cfg = reuse_case(tau_p, permuted, rng)
        one_pair, one_row = np.zeros((5, 7), dtype=bool), np.zeros((5, 7), dtype=bool)
        one_pair[3, 4] = one_row[2] = True
        h_before = h.copy()
        for needed in (None, one_pair, one_row, rng.permutation(35).reshape(5, 7) < 17):
            draws, reference = np.random.default_rng(13), np.random.default_rng(13)
            received = observe_pilots(h, cfg, 0.3, draws, needed)
            expected, expected_slots = oracles.slot_observations(h, cfg, 0.3, reference)
            expected = expected[..., expected_slots, :]  # (4, 5, 7, 3), per UE
            if needed is not None:
                expected = expected[:, needed]
            assert np.array_equal(bits(received), bits(expected))
            assert np.array_equal(cfg.slot_of_ue, expected_slots)
            assert draws.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(h.view(np.uint64), h_before.view(np.uint64))

    @pytest.mark.parametrize("draws_per_chunk", [1, 3, None])
    @pytest.mark.parametrize("tau_p,permuted", [(8, False), (8, True), (3, False), (3, True), (1, False)])
    def test_kept_noise_rows_match_full_draw_bitwise(self, monkeypatch, draws_per_chunk, tau_p, permuted):
        # The slot noise is drawn in chunks of one, three or all seven draws, and only the rows of
        # the observed (O-RU, slot) entries are kept. For the empty map, one pair, one O-RU row,
        # about half the pairs and every pair (as a map and without one), each observation has
        # the bits of the oracles' dense draw, and the stream ends where theirs does.
        rng = np.random.default_rng(80 + tau_p + 10 * permuted)
        h = rng.standard_normal((7, 5, 7, 3)) + 1j * rng.standard_normal((7, 5, 7, 3))
        cfg = reuse_case(tau_p, permuted, rng)
        draw_bytes = 5 * cfg.round_ue.shape[1] * 3 * 8  # one draw of a part of the slot noise
        monkeypatch.setattr(channel, "_DRAW_BYTES", (draws_per_chunk or 7) * draw_bytes)
        empty, one_pair, one_row = (np.zeros((5, 7), dtype=bool) for _ in range(3))
        one_pair[3, 4] = one_row[2] = True
        half = rng.permutation(35).reshape(5, 7) < 17
        for needed in (empty, one_pair, one_row, half, np.ones((5, 7), dtype=bool), None):
            draws, reference = np.random.default_rng(13), np.random.default_rng(13)
            received = observe_pilots(h, cfg, 0.3, draws, needed)
            expected, slots = oracles.slot_observations(h, cfg, 0.3, reference)
            expected = expected[..., slots, :]  # (7, 5, 7, 3), per UE
            assert draws.bit_generator.state == reference.bit_generator.state
            if tau_p >= 7:  # one UE per slot: the one-hot oracle adds in the same order
                dense = oracles.observe_pilots(h, cfg, 0.3, np.random.default_rng(13))
                assert np.array_equal(bits(dense), bits(expected))
            if needed is not None:
                expected = expected[:, needed]
            assert np.array_equal(bits(received), bits(expected))

    def test_one_needed_pair_keeps_one_noise_row(self):
        # d=8 draws at L=36, K=40, tau_p=100 (40 slots in use): the slot noise of every
        # (O-RU, slot) would take 8 * 36 * 40 * 4 * 16 B = 737 kB (the peak read 867 kB when it was
        # kept). One needed pair observes one entry, whose noise takes 8 * 4 * 16 B = 512 B; the
        # real draws pass through chunks of two 36 * 40 * 4 * 8 B = 46 kB draws, so the peak
        # reads ~98 kB.
        rng = np.random.default_rng(6)
        h = rng.standard_normal((8, 36, 40, 4)) + 1j * rng.standard_normal((8, 36, 40, 4))
        cfg = PilotConfig.uniform(40, 100, 1.0)
        needed = np.zeros((36, 40), dtype=bool)
        needed[20, 30] = True
        tracemalloc.start()
        try:
            received = observe_pilots(h, cfg, 0.3, np.random.default_rng(1), needed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert received.shape == (8, 1, 4)
        assert peak < 150e3, f"peak {peak / 1e3:.0f} kB"

    @pytest.mark.parametrize("adds_per_window", [1, 7, None])
    @pytest.mark.parametrize("tau_p,permuted", [(8, False), (3, False), (3, True), (1, False)])
    def test_add_blocks_leave_no_trace_in_bits(self, monkeypatch, adds_per_window, tau_p, permuted):
        # 15 O-RUs x 7 UEs: 105 adds into 105, 45 or 15 (O-RU, slot) entries. Windows of 7 adds
        # split the reuse rounds of 45 or 15 adds, with 3 slots the last round takes only the slot
        # with 3 UEs, and with one slot each of the 7 rounds adds one UE to all 15 entries; None
        # gathers each round's adds at once.
        rng = np.random.default_rng(40 + tau_p + permuted)
        h = rng.standard_normal((3, 15, 7, 2)) + 1j * rng.standard_normal((3, 15, 7, 2))
        cfg = reuse_case(tau_p, permuted, rng)
        monkeypatch.setattr(pilots, "_ADD_BYTES", (adds_per_window or 105) * h[:, 0, 0].nbytes)
        received = observe_pilots(h, cfg, 0.3, np.random.default_rng(13))
        expected, slots = oracles.slot_observations(h, cfg, 0.3, np.random.default_rng(13))
        assert np.array_equal(bits(received), bits(expected[..., slots, :]))

    @pytest.mark.parametrize("tau_p,permuted", REUSE_CASES)
    def test_slot_signals_read_each_channel_once(self, monkeypatch, tau_p, permuted):
        # Each observed (O-RU, slot) entry is formed once, from each of its slot's UEs once,
        # however many of those UEs are needed: the channel rows read are the UEs on the
        # observed slots, and every pair's reads come to L K.
        rng = np.random.default_rng(60 + tau_p + 10 * permuted)
        h = rng.standard_normal((2, 5, 7, 3)) + 1j * rng.standard_normal((2, 5, 7, 3))
        cov = np.einsum("...i,...j->...ij", h[0], h[0].conj()) + np.eye(3)
        cfg = reuse_case(tau_p, permuted, rng)
        read = {"channels": 0, "cov": 0}
        rows = pilots._rows

        def counted(stack, index):
            for name, source in (("channels", h), ("cov", cov)):
                if np.shares_memory(stack, source):
                    read[name] += index.size
            return rows(stack, index)

        monkeypatch.setattr(pilots, "_rows", counted)
        one_pair, one_row = np.zeros((5, 7), dtype=bool), np.zeros((5, 7), dtype=bool)
        one_pair[3, 4] = one_row[2] = True
        ues_on_slot = np.bincount(cfg.slot_of_ue)
        for needed in (None, one_pair, one_row, rng.permutation(35).reshape(5, 7) < 17):
            orus, ues = np.nonzero(np.ones((5, 7), dtype=bool) if needed is None else needed)
            observed = {(l, s) for l, s in zip(orus, cfg.slot_of_ue[ues])}
            expected = sum(ues_on_slot[s] for _, s in observed)
            read.update(channels=0, cov=0)
            observe_pilots(h, cfg, 0.3, np.random.default_rng(13), needed)
            mmse_filters(cov, cfg, 0.3, needed)
            assert read == {"channels": expected, "cov": expected}
            assert expected <= 35

    def test_full_matrix_identity(self):
        # Building the tau_p-symbol received block and decorrelating it is
        # algebraically identical to the direct construction with the projected noise.
        rng = np.random.default_rng(2)
        tau_p, n_ant, k_num = 6, 3, 4
        pilots = dft_pilots(tau_p)
        t_of_ue = np.array([0, 3, 3, 5])
        p = np.array([1.0, 2.0, 0.5, 3.0])
        h = rng.standard_normal((n_ant, k_num)) + 1j * rng.standard_normal((n_ant, k_num))
        noise = rng.standard_normal((n_ant, tau_p)) + 1j * rng.standard_normal((n_ant, tau_p))
        received = sum(np.sqrt(p[k]) * np.outer(h[:, k], pilots[:, t_of_ue[k]]) for k in range(k_num)) + noise
        for k in range(k_num):
            decorrelated = received @ pilots[:, t_of_ue[k]].conj() / np.sqrt(tau_p)
            sharers = np.flatnonzero(t_of_ue == t_of_ue[k])
            direct = sum(np.sqrt(tau_p * p[i]) * h[:, i] for i in sharers)
            direct = direct + noise @ pilots[:, t_of_ue[k]].conj() / np.sqrt(tau_p)
            assert np.allclose(decorrelated, direct, atol=1e-10)

    def test_observation_covariance_matches_theory(self):
        # Empirical second moment of the decorrelated observation vs
        # sum_i tau_p p_i R_i + sigma^2 I over 1e5 draws (contaminated pair).
        rng = np.random.default_rng(3)
        n_ant, sigma2 = 2, 0.5
        cov = np.stack(
            [
                one_ring_covariance(1.0, 0.3, np.deg2rad(12.0), n_ant, 0.5),
                one_ring_covariance(2.0, -0.7, np.deg2rad(12.0), n_ant, 0.5),
                one_ring_covariance(0.5, 1.1, np.deg2rad(12.0), n_ant, 0.5),
            ]
        )[None]
        cfg = PilotConfig(4, np.array([1, 1, 0]), np.array([1.0, 0.7, 2.0]))
        factor = covariance_factor(cov)
        h = sample_channels(factor, 100_000, rng)
        y = observe_pilots(h, cfg, sigma2, rng)[:, 0]
        for k, sharers in ((0, [0, 1]), (2, [2])):
            theory = sigma2 * np.eye(n_ant) + sum(4 * cfg.power_mw[i] * cov[0, i] for i in sharers)
            empirical = np.einsum("dm,dn->mn", y[:, k], y[:, k].conj()) / y.shape[0]
            rel = np.linalg.norm(empirical - theory) / np.linalg.norm(theory)
            assert rel < 0.02
            assert np.abs(y[:, k].mean(axis=0)).max() < 3 * np.sqrt(np.trace(theory).real / y.shape[0])


def estimate(cov, y, tau_p, p, sigma2):
    """MMSE estimate and error covariance of one UE at one O-RU through the batched filters."""
    filters, error_covs = mmse_filters(cov[None, None], PilotConfig(tau_p, np.array([0]), np.array([p])), sigma2)
    return filters[0, 0] @ y, error_covs[0, 0]


class TestMmseEstimate:
    def test_scalar_closed_form(self):
        tau_p, p, beta, sigma2 = 10, 0.2, 0.5, 0.3
        y = np.array([0.7 - 0.2j])
        h_hat, error_cov = estimate(np.array([[beta + 0j]]), y, tau_p, p, sigma2)
        assert abs(h_hat[0] - np.sqrt(tau_p * p) * beta / (tau_p * p * beta + sigma2) * y[0]) < 1e-12
        assert abs(error_cov[0, 0] - beta * sigma2 / (tau_p * p * beta + sigma2)) < 1e-12

    def test_balanced_snr_halves_covariance(self):
        # tau_p p beta == sigma2 leaves exactly half the prior variance.
        tau_p, p, beta = 4, 0.5, 0.9
        sigma2 = tau_p * p * beta
        _, error_cov = estimate(np.array([[beta + 0j]]), np.array([1.0 + 0j]), tau_p, p, sigma2)
        assert abs(error_cov[0, 0] - beta / 2) < 1e-12

    def test_noiseless_limit_recovers_channel(self):
        rng = np.random.default_rng(4)
        cov = one_ring_covariance(1.0, 0.2, np.deg2rad(20.0), 3, 0.5)
        h = sample_channels(covariance_factor(cov)[None, None], 1, rng)[0, 0, 0]
        tau_p, p, sigma2 = 8, 1.0, 1e-10
        y = np.sqrt(tau_p * p) * h
        h_hat, error_cov = estimate(cov, y, tau_p, p, sigma2)
        assert np.allclose(h_hat, h, rtol=1e-5, atol=1e-8)
        assert np.trace(error_cov).real < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(5)
        cov = one_ring_covariance(1.0, -0.4, np.deg2rad(15.0), 4, 0.5)
        y1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combined = estimate(cov, a * y1 + b * y2, 10, 0.5, 0.25)[0]
        separate = a * estimate(cov, y1, 10, 0.5, 0.25)[0] + b * estimate(cov, y2, 10, 0.5, 0.25)[0]
        assert np.allclose(combined, separate, rtol=1e-12, atol=1e-14)


def _estimation_setup(contaminated: bool, n_draws: int = 100_000):
    """Joint draws of (h, h_hat) for UE 0 at one O-RU, N=4."""
    rng = np.random.default_rng(6)
    n_ant = 4
    cov = np.stack(
        [
            one_ring_covariance(1.0, 0.25, np.deg2rad(10.0), n_ant, 0.5),
            one_ring_covariance(0.6, -1.2, np.deg2rad(10.0), n_ant, 0.5),
        ]
    )[None]
    if contaminated:
        cfg = PilotConfig(5, np.array([0, 0]), np.array([1.0, 0.8]))
    else:
        cfg = PilotConfig(5, np.array([0, 1]), np.array([1.0, 0.8]))
    sigma2 = 0.7
    h = sample_channels(covariance_factor(cov), n_draws, rng)
    y = observe_pilots(h, cfg, sigma2, rng)
    filters, error_covs = mmse_filters(cov, cfg, sigma2)
    h_hat = apply_filters(filters, y)
    return cov[0], h[:, 0], h_hat[:, 0], error_covs[0]


class TestMmseConsistency:
    @pytest.mark.parametrize("contaminated", [False, True])
    def test_estimate_covariance_and_orthogonality(self, contaminated):
        cov, h, h_hat, error_covs = _estimation_setup(contaminated)
        n = h.shape[0]
        est_cov = np.einsum("dm,dn->mn", h_hat[:, 0], h_hat[:, 0].conj()) / n
        target = cov[0] - error_covs[0]
        rel = np.linalg.norm(est_cov - target) / np.linalg.norm(cov[0])
        assert rel < 0.02
        # Orthogonality: estimate uncorrelated with the estimation error, per entry.
        err = h[:, 0] - h_hat[:, 0]
        products = h_hat[:, 0][:, :, None] * err.conj()[:, None, :]
        cross = products.mean(axis=0)
        se_re = products.real.std(axis=0) / np.sqrt(n)
        se_im = products.imag.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(cross.real) < 3 * se_re + 1e-12)
        assert np.all(np.abs(cross.imag) < 3 * se_im + 1e-12)

    def test_error_cov_psd_and_below_prior(self):
        cov, _, _, error_covs = _estimation_setup(False, n_draws=10)
        for c, r in zip(error_covs, cov):
            assert np.abs(c - c.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(c).min() > -1e-12
            assert np.linalg.eigvalsh(r - c).min() > -1e-12

    @pytest.mark.parametrize("tau_p,permuted", REUSE_CASES)
    def test_filters_match_gram_loop_oracle_bitwise(self, tau_p, permuted):
        rng = np.random.default_rng(20 + tau_p + 10 * permuted)
        a = rng.standard_normal((5, 7, 3, 3)) + 1j * rng.standard_normal((5, 7, 3, 3))
        cov = a @ a.conj().swapaxes(-1, -2)
        cfg = reuse_case(tau_p, permuted, rng)
        for got, expected in zip(mmse_filters(cov, cfg, 0.3), oracles.mmse_filters(cov, cfg, 0.3)):
            assert np.array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("tau_p,permuted", REUSE_CASES)
    def test_needed_pairs_match_all_pairs_bitwise(self, tau_p, permuted):
        rng = np.random.default_rng(40 + tau_p + 10 * permuted)
        a = rng.standard_normal((5, 7, 3, 3)) + 1j * rng.standard_normal((5, 7, 3, 3))
        cov = a @ a.conj().swapaxes(-1, -2)
        cfg = reuse_case(tau_p, permuted, rng)
        all_filters, all_errors = mmse_filters(cov, cfg, 0.3)
        one_pair, next_ue = np.zeros((5, 7), dtype=bool), np.zeros((5, 7), dtype=bool)
        one_pair[3, 4] = next_ue[3, 5] = True  # the same O-RU, one after the other
        one_row = np.zeros((5, 7), dtype=bool)
        one_row[2] = True
        half = rng.permutation(35).reshape(5, 7) < 17
        for needed in (one_pair, next_ue, one_row, half, np.ones((5, 7), dtype=bool)):
            filters, errors = mmse_filters(cov, cfg, 0.3, needed)
            orus, ues = np.nonzero(needed)
            assert filters.shape == errors.shape == (orus.size, 3, 3)
            assert np.array_equal(bits(filters), bits(all_filters[orus, ues]))
            assert np.array_equal(bits(errors), bits(all_errors[orus, ues]))

    @pytest.mark.parametrize("adds_per_window", [1, 7])
    @pytest.mark.parametrize("tau_p,permuted", [(3, False), (3, True), (1, False)])
    def test_gram_windows_leave_no_trace_in_bits(self, monkeypatch, adds_per_window, tau_p, permuted):
        # 15 O-RUs x 7 UEs: windows of one or seven adds split the reuse rounds of the Gram sums.
        rng = np.random.default_rng(50 + tau_p + 10 * permuted)
        a = rng.standard_normal((15, 7, 3, 3)) + 1j * rng.standard_normal((15, 7, 3, 3))
        cov = a @ a.conj().swapaxes(-1, -2)
        cfg = reuse_case(tau_p, permuted, rng)
        expected = oracles.mmse_filters(cov, cfg, 0.3)
        monkeypatch.setattr(pilots, "_ADD_BYTES", adds_per_window * cov[0, 0].nbytes)
        for got, want in zip(mmse_filters(cov, cfg, 0.3), expected):
            assert np.array_equal(bits(got), bits(want))

    def test_one_needed_pair_forms_one_gram(self):
        # L=144, K=160, tau_p=100: the Gram stack over every (O-RU, slot) entry alone would take
        # 144 * 100 * 16 * 16 B = 3.7 MB (the peak read 7.6 MB when it was formed). One needed pair
        # observes one entry, so the (E, N, N) Gram stack and the pair's stacks hold 256 B each and
        # the index work is over one pair: the peak reads ~9 kB.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((144, 160, 4, 4)) + 1j * rng.standard_normal((144, 160, 4, 4))
        cov = a @ a.conj().swapaxes(-1, -2)
        cfg = PilotConfig.uniform(160, 100, 1.0)
        needed = np.zeros((144, 160), dtype=bool)
        needed[70, 130] = True
        tracemalloc.start()
        try:
            filters, error_covs = mmse_filters(cov, cfg, 0.3, needed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert filters.shape == error_covs.shape == (1, 4, 4)
        assert peak < 64 * 1024

    def test_filters_match_single_pair_op(self):
        rng = np.random.default_rng(7)
        cov = np.stack(
            [
                one_ring_covariance(1.0, 0.25, np.deg2rad(10.0), 3, 0.5),
                one_ring_covariance(0.6, -1.2, np.deg2rad(10.0), 3, 0.5),
            ]
        )[None]
        cfg = PilotConfig(5, np.array([0, 0]), np.array([1.0, 0.8]))
        sigma2 = 0.4
        filters, error_covs = mmse_filters(cov, cfg, sigma2)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for k in range(2):
            h_hat, error_cov = mmse_estimate(cov[0, k], [cov[0, 0], cov[0, 1]], y, 5, cfg.power_mw, k, sigma2)
            assert np.allclose(filters[0, k] @ y, h_hat, rtol=1e-12)
            assert np.allclose(error_covs[0, k], error_cov, rtol=1e-12, atol=1e-14)
