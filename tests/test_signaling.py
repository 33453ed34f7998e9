"""Exact counting of data-plane samples and control-plane messages."""

from dataclasses import fields

import numpy as np
import pytest

from cfmimo.clustering import (
    CELLULAR_HANDOVER,
    FIXED_RECLUSTER,
    OPPORTUNISTIC_RELOAD,
    PRIMARY_CHANGE,
    ClusterState,
    HandoverEvent,
)
from cfmimo.config import SimConfig, apply_setting
from cfmimo.errors import ConfigurationError
from cfmimo.signaling import (
    FrameConfig,
    LedgerDelta,
    SignalingLedger,
    account_control_plane,
    account_data_plane,
    account_statistics_exchange,
)
from oracles import remote_serving_counts


def manual_state(strategy, serving, primary, odu_count=None, measurement=None):
    serving = np.asarray(serving, dtype=bool)
    l_num, k_num = serving.shape
    return ClusterState(
        strategy=strategy,
        primary=np.asarray(primary),
        measurement=np.ones((l_num, k_num), dtype=bool) if measurement is None else np.asarray(measurement, bool),
        serving=serving,
        reference_power=np.full(k_num, np.nan),
    )


class TestDataPlane:
    def test_three_odus_one_primary(self):
        # UE 0 served by O-RUs on O-DUs {0, 1, 2}; O-DU 0 is primary: 2 tau_u inter-O-DU.
        odu_of_oru = np.array([0, 1, 2, 2])
        serving = np.array([[True], [True], [True], [False]])
        state = manual_state("fixed", serving, [0])
        delta = account_data_plane(state, FrameConfig(tau_u=100), odu_of_oru)
        assert delta.inter_odu.sum() == 200
        assert delta.inter_odu[1, 0] == 100 and delta.inter_odu[2, 0] == 100

    def test_single_odu_no_transfer(self):
        odu_of_oru = np.array([0, 0, 1])
        serving = np.array([[True], [True], [False]])
        state = manual_state("fixed", serving, [0])
        delta = account_data_plane(state, FrameConfig(tau_u=100), odu_of_oru)
        assert delta.inter_odu.sum() == 0

    def test_fronthaul_product(self):
        odu_of_oru = np.array([0, 1])
        serving = np.array([[True, True, True, True], [False, False, False, False]])
        state = manual_state("fixed", serving, [0, 0, 0, 0])
        delta = account_data_plane(state, FrameConfig(tau_u=100), odu_of_oru)
        assert delta.fronthaul[0] == 400
        assert delta.fronthaul[1] == 0

    def test_blocks_per_step_scales(self):
        odu_of_oru = np.array([0, 1])
        serving = np.array([[True], [True]])
        state = manual_state("fixed", serving, [0])
        delta = account_data_plane(state, FrameConfig(tau_u=10, blocks_per_step=3), odu_of_oru)
        assert delta.fronthaul.sum() == 60
        assert delta.inter_odu[1, 0] == 30


class TestControlPlane:
    def test_fixed_worst_case_burst(self):
        # All K UEs recluster in one step: |M^m| * K gain reports.
        l_num, k_num, m_size = 8, 5, 6
        odu_of_oru = np.repeat(np.arange(4), 2)
        measurement = np.zeros((l_num, k_num), dtype=bool)
        measurement[:m_size, :] = True
        state = manual_state("fixed", np.ones((l_num, k_num)), np.zeros(k_num, int), measurement=measurement)
        events = [HandoverEvent(3, k, FIXED_RECLUSTER, 0, 1) for k in range(k_num)]
        delta = account_control_plane(events, state, odu_of_oru)
        assert delta.ric.sum() == m_size * k_num

    def test_opportunistic_unit_cost(self):
        odu_of_oru = np.array([0, 1])
        state = manual_state("opportunistic", np.ones((2, 3)), [0, 0, 1])
        events = [
            HandoverEvent(1, 0, PRIMARY_CHANGE, 0, 1),
            HandoverEvent(1, 1, PRIMARY_CHANGE, 1, 0),
            HandoverEvent(1, 2, PRIMARY_CHANGE, 0, 1),
            HandoverEvent(1, -1, OPPORTUNISTIC_RELOAD, 1, 1),
        ]
        delta = account_control_plane(events, state, odu_of_oru)
        assert delta.ric.sum() == 3

    def test_cellular_and_idle(self):
        odu_of_oru = np.array([0, 1])
        state = manual_state("cellular", np.ones((2, 1)), [0])
        delta = account_control_plane([HandoverEvent(1, 0, CELLULAR_HANDOVER, 0, 1)], state, odu_of_oru)
        assert delta.ric.sum() == 1 and delta.ric[1] == 1
        assert account_control_plane([], state, odu_of_oru).ric.sum() == 0

    def test_fixed_primary_change_not_double_counted(self):
        odu_of_oru = np.array([0, 1])
        measurement = np.array([[True, True], [True, True]])
        state = manual_state("fixed", np.ones((2, 2)), [0, 1], measurement=measurement)
        events = [
            HandoverEvent(1, 0, FIXED_RECLUSTER, 0, 1),
            HandoverEvent(1, 0, PRIMARY_CHANGE, 0, 1),
        ]
        delta = account_control_plane(events, state, odu_of_oru)
        assert delta.ric.sum() == 2  # the measurement-cluster reports only

    def test_event_stream_additivity(self):
        odu_of_oru = np.array([0, 1])
        state = manual_state("opportunistic", np.ones((2, 3)), [0, 0, 1])
        first = [HandoverEvent(1, 0, PRIMARY_CHANGE, 0, 1)]
        second = [HandoverEvent(2, 1, PRIMARY_CHANGE, 1, 0), HandoverEvent(2, 2, PRIMARY_CHANGE, 0, 1)]
        concatenated = account_control_plane(first + second, state, odu_of_oru)
        summed = account_control_plane(first, state, odu_of_oru) + account_control_plane(second, state, odu_of_oru)
        assert np.array_equal(concatenated.ric, summed.ric)

    def test_opportunistic_cheaper_than_fixed(self):
        odu_of_oru = np.array([0, 0, 1, 1])
        measurement = np.ones((4, 3), dtype=bool)
        events = [HandoverEvent(1, k, PRIMARY_CHANGE, 0, 1) for k in range(3)]
        fixed_events = events + [HandoverEvent(1, k, FIXED_RECLUSTER, 0, 1) for k in range(3)]
        opp_state = manual_state("opportunistic", np.ones((4, 3)), [0, 0, 1], measurement=measurement)
        fixed_state = manual_state("fixed", np.ones((4, 3)), [0, 0, 1], measurement=measurement)
        opp = account_control_plane(events, opp_state, odu_of_oru).ric.sum()
        fixed = account_control_plane(fixed_events, fixed_state, odu_of_oru).ric.sum()
        assert opp <= fixed


class TestStatisticsExchange:
    def test_one_message_per_serving_odu(self):
        odu_of_oru = np.array([0, 1, 2])
        serving = np.array([[True, True], [True, False], [True, False]])
        state = manual_state("fixed", serving, [0, 0])
        delta = account_statistics_exchange(state, odu_of_oru)
        assert delta.stats_msgs.sum() == 2  # UE 0: O-DUs 1 and 2 report to O-DU 0
        assert delta.stats_msgs[1, 0] == 1 and delta.stats_msgs[2, 0] == 1

    def test_matches_data_plane_and_loop_oracle(self):
        # inter_odu == samples x stats_msgs, and both equal a per-UE loop, on
        # random serving maps under a shuffled O-RU -> O-DU ownership.
        rng = np.random.default_rng(21)
        frame = FrameConfig(tau_u=30, blocks_per_step=2)
        transfers = 0
        for _ in range(50):
            l_num, odus = [(4, 2), (6, 3), (9, 9), (8, 4)][rng.integers(4)]
            k_num = int(rng.integers(1, 7))
            odu_of_oru = rng.permutation(np.repeat(np.arange(odus), l_num // odus))
            primary = rng.integers(l_num, size=k_num)
            serving = rng.random((l_num, k_num)) < 0.4
            serving[primary, np.arange(k_num)] = True
            state = manual_state("fixed", serving, primary)
            stats = account_statistics_exchange(state, odu_of_oru)
            data = account_data_plane(state, frame, odu_of_oru)
            assert np.array_equal(data.inter_odu, frame.tau_u * frame.blocks_per_step * stats.stats_msgs)
            assert np.array_equal(stats.stats_msgs, remote_serving_counts(serving, primary, odu_of_oru))
            transfers += int(stats.stats_msgs.sum())
        assert transfers > 0


class TestLedger:
    def test_additivity_and_monotonicity(self):
        ledger = SignalingLedger(2, 2)
        a = LedgerDelta.zeros(2, 2)
        a.fronthaul[0] = 5
        b = LedgerDelta.zeros(2, 2)
        b.fronthaul[0] = 7
        b.ric[1] = 2
        ledger.record(1, a)
        ledger.record(2, b)
        assert ledger.total_fronthaul == 12
        assert ledger.total_ric == 2
        merged = a + b
        assert merged.fronthaul[0] == 12

    @pytest.mark.parametrize("counter", [f.name for f in fields(LedgerDelta)])
    def test_negative_delta_rejected(self, counter):
        ledger = SignalingLedger(1, 1)
        bad = LedgerDelta.zeros(1, 1)
        getattr(bad, counter).flat[0] = -1
        with pytest.raises(ConfigurationError):
            ledger.record(0, bad)

    def test_csv_export(self):
        ledger = SignalingLedger(2, 2)
        delta = LedgerDelta.zeros(2, 2)
        delta.fronthaul[1] = 3
        delta.inter_odu[0, 1] = 4
        delta.ric[0] = 1
        delta.stats_msgs[1, 0] = 2
        ledger.record(7, delta)
        lines = ledger.to_csv().strip().splitlines()
        assert lines[0] == "step,counter,source,destination,amount"
        assert "7,fronthaul,1,odu,3" in lines
        assert "7,inter_odu,0,1,4" in lines
        assert "7,ric,0,ric,1" in lines
        assert "7,stats,1,0,2" in lines

    def test_frame_validation(self):
        for key in ("tau_u", "blocks_per_step"):
            with pytest.raises(ConfigurationError, match=f"{key} must be >= 1, got 0"):
                apply_setting(SimConfig(), key, "0").resolve()
