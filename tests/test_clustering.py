"""Cluster formation, handover triggers, and baselines."""

from dataclasses import fields

import numpy as np
import pytest

from cfmimo.channel import db_to_linear
from cfmimo.clustering import (
    CELLULAR,
    CELLULAR_HANDOVER,
    FIXED,
    FIXED_RECLUSTER,
    OPPORTUNISTIC,
    OPPORTUNISTIC_RELOAD,
    PRIMARY_CHANGE,
    STRATEGIES,
    UBIQUITOUS,
    ClusterState,
    HandoverConfig,
    NeighborTable,
    cellular_handover_step,
    events_to_csv,
    fixed_handover_step,
    initial_clusters,
    opportunistic_track,
    strategy_step,
)
from cfmimo.errors import ConfigurationError
from cfmimo.geometry import DeploymentConfig, Topology, generate_deployment
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cellular_handover,
    fixed_selection,
    opportunistic_clusters,
    opportunistic_track as opportunistic_track_oracle,
    wrap_distance_and_angle,
)

# Event kinds each strategy may emit.
STRATEGY_KINDS = {
    FIXED: {FIXED_RECLUSTER, PRIMARY_CHANGE},
    OPPORTUNISTIC: {PRIMARY_CHANGE, OPPORTUNISTIC_RELOAD},
    CELLULAR: {CELLULAR_HANDOVER},
    UBIQUITOUS: set(),
}


def grid_topology(l_num=16, odus=4, side=1000.0, seed=0):
    dep = DeploymentConfig(side, l_num, odus, 4, 1)
    return generate_deployment(dep, np.random.default_rng(seed))


def line_topology(l_num):
    """``l_num`` O-RUs 10 m apart on one O-DU."""
    positions = np.stack([10.0 * np.arange(l_num), np.zeros(l_num)], axis=1)
    return Topology(positions, np.zeros(l_num, dtype=int), 10.0 * max(l_num, 1))


def fixed_t0(gains, serving_size=1):
    """t=0 fixed state of one UE whose measurement cluster holds every O-RU."""
    gains = np.asarray(gains, dtype=float)
    cfg = HandoverConfig(FIXED, 2.0, serving_size, gains.size)
    return initial_clusters(gains[:, None], line_topology(gains.size), cfg, 4)


class TestSelectPrimary:
    def test_argmax(self):
        assert fixed_t0(db_to_linear(np.array([-80.0, -75.0, -90.0]))).primary[0] == 1

    def test_tie_lowest_index(self):
        assert fixed_t0([0.5, 0.5, 0.5]).primary[0] == 0

    def test_single(self):
        assert fixed_t0([0.1]).primary[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="num_orus"):
            initial_clusters(np.zeros((0, 1)), line_topology(0), HandoverConfig(FIXED, 2.0, 1, 1), 4)


class TestMeasurementCluster:
    def test_full_and_singleton(self):
        neighbors = NeighborTable(grid_topology())
        assert sorted(neighbors.measurement_set(3, 16).tolist()) == list(range(16))
        assert neighbors.measurement_set(5, 1).tolist() == [5]

    def test_brute_force_nearest(self):
        topo = grid_topology(seed=3)
        neighbors = NeighborTable(topo)
        for primary in range(topo.num_orus):
            got = set(neighbors.measurement_set(primary, 5).tolist())
            dist = [
                (wrap_distance_and_angle(topo.oru_positions[primary], topo.oru_positions[l], topo.grid_side_m)[0], l)
                for l in range(topo.num_orus)
            ]
            expected = {l for _, l in sorted(dist)[:5]}
            assert got == expected

    def test_includes_wrapped_neighbors(self):
        # Regular 4x4 lattice: the neighbors of a corner O-RU wrap around.
        side = 400.0
        xs = np.arange(4) * 100.0 + 50.0
        positions = np.array([[x, y] for y in xs for x in xs])
        topo = Topology(positions, np.repeat(np.arange(4), 4), side)
        got = set(NeighborTable(topo).measurement_set(0, 5).tolist())
        assert got == {0, 1, 3, 4, 12}

    def test_oversized_rejected(self):
        topo = grid_topology()
        cfg = HandoverConfig("fixed", 2.0, 4, 17)
        with pytest.raises(ConfigurationError, match="measurement_size"):
            initial_clusters(np.ones((16, 1)), topo, cfg, 4, NeighborTable(topo))


class TestFixedCluster:
    def test_top_gains_and_reference_power(self):
        state = fixed_t0([10.0, 5.0, 8.0, 2.0], serving_size=2)
        assert np.flatnonzero(state.serving[:, 0]).tolist() == [0, 2]
        assert state.reference_power[0] == pytest.approx(18.0)

    def test_full_selection(self):
        state = fixed_t0([1.0, 2.0, 3.0], serving_size=3)
        assert np.flatnonzero(state.serving[:, 0]).tolist() == [0, 1, 2]
        assert state.reference_power[0] == pytest.approx(6.0)

    def test_ties_take_lowest_indices(self):
        state = fixed_t0(np.full(5, 2.0), serving_size=3)
        assert np.flatnonzero(state.serving[:, 0]).tolist() == [0, 1, 2]


def fixed_state(beta_lin, topo, serving_size=4, measurement_size=8, threshold=3.0):
    cfg = HandoverConfig("fixed", threshold, serving_size, measurement_size)
    return initial_clusters(beta_lin, topo, cfg, 4, NeighborTable(topo)), cfg


class TestFixedHandover:
    def setup_method(self):
        self.topo = grid_topology(seed=5)
        rng = np.random.default_rng(6)
        self.beta = db_to_linear(-80.0 - 30.0 * rng.random((16, 6)))

    def test_static_never_triggers(self):
        state, cfg = fixed_state(self.beta, self.topo)
        out, events = fixed_handover_step(state, self.beta, NeighborTable(self.topo), cfg, 1)
        assert events == []
        assert np.array_equal(out.serving, state.serving)

    def test_trigger_boundary(self):
        state, cfg = fixed_state(self.beta, self.topo, threshold=3.0)
        neighbors = NeighborTable(self.topo)
        _, events = fixed_handover_step(state, self.beta * 10 ** (-3.01 / 10), neighbors, cfg, 1)
        assert sum(1 for e in events if e.kind == FIXED_RECLUSTER) == 6
        _, events = fixed_handover_step(state, self.beta * 10 ** (-2.99 / 10), neighbors, cfg, 1)
        assert events == []

    def test_recluster_rebuilds_reference(self):
        state, cfg = fixed_state(self.beta, self.topo, threshold=0.5)
        neighbors = NeighborTable(self.topo)
        shifted = self.beta * 10 ** (-1.0 / 10)
        out, events = fixed_handover_step(state, shifted, neighbors, cfg, 4)
        assert all(e.t == 4 for e in events)
        for k in range(6):
            members = np.flatnonzero(out.serving[:, k])
            assert out.reference_power[k] == pytest.approx(shifted[members, k].sum())
            assert out.serving[out.primary[k], k]
            assert out.measurement[:, k].sum() == cfg.measurement_size

    def test_infinite_threshold_never_triggers(self):
        state, cfg = fixed_state(self.beta, self.topo, threshold=np.inf)
        neighbors = NeighborTable(self.topo)
        _, events = fixed_handover_step(state, self.beta * 1e-6, neighbors, cfg, 1)
        assert events == []

    def test_zero_threshold_declining_power_triggers_first_step(self):
        state, cfg = fixed_state(self.beta, self.topo, threshold=0.0)
        neighbors = NeighborTable(self.topo)
        _, events = fixed_handover_step(state, self.beta * 0.999, neighbors, cfg, 1)
        assert sum(1 for e in events if e.kind == FIXED_RECLUSTER) == 6

    def test_full_cluster_static_equals_ubiquitous(self):
        state, _ = fixed_state(self.beta, self.topo, serving_size=16, measurement_size=16)
        ubiq = initial_clusters(self.beta, self.topo, HandoverConfig(UBIQUITOUS, 2.0, 4, 8), 4)
        assert np.array_equal(state.serving, ubiq.serving)


class TestOpportunisticInit:
    def test_single_ue(self):
        topo = grid_topology(seed=7)
        beta = db_to_linear(-80.0 - 30.0 * np.random.default_rng(8).random((16, 1)))
        cfg = HandoverConfig("opportunistic", 2.0, 4, 8)
        state = initial_clusters(beta, topo, cfg, 4)
        primary = int(np.argmax(beta[:, 0]))
        assert state.primary[0] == primary
        assert state.serving[primary, 0]
        # Every O-RU tracking the UE serves it opportunistically (capacity 4 > 1).
        expected = state.measurement[:, 0]
        assert np.array_equal(state.serving[:, 0], expected)

    def test_single_antenna_primary_fills_capacity(self):
        # N=1: an O-RU whose capacity is taken by a primary UE takes nobody else.
        positions = np.array([[10.0, 10.0], [90.0, 90.0]])
        topo = Topology(positions, np.array([0, 0]), 100.0)
        beta = np.array([[1.0, 0.5], [0.4, 0.9]])
        cfg = HandoverConfig("opportunistic", 2.0, 1, 2)
        state = initial_clusters(beta, topo, cfg, 1)
        assert state.primary.tolist() == [0, 1]
        assert state.serving[:, 0].tolist() == [True, False]
        assert state.serving[:, 1].tolist() == [False, True]

    def test_two_orus_two_ues_full_load(self):
        positions = np.array([[10.0, 10.0], [90.0, 90.0]])
        topo = Topology(positions, np.array([0, 0]), 100.0)
        beta = np.array([[1.0, 0.5], [0.4, 0.9]])
        cfg = HandoverConfig("opportunistic", 2.0, 2, 2)
        state = initial_clusters(beta, topo, cfg, 2)
        assert np.all(state.serving)

    def test_primary_overflow_spills_to_next_best(self):
        # Three single-antenna O-RUs, three UEs all strongest on O-RU 0.
        positions = np.array([[10.0, 50.0], [50.0, 50.0], [90.0, 50.0]])
        topo = Topology(positions, np.zeros(3, dtype=int), 100.0)
        beta = np.array(
            [[1.00, 0.90, 0.80],
             [0.50, 0.60, 0.40],
             [0.30, 0.20, 0.45]]
        )
        cfg = HandoverConfig("opportunistic", 2.0, 1, 3)
        state = initial_clusters(beta, topo, cfg, 1)
        assert state.primary.tolist() == [0, 1, 2]
        assert np.all(state.primary_counts() <= 1)
        state.validate(1)

    def test_infeasible_load_rejected(self):
        positions = np.array([[10.0, 50.0]])
        topo = Topology(positions, np.zeros(1, dtype=int), 100.0)
        cfg = HandoverConfig("opportunistic", 2.0, 1, 1)
        with pytest.raises(ConfigurationError, match=r"num_ues <= num_orus \* antennas_per_oru.*2 > 1 \* 1"):
            initial_clusters(np.ones((1, 2)), topo, cfg, 1)


def small_opportunistic(seed=9, k_num=6, n_ant=2, threshold=2.0):
    topo = grid_topology(l_num=8, odus=4, seed=seed)
    rng = np.random.default_rng(seed + 1)
    beta_db = -80.0 - 30.0 * rng.random((8, k_num))
    cfg = HandoverConfig("opportunistic", threshold, 3, 5)
    state = initial_clusters(db_to_linear(beta_db), topo, cfg, n_ant, NeighborTable(topo))
    return topo, beta_db, cfg, state


class TestOpportunisticTrack:
    def test_handover_boundary(self):
        topo, beta_db, cfg, state = small_opportunistic(threshold=2.0)
        neighbors = NeighborTable(topo)
        k = 0
        primary = state.primary[k]
        counts = state.primary_counts()
        members = np.flatnonzero(state.measurement[:, k])
        # Target an O-RU with spare primary capacity (full ones refuse handovers).
        other = next(l for l in members if l != primary and counts[l] < 2)
        shifted = beta_db.copy()
        shifted[other, k] = shifted[primary, k] + 2.5
        shifted[members[members != other], k] = np.minimum(
            shifted[members[members != other], k], shifted[primary, k]
        )
        out, events = opportunistic_track(state, shifted, neighbors, cfg, 2, 1)
        changes = [e for e in events if e.kind == PRIMARY_CHANGE]
        assert [e.ue for e in changes] == [k]
        assert out.primary[k] == other

        shifted[other, k] = beta_db[primary, k] + 1.9
        out, events = opportunistic_track(state, shifted, neighbors, cfg, 2, 1)
        assert [e for e in events if e.kind == PRIMARY_CHANGE] == []

    def test_reload_replaces_weakest_keeps_primaries(self):
        topo, beta_db, cfg, state = small_opportunistic(threshold=2.0)
        neighbors = NeighborTable(topo)
        # Find an O-RU with an opportunistic (non-primary) served UE and an
        # unserved tracked candidate.
        target = None
        for l in range(8):
            served = np.flatnonzero(state.serving[l] & (state.primary != l))
            cand = np.flatnonzero(state.measurement[l] & ~state.serving[l])
            if served.size and cand.size:
                target = (l, served, cand[0])
                break
        assert target is not None
        l, served, newcomer = target
        shifted = beta_db.copy()
        weakest = served[np.argmin(shifted[l, served])]
        shifted[l, newcomer] = shifted[l, weakest] + 2.5
        out, events = opportunistic_track(state, shifted, neighbors, cfg, 2, 3)
        reloads = [e for e in events if e.kind == OPPORTUNISTIC_RELOAD and e.old == l]
        assert len(reloads) == 1
        assert out.serving[l, newcomer]
        for k in np.flatnonzero(out.primary == l):
            assert out.serving[l, k]

    def test_no_gain_change_no_events(self):
        topo, beta_db, cfg, state = small_opportunistic()
        out, events = opportunistic_track(state, beta_db, NeighborTable(topo), cfg, 2, 1)
        assert events == []
        assert np.array_equal(out.serving, state.serving)

    def test_zero_threshold_strict_improvement_hands_over(self):
        topo, beta_db, cfg, state = small_opportunistic(threshold=0.0)
        neighbors = NeighborTable(topo)
        k = 0
        counts = state.primary_counts()
        members = np.flatnonzero(state.measurement[:, k])
        other = next(l for l in members if l != state.primary[k] and counts[l] < 2)
        shifted = beta_db.copy()
        shifted[other, k] = shifted[:, k].max() + 0.1
        _, events = opportunistic_track(state, shifted, neighbors, cfg, 2, 1)
        assert any(e.kind == PRIMARY_CHANGE and e.ue == k for e in events)

    def test_invariants_under_fuzz(self):
        for n_ant in (1, 2, 4):
            topo, beta_db, cfg, state = small_opportunistic(seed=20 + n_ant, n_ant=n_ant, k_num=2 * n_ant)
            neighbors = NeighborTable(topo)
            rng = np.random.default_rng(n_ant)
            for t in range(1, 60):
                beta_db = beta_db + rng.normal(scale=2.0, size=beta_db.shape)
                state, _ = opportunistic_track(state, beta_db, neighbors, cfg, n_ant, t)
                state.validate(n_ant)


def baseline(strategy, beta, topo):
    cfg = HandoverConfig(strategy, 2.0, 1, topo.num_orus)
    return initial_clusters(beta, topo, cfg, 4)


class TestBaselines:
    def test_ubiquitous_serves_all(self):
        topo = grid_topology(seed=11)
        beta = db_to_linear(-90.0 + 10.0 * np.random.default_rng(12).random((16, 5)))
        state = baseline(UBIQUITOUS, beta, topo)
        assert np.all(state.serving)
        assert state.serving[:, 0].sum() == 16

    def test_cellular_cluster_size_is_orus_per_odu(self):
        topo = grid_topology(seed=13)
        beta = db_to_linear(-90.0 + 10.0 * np.random.default_rng(14).random((16, 5)))
        state = baseline(CELLULAR, beta, topo)
        assert np.all(state.serving.sum(axis=0) == 4)
        for k in range(5):
            best = np.argmax(beta[:, k])
            assert state.serving_odu[k] == topo.odu_of_oru[best]
            assert state.primary[k] == best

    def test_single_odu_cellular_equals_ubiquitous(self):
        dep = DeploymentConfig(500.0, 4, 1, 2, 3)
        topo = generate_deployment(dep, np.random.default_rng(15))
        beta = np.random.default_rng(16).random((4, 3)) + 0.1
        cellular = baseline(CELLULAR, beta, topo)
        ubiquitous = baseline(UBIQUITOUS, beta, topo)
        assert np.array_equal(cellular.serving, ubiquitous.serving)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="mesh"):
            baseline("mesh", np.ones((16, 2)), grid_topology())


class TestCellularHandover:
    def setup_method(self):
        self.topo = grid_topology(seed=17)
        rng = np.random.default_rng(18)
        self.beta = db_to_linear(-80.0 - 20.0 * rng.random((16, 4)))
        self.state = baseline(CELLULAR, self.beta, self.topo)

    def test_hysteresis_boundary(self):
        k = 0
        current = self.state.serving_odu[k]
        inside_best_db = 10 * np.log10(self.beta[self.topo.odu_of_oru == current, k].max())
        outside = np.flatnonzero(self.topo.odu_of_oru != current)[0]
        shifted = self.beta.copy()
        shifted[outside, k] = db_to_linear(inside_best_db + 2.5)
        out, events = cellular_handover_step(self.state, shifted, self.topo, 2.0, 1)
        assert [e for e in events if e.ue == k and e.kind == CELLULAR_HANDOVER]
        assert out.serving_odu[k] == self.topo.odu_of_oru[outside]
        assert out.primary[k] == outside

        shifted[outside, k] = db_to_linear(inside_best_db + 1.5)
        _, events = cellular_handover_step(self.state, shifted, self.topo, 2.0, 1)
        assert [e for e in events if e.ue == k] == []

    def test_centered_static_ue_rarely_hands_over(self):
        # A UE parked at the center of its subsquare, shadow evolving: the
        # cellular handover rate must stay below 0.1 events per second.
        rng = np.random.default_rng(19)
        side, odus, root = 1000.0, 4, 2
        dep = DeploymentConfig(side, 16, odus, 4, 1)
        topo = generate_deployment(dep, rng)
        position = np.array([[250.0, 250.0]])  # center of O-DU 0's subsquare
        from cfmimo.channel import ShadowFading, path_loss_db
        from cfmimo.geometry import wrap_distance_and_angle

        dist, _ = wrap_distance_and_angle(topo.oru_positions, position, side)
        shadow = ShadowFading.initial(16, 1, 4.0, 0.05, rng)
        beta = db_to_linear(path_loss_db(dist, shadow.values_db))
        state = baseline(CELLULAR, beta, topo)
        events = []
        steps = 200
        for t in range(1, steps + 1):
            shadow = shadow.evolve(np.array([8.33]), 0.5, rng)  # fast-decorrelating shadow
            beta = db_to_linear(path_loss_db(dist, shadow.values_db))
            state, ev = cellular_handover_step(state, beta, topo, 2.0, t)
            events.extend(ev)
        rate = len(events) / (steps * 0.5)
        assert rate < 0.1


class TestEventLog:
    def test_csv_format(self):
        from cfmimo.clustering import HandoverEvent

        events = [
            HandoverEvent(1, 3, PRIMARY_CHANGE, 2, 7),
            HandoverEvent(2, -1, OPPORTUNISTIC_RELOAD, 4, 4),
        ]
        text = events_to_csv(events)
        lines = text.strip().splitlines()
        assert lines[0] == "t,ue,kind,old,new"
        assert lines[1] == "1,3,primary_change,2,7"
        assert lines[2] == "2,-1,opportunistic_reload,4,4"


class TestStateValidation:
    def test_detects_primary_outside_serving(self):
        topo = grid_topology(seed=21)
        beta = np.random.default_rng(22).random((16, 3)) + 0.1
        state = baseline(UBIQUITOUS, beta, topo)
        state.serving[state.primary[0], 0] = False
        with pytest.raises(AssertionError):
            state.validate()

    def test_detects_capacity_violation(self):
        topo, beta_db, cfg, state = small_opportunistic()
        state.serving[0, :] = True
        with pytest.raises(AssertionError):
            state.validate(2)


class TestHandoverConfig:
    @pytest.mark.parametrize(
        "cfg", [HandoverConfig(FIXED, np.nan, 4, 8), HandoverConfig(CELLULAR, 2.0, 4, 8, np.nan)]
    )
    def test_nan_threshold_rejected(self, cfg):
        with pytest.raises(ConfigurationError, match="nan"):
            cfg.validate(16, 10, 4)

    def test_infinite_threshold_accepted(self):
        HandoverConfig(FIXED, np.inf, 4, 8, np.inf).validate(16, 10, 4)


def random_instance(rng):
    """Deployment, neighbor table and (L, K) linear gains with frequent exact ties."""
    l_num, odus = [(4, 1), (8, 4), (16, 4), (18, 9)][rng.integers(4)]
    k_num = int(rng.integers(1, 9))
    topo = generate_deployment(DeploymentConfig(800.0, l_num, odus, 4, k_num), rng)
    beta_db = -70.0 - rng.integers(0, 6, size=(l_num, k_num)) * rng.choice([1.0, 7.3])
    return topo, NeighborTable(topo), db_to_linear(beta_db)


def fixed_oracle(state, gains, ues, neighbors, cfg):
    """``state`` with the fixed clusters of ``ues`` rebuilt one UE at a time by
    the selection oracle, the primary being the strongest O-RU, lowest index on ties."""
    state = state.copy()
    l_num = gains.shape[0]
    for k in ues:
        primary = max(range(l_num), key=lambda l: (gains[l, k], -l))
        members = neighbors.measurement_set(primary, cfg.measurement_size)
        chosen, state.reference_power[k] = fixed_selection(gains[:, k], members, cfg.serving_size)
        state.primary[k] = primary
        state.measurement[:, k] = np.isin(np.arange(l_num), members)
        state.serving[:, k] = np.isin(np.arange(l_num), chosen)
    return state


class TestAgainstOracles:
    def test_fixed_matches_selection_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(60):
            topo, neighbors, beta = random_instance(rng)
            l_num, k_num = beta.shape
            measurement = int(rng.integers(1, l_num + 1))
            cfg = HandoverConfig(FIXED, 2.0, int(rng.integers(1, measurement + 1)), measurement)
            blank = ClusterState(
                FIXED, np.zeros(k_num, dtype=int), np.zeros(beta.shape, dtype=bool),
                np.zeros(beta.shape, dtype=bool), np.full(k_num, np.nan),
            )
            state = initial_clusters(beta, topo, cfg, 4, neighbors)
            assert_states_equal(state, fixed_oracle(blank, beta, range(k_num), neighbors, cfg))
            # Drop a random subset of UEs by more than the threshold; the rest keep their gains.
            triggered = np.flatnonzero(rng.random(k_num) < 0.5)
            shifted = beta.copy()
            shifted[:, triggered] *= 10 ** (-3.0 / 10) * rng.random((l_num, triggered.size))
            out, events = fixed_handover_step(state, shifted, neighbors, cfg, 5)
            expected = fixed_oracle(state, shifted, triggered, neighbors, cfg)
            assert_states_equal(out, expected)
            want = []
            for k in triggered:
                old, new = int(state.primary[k]), int(expected.primary[k])
                want.append((5, k, FIXED_RECLUSTER, old, new))
                if new != old:
                    want.append((5, k, PRIMARY_CHANGE, old, new))
            assert [(e.t, e.ue, e.kind, e.old, e.new) for e in events] == want

    def test_cellular_step_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            topo, neighbors, beta = random_instance(rng)
            cfg = HandoverConfig(CELLULAR, 2.0, 1, topo.num_orus, float(rng.choice([0.0, 1.0, 3.0])))
            state = initial_clusters(beta, topo, cfg, 4, neighbors)
            shifted = beta * db_to_linear(rng.normal(scale=4.0, size=beta.shape))
            out, events = cellular_handover_step(state, shifted, topo, cfg.cellular_hysteresis_db, 2)
            serving_odu, primary, want = cellular_handover(
                state.serving_odu, state.primary, shifted, topo.odu_of_oru, cfg.cellular_hysteresis_db
            )
            member = topo.odu_of_oru[:, None] == serving_odu[None, :]
            expected = state.copy()
            expected.serving_odu, expected.primary = serving_odu, primary
            expected.serving, expected.measurement = member, member.copy()
            assert_states_equal(out, expected)
            assert [(e.t, e.ue, e.kind, e.old, e.new) for e in events] == [
                (2, k, CELLULAR_HANDOVER, old, new) for k, old, new in want
            ]


def assert_states_equal(got, want):
    for field in fields(ClusterState):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_copy_shares_no_array(strategy):
    """Writing into any array of a copy leaves the original state as formed."""
    topo = grid_topology()
    beta_lin = db_to_linear(-70.0 - 40.0 * np.random.default_rng(3).random((topo.num_orus, 5)))
    cfg = HandoverConfig(strategy, 2.0, 4, 8)
    state = initial_clusters(beta_lin, topo, cfg, 4)
    arrays = [f.name for f in fields(ClusterState) if isinstance(getattr(state, f.name), np.ndarray)]
    assert ("serving_odu" in arrays) == (strategy == CELLULAR)
    for name in arrays:
        duplicate = state.copy()
        assert_states_equal(duplicate, state)
        written = getattr(duplicate, name)
        written[...] = ~written if written.dtype == bool else -1
        assert_states_equal(state, initial_clusters(beta_lin, topo, cfg, 4))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    strategy=st.sampled_from(STRATEGIES),
    layout=st.sampled_from([(1, 1), (4, 1), (8, 4), (16, 4)]),
    n_ant=st.integers(1, 4),
    threshold=st.sampled_from([0.0, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_strategies_keep_their_invariants(strategy, layout, n_ant, threshold, seed):
    """Every strategy keeps a valid state over 20 steps of drifting gains, emits
    only its own event kinds, and a fixed recluster stores the new serving gain."""
    l_num, odus = layout
    rng = np.random.default_rng(seed)
    k_num = int(rng.integers(1, min(l_num * n_ant, 8) + 1))
    topo = generate_deployment(DeploymentConfig(500.0, l_num, odus, n_ant, k_num), rng)
    neighbors = NeighborTable(topo)
    measurement = int(rng.integers(1, l_num + 1))
    cfg = HandoverConfig(strategy, threshold, int(rng.integers(1, measurement + 1)), measurement, threshold)
    beta_db = -70.0 - 40.0 * rng.random((l_num, k_num))
    state = initial_clusters(db_to_linear(beta_db), topo, cfg, n_ant, neighbors)
    state.validate(n_ant)
    for t in range(1, 21):
        beta_db = beta_db + rng.normal(scale=3.0, size=beta_db.shape)
        beta_lin = db_to_linear(beta_db)
        state, events = strategy_step(state, beta_db, beta_lin, topo, neighbors, cfg, n_ant, t)
        state.validate(n_ant)
        assert {e.kind for e in events} <= STRATEGY_KINDS[strategy]
        for k in {e.ue for e in events if e.kind == FIXED_RECLUSTER}:
            assert state.reference_power[k] == beta_lin[np.flatnonzero(state.serving[:, k]), k].sum()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    layout=st.sampled_from([(1, 1), (4, 1), (8, 4), (16, 4)]),
    n_ant=st.integers(1, 4),
    threshold=st.sampled_from([0.0, 1.0, 2.5, np.inf]),
    levels=st.sampled_from([1, 2, 4, 40]),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_opportunistic_matches_loop_oracle(layout, n_ant, threshold, levels, full, seed):
    """The t=0 clusters and one tracking step from a random state equal the
    one-UE, one-O-RU oracles: maps and event lists. Gains come in ``levels``
    dB steps, so ties are frequent; ``full`` fills O-RUs to primary capacity,
    which leaves rows of primaries only."""
    l_num, odus = layout
    rng = np.random.default_rng(seed)
    k_num = int(rng.integers(1, l_num * n_ant + 1))
    topo = generate_deployment(DeploymentConfig(500.0, l_num, odus, n_ant, k_num), rng)
    neighbors = NeighborTable(topo)
    measurement = int(rng.integers(1, l_num + 1))
    cfg = HandoverConfig(OPPORTUNISTIC, threshold, int(rng.integers(1, measurement + 1)), measurement)

    def gains_db():
        return -70.0 - rng.integers(0, levels, size=(l_num, k_num)) * (3.0 / levels)

    beta_lin = db_to_linear(gains_db())
    state = initial_clusters(beta_lin, topo, cfg, n_ant, neighbors)
    primary, member, serving = opportunistic_clusters(beta_lin, neighbors, measurement, n_ant)
    assert np.array_equal(state.primary, primary)
    assert np.array_equal(state.measurement, member)
    assert np.array_equal(state.serving, serving)

    # A random state: primaries within capacity, their measurement clusters, and
    # any served subset of those that keeps the primaries.
    slots = np.repeat(rng.permutation(l_num), n_ant)
    primary = slots[:k_num] if full else rng.choice(slots, k_num, replace=False)
    member = np.zeros((l_num, k_num), dtype=bool)
    for k, l in enumerate(primary):
        member[neighbors.measurement_set(l, measurement), k] = True
    serving = member & (rng.random(member.shape) < rng.random())
    serving[primary, np.arange(k_num)] = True
    state = ClusterState(OPPORTUNISTIC, primary, member, serving, np.full(k_num, np.nan))
    beta_db = gains_db()
    out, events = opportunistic_track(state, beta_db, neighbors, cfg, n_ant, 3)
    primary, member, serving, want = opportunistic_track_oracle(
        primary, member, serving, beta_db, neighbors, measurement, threshold, n_ant, 3
    )
    assert np.array_equal(out.primary, primary)
    assert np.array_equal(out.measurement, member)
    assert np.array_equal(out.serving, serving)
    assert [(e.t, e.ue, e.kind, e.old, e.new) for e in events] == want
