"""Deployment, torus metrics, and mobility."""

import math

import numpy as np
import pytest

from cfmimo.errors import ConfigurationError
from cfmimo.geometry import (
    DeploymentConfig,
    advance_positions,
    generate_deployment,
    uniform_headings,
    uniform_positions,
    wrap_distance_and_angle,
)
from oracles import step_ue
from oracles import wrap_distance_and_angle as nine_image_search


def distances(a, b, side):
    """Pairwise torus distances of point sets ``a`` and ``b`` through the batched kernel."""
    return wrap_distance_and_angle(np.asarray(a, float), np.asarray(b, float), side)[0]


def distance(a, b, side):
    """Torus distance of one point pair through the batched kernel."""
    return float(distances([a], [b], side)[0, 0])


def angle(oru, ue, side):
    """Broadside azimuth of one (O-RU, UE) pair through the batched kernel."""
    _, phi = wrap_distance_and_angle(np.array([oru], float), np.array([ue], float), side)
    return float(phi[0, 0])


class TestDeployment:
    def test_subsquare_tiling(self):
        cfg = DeploymentConfig(1000.0, 36, 9, 4, 40)
        topo = generate_deployment(cfg, np.random.default_rng(0))
        assert topo.oru_positions.shape == (36, 2)
        sub = 1000.0 / 3
        for l in range(36):
            c = topo.odu_of_oru[l]
            x0, y0 = (c % 3) * sub, (c // 3) * sub
            assert x0 <= topo.oru_positions[l, 0] < x0 + sub
            assert y0 <= topo.oru_positions[l, 1] < y0 + sub
        counts = np.bincount(topo.odu_of_oru)
        assert np.all(counts == 4)

    def test_degenerate_single_oru(self):
        cfg = DeploymentConfig(100.0, 1, 1, 1, 1)
        topo = generate_deployment(cfg, np.random.default_rng(1))
        assert topo.oru_positions.shape == (1, 2)
        assert np.all((topo.oru_positions >= 0) & (topo.oru_positions < 100.0))

    def test_same_seed_bit_identical(self):
        cfg = DeploymentConfig(1000.0, 16, 4, 4, 10)
        a = generate_deployment(cfg, np.random.default_rng(42))
        b = generate_deployment(cfg, np.random.default_rng(42))
        assert np.array_equal(a.oru_positions, b.oru_positions)
        assert np.array_equal(a.odu_of_oru, b.odu_of_oru)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid_side_m=-1.0, num_orus=4, num_odus=4, antennas_per_oru=1, num_ues=1),
            dict(grid_side_m=100.0, num_orus=5, num_odus=4, antennas_per_oru=1, num_ues=1),
            dict(grid_side_m=100.0, num_orus=6, num_odus=3, antennas_per_oru=1, num_ues=1),
            dict(grid_side_m=100.0, num_orus=4, num_odus=4, antennas_per_oru=0, num_ues=1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            generate_deployment(DeploymentConfig(**kwargs), np.random.default_rng(0))

    def test_table_roundtrip(self):
        cfg = DeploymentConfig(500.0, 8, 4, 2, 3)
        topo = generate_deployment(cfg, np.random.default_rng(3))
        lines = topo.to_table().strip().splitlines()
        assert lines[0].split() == ["oru", "x_m", "y_m", "odu"]
        assert len(lines) == 9
        row = lines[4].split()
        assert int(row[0]) == 3
        assert float(row[1]) == pytest.approx(topo.oru_positions[3, 0])
        assert int(row[3]) == topo.odu_of_oru[3]


class TestWrapDistance:
    def test_spec_values(self):
        assert distance((50, 50), (950, 50), 1000.0) == pytest.approx(100.0)
        assert distance((123, 456), (123, 456), 1000.0) == 0.0
        assert distance((0, 0), (999, 999), 1000.0) == pytest.approx(math.sqrt(2.0))

    def test_matches_brute_force_and_bounded_by_direct(self):
        rng = np.random.default_rng(7)
        side = 1000.0
        a = rng.uniform(0, side, size=(40, 2))
        b = rng.uniform(0, side, size=(25, 2))
        mat = distances(a, b, side)
        for i in range(40):
            for j in range(25):
                assert mat[i, j] == nine_image_search(a[i], b[j], side)[0]
                assert mat[i, j] <= math.hypot(*(b[j] - a[i])) + 1e-9

    def test_matrix_agrees_with_scalar(self):
        # Each entry is the single-pair value, bit for bit.
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 200, size=(5, 2))
        b = rng.uniform(0, 200, size=(7, 2))
        mat = distances(a, b, 200.0)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == distance(a[i], b[j], 200.0)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 300, size=(50, 2))
        b = rng.uniform(0, 300, size=(30, 2))
        assert distances(a, b, 300.0) == pytest.approx(distances(b, a, 300.0).T)


class TestWrapAngle:
    def test_broadside_is_zero(self):
        for d in (1.0, 50.0, 400.0):
            assert angle((500, 500), (500, 500 + d), 1000.0) == pytest.approx(0.0)

    def test_array_axis_is_half_pi(self):
        assert angle((500, 500), (600, 500), 1000.0) == pytest.approx(math.pi / 2)
        assert angle((500, 500), (400, 500), 1000.0) == pytest.approx(-math.pi / 2)

    def test_coincident_is_zero(self):
        assert angle((10, 10), (10, 10), 100.0) == 0.0

    def test_wrapped_image_used(self):
        # Nearest image of the UE lies through the boundary: displacement is -20 in x.
        phi = angle((10, 500), (990, 500), 1000.0)
        assert phi == pytest.approx(-math.pi / 2)

    def test_against_nine_image_brute_force(self):
        # Distance and azimuth of every pair equal a nine-image search's, bit for bit.
        rng = np.random.default_rng(11)
        for side in (400.0, 1000.0, 3.7):
            orus = rng.uniform(0, side, size=(30, 2))
            ues = rng.uniform(0, side, size=(40, 2))
            dist, phi = wrap_distance_and_angle(orus, ues, side)
            expected = np.array([[nine_image_search(a, b, side) for b in ues] for a in orus])
            assert np.array_equal(dist, expected[..., 0])
            assert np.array_equal(phi, expected[..., 1])

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_half_side_tie_takes_direct_image(self, axis, sign):
        # Both images lie exactly half a side away along one axis: the direct one is used.
        oru = np.array([50.0, 50.0])
        ue = oru.copy()
        ue[axis] += sign * 50.0
        ue[1 - axis] += 10.0
        direct = ue - oru
        assert distance(oru, ue, 100.0) == math.hypot(*direct)
        assert angle(oru, ue, 100.0) == math.atan2(*direct)
        assert (distance(oru, ue, 100.0), angle(oru, ue, 100.0)) == nine_image_search(oru, ue, 100.0)


class TestMobility:
    def test_zero_speed(self):
        positions = np.array([[10.0, 20.0]])
        out = advance_positions(positions, np.array([0.0]), np.array([1.3]), 0.5, 1000.0)
        assert np.array_equal(out, positions)

    def test_displacement_value(self):
        v = 30.0 / 3.6
        out = advance_positions(np.array([[100.0, 100.0]]), np.array([v]), np.array([0.0]), 0.5, 1000.0)
        assert out[0, 0] - 100.0 == pytest.approx(4.1667, abs=1e-3)
        assert out[0, 1] == pytest.approx(100.0)

    def test_wraps_at_boundary(self):
        positions = np.array([[999.0, 10.0]])
        out = advance_positions(positions, np.array([10.0]), np.array([0.0]), 0.5, 1000.0)
        assert out[0, 0] == pytest.approx(4.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        pos = rng.uniform(0, 100, size=(8, 2))
        speeds = rng.uniform(0, 30, size=8)
        headings = rng.uniform(0, 2 * math.pi, size=8)
        batch = advance_positions(pos, speeds, headings, 0.5, 100.0)
        for k in range(8):
            single = step_ue(pos[k], speeds[k], headings[k], 0.5)
            assert np.allclose(batch[k], np.mod(single, 100.0))

    def test_total_displacement_bound(self):
        rng = np.random.default_rng(14)
        side = 200.0
        pos = uniform_positions(4, side, rng)
        start = pos.copy()
        speeds = rng.uniform(0, 20, size=4)
        headings = uniform_headings(4, rng)
        for n in range(1, 30):
            pos = advance_positions(pos, speeds, headings, 0.5, side)
            for k in range(4):
                assert distance(start[k], pos[k], side) <= n * speeds[k] * 0.5 + 1e-9
