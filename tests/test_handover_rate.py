"""Cellular handover rate against the Cauchy-Crofton formula.

With no shadowing and a 0 dB hysteresis, a cellular UE hands over exactly when
it crosses a boundary between the O-RU Voronoi cells of two O-DUs. UEs start
uniformly on the torus and move in straight lines with uniform headings, so
each sweeps an isotropic random segment. By the Cauchy-Crofton formula
(Santalo, *Integral Geometry and Geometric Probability*, 1976) the expected
number of handovers per UE and second is 2 v B / (pi A), where B is the total
inter-O-DU boundary length on the torus (`oracles.inter_odu_boundary_length`)
and A the grid area.

The tests drive `geometry.advance_positions` and
`clustering.cellular_handover_step` directly. Each mutant below is the
program's own source with one fault put in, and must fail the same check.
"""

import functools
import inspect
import math
import textwrap

import numpy as np
import pytest

from cfmimo import channel, clustering, geometry
from cfmimo.geometry import DeploymentConfig, Topology
from oracles import inter_odu_boundary_length

SIDE_M = 1000.0  # the reference scenario: 36 O-RUs, 9 O-DUs on 1 x 1 km
TS_S = 0.5
SPEED_MPS = 30.0 / 3.6  # 4.2 m per step
REFERENCE = DeploymentConfig(SIDE_M, 36, 9, 4, 1)


def lattice() -> Topology:
    """36 O-RUs at the centres of a 6 x 6 grid, each 2 x 2 block one O-DU: every
    O-RU cell is a square, and the inter-O-DU boundary is the O-DU subsquare edges,
    three lines across the torus each way."""
    i, j = np.divmod(np.arange(36), 6)
    positions = (np.stack([j, i], axis=1) + 0.5) * SIDE_M / 6
    return Topology(positions, j // 2 + 3 * (i // 2), SIDE_M)


def shadow_free_gains(oru_positions: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(L, K) linear path-loss gains by the nearest torus image, for positions on
    the grid: per axis the gap is min(|dx|, side - |dx|)."""
    gap = np.abs(positions.T[:, None, :] - oru_positions.T[:, :, None])  # (2, L, K)
    gap = np.minimum(gap, SIDE_M - gap)
    return channel.db_to_linear(channel.path_loss_db(np.sqrt(gap[0] ** 2 + gap[1] ** 2)))


def rate_ratio(topology: Topology, n_ues: int, n_steps: int, seed: int):
    """Handovers of ``n_ues`` cellular UEs over ``n_steps`` steps at 0 dB hysteresis,
    over their Cauchy-Crofton expectation, and the tolerance of that ratio.

    The count is a sum over independent UEs; were each UE's crossings a Poisson
    process, its relative standard deviation would be 1/sqrt(N) for an expected
    count N. Crossings along a straight line are more regular than that: over 8
    seeds of one reference deployment the ratio spread by 0.31 % against
    1/sqrt(N) = 0.70 %. The tolerance is 4/sqrt(N), 2.8 % at ~20,000 events.
    A step that crosses the boundary twice, near a corner, is seen as one
    handover or none. This undercount, measured against 0.05 s steps on the
    same tracks, was 0.2-0.45 % of the events, well inside the tolerance.
    """
    rng = np.random.default_rng(seed)
    positions = geometry.uniform_positions(n_ues, SIDE_M, rng)
    headings = geometry.uniform_headings(n_ues, rng)
    speeds = np.full(n_ues, SPEED_MPS)
    config = clustering.HandoverConfig(clustering.CELLULAR, 0.0, 1, 1, cellular_hysteresis_db=0.0)
    state = clustering.initial_clusters(shadow_free_gains(topology.oru_positions, positions), topology, config, 4)
    events = 0
    for t in range(1, n_steps + 1):
        positions = geometry.advance_positions(positions, speeds, headings, TS_S, SIDE_M)
        gains = shadow_free_gains(topology.oru_positions, positions)
        state, step_events = clustering.cellular_handover_step(state, gains, topology, 0.0, t)
        events += len(step_events)
    boundary = inter_odu_boundary_length(topology.oru_positions, topology.odu_of_oru, SIDE_M)
    expected = 2.0 * SPEED_MPS * boundary / (math.pi * SIDE_M**2) * n_ues * n_steps * TS_S
    return events / expected, 4.0 / math.sqrt(expected)


def test_boundary_length_of_the_lattice_and_a_shifted_deployment():
    assert inter_odu_boundary_length(lattice().oru_positions, lattice().odu_of_oru, SIDE_M) == pytest.approx(
        6 * SIDE_M, rel=1e-9
    )
    # Moving every O-RU by one vector on the torus moves edges across the grid border, not their length.
    topology = geometry.generate_deployment(REFERENCE, np.random.default_rng(0))
    shifted = np.mod(topology.oru_positions + [370.0, 810.0], SIDE_M)
    assert inter_odu_boundary_length(shifted, topology.odu_of_oru, SIDE_M) == pytest.approx(
        inter_odu_boundary_length(topology.oru_positions, topology.odu_of_oru, SIDE_M), rel=1e-9
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cellular_rate_matches_cauchy_crofton(seed):
    topology = geometry.generate_deployment(REFERENCE, np.random.default_rng(seed))
    ratio, tolerance = rate_ratio(topology, n_ues=3000, n_steps=400, seed=100 + seed)
    assert abs(ratio - 1.0) < tolerance, f"ratio {ratio:.4f}, tolerance {tolerance:.4f}"


def mutant(function, old: str, new: str):
    """``function`` compiled from its own source with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not in {function.__name__}"
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


# (module, function, replaced source, replacing source). The boundaries of the
# reference deployments run every way, so a heading bias barely moves their rate
# (about -2 % for headings within 3.6 degrees of the x axis). It shows on the lattice,
# whose boundary runs along the axes: there the same bias cuts the rate by ~20 %.
MUTANTS = {
    "heading_bias": (geometry, "uniform_headings", "2.0 * np.pi", "0.02 * np.pi"),
    "mirror_fold": (
        geometry, "advance_positions", "np.mod(positions + step, grid_side)",
        "grid_side - np.abs(np.mod(positions + step, 2.0 * grid_side) - grid_side)",
    ),
    "linear_hysteresis": (clustering, "cellular_handover_step", "10.0 ** (hysteresis_db / 10.0)", "hysteresis_db"),
    "serving_oru_rule": (
        clustering, "cellular_handover_step", "np.where(inside, beta_lin, -np.inf).max(axis=0)",
        "beta_lin[state.primary, ues]",
    ),
}


MUTANT_RUN = dict(n_ues=500, n_steps=200, seed=7)  # ~1,600 events: a tolerance of ~10 %


@functools.lru_cache(maxsize=None)
def unmutated_ratio(on_lattice: bool):
    return rate_ratio(mutant_deployment(on_lattice), **MUTANT_RUN)


def mutant_deployment(on_lattice: bool) -> Topology:
    return lattice() if on_lattice else geometry.generate_deployment(REFERENCE, np.random.default_rng(0))


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_fails_the_rate_check(monkeypatch, name):
    on_lattice = name == "heading_bias"
    ratio, tolerance = unmutated_ratio(on_lattice)
    assert abs(ratio - 1.0) < tolerance, f"unmutated: ratio {ratio:.4f}, tolerance {tolerance:.4f}"
    module, function, old, new = MUTANTS[name]
    monkeypatch.setattr(module, function, mutant(getattr(module, function), old, new))
    ratio, tolerance = rate_ratio(mutant_deployment(on_lattice), **MUTANT_RUN)
    assert abs(ratio - 1.0) > tolerance, f"{name}: ratio {ratio:.4f}, tolerance {tolerance:.4f}"
