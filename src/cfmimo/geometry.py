"""Deployment geometry, wrap-around (torus) metrics, and straight-line UE mobility.

The service area is a square of side ``grid_side_m`` treated as a torus: every
distance/angle is evaluated against the target point's nearest image, taken per
axis by rounding the displacement to whole grid sides. One kernel,
`wrap_distance_and_angle`, serves the channel refresh and the clustering's O-RU
neighbor order; a nine-image search is its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class DeploymentConfig:
    """Static deployment sizes: grid side, radio/processing unit counts, UE count."""

    grid_side_m: float
    num_orus: int
    num_odus: int
    antennas_per_oru: int
    num_ues: int

    def validate(self) -> None:
        if not (math.isfinite(self.grid_side_m) and self.grid_side_m > 0):
            raise ConfigurationError(f"grid_side_m must be finite and > 0, got {self.grid_side_m!r}")
        for name in ("num_orus", "num_odus", "antennas_per_oru", "num_ues"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.num_orus % self.num_odus != 0:
            raise ConfigurationError("num_orus must be divisible by num_odus")
        root = math.isqrt(self.num_odus)
        if root * root != self.num_odus:
            raise ConfigurationError("num_odus must be a perfect square (square subgrid tiling)")


@dataclass
class Topology:
    """Generated O-RU layout: positions and owning O-DU per O-RU."""

    oru_positions: np.ndarray  # (L, 2) meters
    odu_of_oru: np.ndarray  # (L,) int, O-RU index -> owning O-DU
    grid_side_m: float

    @property
    def num_orus(self) -> int:
        return self.oru_positions.shape[0]

    def to_table(self) -> str:
        """Plain-text snapshot table: one `oru x y odu` row per O-RU."""
        lines = ["oru x_m y_m odu"]
        for l in range(self.num_orus):
            x, y = self.oru_positions[l]
            lines.append(f"{l} {x:.6f} {y:.6f} {int(self.odu_of_oru[l])}")
        return "\n".join(lines) + "\n"


def generate_deployment(config: DeploymentConfig, rng: np.random.Generator) -> Topology:
    """Place L O-RUs uniformly inside their O-DU subsquares.

    The grid is split into ``num_odus`` equal subsquares (row-major O-DU order);
    each receives L/C O-RUs drawn uniformly. Deterministic for a given rng state.
    """
    config.validate()
    root = math.isqrt(config.num_odus)
    per_odu = config.num_orus // config.num_odus
    sub = config.grid_side_m / root
    offsets = rng.uniform(0.0, sub, size=(config.num_odus, per_odu, 2))
    origins = np.array([[ (c % root) * sub, (c // root) * sub] for c in range(config.num_odus)])
    positions = (origins[:, None, :] + offsets).reshape(config.num_orus, 2)
    odu_of_oru = np.repeat(np.arange(config.num_odus), per_odu)
    return Topology(positions, odu_of_oru, config.grid_side_m)


def wrap_distance_and_angle(oru_pos: np.ndarray, ue_pos: np.ndarray, grid_side: float) -> tuple[np.ndarray, np.ndarray]:
    """Torus distances and broadside azimuths for all (O-RU, UE) pairs.

    Shapes (L,2),(K,2) -> two (L,K) arrays, both taken from the UE's nearest
    torus image (displacement (dx, dy)). The angle is arctan2(dx, dy), measured
    from the broadside of an array whose axis lies along x: a UE dead ahead of
    the array face (+y) gives 0, a UE along the array axis +/- pi/2. Coincident
    points give 0 by convention. An exact half-side displacement rounds half to
    even, to the direct image.
    """
    oru = oru_pos[:, None, :]
    disp = (ue_pos - grid_side * np.round((ue_pos - oru) / grid_side)) - oru  # (L, K, 2)
    dist = np.sqrt((disp**2).sum(axis=-1))
    dx, dy = disp[:, :, 0], disp[:, :, 1]
    phi = np.arctan2(dx, dy)
    phi[(dx == 0.0) & (dy == 0.0)] = 0.0
    return dist, phi


def advance_positions(
    positions: np.ndarray, speeds: np.ndarray, headings: np.ndarray, ts_s: float, grid_side: float
) -> np.ndarray:
    """Advance every UE by speed * ts_s along its heading, folded onto the torus."""
    if ts_s <= 0:
        raise ConfigurationError("ts_s must be > 0")
    step = (speeds * ts_s)[:, None] * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    return np.mod(positions + step, grid_side)


def uniform_positions(n: int, grid_side: float, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, grid_side, size=(n, 2))


def uniform_headings(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * np.pi, size=n)
