"""Plate geometry and the uniform finite-volume grid over its 2D side view.

Cells are indexed (j, k) with j along x1 (length) and k along x2 (height).
Flat storage order is row-major over x1: offset = k*J + j, so the topside
row k = K-1 occupies the last J entries of a field vector.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .material import ThermalMaterial

# The most float64 values one array can hold: numpy indexes its bytes with
# a signed pointer-sized integer.  No allocation can meet a size above this,
# so it is a config error under the count that asks for it.
MAX_FLOATS = sys.maxsize // 8


def _invertible_square(size: float) -> bool:
    """Whether size**2 and its reciprocal are both finite nonzero floats."""
    square = size * size
    return 0 < square < math.inf and 1 / square < math.inf


@dataclass(frozen=True)
class PlateGeometry:
    """Rectangular side-view domain (0, L) x (0, H), in meters."""

    L: float
    H: float

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L: must be > 0, got {self.L}")
        if not self.H > 0:
            raise ValueError(f"H: must be > 0, got {self.H}")


@dataclass(frozen=True)
class Grid:
    """Uniform J x K cell grid over a plate geometry.

    At least two cells per axis are required: the five-point stencil and
    the ghost-cell boundary substitution both need a distinct neighbor,
    and a field of J*K cells must fit one array, else the larger count (J on
    a tie) is rejected.
    The stability advisory divides by the squared cell sizes in Python
    floats, so each square and its reciprocal must be finite and nonzero; a
    cell size that fails is blamed on the count when the length passes.
    """

    geometry: PlateGeometry
    J: int
    K: int

    def __post_init__(self):
        if self.J < 2:
            raise ValueError(f"J: must be >= 2, got {self.J}")
        if self.K < 2:
            raise ValueError(f"K: must be >= 2, got {self.K}")
        for name, count, dx in (("L", "J", self.dx1), ("H", "K", self.dx2)):
            if not _invertible_square(dx):
                size = getattr(self.geometry, name)
                key = count if _invertible_square(size) else f"geometry.{name}"
                square = dx * dx
                why = ("whose reciprocal overflows" if 0 < square < math.inf
                       else "outside (0, inf)")
                raise ValueError(f"{key}: cell size {dx:g} m has a square of "
                                 f"{square:g}, {why}")
        if self.n_cells > MAX_FLOATS:
            key = "J" if self.J >= self.K else "K"
            raise ValueError(f"{key}: a {self.J} x {self.K} grid has more cells "
                             f"than an array can hold ({MAX_FLOATS})")

    @property
    def dx1(self) -> float:
        return self.geometry.L / self.J

    @property
    def dx2(self) -> float:
        return self.geometry.H / self.K

    @property
    def n_cells(self) -> int:
        return self.J * self.K

    def x1_centers(self) -> np.ndarray:
        """x1 coordinates of all column centers, length J."""
        return (np.arange(self.J) + 0.5) * self.dx1

    def x2_centers(self) -> np.ndarray:
        """x2 coordinates of all row centers, length K."""
        return (np.arange(self.K) + 0.5) * self.dx2

    def cell_from_flat(self, offset: int) -> tuple[int, int]:
        """Cell (j, k) at the flat storage offset k*J + j."""
        k, j = divmod(offset, self.J)
        return j, k


def stability_limit(grid: Grid, material: ThermalMaterial, theta_ref: float) -> float:
    """Largest non-amplifying forward-Euler step for the diffusion operator.

    Standard explicit bound 1 / (2*alpha*(1/dx1^2 + 1/dx2^2)) with the
    diffusivity alpha = lambda(theta_ref) / (rho*c(theta_ref)) taken at a
    caller-chosen reference temperature.  Advisory only: the solver does
    not enforce it, so deliberate divergence stays reproducible.
    """
    alpha = (material.thermal_conductivity(theta_ref)
             / material.volumetric_heat_coefficient(theta_ref))
    return 1.0 / (2.0 * alpha * (1.0 / grid.dx1**2 + 1.0 / grid.dx2**2))
