"""Plate geometry and the uniform finite-volume grid over its 2D side view.

Cells are indexed (j, k) with j along x1 (length) and k along x2 (height).
Flat storage order is row-major over x1: offset = k*J + j, so the topside
row k = K-1 occupies the last J entries of a field vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import ThermalMaterial


@dataclass(frozen=True)
class PlateGeometry:
    """Rectangular side-view domain (0, length) x (0, height), in meters."""

    length: float
    height: float

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError(f"length: must be > 0, got {self.length}")
        if not self.height > 0:
            raise ValueError(f"height: must be > 0, got {self.height}")


@dataclass(frozen=True)
class Grid:
    """Uniform J x K cell grid over a plate geometry.

    At least two cells per axis are required: the five-point stencil and
    the ghost-cell boundary substitution both need a distinct neighbor.
    The stencil divides by the squared cell sizes, so each square must be
    a finite nonzero float; one that is not is blamed on the cell count
    when the length's own square is a finite nonzero float.
    """

    geometry: PlateGeometry
    J: int
    K: int

    def __post_init__(self):
        if self.J < 2:
            raise ValueError(f"J: must be >= 2, got {self.J}")
        if self.K < 2:
            raise ValueError(f"K: must be >= 2, got {self.K}")
        for name, count, dx in (("length", "J", self.dx1), ("height", "K", self.dx2)):
            if not 0 < dx * dx < math.inf:
                size = getattr(self.geometry, name)
                key = count if 0 < size * size < math.inf else f"geometry.{name}"
                raise ValueError(f"{key}: cell size {dx:g} m has a "
                                 f"square of {dx * dx:g}, outside (0, inf)")

    @property
    def dx1(self) -> float:
        return self.geometry.length / self.J

    @property
    def dx2(self) -> float:
        return self.geometry.height / self.K

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
