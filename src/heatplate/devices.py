"""Boundary actuators and sensors with spatially characterized weights.

Heaters act on the underside, sensors read the topside.  A bank is built
from a DeviceSpec: its `count` devices split the boundary (0, L) into equal
half-open intervals [lo, hi), and each carries the bump-shaped weight
profile m * exp(-|M*(x - c)|^nu), centered on its interval's midpoint c and
zero outside the interval.  With m = 1 and M = 0 the profile degenerates to
the indicator function of the interval.  One partition and one profile, with
one entry per device, describe a whole bank; it fits its grid when count <= J.
Weights are evaluated once at cell centers; a bank is immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


@dataclass(frozen=True)
class BoundaryPartition:
    """Half-open intervals [lo, hi) along the boundary coordinate, meters.

    lo and hi are scalars for one interval, or (count, 1) columns with one
    entry per device of a bank.  Half-open so a cell center sitting on a
    shared edge belongs to exactly one device.
    """

    lo: float | np.ndarray
    hi: float | np.ndarray

    @property
    def midpoint(self) -> float | np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x):
        """Membership test, broadcast over the intervals and x."""
        return (x >= self.lo) & (x < self.hi)


@dataclass(frozen=True)
class Characterization:
    """Weight profile m * exp(-|M*(x - center)|^nu) on each device's interval.

    Built only from a checked DeviceSpec, which holds the parameter rules;
    center, like the partition, may hold one entry per device.
    """

    m: float
    M: float
    nu: float
    center: float | np.ndarray

    def value(self, partition: BoundaryPartition, x):
        """Profile value at x: the bump inside the partition, 0 outside."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the exact limit
            bump = self.m * np.exp(-np.abs(self.M * (x - self.center)) ** self.nu)
        return np.where(partition.contains(x), bump, 0.0)


@dataclass(frozen=True)
class DeviceSpec:
    """Count plus shared profile parameters for one device bank.

    Devices split the boundary into equal intervals, each profile centered
    on its interval midpoint.  m is the peak magnitude in [0, 1], M a shape
    scale in 1/m, nu the exponent.  M = 0 with nu > 0 gives the flat
    indicator profile; nu = 0 with M = 0 is rejected because 0**0 is
    ambiguous.  A bank checks count <= J against its grid when it is built.
    """

    count: int
    m: float = 1.0
    M: float = 0.0
    nu: float = 4.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count: must be >= 1, got {self.count}")
        if not 0 <= self.m <= 1:
            raise ValueError(f"m: must be in [0, 1], got {self.m}")
        if self.M < 0:
            raise ValueError(f"M: must be >= 0, got {self.M}")
        if self.nu < 0:
            raise ValueError(f"nu: must be >= 0, got {self.nu}")
        if self.nu == 0 and self.M == 0:
            raise ValueError("nu: must be > 0 when M = 0 (0**0 is ambiguous)")


def _weight_table(grid: Grid, spec: DeviceSpec, kind: str) -> np.ndarray:
    """(count, J) profile values of the spec's devices at the cell centers.

    With count <= J every interval holds a center.  A device with no
    positive weight is blamed on m if 0, else on M (its bump underflows).
    """
    if spec.count > grid.J:
        raise ValueError(f"count: {spec.count} {kind}s on J = {grid.J} columns: "
                         "at least one covers no cell center")
    edges = np.linspace(0.0, grid.geometry.length, spec.count + 1)[:, None]
    part = BoundaryPartition(edges[:-1], edges[1:])
    char = Characterization(spec.m, spec.M, spec.nu, part.midpoint)
    table = char.value(part, grid.x1_centers())
    dead = ~table.any(axis=1)
    if dead.any():
        raise ValueError(f"{'m' if spec.m == 0 else 'M'}: {kind} {dead.argmax()} "
                         "has zero weight at every cell center")
    return table


@dataclass(frozen=True, eq=False)
class ActuatorBank:
    """Heating elements on the underside with precomputed per-cell weights."""

    weight_table: np.ndarray = field(repr=False)  # (count, J)

    @classmethod
    def build(cls, grid: Grid, spec: DeviceSpec) -> "ActuatorBank":
        return cls(_weight_table(grid, spec, "actuator"))

    @property
    def count(self) -> int:
        return len(self.weight_table)

    def induced_flux(self, u) -> np.ndarray:
        """Heat flux onto each underside cell for input powers u, W/m^2.

        Entry j is sum_n weight[n, j] * u[n]; disjoint partitions make at
        most one term nonzero per cell.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.count,):
            raise ValueError(f"expected {self.count} inputs, got shape {u.shape}")
        return self.weight_table.T @ u


@dataclass(frozen=True, eq=False)
class SensorBank:
    """Topside sensors: weighted averages of the topside temperature row."""

    weight_table: np.ndarray = field(repr=False)  # (count, J)
    mass: np.ndarray = field(repr=False)          # (count,) = sum_j g*dx1

    @classmethod
    def build(cls, grid: Grid, spec: DeviceSpec) -> "SensorBank":
        table = _weight_table(grid, spec, "sensor")
        mass = table.sum(axis=1) * grid.dx1  # midpoint quadrature of int g dx
        if not (mass > 0).all():  # positive weights whose sum * dx1 underflows
            raise ValueError(f"{'M' if spec.M else 'm'}: sensor {int(np.argmin(mass))} "
                             "has a quadrature mass that underflows to 0")
        return cls(table, mass)

    @property
    def count(self) -> int:
        return len(self.weight_table)

    def measure(self, field_values, grid: Grid) -> np.ndarray:
        """Sensor outputs y for a temperature field, Kelvin.

        y[n] = sum_j g_n(x_j)*theta(x_j, topside)*dx1 / mass[n], a convex
        combination of the topside row, so each reading lies between that
        row's min and max.
        """
        field_values = np.asarray(field_values)
        if field_values.shape != (grid.n_cells,):
            raise ValueError(
                f"expected a field of {grid.n_cells} cells, got {field_values.shape}"
            )
        top_row = field_values[(grid.K - 1) * grid.J:]
        return (self.weight_table @ top_row) * grid.dx1 / self.mass
