"""Semi-discrete finite-volume right-hand side and forward-Euler stepping.

Interior face fluxes are differences of the Kirchhoff potential Phi(theta) =
lambda0*theta + lambda1*theta^2/2, the antiderivative of lambda: for affine
lambda, Phi(b) - Phi(a) equals lambda((a + b)/2) * (b - a), the flux with the
conductivity at the mean face temperature, exactly.  The kernel works on the
flat row-major field, where x1 faces join neighbors one apart (except across
row seams) and x2 faces neighbors J apart.  Boundary faces contribute their
prescribed flux divided by the spacing normal to the face: substituting the
ghost-cell temperature into the interior stencil cancels the boundary-face
conductivity exactly, so no boundary lambda is evaluated.  The underside
carries the actuator flux; left, right and topside emit to the ambient.
Each cell's rate is the flux balance divided by rho*c(theta_cell).

A run steps in place: `assemble_rhs(..., buffers)` and
`step_forward_euler(..., out=)` write every field-sized result into arrays
allocated once per run on 64-byte boundaries.  The arithmetic and its order
are those of a fresh temporary per operation, so the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import ControllerConfig, proportional_law
from .devices import ActuatorBank
from .grid import Grid, PlateGeometry
from .material import SurfaceExchange, ThermalMaterial


@dataclass(frozen=True, eq=False)
class BoundaryFluxes:
    """Prescribed fluxes on the four boundaries, W/m^2, positive inward."""

    underside: np.ndarray = field(repr=False)  # (J,) actuator-induced
    left: np.ndarray = field(repr=False)       # (K,)
    right: np.ndarray = field(repr=False)      # (K,)
    top: np.ndarray = field(repr=False)        # (J,)


def aligned_empty(n: int, lead: int = 0) -> np.ndarray:
    """Uninitialized float64 array of n entries whose entry `lead` starts a
    64-byte cache line.

    malloc aligns to 16 bytes only, and numpy's vector kernels run slower
    on operands that straddle cache lines: on an AVX-512 Xeon, a
    64,000-element multiply and add into an output array took 30-31 us at
    0 mod 64 and 41-43 us at 16 or 48 mod 64.  Reading the address costs
    about 2 us, so allocate once per run, never per step.
    """
    raw = np.empty(n + 8)
    start = (-(raw.ctypes.data // 8) - lead) % 8
    return raw[start:start + n]


class RhsBuffers:
    """Scratch arrays of `assemble_rhs` for one grid, reused call after call.

    `potential` (N cells) holds Phi/dx1^2 and then rho*c.  `faces` (N+1)
    holds one axis's face fluxes at a time: faces[i+1] is the flux into
    flat cell i from its next neighbor along the axis, i+1 along x1 or i+J
    along x2, and faces[0] = 0.  `rate` (N) holds the flux balance and then
    the returned rates.  `potential`, `rate` and faces[1] start 64-byte
    cache lines.  Between calls a caller may swap `potential` for another
    aligned array of N cells, and overwrite the returned rates.
    """

    def __init__(self, grid: Grid):
        N, J = grid.n_cells, grid.J
        self.grid = grid
        self.potential = aligned_empty(N)
        self.faces = aligned_empty(N + 1, lead=1)
        self.faces[0] = 0.0
        self.rate = aligned_empty(N)
        # Views sliced once per run: the x1 faces, and among them the
        # faces past each row's end (the K-1 row seams and faces[N]); the
        # x2 faces; each cell's faces below and above in flat order.
        self.x1_faces = self.faces[1:N]
        self.row_ends = self.faces[J::J]
        self.x2_faces = self.faces[1:N - J + 1]
        self.below, self.above = self.faces[:-1], self.faces[1:]
        # Cells under and over an x2 face, then each boundary's cells.
        self.under_x2, self.over_x2 = self.rate[:-J], self.rate[J:]
        self.left, self.right = self.rate[::J], self.rate[J - 1::J]
        self.underside, self.top = self.rate[:J], self.rate[-J:]


def boundary_fluxes(field_values, grid: Grid, exchange: SurfaceExchange,
                    actuators: ActuatorBank, u) -> BoundaryFluxes:
    """Evaluate all boundary fluxes for the current field and inputs.

    Emission is evaluated at the boundary cell's center temperature.  The
    underside receives the induced actuator flux only.
    """
    J, K = grid.J, grid.K
    theta = np.asarray(field_values).reshape(grid.n_cells)
    phi_in = actuators.induced_flux(u)
    # The left column, right column and topside row, as RhsBuffers slices them
    emitted = exchange.emitted_flux(
        np.concatenate((theta[::J], theta[J - 1::J], theta[-J:])))
    return BoundaryFluxes(underside=phi_in, left=emitted[:K],
                          right=emitted[K:2 * K], top=emitted[2 * K:])


def assemble_rhs(field_values, grid: Grid, material: ThermalMaterial,
                 fluxes: BoundaryFluxes,
                 buffers: RhsBuffers | None = None) -> np.ndarray:
    """Temperature rates dtheta/dt for every cell, K/s, in flat order.

    Per cell the flux balance N collects, per axis, (Phi(theta_neighbor) -
    Phi(theta_cell)) / dx^2 over interior faces plus phi/dx over boundary
    faces; corner cells get one boundary term per axis.  The rate is
    N / (rho*c(theta_cell)).  The work happens in `buffers`, which must be
    built for `grid`, or in fresh ones when None; the result is
    `buffers.rate`, overwritten by the next call with the same buffers.
    """
    if buffers is None:
        buffers = RhsBuffers(grid)
    elif buffers.grid is not grid and buffers.grid != grid:
        raise ValueError("buffers were built for another grid")
    J = grid.J
    theta = np.asarray(field_values).reshape(-1)
    potential, rate = buffers.potential, buffers.rate
    np.multiply(material.lambda1 / (2 * grid.dx1**2), theta, out=potential)
    np.add(material.lambda0 / grid.dx1**2, potential, out=potential)
    np.multiply(theta, potential, out=potential)

    # `potential` is Phi/dx1^2, so only the x2 fluxes need scaling.  Faces
    # join flat neighbors, offset 1 along x1 and J along x2, so every pass
    # is contiguous; the offset-1 pairs across the K-1 row seams are not
    # faces and get zero flux, as does faces[N] past the last cell.  Each
    # face flux enters both cells with opposite signs, so the interior sum
    # telescopes exactly.  Subtracting a zero face changes no bit of the
    # other (f - 0.0 == f for every float, -0.0 included).
    np.subtract(potential[1:], potential[:-1], out=buffers.x1_faces)
    buffers.row_ends.fill(0.0)
    np.subtract(buffers.above, buffers.below, out=rate)

    flux = buffers.x2_faces
    np.subtract(potential[J:], potential[:-J], out=flux)
    flux *= grid.dx1**2 / grid.dx2**2
    buffers.under_x2 += flux
    buffers.over_x2 -= flux

    buffers.left += fluxes.left / grid.dx1
    buffers.right += fluxes.right / grid.dx1
    buffers.underside += fluxes.underside / grid.dx2
    buffers.top += fluxes.top / grid.dx2

    rate /= material.volumetric_heat_coefficient(theta, out=potential)
    return rate


def step_forward_euler(field_values, rhs, dt: float, out=None) -> np.ndarray:
    """One explicit Euler step: theta + dt * dtheta/dt, elementwise.

    Written into `out` when given, which may be `rhs` but not the field.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    step = np.multiply(dt, rhs, out=out)
    return np.add(field_values, step, out=out)


def check_admissible(grid: Grid, material: ThermalMaterial, exchange: SurfaceExchange,
                     controller: ControllerConfig, actuators: ActuatorBank, dt: float):
    """Raise ValueError("<section>.<key>: ...") if one kernel step faults where the
    monotone laws give every flux its peak: on the 0 K / theta_cap checkerboards
    of up to 4 x 4 of the grid's cells, with heat on the cells at 0 K."""
    cap, ends = material.theta_cap, np.array([0.0, material.theta_cap])

    def finite(key, stage, fn, *args):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                value = fn(*args)
            if not np.isfinite(value).all():
                raise FloatingPointError("not a finite float")
        except ArithmeticError as exc:  # numpy's FloatingPointError or Python's
            raise ValueError(f"{key}: {stage} on [0, {cap}] K faults: {exc}") from exc
        return value

    u = finite("controller.kp", "the command at e = y_ref", proportional_law,
               controller, np.full(actuators.count, controller.y_ref))
    top, heat = u.max(), actuators.weight_table.max() * u.max()
    command = ("controller.u_max" if top == controller.u_max else
               "controller.u_min" if top == controller.u_min else "controller.kp")
    finite(command, "the mean command", u.mean)
    finite("material.rho", "rho*c", material.volumetric_heat_coefficient, ends)
    with np.errstate(all="ignore"):  # cap**4 as a Python float would raise
        fourth = np.float64(cap) ** 4
        radiates = exchange.emissivity * exchange.sigma * fourth > exchange.h * cap
    emission = ("material.theta_cap" if fourth == np.inf
                else "exchange.sigma" if radiates else "exchange.h")
    phi = finite(emission, "the emitted flux", exchange.emitted_flux, ends)

    J, K = min(grid.J, 4), min(grid.K, 4)  # 4*dx/4 == dx, but 3*dx/3 need not be
    plate = Grid(PlateGeometry(grid.geometry.L if grid.J <= 4 else 4 * grid.dx1,
                               grid.geometry.H if grid.K <= 4 else 4 * grid.dx2), J, K)

    def rates(hot, phi=0 * ends, heat=0):  # hot: 1 at theta_cap, 0 at 0 K
        return assemble_rhs(cap * hot, plate, material, BoundaryFluxes(
            heat * (1 - hot[:J]), phi[hot[::J]], phi[hot[J - 1::J]], phi[hot[-J:]]))

    for hot in np.indices((2, K, J)).sum(axis=0).reshape(2, -1) % 2:
        try:
            rate = finite(command, "the rates with heating", rates, hot, phi, heat)
        except ValueError:  # each term adds with the cell's sign: blame the first
            finite("material.lambda1" if material.lambda1 * cap > 2 * material.lambda0
                   else "material.lambda0", "the conduction rates", rates, hot)
            finite(emission, "the rates with emission", rates, hot, phi)
            raise
        finite("time.dt", "the Euler step", step_forward_euler, cap * hot, rate, dt)


def worst_invalid_cell(field_values, theta_cap: float) -> int | None:
    """Flat index of the entry farthest outside [0, theta_cap], else None.

    Any entry outside marks a diverged explicit run: absolute temperatures
    are non-negative by contract, and the material laws hold up to the
    finite cap theta_cap.  A non-finite entry counts as farthest out; ties
    go to the lowest index.
    """
    theta = np.asarray(field_values, dtype=float)
    excess = np.maximum(-theta, theta - theta_cap)
    excess[~np.isfinite(theta)] = np.inf
    worst = int(np.argmax(excess))
    return worst if excess[worst] > 0 else None


def weighted_rhs_sum(field_values, rhs, grid: Grid,
                     material: ThermalMaterial) -> float:
    """Total heating power sum(rho*c(theta) * rate * cell area), W per depth.

    Interior face fluxes telescope out of this sum, leaving the boundary
    total dx2*sum(left + right) + dx1*sum(top + underside); tests use the
    identity as the conservation oracle.  Terms are formed in flat-index
    order and reduced with numpy's deterministic pairwise summation.
    """
    rho_c = material.volumetric_heat_coefficient(np.asarray(field_values))
    return float(np.sum(rho_c * rhs) * grid.dx1 * grid.dx2)
