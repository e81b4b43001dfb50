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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .devices import ActuatorBank
from .grid import Grid
from .material import SurfaceExchange, ThermalMaterial


@dataclass(frozen=True, eq=False)
class BoundaryFluxes:
    """Prescribed fluxes on the four boundaries, W/m^2, positive inward."""

    underside: np.ndarray = field(repr=False)  # (J,) actuator-induced
    left: np.ndarray = field(repr=False)       # (K,)
    right: np.ndarray = field(repr=False)      # (K,)
    top: np.ndarray = field(repr=False)        # (J,)


def boundary_fluxes(field_values, grid: Grid, exchange: SurfaceExchange,
                    actuators: ActuatorBank, u) -> BoundaryFluxes:
    """Evaluate all boundary fluxes for the current field and inputs.

    Emission is evaluated at the boundary cell's center temperature.  The
    underside receives the induced actuator flux only.
    """
    T = np.asarray(field_values).reshape(grid.K, grid.J)
    phi_in = actuators.induced_flux(u)
    edges = np.concatenate((T[:, 0], T[:, -1], T[-1, :]))
    emitted = exchange.emitted_flux(edges)
    K = grid.K
    return BoundaryFluxes(underside=phi_in, left=emitted[:K],
                          right=emitted[K:2 * K], top=emitted[2 * K:])


def assemble_rhs(field_values, grid: Grid, material: ThermalMaterial,
                 fluxes: BoundaryFluxes) -> np.ndarray:
    """Temperature rates dtheta/dt for every cell, K/s, in flat order.

    Per cell the flux balance N collects, per axis, (Phi(theta_neighbor) -
    Phi(theta_cell)) / dx^2 over interior faces plus phi/dx over boundary
    faces; corner cells get one boundary term per axis.  The rate is
    N / (rho*c(theta_cell)).
    """
    J = grid.J
    theta = np.asarray(field_values).reshape(-1)
    potential = theta * (material.lambda0 / grid.dx1**2
                         + material.lambda1 / (2 * grid.dx1**2) * theta)

    # `potential` is Phi/dx1^2, so only the x2 fluxes need scaling.  Faces
    # join flat neighbors, offset 1 along x1 and J along x2, so every pass
    # is contiguous; the offset-1 pairs across the K-1 row seams are not
    # faces and get zero flux.  Each face flux enters both cells with
    # opposite signs, so the interior sum telescopes exactly.  The early
    # dels let the allocator reuse the same blocks every step; keeping the
    # temporaries alive faults in ~200 fresh pages per 400x160 step.
    flux = potential[1:] - potential[:-1]
    flux[J - 1::J] = 0.0
    balance = np.append(flux, 0.0)
    balance[1:] -= flux
    del flux

    flux = potential[J:] - potential[:-J]
    flux *= grid.dx1**2 / grid.dx2**2
    balance[:-J] += flux
    balance[J:] -= flux
    del flux, potential

    balance[::J] += fluxes.left / grid.dx1
    balance[J - 1::J] += fluxes.right / grid.dx1
    balance[:J] += fluxes.underside / grid.dx2
    balance[-J:] += fluxes.top / grid.dx2

    balance /= material.volumetric_heat_coefficient(theta)
    return balance


def step_forward_euler(field_values, rhs, dt: float) -> np.ndarray:
    """One explicit Euler step: theta + dt * dtheta/dt, elementwise."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    return field_values + dt * rhs


def worst_invalid_cell(field_values, theta_cap: float = np.inf) -> int | None:
    """Flat index of the entry farthest outside [0, theta_cap], else None.

    Any entry outside marks a diverged explicit run: absolute temperatures
    are non-negative by contract, and the material laws hold up to
    theta_cap.  A non-finite entry counts as farthest out; ties go to the
    lowest index.
    """
    theta = np.asarray(field_values, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf when theta_cap is inf
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
