"""Temperature-dependent material properties and surface heat exchange laws.

Heat capacity and conductivity follow affine laws c(T) = c0 + c1*T and
lambda(T) = lambda0 + lambda1*T; density is constant.  Surfaces lose heat by
linear convection plus fourth-power radiation against a fixed ambient.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

STEFAN_BOLTZMANN = 5.67e-8  # W/(m^2 K^4)
# theta**4 is a finite float for every theta below this, and overflows at it
_FOURTH_ROOT_MAX = sys.float_info.max ** 0.25


@dataclass(frozen=True)
class ThermalMaterial:
    """Solid with constant density and affine c(T), lambda(T).

    Parameters
    ----------
    rho : float
        Mass density, kg/m^3.
    c0, c1 : float
        Heat capacity offset (J/(kg K)) and slope (J/(kg K^2)).
    lambda0, lambda1 : float
        Thermal conductivity offset (W/(m K)) and slope (W/(m K^2)).
    theta_cap : float
        Upper end of the admissible temperature range; both property laws
        must stay positive on [0, theta_cap].  Affine laws make checking
        the interval endpoints sufficient.  theta_cap**4 must be finite, and
        so must the kernel's rho*c0, rho*c1 and rho*c(theta_cap).  The kernel
        divides by rho*c(theta), so rho*c0 and rho*c(theta_cap) must have
        finite reciprocals too.
    """

    rho: float
    c0: float
    c1: float
    lambda0: float
    lambda1: float
    theta_cap: float = 3000.0

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho: must be > 0, got {self.rho}")
        if not self.theta_cap > 0:
            raise ValueError(f"theta_cap: must be > 0, got {self.theta_cap}")
        if not self.theta_cap < _FOURTH_ROOT_MAX:
            raise ValueError(f"theta_cap: theta_cap**4 must be a finite float, "
                             f"got theta_cap = {self.theta_cap}")
        for law, offset, slope in (("heat capacity", "c0", "c1"),
                                   ("thermal conductivity", "lambda0", "lambda1")):
            v0, v1 = getattr(self, offset), getattr(self, slope)
            if not v0 > 0:
                raise ValueError(f"{offset}: must be > 0, got {v0}")
            if not v0 + v1 * self.theta_cap > 0:
                raise ValueError(
                    f"{slope}: {law} must stay positive on [0, {self.theta_cap}] K"
                )
        rho_c0, rho_c1 = self.rho * self.c0, self.rho * self.c1
        rho_c_cap = self.theta_cap * rho_c1 + rho_c0
        for name, product in (("rho*c0", rho_c0), ("rho*c1", rho_c1),
                              ("rho*c(theta_cap)", rho_c_cap)):
            if not np.isfinite(product):
                raise ValueError(f"rho: {name} must be a finite float, got {product}")
        # rho*c(theta) is affine, so it is smallest at an end of [0, theta_cap]
        for name, product in (("rho*c0", rho_c0), ("rho*c(theta_cap)", rho_c_cap)):
            if not (product > 0 and 1 / product < np.inf):
                raise ValueError(f"rho: {name} must have a finite reciprocal, "
                                 f"got {product:g}")

    def thermal_conductivity(self, theta):
        """lambda(theta) = lambda0 + lambda1*theta, elementwise over arrays."""
        return self.lambda0 + self.lambda1 * theta

    def volumetric_heat_coefficient(self, theta, out=None):
        """rho * c(theta), the J/(m^3 K) factor in front of dT/dt.

        Elementwise over arrays, and written into `out` when given.
        """
        rho_c = np.multiply(theta, self.rho * self.c1, out=out)
        return np.add(rho_c, self.rho * self.c0, out=out)


@dataclass(frozen=True)
class SurfaceExchange:
    """Convection + radiation exchange between a surface and the ambient."""

    h: float                          # heat-transfer coefficient, W/(m^2 K)
    emissivity: float                 # dimensionless, in [0, 1]
    sigma: float = STEFAN_BOLTZMANN   # W/(m^2 K^4), set by every document
    theta_amb: float = 300.0          # ambient temperature, K

    def __post_init__(self):
        if self.h < 0:
            raise ValueError(f"h: must be >= 0, got {self.h}")
        if not 0 <= self.emissivity <= 1:
            raise ValueError(f"emissivity: must be in [0, 1], got {self.emissivity}")
        if not self.sigma > 0:
            raise ValueError(f"sigma: must be > 0, got {self.sigma}")
        if self.theta_amb < 0:
            raise ValueError(f"theta_amb: must be >= 0, got {self.theta_amb}")

    def emitted_flux(self, theta):
        """Heat flux through a free surface at temperature theta, W/m^2.

        Negative when the surface is hotter than ambient (heat leaves the
        body), zero exactly at theta == theta_amb.
        """
        return (-self.h * (theta - self.theta_amb)
                - self.emissivity * self.sigma * (theta**4 - self.theta_amb**4))
