"""Proportional controller mapping sensor readings to heater inputs.

Channel n drives actuator n from sensor n: u_n = kp_n * e_n while the error
e_n = y_ref - y_n is positive, zero otherwise (heaters cannot cool), then
clamped to the configured input bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ControllerConfig:
    """Per-channel gains and a shared reference temperature.

    kp pairs sensor n with actuator n, so its length fixes both channel
    counts.  u_max = inf leaves the input unbounded above.
    """

    kp: tuple[float, ...]         # W/(m^2 K), one gain per channel
    y_ref: float                  # K
    u_min: float = 0.0            # W/m^2
    u_max: float = math.inf       # W/m^2

    def __post_init__(self):
        object.__setattr__(self, "kp", tuple(float(g) for g in self.kp))
        if any(g < 0 for g in self.kp):
            raise ValueError("kp: all gains must be >= 0")
        if self.y_ref < 0:
            raise ValueError(f"y_ref: must be >= 0, got {self.y_ref}")
        if not self.u_min <= self.u_max:
            raise ValueError(f"u_min: {self.u_min} exceeds u_max = {self.u_max}")
        object.__setattr__(self, "_gains", np.array(self.kp))

    @property
    def channels(self) -> int:
        return len(self.kp)


def proportional_law(cfg: ControllerConfig, e) -> np.ndarray:
    """Heater inputs for an error vector: kp*e where e > 0, else 0, clamped.

    The inequality is strict, so e == 0 maps to zero input.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != (cfg.channels,):
        raise ValueError(f"expected {cfg.channels} errors, got shape {e.shape}")
    u = np.where(e > 0, cfg._gains * e, 0.0)
    return np.minimum(np.maximum(u, cfg.u_min, out=u), cfg.u_max, out=u)
