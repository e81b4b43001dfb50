"""Proportional controller mapping sensor readings to heater inputs.

Channel n drives actuator n from sensor n: u_n = kp_n * e_n while the error
e_n = y_ref - y_n is positive, zero otherwise (heaters cannot cool), then
clamped to the configured input bounds.  kp_n is one shared gain or n's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ControllerConfig:
    """Proportional gains and a shared reference temperature.

    kp is one float for every channel (`channels` is None), or a tuple
    pairing sensor n with actuator n whose length fixes both channel counts.
    u_max >= 0 (heaters cannot cool); u_max = inf leaves the input unbounded.
    """

    kp: float | tuple[float, ...]  # W/(m^2 K), one gain or one per channel
    y_ref: float                  # K
    u_min: float = 0.0            # W/m^2
    u_max: float = math.inf       # W/m^2

    def __post_init__(self):
        kp = float(self.kp) if np.ndim(self.kp) == 0 else tuple(map(float, self.kp))
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "_gains", np.array(kp))  # 0-d or (channels,)
        if (self._gains < 0).any():
            raise ValueError("kp: all gains must be >= 0")
        if self.y_ref < 0:
            raise ValueError(f"y_ref: must be >= 0, got {self.y_ref}")
        # In a run 0 < e <= y_ref, and the law forms kp*e before it clamps.
        if not float(self._gains.max(initial=0.0)) * self.y_ref < math.inf:
            raise ValueError(f"kp: kp * y_ref must be a finite float, got kp = "
                             f"{self._gains.max():g} and y_ref = {self.y_ref}")
        if not self.u_max >= 0:
            raise ValueError(f"u_max: must be >= 0 (heaters cannot cool), "
                             f"got {self.u_max}")
        if not self.u_min <= self.u_max:
            raise ValueError(f"u_min: {self.u_min} exceeds u_max = {self.u_max}")

    @property
    def channels(self) -> int | None:
        return None if isinstance(self.kp, float) else len(self.kp)


def proportional_law(cfg: ControllerConfig, e) -> np.ndarray:
    """Heater inputs for a 1-D error vector: kp*e where e > 0, else 0, clamped.

    The inequality is strict, so e == 0 maps to zero input.
    """
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or cfg.channels not in (None, len(e)):
        raise ValueError(f"expected {cfg.channels or '1-D'} errors, got shape {e.shape}")
    u = np.where(e > 0, cfg._gains * e, 0.0)
    return np.minimum(np.maximum(u, cfg.u_min, out=u), cfg.u_max, out=u)
