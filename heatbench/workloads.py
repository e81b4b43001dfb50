"""Seeded configuration documents for the benchmark workloads.

A workload is a list of runs; each run is one JSON configuration document
written out in full, so the program's own presets are never consulted.
The seed varies only inputs that leave the amount of work unchanged: the
initial perturbation and the per-channel gains.  Grid, step count and
strides are fixed per workload, so every seed costs the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seeded input ranges; README.md documents them.
A0_RANGE = (2.0, 4.0)        # K, amplitude of the initial cosine perturbation
A1_CHOICES = range(8, 13)    # oscillations along x1
A2_CHOICES = range(3, 7)     # oscillations along x2
KP_RANGE = (9.8e3, 1.02e4)   # W/(m^2 K), drawn per channel; see README

CHANNELS = 5


@dataclass(frozen=True)
class Run:
    """One closed-loop run: its document plus what its outputs must show."""

    label: str
    document: dict
    n_steps: int
    # Property-based expectations checked on the written outputs:
    # "y_avg_near" -> |mean_n y_n(t_final) - y_ref| <= value, in K;
    # "topside_mode" -> dominant DFT mode of the final topside row.
    expect: dict


def _document(rng: random.Random, *, J: int, K: int, M_act: float, dt: float,
              n_steps: int, snapshot_stride: int, signal_stride: int) -> dict:
    t_final = n_steps * dt
    if round(t_final / dt) != n_steps:
        raise ValueError(f"t_final {t_final} is not {n_steps} steps of {dt}")
    return {
        "geometry": {"L": 0.30, "H": 0.01},
        "grid": {"J": J, "K": K},
        "material": {"rho": 7800.0, "c0": 330.0, "c1": 0.4,
                     "lambda0": 10.0, "lambda1": 0.1},
        "exchange": {"h": 10.0, "emissivity": 0.6, "sigma": 5.67e-8,
                     "theta_amb": 300.0},
        "actuators": {"count": CHANNELS, "m": 1.0, "M": M_act, "nu": 4.0},
        "sensors": {"count": CHANNELS, "m": 1.0, "M": 10.0, "nu": 4.0},
        "controller": {"kp": [rng.uniform(*KP_RANGE) for _ in range(CHANNELS)],
                       "y_ref": 400.0, "u_min": 0.0, "u_max": None},
        "initial": {"base": 300.0, "a0": rng.uniform(*A0_RANGE),
                    "a1": float(rng.choice(A1_CHOICES)),
                    "a2": float(rng.choice(A2_CHOICES))},
        "time": {"dt": dt, "t_final": t_final,
                 "snapshot_stride": snapshot_stride,
                 "signal_stride": signal_stride},
    }


def _reference(seed: int) -> list[Run]:
    # The paper's two runs share every draw; they differ only in the
    # heater shape (flat versus bump).
    runs = []
    for label, M_act, expect in (("scenario1", 0.0, {"y_avg_near": 2.0}),
                                 ("scenario2", 30.0, {"topside_mode": 5})):
        rng = random.Random(f"reference:{seed}")
        doc = _document(rng, J=100, K=40, M_act=M_act, dt=1e-3, n_steps=10_000,
                        snapshot_stride=1000, signal_stride=1)
        runs.append(Run(label, doc, 10_000, expect))
    return runs


def _fine(seed: int) -> list[Run]:
    # dt sits below the explicit advisory evaluated at 400 K (~1.48e-4 s);
    # 0.3 s is too short for the heaters to reach the topside, so no
    # mode is expected.
    rng = random.Random(f"fine:{seed}")
    doc = _document(rng, J=400, K=160, M_act=30.0, dt=1.25e-4, n_steps=2400,
                    snapshot_stride=2400, signal_stride=50)
    return [Run("scenario2-400x160", doc, 2400, {})]


def _snapshots(seed: int) -> list[Run]:
    rng = random.Random(f"snapshots:{seed}")
    doc = _document(rng, J=200, K=80, M_act=30.0, dt=5e-4, n_steps=3200,
                    snapshot_stride=40, signal_stride=1)
    return [Run("scenario2-200x80", doc, 3200, {"topside_mode": 5})]


WORKLOADS = {
    "reference": _reference,
    "fine": _fine,
    "snapshots": _snapshots,
}


def workload_runs(name: str, seed: int) -> list[Run]:
    return WORKLOADS[name](seed)


def warmup_document(run: Run) -> dict:
    """The run's document cut to 50 steps, for an untimed warm-up."""
    doc = {section: dict(values) for section, values in run.document.items()}
    doc["time"]["t_final"] = 50 * doc["time"]["dt"]
    return doc
