"""Closed-loop scenario runner: measure, control, flux, step, log.

Inputs are sample-and-hold: at the start of each step the controller reads
the current field and the resulting heater powers are held constant over
the step.  Runs are fully deterministic; two runs of the same configuration
produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControllerConfig, proportional_law
from .devices import ActuatorBank, DeviceSpec, SensorBank
from .grid import MAX_FLOATS, Grid
from .material import SurfaceExchange, ThermalMaterial
from .solver import (RhsBuffers, aligned_empty, assemble_rhs, boundary_fluxes,
                     check_admissible, step_forward_euler, worst_invalid_cell)


@dataclass(frozen=True)
class InitialCondition:
    """Base temperature plus a separable cosine perturbation.

    theta(x) = base + a0 * cos(2*pi*a1*x1/L) * cos(2*pi*a2*x2/H); a1 and a2
    count the oscillations across the plate length and height.
    """

    base: float = 300.0
    a0: float = 3.0
    a1: float = 10.0
    a2: float = 5.0

    def __post_init__(self):
        if self.base < 0:
            raise ValueError(f"base: must be >= 0, got {self.base}")
        if self.base - abs(self.a0) < 0:
            raise ValueError("a0: |a0| must be <= base to keep the field non-negative")


@dataclass(frozen=True)
class SimulationConfig:
    """All one closed-loop run needs; making one builds its banks and advisory_dt."""

    grid: Grid
    material: ThermalMaterial
    exchange: SurfaceExchange
    actuators: DeviceSpec
    sensors: DeviceSpec
    controller: ControllerConfig
    initial: InitialCondition
    dt: float
    t_final: float
    snapshot_stride: int = 1000
    signal_stride: int = 1
    banks: tuple[ActuatorBank, SensorBank] = field(init=False, repr=False, compare=False)
    advisory_dt: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt: must be > 0, got {self.dt}")
        steps = self.t_final / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ValueError("t_final: must be a whole number (>= 1) of steps dt, "
                             f"got t_final / dt = {steps!r}")
        for name in ("snapshot_stride", "signal_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        cap, ic = self.material.theta_cap, self.initial
        if self.exchange.theta_amb > cap:
            raise ValueError(f"exchange.theta_amb: must be <= material.theta_cap "
                             f"= {cap}, got {self.exchange.theta_amb}")
        if ic.base + abs(ic.a0) > cap:
            key = "base" if ic.base > cap else "a0"
            raise ValueError(f"initial.{key}: base + |a0| = {ic.base + abs(ic.a0)} "
                             f"must be <= material.theta_cap = {cap}")
        for key, phase in zip(("a1", "a2"), _phases(self.grid, ic)):
            if not np.isfinite(phase).all():
                raise ValueError(f"initial.{key}: the cosine phase must be finite "
                                 f"at every cell center, got {key} = {getattr(ic, key)}")
        # Looked up in the module at call time, where tracers wrap it.  The
        # banks check each count against the grid before the channel rules.
        object.__setattr__(self, "banks", build_banks(self))
        if self.controller.channels not in (None, self.actuators.count):
            raise ValueError(
                f"controller.kp: got {self.controller.channels} gains for "
                f"{self.actuators.count} actuators"
            )
        if self.sensors.count != self.actuators.count:
            raise ValueError(
                "sensors.count: channel pairing needs equal counts, got "
                f"{self.sensors.count} sensors and {self.actuators.count} actuators"
            )
        n, stride = self.n_steps(), self.signal_stride
        if (n // stride + 2) * self.actuators.count > MAX_FLOATS:
            raise ValueError(f"t_final: a log of {n} steps at stride {stride} has more "
                             f"values than an array can hold ({MAX_FLOATS})")
        object.__setattr__(self, "advisory_dt", check_admissible(
            self.grid, self.material, self.exchange, self.controller, self.banks[0],
            self.dt, ic.base))

    def n_steps(self) -> int:
        """Number of Euler steps; t_final is a whole multiple of dt."""
        return round(self.t_final / self.dt)


@dataclass(eq=False)
class SimulationResult:
    """Final field, snapshots and the logged input/output signals.

    `signal_times` rows align with `inputs` and `outputs`.  On a run that
    does not diverge, the closing snapshot's field is `final_field` itself,
    the same array and not a copy.  On divergence the logs are partial,
    there is no closing snapshot, `final_field` holds the offending field
    and `divergence_step`/`divergence_cell` locate its worst entry: a
    non-finite one, else the one farthest outside [0, theta_cap].
    """

    config: SimulationConfig
    final_field: np.ndarray
    snapshots: list[tuple[float, np.ndarray]]
    signal_times: np.ndarray
    inputs: np.ndarray   # (n_logged, N_u)
    outputs: np.ndarray  # (n_logged, N_y)
    divergence_step: int | None = None
    divergence_cell: int | None = None

    @property
    def diverged(self) -> bool:
        """Whether the run halted early; derived from `divergence_step`."""
        return self.divergence_step is not None


@dataclass(frozen=True)
class TopsideStatistics:
    mean: float
    peak_to_peak: float
    dominant_mode: int


def _phases(grid: Grid, ic: InitialCondition) -> tuple[np.ndarray, np.ndarray]:
    """The cosine phases 2*pi*a1*x1/L and 2*pi*a2*x2/H at the cell centers."""
    with np.errstate(over="ignore"):  # an overflow is caught by the config
        return (2 * np.pi * ic.a1 * grid.x1_centers() / grid.geometry.L,
                2 * np.pi * ic.a2 * grid.x2_centers() / grid.geometry.H)


def initial_field(grid: Grid, ic: InitialCondition) -> np.ndarray:
    """Evaluate the initial condition at every cell center, flat order."""
    phase1, phase2 = _phases(grid, ic)
    return (ic.base + ic.a0 * np.outer(np.cos(phase2), np.cos(phase1))).reshape(-1)


def build_banks(cfg: SimulationConfig) -> tuple[ActuatorBank, SensorBank]:
    """Construct both device banks from their specs on the config's grid.

    A bank that does not fit the grid raises ValueError under its spec's
    path, e.g. "actuators.count: 5 actuators on J = 3 columns: at least one
    covers no cell center".
    """
    def bank(cls, section):
        try:
            return cls.build(cfg.grid, getattr(cfg, section))
        except ValueError as exc:
            raise ValueError(f"{section}.{exc}") from exc

    return bank(ActuatorBank, "actuators"), bank(SensorBank, "sensors")


def run_simulation(cfg: SimulationConfig) -> SimulationResult:
    """Run the closed loop for n_steps = round(t_final/dt) Euler steps.

    Per step: measure the current field, apply the proportional law,
    assemble boundary fluxes and the finite-volume rates, then step.
    Signals are logged every `signal_stride` steps and once more for the
    final field; snapshots likewise every `snapshot_stride` steps.  A
    temperature that is not finite or leaves [0, theta_cap] halts the loop
    and returns a result flagged as diverged with the logs collected so far.
    """
    grid, material, exchange = cfg.grid, cfg.material, cfg.exchange
    actuators, sensors = cfg.banks

    # The field and buffers.potential trade places every step.  The field
    # is copied after initial_field, where a grid too large to allocate
    # fails before any buffer is touched, and before the buffers are made,
    # so that once freed they lie above the final field and the heap can
    # shrink (the reverse order cost 1.3 MiB of peak RSS at 400x160).
    theta = initial_field(grid, cfg.initial)
    aligned = aligned_empty(grid.n_cells)
    aligned[:] = theta
    theta = aligned
    buffers = RhsBuffers(grid)
    n_steps = cfg.n_steps()

    # Logged steps: every signal_stride-th one plus the closing sample.
    logged_steps = np.append(np.arange(0, n_steps, cfg.signal_stride), n_steps)
    inputs = np.empty((len(logged_steps), actuators.count))
    outputs = np.empty((len(logged_steps), sensors.count))
    logged = 0
    snapshots: list[tuple[float, np.ndarray]] = []

    divergence_step = divergence_cell = None
    for step in range(n_steps + 1):
        # The closing sample, step n_steps, logs the final field's readings
        # and the inputs they would command, then leaves before stepping.
        y = sensors.measure(theta, grid)
        u = proportional_law(cfg.controller, cfg.controller.y_ref - y)
        closing = step == n_steps
        if closing or step % cfg.signal_stride == 0:
            inputs[logged], outputs[logged] = u, y
            logged += 1
        # The closing snapshot is final_field itself, so that
        # write_run_outputs can copy its file instead of formatting it.
        if closing or step % cfg.snapshot_stride == 0:
            snapshots.append((step * cfg.dt, theta if closing else theta.copy()))
        if closing:
            break

        fluxes = boundary_fluxes(theta, grid, exchange, actuators, u)
        rhs = assemble_rhs(theta, material, fluxes, buffers)
        new = step_forward_euler(theta, rhs, cfg.dt, out=buffers.potential)
        theta, buffers.potential = new, theta

        # One range test per step; NaN fails both comparisons.  The scan
        # that locates the worst cell runs only on failure.
        if not (0 <= theta.min() and theta.max() <= material.theta_cap):
            divergence_step = step
            divergence_cell = worst_invalid_cell(theta, material.theta_cap)
            break

    return SimulationResult(
        config=cfg,
        final_field=theta,
        snapshots=snapshots,
        signal_times=logged_steps[:logged] * cfg.dt,
        inputs=inputs[:logged],
        outputs=outputs[:logged],
        divergence_step=divergence_step,
        divergence_cell=divergence_cell,
    )


def averaged_signals(result: SimulationResult):
    """Per-time channel means (times, u_mean, y_mean) of the signal log."""
    return (result.signal_times,
            result.inputs.mean(axis=1),
            result.outputs.mean(axis=1))


def topside_statistics(result: SimulationResult) -> TopsideStatistics:
    """Mean, peak-to-peak and dominant spatial mode of the final topside row.

    The dominant mode is the index (cycles per plate length) of the
    largest-magnitude nonzero frequency in the DFT of the mean-removed
    row; ties break toward the lower index.
    """
    grid = result.config.grid
    row = result.final_field[-grid.J:]
    mean = float(row.mean())
    spectrum = np.abs(np.fft.rfft(row - mean))
    # argmax returns the first maximizer, which is the lower index on ties
    dominant = 1 + int(np.argmax(spectrum[1:]))
    return TopsideStatistics(
        mean=mean,
        peak_to_peak=float(row.max() - row.min()),
        dominant_mode=dominant,
    )

