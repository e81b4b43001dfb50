"""Span tracing of heatplate's layers, applied from outside the package.

`Tracer.patch()` replaces the public functions and methods that
`run_simulation` and `write_run_outputs` reach with wrappers that record a
span (name, start, end, parent) per call; `restore()` puts the originals
back.  Spans stay in compact arrays in memory and are written out once, at
the end.  Nothing in `src/` changes.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from heatplate import config, devices, grid, material, output, simulation

# (owner, attribute, span name).  Module functions are patched where their
# callers look them up; methods are patched on their class.  Properties
# (dx1, n_cells, count, ...) are not wrapped: their cost stays in the caller.
TARGETS = [
    (config, "load_config", "config.load_config"),
    (simulation, "run_simulation", "simulation.run_simulation"),
    (simulation, "build_banks", "devices.build_banks"),
    (simulation, "uniform_partitions", "devices.uniform_partitions"),
    (devices.Characterization, "value", "devices.characterization_value"),
    (devices.BoundaryPartition, "contains", "devices.partition_contains"),
    (simulation, "stability_limit", "grid.stability_limit"),
    (simulation, "initial_field", "simulation.initial_field"),
    (simulation.SimulationConfig, "n_steps", "simulation.n_steps"),
    (grid.Grid, "x1_centers", "grid.x1_centers"),
    (grid.Grid, "x2_centers", "grid.x2_centers"),
    (devices.SensorBank, "measure", "devices.measure"),
    (devices.ActuatorBank, "induced_flux", "devices.induced_flux"),
    (simulation, "control_error", "control.control_error"),
    (simulation, "proportional_law", "control.proportional_law"),
    (simulation, "boundary_fluxes", "solver.boundary_fluxes"),
    (material.SurfaceExchange, "emitted_flux", "material.emitted_flux"),
    (simulation, "assemble_rhs", "solver.assemble_rhs"),
    (material.ThermalMaterial, "face_conductivity", "material.face_conductivity"),
    (material.ThermalMaterial, "thermal_conductivity", "material.thermal_conductivity"),
    (material.ThermalMaterial, "volumetric_heat_coefficient", "material.heat_coefficient"),
    (material.ThermalMaterial, "heat_capacity", "material.heat_capacity"),
    (simulation, "step_forward_euler", "solver.euler_step"),
    (simulation, "first_invalid_cell", "solver.invalid_scan"),
    (output, "write_run_outputs", "output.write_run_outputs"),
    (output, "write_field_csv", "output.field_csv"),
    (output, "write_signals_csv", "output.signals_csv"),
    (output, "averaged_signals", "output.averaged_signals"),
]

# Spans whose self time is reported.  Any other span is charged to its
# nearest reported ancestor: thermal_conductivity inside face_conductivity
# counts as face_conductivity, everything under build_banks as build_banks.
REPORTED = {
    "config.load_config", "simulation.run_simulation", "devices.build_banks",
    "grid.stability_limit", "simulation.initial_field", "devices.measure",
    "control.control_error", "control.proportional_law", "solver.boundary_fluxes",
    "devices.induced_flux", "material.emitted_flux", "solver.assemble_rhs",
    "material.face_conductivity", "material.heat_coefficient", "solver.euler_step",
    "solver.invalid_scan", "output.write_run_outputs", "output.field_csv",
    "output.signals_csv",
}
SETUP_STAGES = {"devices.build_banks", "grid.stability_limit", "simulation.initial_field"}
SOLVER_CALLS = {"solver.boundary_fluxes", "solver.assemble_rhs", "solver.euler_step",
                "solver.invalid_scan"}


class Tracer:
    def __init__(self, probes=None):
        # probes: span name -> callable(args, result), run after the call.
        self.probes = probes or {}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved = []
        self.name_id = array("i")
        self.parent = array("i")   # row index of the enclosing span, -1 for none
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def reset(self):
        # Cleared in place: the wrappers hold these arrays directly.
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        del self._stack[1:]

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        probe = self.probes.get(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self):
        """Wrap every target that exists; a removed one simply records no span."""
        for owner, attr, name in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def span_cost_ns(self, calls=200_000) -> float:
        """Measured cost of one traced call to a trivial function, in ns."""
        def noop():
            return None
        wrapped = self._wrap("trace.calibration", noop)
        clock = time.perf_counter_ns
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - t0
        self.reset()
        return (traced - bare) / calls

    def write(self, path):
        """Spans as CSV: name,start_ns,end_ns,parent (row index, -1 for none)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_ns,end_ns,parent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                f.write(f"{self.names[nid]},{s},{e},{p}\n")


def summarize(tracer: Tracer) -> dict:
    """Self time per reported span name (ns), call counts, and totals.

    Returns {"self_ns": {name: ns}, "calls": {name: count},
    "run_ns": inclusive run_simulation time, "solver_calls": count}.
    """
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = (np.frombuffer(tracer.end, dtype=np.int64)
           - np.frombuffer(tracer.start, dtype=np.int64)).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child

    reported = [name in REPORTED for name in tracer.names]
    setup = {i for i, name in enumerate(tracer.names) if name in SETUP_STAGES}
    # Parents precede their children, so one forward pass assigns buckets.
    bucket = name_id.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and (not reported[bucket[i]] or bucket[p] in setup):
            bucket[i] = bucket[p]
    totals = np.bincount(np.array(bucket, dtype=np.intp), weights=self_ns, minlength=len(tracer.names))
    calls = np.bincount(name_id, minlength=len(tracer.names))
    ids = {name: i for i, name in enumerate(tracer.names)}
    run_id = ids.get("simulation.run_simulation", -1)
    return {
        "self_ns": {name: float(totals[i]) for name, i in ids.items() if name in REPORTED},
        "calls": {name: int(calls[i]) for name, i in ids.items()},
        "run_ns": float(dur[name_id == run_id].sum()),
        "solver_calls": int(sum(calls[ids[n]] for n in SOLVER_CALLS if n in ids)),
    }


def rhs_cost(J: int, K: int) -> tuple[int, int]:
    """Computed bytes moved and flops of one `assemble_rhs` call.

    A model of the shipped kernel's numpy operations, not a measurement:
    every elementwise operation reads its operands and writes its result
    once, 8 bytes per float64, with no reuse from cache.  Per axis with F
    faces and N cells: 13F + N reads and 8F + 2N writes, 8F + N flops.
    Then the axis sum (3N, N flops), four boundary adds over B = 2J + 2K
    cells (5B, 2B flops), rho*c(theta) (6N, 3N flops) and the division
    (3N, N flops).
    """
    N = J * K
    faces = K * (J - 1) + (K - 1) * J
    B = 2 * J + 2 * K
    words = 21 * faces + 6 * N + 3 * N + 5 * B + 6 * N + 3 * N
    flops = 8 * faces + 2 * N + N + 2 * B + 3 * N + N
    return 8 * words, flops
