import json
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heatplate import (ConfigError, ControllerConfig, DeviceSpec, Grid,
                       InitialCondition, PlateGeometry, SimulationConfig,
                       SurfaceExchange, ThermalMaterial, assemble_rhs,
                       boundary_fluxes, dump_config, load_config, parse_config,
                       proportional_law, run_simulation, scenario_preset,
                       stability_limit, step_forward_euler, write_run_outputs)
from heatplate.config import _scenario_document
from heatplate.solver import RhsBuffers

# log-uniform over [1e-300, 1e300]
LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
# log-uniform over [1e-300, 1e308]
WIDE_LOG_UNIFORM = st.floats(-300.0, 308.0).map(lambda exponent: 10.0 ** exponent)
# Every float key of the document (u_max is null by default); t_final
# follows dt, and the integer keys stay small.
FLOAT_KEYS = [(section, key) for section, values in _scenario_document(1).items()
              for key, value in values.items()
              if key != "t_final" and (isinstance(value, float) or value is None)]
# c1 < 0: rho*c is smallest at theta_cap, and a hot underside lies under a
# cold topside, so a heated cell at theta_cap has the largest rate
C1_NEGATIVE_HOT_UNDERSIDE = (
    '{"material": {"c1": -0.10999999}, "controller": {"kp": 1e301}, '
    '"initial": {"base": 1500, "a0": 1499.9, "a1": 0, "a2": 0.5}, '
    '"time": {"dt": 1e5, "t_final": 2e5}}')


def _small_document(values, J, K):
    """A J x K document of two steps with `values` set, {(section, key): value},
    and 2 devices per bank when J < 5."""
    doc = {"grid": {"J": J, "K": K}}
    if J < 5:
        doc.update(actuators={"count": 2}, sensors={"count": 2})
    for (section, key), value in values.items():
        doc.setdefault(section, {})[key] = value
    dt = doc.pop("time", {}).get("dt", 1e-3)
    return {**doc, "time": {"dt": dt, "t_final": 2 * dt}}


# Accepted and rejected whole documents: 1-4 numeric keys of any section
# drawn log-uniform, on small grids for two steps.
SMALL_DOCUMENTS = st.builds(
    _small_document,
    st.dictionaries(st.sampled_from(FLOAT_KEYS), WIDE_LOG_UNIFORM, min_size=1, max_size=4),
    st.sampled_from([2, 3, 4, 5, 8, 12]), st.sampled_from([2, 3, 6]))


def _field(kind, levels, seed, grid, cap):
    """A field on `grid` in [0, cap]: uniform, random 0 / cap, constant at
    levels[0] * cap, drawn from the three levels * cap, or the probe's 0 K /
    cap checkerboard over the whole grid."""
    rng = np.random.default_rng(seed)
    if kind == "checkerboard":
        return cap * (np.indices((grid.K, grid.J)).sum(axis=0).reshape(-1) % 2)
    if kind == "uniform":
        return rng.uniform(0.0, cap, grid.n_cells)
    if kind == "binary":
        return cap * rng.integers(0, 2, grid.n_cells)
    values = cap * np.asarray(levels)
    return rng.choice(values[:1] if kind == "constant" else values, grid.n_cells)


class TestDefaults:
    def test_empty_document_is_scenario_1(self, preset1):
        assert load_config("{}") == preset1

    def test_actuator_shape_override_is_scenario_2(self, preset2):
        assert load_config('{"actuators": {"M": 30.0}}') == preset2

    def test_partial_section_keeps_other_defaults(self, preset1):
        cfg = load_config('{"grid": {"J": 50}}')
        assert cfg.grid.J == 50
        assert cfg.grid.K == preset1.grid.K
        assert cfg.material == preset1.material

    def test_document_keys_are_the_dataclass_fields(self):
        # No rename table: a section's keys are its dataclass's init fields,
        # in order, less those holding another section's object.
        classes = {"geometry": PlateGeometry, "grid": Grid, "material": ThermalMaterial,
                   "exchange": SurfaceExchange, "actuators": DeviceSpec,
                   "sensors": DeviceSpec, "controller": ControllerConfig,
                   "initial": InitialCondition, "time": SimulationConfig}
        doc = _scenario_document(1)
        assert list(doc) == list(classes)
        for section, cls in classes.items():
            names = [f.name for f in fields(cls) if f.init and f.name not in classes]
            assert list(doc[section]) == names, section


class TestValidation:
    def test_grid_too_small(self):
        with pytest.raises(ConfigError, match=r"grid\.J: must be >= 2"):
            load_config('{"grid": {"J": 1}}')

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match=r"grid\.cells: unknown key"):
            load_config('{"grid": {"cells": 100}}')

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match="plate: unknown key"):
            load_config('{"plate": {}}')

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1 column"):
            load_config('{"grid": }')

    @pytest.mark.parametrize("doc,path", [
        ('{"geometry": {"L": 0}}', r"geometry\.L"),
        ('{"material": {"rho": -1}}', r"material\.rho"),
        ('{"exchange": {"emissivity": 2.0}}', r"exchange\.emissivity"),
        ('{"time": {"dt": 0}}', r"time\.dt"),
        ('{"time": {"snapshot_stride": 0}}', r"time\.snapshot_stride"),
        ('{"initial": {"base": -1}}', r"initial\.base"),
        ('{"grid": {"J": 2.5}}', r"grid\.J"),
        ('{"grid": {"J": "many"}}', r"grid\.J"),
        ('{"exchange": {"h": null}}', r"exchange\.h"),
        ('{"time": {"dt": 0.003, "t_final": 0.0045}}', r"time\.t_final"),
        ('{"time": {"dt": 0.001, "t_final": 1e-9}}', r"time\.t_final"),
        ('{"time": {"dt": 0.5, "t_final": 0.4}}', r"time\.t_final"),
        ('{"geometry": {"H": 0}}', r"geometry\.H"),
        ('{"grid": {"K": 1}}', r"grid\.K"),
        ('{"material": {"c0": 0}}', r"material\.c0"),
        ('{"material": {"lambda0": 0}}', r"material\.lambda0"),
        ('{"material": {"lambda1": -0.01}}', r"material\.lambda1"),
        ('{"exchange": {"h": -1}}', r"exchange\.h"),
        ('{"exchange": {"sigma": 0}}', r"exchange\.sigma"),
        ('{"exchange": {"theta_amb": -1}}', r"exchange\.theta_amb"),
        ('{"exchange": {"theta_amb": 1e80}}',
         r"exchange\.theta_amb: must be <= material\.theta_cap = 3000"),
        ('{"actuators": {"count": 0}}', r"actuators\.count"),
        ('{"actuators": {"m": 1.5}}', r"actuators\.m"),
        ('{"actuators": {"M": -1}}', r"actuators\.M"),
        ('{"actuators": {"nu": 0}}', r"actuators\.nu"),
        ('{"sensors": {"nu": -1}}', r"sensors\.nu"),
        ('{"sensors": {"count": 4}}', r"sensors\.count"),
        ('{"controller": {"kp": Infinity}}', r"controller\.kp"),
        ('{"controller": {"y_ref": -1}}', r"controller\.y_ref"),
        ('{"controller": {"u_min": 10, "u_max": 5}}', r"controller\.u_min"),
        ('{"time": {"t_final": -1}}', r"time\.t_final"),
        ('{"time": {"t_final": 0}}', r"time\.t_final: must be a whole number"),
        # a signal log too large for one array, blamed on the horizon
        ('{"time": {"dt": 1e-300, "t_final": 1e-281}}',
         r"time\.t_final: a log of 10000000000000000000 steps at stride 1 has more "
         r"values than an array can hold \(1152921504606846975\)$"),
        ('{"time": {"dt": 1e-300, "t_final": 1e-282}}',
         r"time\.t_final: a log of 1000000000000000000 steps at stride 1 has more"),
        ('{"time": {"signal_stride": 0}}', r"time\.signal_stride"),
        ('{"material": {"theta_cap": 0}}', r"material\.theta_cap"),
        # The kernel's one-step probe names the key of the stage that
        # faults.  A cap whose fourth power overflows, with an ambient below
        # it; the largest cap whose fourth power is finite passes.
        ('{"material": {"theta_cap": 1e80}, "exchange": {"theta_amb": 1e79}, '
         '"time": {"t_final": 0.002}}',
         r"material\.theta_cap: the emitted flux on \[0, 1e\+80\] K faults: "
         r"overflow encountered in power$"),
        ('{"material": {"theta_cap": 1.157920892373162e77}}',
         r"material\.theta_cap: the emitted flux on .* K faults: overflow"),
        ('{"sensors": {"m": 0}}',
         r"sensors\.m: sensor 0 has zero weight at every cell center"),
        # a bump that underflows to 0 at every cell centre blames M, not m
        ('{"geometry": {"L": 1e150}}',
         r"sensors\.M: sensor 0 has zero weight at every cell center"),
        ('{"geometry": {"L": 3}, "actuators": {"M": 1e6}}',
         r"actuators\.M: actuator 0 has zero weight at every cell center"),
        ('{"actuators": {"m": 0}}', r"actuators\.m: actuator 0 has zero weight"),
        ('{"grid": {"J": 3}}', r"actuators\.count: 5 actuators on J = 3 columns: "
                               r"at least one covers no cell center$"),
        ('{"geometry": {"L": 1e-170}}', r"geometry\.L: cell size"),
        ('{"geometry": {"H": 1e-170}}', r"geometry\.H: cell size"),
        ('{"geometry": {"L": 1e300}, "sensors": {"M": 0}}', r"geometry\.L: cell size"),
        # a cell count too large for the length's square is blamed on the count
        ('{"grid": {"J": 1e300}}', r"grid\.J: cell size 3e-301 m"),
        ('{"grid": {"K": 1e300}}', r"grid\.K: cell size 1e-302 m"),
        # the initial field must start inside [0, theta_cap]
        ('{"initial": {"base": 3100, "a0": 0}}',
         r"initial\.base: base \+ \|a0\| = 3100"),
        ('{"initial": {"base": 2999, "a0": 3}}', r"initial\.a0: base \+ \|a0\| = 3002"),
        # a mode count whose cosine phase overflows at a cell center
        ('{"initial": {"a1": 1e308}, "time": {"t_final": 0.002}}',
         r"initial\.a1: the cosine phase must be finite at every cell center"),
        ('{"initial": {"a2": 1e308}, "time": {"t_final": 0.002}}',
         r"initial\.a2: the cosine phase must be finite at every cell center"),
        ('{"grid": {"J": 1%s}}' % ("0" * 400), r"grid\.J: must be finite"),
        # rho*c(theta) overflows: a frozen plate, since every rate is N/inf
        ('{"material": {"rho": 1e308}, "time": {"t_final": 0.01}}',
         r"material\.rho: rho\*c on .* K faults: overflow encountered in multiply$"),
        ('{"material": {"c0": 1e308}}',
         r"material\.rho: rho\*c on .* K faults: not a finite float$"),
        ('{"controller": {"u_min": -5.0, "u_max": -1.0}}',
         r"controller\.u_max: must be >= 0 \(heaters cannot cool\), got -1\.0$"),
        # a count that cannot fit the grid is blamed on its own section
        ('{"actuators": {"count": 2e18}}',
         r"actuators\.count: 2000000000000000000 actuators on J = 100 columns"),
        # the reciprocal of a tiny rho*c overflows, or of one that underflows
        # to 0 divides by zero; a cell's reciprocal square overflows;
        # Phi/dx1^2 overflows
        ('{"material": {"rho": 1e-320}}',
         r"material\.rho: 1/\(rho\*c\) on .* K faults: overflow "
         r"encountered in divide$"),
        ('{"material": {"rho": 1e-300, "c0": 1e-30, "c1": 0}}',
         r"material\.rho: 1/\(rho\*c\) on .* K faults: divide by zero"),
        ('{"geometry": {"L": 1e-154}}', r"grid\.J: cell size 1e-156 m has a square "
                                        r"of 1e-312, whose reciprocal overflows$"),
        ('{"material": {"lambda0": 1e300}, "geometry": {"L": 1e-150}}',
         r"material\.lambda0: the conduction rates on .* K faults"),
        ('{"material": {"lambda0": 1e303}}',
         r"material\.lambda0: the conduction rates on .* K faults: overflow"),
        # the x2 faces' rescale by dx1^2/dx2^2 overflows
        ('{"geometry": {"H": 1e-130}, "material": {"lambda1": 1e150, "c1": 1e170}, '
         '"time": {"dt": 1e-8, "t_final": 2e-8}}',
         r"material\.lambda1: the conduction rates on .* K faults: overflow"),
        # a boundary flux or heater command that overflows, alone, once
        # divided by the cell size or once divided by rho*c; a gain whose
        # kp * y_ref overflows before the clamp, or whose channel mean does
        ('{"exchange": {"h": 1e308}, "time": {"t_final": 0.002}}',
         r"exchange\.h: the emitted flux on \[0, 3000\.0\] K faults: overflow "
         r"encountered in multiply$"),
        ('{"exchange": {"sigma": 1e300}, "time": {"t_final": 0.002}}',
         r"exchange\.sigma: the emitted flux on .* K faults: overflow"),
        ('{"material": {"rho": 1e-290, "lambda0": 1e-290, "lambda1": 0, "c1": 0}, '
         '"exchange": {"h": 1e20}, "time": {"dt": 1e-5, "t_final": 2e-5}}',
         r"exchange\.h: the rates with emission on .* K faults: overflow"),
        ('{"controller": {"kp": 1e308}, "time": {"t_final": 0.002}}',
         r"controller\.kp: the command at e = y_ref on .* K faults: overflow"),
        ('{"controller": {"kp": 1e306}, "time": {"t_final": 0.002}}',
         r"controller\.kp: the command at e = y_ref on .* K faults: overflow"),
        ('{"controller": {"kp": 1e305}, "time": {"t_final": 0.002}}',
         r"controller\.kp: the mean command on .* K faults: overflow"),
        ('{"controller": {"kp": 1e308, "u_max": 1e5}, "time": {"t_final": 0.002}}',
         r"controller\.kp: the command at e = y_ref on .* K faults"),
        ('{"controller": {"kp": [1, 1e307, 1, 1, 1], "u_max": 1e5}}',
         r"controller\.kp: the command at e = y_ref on .* K faults"),
        ('{"controller": {"kp": 1e305, "u_max": 1e307}, "time": {"t_final": 0.002}}',
         r"controller\.u_max: the rates with heating on .* K faults: overflow"),
        ('{"controller": {"kp": 0, "u_min": 1e307}, "time": {"t_final": 0.002}}',
         r"controller\.u_min: the rates with heating on .* K faults: overflow"),
        # a finite rate whose Euler step overflows, also at a heated cell at
        # theta_cap when c1 < 0
        ('{"controller": {"u_min": 1e300}, "time": {"dt": 1e12, "t_final": 2e12}}',
         r"time\.dt: the Euler step on .* K faults: overflow encountered in multiply$"),
        (C1_NEGATIVE_HOT_UNDERSIDE,
         r"time\.dt: the Euler step on .* K faults: overflow encountered in multiply$"),
        # the step advisory: a diffusivity that underflows to 0, a sum
        # 1/dx1^2 + 1/dx2^2 that overflows, and lambda(initial.base) that
        # overflows where Phi/dx1^2 stays finite
        ('{"material": {"lambda0": 1e-320, "lambda1": 0}}',
         r"material\.lambda0: the explicit stability limit at 300\.0 K"),
        ('{"geometry": {"L": 8.2e-153, "H": 3.28e-153}, '
         '"material": {"lambda0": 1e-10, "lambda1": 0}}',
         r"material\.lambda0: the explicit stability limit at 300\.0 K on .* K "
         r"faults: overflow"),
        ('{"material": {"lambda0": 1e308, "lambda1": 1.7e308, "theta_cap": 1}, '
         '"initial": {"base": 0.5, "a0": 0}, "exchange": {"theta_amb": 0.5}, '
         '"geometry": {"L": 2000, "H": 800}, "sensors": {"M": 0}}',
         r"material\.lambda0: the explicit stability limit at 0\.5 K on .* K "
         r"faults: overflow"),
    ])
    def test_field_errors_name_their_path(self, doc, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=path):
                load_config(doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=st.fixed_dictionaries({
        "material": st.fixed_dictionaries(
            {"rho": LOG_UNIFORM, "c0": LOG_UNIFORM, "lambda0": LOG_UNIFORM}),
        "geometry": st.fixed_dictionaries({"L": LOG_UNIFORM, "H": LOG_UNIFORM}),
        "grid": st.fixed_dictionaries({"J": st.integers(5, 8), "K": st.integers(2, 8)}),
    }))
    @example(doc={"material": {"rho": 1e-320}})
    @example(doc={"material": {"rho": 1e-300, "c0": 1e-30, "c1": 0}})
    @example(doc={"geometry": {"L": 1e-154}})
    @example(doc={"material": {"lambda0": 1e300}, "geometry": {"L": 1e-150}})
    def test_accepted_configs_have_a_finite_positive_stability_limit(self, doc):
        # Builds configs only.  A config that parses must give the advisory
        # that check prints a value in (0, inf), and raise no RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                cfg = parse_config(doc)
            except ConfigError:
                return
            limit = stability_limit(cfg.grid, cfg.material, cfg.initial.base)
        assert 0 < limit < math.inf

    @settings(max_examples=250, deadline=None)
    @given(doc=SMALL_DOCUMENTS)
    @example(doc={"exchange": {"h": 1e308}, "time": {"t_final": 0.002}})
    @example(doc={"exchange": {"sigma": 1e300}, "time": {"t_final": 0.002}})
    @example(doc={"controller": {"kp": 1e308}, "time": {"t_final": 0.002}})
    @example(doc={"controller": {"kp": 1e306}, "time": {"t_final": 0.002}})
    @example(doc={"controller": {"kp": 1e305}, "time": {"t_final": 0.002}})
    @example(doc={"controller": {"kp": 1e308, "u_max": 1e5},
                  "time": {"t_final": 0.002}})
    @example(doc={"controller": {"kp": 1e305, "u_max": 1e307},
                  "time": {"t_final": 0.002}})
    # accepted: diverges at step 0
    @example(doc={"exchange": {"h": 1e300}, "time": {"t_final": 0.002}})
    # each of these faulted in a run of a config that check accepted
    @example(doc={"material": {"rho": 1e-290, "lambda0": 1e-290, "lambda1": 0, "c1": 0},
                  "exchange": {"h": 1e20}, "time": {"dt": 1e-5, "t_final": 2e-5}})
    @example(doc={"controller": {"kp": 1e307, "y_ref": 1e-10},
                  "time": {"t_final": 0.002}})  # accepted: runs clean
    @example(doc={"geometry": {"H": 1e-130}, "material": {"lambda1": 1e150, "c1": 1e170},
                  "time": {"dt": 1e-8, "t_final": 2e-8}})
    @example(doc={"material": {"lambda0": 1e303}, "time": {"t_final": 0.002}})
    @example(doc={"controller": {"u_min": 1e300}, "time": {"dt": 1e12, "t_final": 2e12}})
    @example(doc=json.loads(C1_NEGATIVE_HOT_UNDERSIDE))
    def test_accepted_boundary_terms_run_and_write_without_overflow(self, doc):
        # A config that parses runs and writes its outputs with no
        # RuntimeWarning, diverged or not.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                cfg = parse_config(doc)
            except ConfigError:
                return
            result = run_simulation(cfg)
            with tempfile.TemporaryDirectory() as out:
                write_run_outputs(result, out)

    @settings(max_examples=250, deadline=None)
    @given(doc=SMALL_DOCUMENTS,
           kind=st.sampled_from(["uniform", "binary", "constant", "levels"]),
           levels=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    @example(doc={}, kind="checkerboard", levels=[0.0] * 3, seed=0)
    # rejected at the conduction (Phi/dx1^2, then the x2 rescale), emission
    # and heating stages, so a probe that missed one would let these fault
    @example(doc={"material": {"lambda0": 1e303}}, kind="checkerboard",
             levels=[0.0] * 3, seed=0)
    @example(doc={"geometry": {"H": 1e-130}, "material": {"lambda1": 1e150, "c1": 1e170},
                  "time": {"dt": 1e-8, "t_final": 2e-8}},
             kind="checkerboard", levels=[0.0] * 3, seed=0)
    @example(doc={"material": {"rho": 1e-290, "lambda0": 1e-290, "lambda1": 0, "c1": 0},
                  "exchange": {"h": 1e20}, "time": {"dt": 1e-5, "t_final": 2e-5}},
             kind="checkerboard", levels=[0.0] * 3, seed=0)
    @example(doc={"controller": {"kp": 1e305, "u_max": 1e307}}, kind="constant",
             levels=[0.0] * 3, seed=0)
    # rejected at the Euler step of x1 neighbours at 0 K and theta_cap: a
    # board that alternated along x2 only would let the checkerboard fault
    @example(doc={"geometry": {"L": 1e-120}, "time": {"dt": 1e160, "t_final": 2e160}},
             kind="checkerboard", levels=[0.0] * 3, seed=0)
    def test_accepted_configs_step_any_field_in_range_without_fault(
            self, doc, kind, levels, seed):
        # The probe's claim: a config it accepts faults on no field in
        # [0, theta_cap], with the command the law gives on that field, not
        # only along the run's own path.  Underflow is not a fault.
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return
        actuators, sensors = cfg.banks
        theta = _field(kind, levels, seed, cfg.grid, cfg.material.theta_cap)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            y = sensors.measure(theta)
            u = proportional_law(cfg.controller, cfg.controller.y_ref - y)
            fluxes = boundary_fluxes(theta, cfg.grid, cfg.exchange, actuators, u)
            rhs = assemble_rhs(theta, cfg.material, fluxes, RhsBuffers(cfg.grid))
            step_forward_euler(theta, rhs, cfg.dt)

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, values in
        json.loads(dump_config(scenario_preset(1))).items() for key in values
    ])
    def test_wrong_type_names_its_path(self, section, key):
        with pytest.raises(ConfigError) as info:
            parse_config({section: {key: "x"}})
        assert str(info.value).startswith(f"{section}.{key}:")

    @pytest.mark.parametrize("t_final", [-1.0, 0.0, math.nan, math.inf])
    def test_horizon_of_no_whole_steps_names_t_final(self, preset1, t_final):
        # dt > 0 is checked first, so one rule rejects every t_final that is
        # <= 0, NaN or infinite
        with pytest.raises(ValueError, match=r"^t_final: must be a whole number "
                                             r"\(>= 1\) of steps dt, got t_final / dt"):
            replace(preset1, t_final=t_final)

    def test_horizon_within_rounding_of_whole_steps(self):
        # 0.05 / 1e-3 is 50.00000000000001 in floating point
        assert load_config('{"time": {"dt": 1e-3, "t_final": 0.05}}').n_steps() == 50

    def test_cross_field_material_positivity(self):
        # c(theta) turns negative inside the admissible range
        with pytest.raises(ConfigError, match="material"):
            load_config('{"material": {"c1": -0.2}}')

    def test_initial_dip_below_zero(self):
        with pytest.raises(ConfigError, match="initial"):
            load_config('{"initial": {"base": 1.0, "a0": 3.0}}')

    def test_initial_peak_may_reach_theta_cap(self):
        cfg = load_config('{"initial": {"base": 2997, "a0": -3}}')
        assert cfg.initial.base + abs(cfg.initial.a0) == cfg.material.theta_cap

    def test_non_object_document(self):
        with pytest.raises(ConfigError, match="object"):
            load_config("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config('{"grid": 7}')


class TestController:
    def test_scalar_gain_broadcasts(self):
        cfg = load_config('{"controller": {"kp": 500.0}}')
        assert cfg.controller.kp == 500.0 and cfg.controller.channels is None
        assert (proportional_law(cfg.controller, np.ones(5)) == 500.0).all()

    def test_huge_count_is_rejected_before_anything_is_sized_by_it(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^actuators\.count: 10000000 "
                                                  r"actuators on J = 100 columns"):
                load_config('{"actuators": {"count": 10000000}}')
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_gain_list(self):
        cfg = load_config('{"controller": {"kp": [1, 2, 3, 4, 5]}}')
        assert cfg.controller.kp == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_gain_list_length_must_match_actuators(self):
        with pytest.raises(ConfigError, match=r"controller\.kp"):
            load_config('{"controller": {"kp": [1, 2]}}')

    def test_null_u_max_means_unbounded(self):
        cfg = load_config('{"controller": {"u_max": null}}')
        assert math.isinf(cfg.controller.u_max)

    def test_finite_u_max(self):
        cfg = load_config('{"controller": {"u_max": 2e6}}')
        assert cfg.controller.u_max == 2e6

    def test_negative_gain_rejected(self):
        with pytest.raises(ConfigError, match=r"controller\.kp"):
            load_config('{"controller": {"kp": -1.0}}')

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError, match="controller"):
            load_config('{"controller": {"u_min": 10.0, "u_max": 5.0}}')


class TestRoundTrip:
    def test_preset_survives_dump_and_load(self, preset1, preset2):
        for preset in (preset1, preset2):
            assert load_config(dump_config(preset)) == preset

    def test_gains_dump_as_written(self):
        for kp in (500.0, [500.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]):
            cfg = load_config(json.dumps({"controller": {"kp": kp}}))
            assert json.loads(dump_config(cfg))["controller"]["kp"] == kp
        assert '"kp": 500.0,' in dump_config(load_config('{"controller": {"kp": 500}}'))

    def test_custom_config_survives(self):
        cfg = load_config(json.dumps({
            "geometry": {"L": 0.5, "H": 0.02},
            "grid": {"J": 40, "K": 10},
            "material": {"rho": 2700, "c0": 900, "c1": 0.0,
                         "lambda0": 200, "lambda1": 0.0},
            "actuators": {"count": 4, "M": 20.0},
            "sensors": {"count": 4},
            "controller": {"kp": [1, 2, 3, 4], "u_max": 5e5},
            "time": {"dt": 1e-4, "t_final": 0.5},
        }))
        assert load_config(dump_config(cfg)) == cfg

    def test_readme_full_document_is_scenario_1(self, preset1):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme[readme.index("## Configuration"):]
        start = section.index("```json\n") + len("```json\n")
        assert load_config(section[start:section.index("```", start)]) == preset1

    def test_parse_config_accepts_document_dict(self, preset1):
        assert parse_config({}) == preset1

    def test_theta_cap_is_settable(self):
        cfg = load_config('{"material": {"theta_cap": 1500}}')
        assert cfg.material.theta_cap == 1500.0
        # lambda(T) = 10 - 0.004 T stays positive up to 2500 K only
        with pytest.raises(ConfigError, match=r"material\.lambda1"):
            load_config('{"material": {"lambda1": -0.004}}')
        load_config('{"material": {"lambda1": -0.004, "theta_cap": 2000}}')
        # the largest cap whose fourth power is a finite float
        load_config('{"material": {"theta_cap": 1.1579208923731618e77}}')

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_valid_documents_survive_dump_and_load(self, data):
        def number(lo, hi):
            return data.draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

        def integer(lo, hi):
            return data.draw(st.integers(lo, hi))

        def device():
            return {"m": number(0.05, 1.0), "M": number(0.0, 50.0),
                    "nu": number(0.5, 8.0)}

        count = integer(1, 4)
        dt = number(1e-5, 1e-2)
        kp = data.draw(st.one_of(
            st.floats(0.0, 1e5), st.lists(st.floats(0.0, 1e5), min_size=count,
                                          max_size=count)))
        document = {
            "geometry": {"L": number(0.01, 2.0), "H": number(1e-3, 0.1)},
            "grid": {"J": integer(8, 60), "K": integer(2, 20)},
            "material": {"rho": number(1.0, 2e4), "c0": number(1.0, 1e3),
                         "c1": number(-0.1, 1.0), "lambda0": number(0.1, 400.0),
                         "lambda1": number(-0.01, 0.5),
                         "theta_cap": number(400.0, 5000.0)},
            "exchange": {"h": number(0.0, 100.0), "emissivity": number(0.0, 1.0),
                         "sigma": number(1e-9, 1e-7), "theta_amb": number(0.0, 600.0)},
            "actuators": {"count": count, **device()},
            "sensors": {"count": count, **device()},
            "controller": {"kp": kp, "y_ref": number(0.0, 1000.0),
                           "u_min": number(0.0, 10.0),
                           "u_max": data.draw(st.one_of(st.none(),
                                                        st.floats(10.0, 1e7)))},
            "initial": {"base": number(10.0, 600.0), "a0": number(-10.0, 10.0),
                        "a1": number(0.0, 20.0), "a2": number(0.0, 20.0)},
            "time": {"dt": dt, "t_final": integer(1, 1000) * dt,
                     "snapshot_stride": integer(1, 100),
                     "signal_stride": integer(1, 100)},
        }
        try:
            cfg = parse_config(document)
        except ConfigError:
            assume(False)
        assert load_config(dump_config(cfg)) == cfg
