import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatplate import (ConfigError, dump_config, load_config, parse_config,
                       proportional_law, scenario_preset)


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
        ('{"time": {"signal_stride": 0}}', r"time\.signal_stride"),
        ('{"material": {"theta_cap": 0}}', r"material\.theta_cap"),
        # a cap whose fourth power overflows, with an ambient below it
        ('{"material": {"theta_cap": 1e80}, "exchange": {"theta_amb": 1e79}, '
         '"time": {"t_final": 0.002}}',
         r"material\.theta_cap: theta_cap\*\*4 must be a finite float"),
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
         r"material\.rho: rho\*c0 must be a finite float, got inf$"),
        ('{"material": {"c0": 1e308}}',
         r"material\.rho: rho\*c0 must be a finite float, got inf$"),
        ('{"controller": {"u_min": -5.0, "u_max": -1.0}}',
         r"controller\.u_max: must be >= 0 \(heaters cannot cool\), got -1\.0$"),
        # a count that cannot fit the grid is blamed on its own section
        ('{"actuators": {"count": 2e18}}',
         r"actuators\.count: 2000000000000000000 actuators on J = 100 columns"),
    ])
    def test_field_errors_name_their_path(self, doc, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match=path):
                load_config(doc)

    @pytest.mark.parametrize("section,key", [
        (section, key) for section, values in
        json.loads(dump_config(scenario_preset(1))).items() for key in values
    ])
    def test_wrong_type_names_its_path(self, section, key):
        with pytest.raises(ConfigError) as info:
            parse_config({section: {key: "x"}})
        assert str(info.value).startswith(f"{section}.{key}:")

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
