import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatplate import cli, config, output, simulation
from heatplate.cli import main

TINY_CONFIG = {
    "grid": {"J": 20, "K": 8},
    "time": {"dt": 1e-3, "t_final": 0.05, "snapshot_stride": 25},
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def test_version(capsys):
    assert main(["version"]) == 0
    assert "heatplate" in capsys.readouterr().out


def test_package_exports_resolve():
    import heatplate
    missing = [name for name in heatplate.__all__ if not hasattr(heatplate, name)]
    assert missing == []
    # heatbench/setup_probe.py times these set-up calls as hp.<name>
    for name in ("load_config", "build_banks", "initial_field", "stability_limit"):
        assert name in heatplate.__all__


def test_benchmark_tracer_imports(tmp_path):
    # heatbench/spans.py reads the device classes it wraps (BoundaryPartition,
    # Characterization, SensorBank, ActuatorBank) when it is imported, so
    # deleting one breaks the traced benchmark run.  That run (run.py
    # --trace 1) also fails unless its boundary_fluxes probe finds the inputs
    # u at args[4], its euler_step probe sees each step, and every step
    # records one span of each stage.
    path = Path(__file__).resolve().parents[1] / "heatbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("heatbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.TARGETS

    inputs, steps = [], []
    tracer = module.Tracer(probes={
        "solver.boundary_fluxes": lambda args, result: inputs.append(np.shape(args[4])),
        "solver.euler_step": lambda args, result: steps.append(np.shape(result)),
    })
    original = simulation.run_simulation
    tracer.patch()
    try:
        cfg = config.load_config(json.dumps(
            {"grid": {"J": 20, "K": 8}, "time": {"dt": 1e-3, "t_final": 0.03}}))
        result = simulation.run_simulation(cfg)
        output.write_run_outputs(result, tmp_path / "out")
    finally:
        tracer.restore()
    assert simulation.run_simulation is original
    assert cfg.n_steps() == 30 and not result.diverged
    assert inputs == [(5,)] * 30
    assert steps == [(20 * 8,)] * 30
    calls = module.summarize(tracer)["calls"]
    for name in ("solver.boundary_fluxes", "solver.assemble_rhs", "solver.euler_step"):
        assert calls[name] == 30, name
    # and once more for the closing sample, which makes no step
    assert calls["devices.measure"] == 31
    assert calls["control.proportional_law"] == 31
    assert "control.control_error" not in calls  # control.law_us times the law alone


def test_check_scenario(capsys):
    assert main(["check", "--scenario", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.001" in out
    assert "advisory" in out
    assert out.endswith("configured dt = 0.001 s is OK\n")


def test_check_reports_a_step_above_the_advisory(tmp_path, capsys):
    path = tmp_path / "fast.json"
    path.write_text('{"time": {"dt": 0.05}}')
    assert main(["check", "--config", str(path)]) == 0
    assert capsys.readouterr().out.endswith(
        "configured dt = 0.05 s EXCEEDS the advisory limit\n")


def test_check_config(tiny_config_path, capsys):
    assert main(["check", "--config", str(tiny_config_path)]) == 0
    assert "dt" in capsys.readouterr().out


def test_run_config_writes_outputs(tiny_config_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(tiny_config_path),
                 "--out", str(out_dir), "--render"])
    assert code == 0
    for name in ("final_field.csv", "signals.csv", "snapshot_0000.csv",
                 "heatmap.pgm"):
        assert (out_dir / name).exists()
    summary = capsys.readouterr().out
    assert "y_avg" in summary and "dominant mode" in summary
    field = np.loadtxt(out_dir / "final_field.csv",
                       delimiter=",", skiprows=1, usecols=2, ndmin=1)
    assert field.shape == (20 * 8,)
    header = (out_dir / "heatmap.pgm").read_bytes().split(b"\n")[:2]
    assert header == [b"P5", b"20 8"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_unstable_dt_exits_1(tmp_path, capsys):
    code = main(["run", "--scenario", "1", "--dt", "0.05",
                 "--out", str(tmp_path / "x"), "--render"])
    assert code == 1
    err = capsys.readouterr().err
    # step 1 produces the first invalid field, which belongs to t = 2*dt;
    # every underside cell is negative there, and (64, 0) is the coldest
    assert "DIVERGED at step 1 (t = 0.1 s), cell (j, k) = (64, 0), theta = -176.09" in err
    # diverged fields are not rendered
    assert not (tmp_path / "x" / "heatmap.pgm").exists()
    assert (tmp_path / "x" / "final_field.csv").exists()


def test_stiff_emission_that_stays_finite_diverges(tmp_path, capsys):
    # each boundary term fits a float, so this is an explicit-Euler
    # divergence, reported with exit 1, not a config error
    path = tmp_path / "stiff.json"
    path.write_text('{"exchange": {"h": 1e300}, "time": {"t_final": 0.002}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert ("DIVERGED at step 0 (t = 0.001 s), cell (j, k) = (0, 39), "
            "theta = -3.2467e+294 K") in capsys.readouterr().err


def test_run_parses_the_document_once(tiny_config_path, tmp_path, monkeypatch):
    counts = {"parse": 0, "banks": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    parse = counting("parse", config.parse_config)
    monkeypatch.setattr(config, "parse_config", parse)
    monkeypatch.setattr(cli, "parse_config", parse)
    monkeypatch.setattr(simulation, "build_banks",
                        counting("banks", simulation.build_banks))
    assert main(["run", "--config", str(tiny_config_path), "--dt", "0.001",
                 "--out", str(tmp_path / "o")]) == 0
    assert counts == {"parse": 1, "banks": 1}


def test_overrides_edit_a_partial_document(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text('{"material": {"theta_cap": 2000}}')
    out_dir = tmp_path / "p"
    assert main(["run", "--config", str(path), "--grid", "10x4", "--dt", "0.001",
                 "--t-final", "0.01", "--out", str(out_dir)]) == 0
    field = np.loadtxt(out_dir / "final_field.csv",
                       delimiter=",", skiprows=1, usecols=2, ndmin=1)
    assert field.shape == (40,)
    # a malformed document is reported, not overridden
    for text, message in (("[1]", "top level: expected an object"),
                          ('{"time": 3}', "time: expected an object")):
        path.write_text(text)
        assert main(["run", "--config", str(path), "--dt", "0.001",
                     "--out", str(out_dir)]) == 2
        assert message in capsys.readouterr().err


def test_grid_and_t_final_overrides(tmp_path):
    out_dir = tmp_path / "y"
    code = main(["run", "--scenario", "1", "--grid", "10x4",
                 "--dt", "0.001", "--t-final", "0.01", "--out", str(out_dir)])
    assert code == 0
    field = np.loadtxt(out_dir / "final_field.csv",
                       delimiter=",", skiprows=1, usecols=2, ndmin=1)
    assert field.shape == (40,)


def test_unknown_flag_exits_2(capsys):
    assert main(["run", "--scenario", "1", "--frobnicate"]) == 2


def test_missing_source_exits_2():
    assert main(["run", "--out", "/tmp/nowhere"]) == 2


def test_bad_grid_override_exits_2():
    assert main(["run", "--scenario", "1", "--grid", "100by40",
                 "--out", "/tmp/nowhere"]) == 2


def test_out_of_range_override_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", "1", "--grid", "0x40",
                 "--out", str(tmp_path / "z")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid.J" in err
    for flags, path in ((["--t-final", "-1"], "time.t_final"),
                        (["--dt", "0"], "time.dt"),
                        (["--dt", "inf"], "time.dt"),
                        (["--grid", "3x40"], "actuators.count: 5 actuators on J = 3 "
                                             "columns: at least one covers no cell center")):
        assert main(["run", "--scenario", "1", *flags,
                     "--out", str(tmp_path / "z")]) == 2
        assert path in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"grid": {"J": 1}}')
    assert main(["check", "--config", str(path)]) == 2
    assert "grid.J" in capsys.readouterr().err
    # a bank that does not fit is caught by check, not only by run
    path.write_text('{"sensors": {"m": 0}}')
    assert main(["check", "--config", str(path)]) == 2
    assert ("sensors.m: sensor 0 has zero weight at every cell center"
            in capsys.readouterr().err)
    # a cell size whose square underflows or overflows is a config error
    # ... and so is a device whose profile is 0 at every cell centre
    for doc, message in (('{"geometry": {"L": 1e-170}}', "geometry.L: cell size"),
                         ('{"geometry": {"H": 1e-170}}', "geometry.H: cell size"),
                         ('{"geometry": {"L": 1e300}, "sensors": {"M": 0}}',
                          "geometry.L: cell size"),
                         ('{"geometry": {"L": 1e150}}',
                          "sensors.M: sensor 0 has zero weight at every cell center"),
                         ('{"geometry": {"L": 3}, "actuators": {"M": 1e6}}',
                          "actuators.M: actuator 0 has zero weight"),
                         ('{"actuators": {"m": 0}}',
                          "actuators.m: actuator 0 has zero weight"),
                         ('{"initial": {"base": 3100, "a0": 0}}', "initial.base: "),
                         ('{"initial": {"base": 2999, "a0": 3}}', "initial.a0: ")):
        path.write_text(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


# Sizes above any 64-bit address space.  A grid beyond the index range of an
# array is a config error under its path, and a device count is checked
# against grid.J before anything is sized by it, so any count above J names
# its section, alone or with sensors of the same count.
HUGE = 10 ** 17
BEYOND = 10 ** 22
TOO_LARGE = "the configuration is too large to allocate"
MORE_CELLS = "grid has more cells than an array can hold"
NO_CENTER = "actuators on J = 100 columns: at least one covers no cell center"
SIZE_CASES = [
    ("check", {"grid": {"J": HUGE}}, f"grid.J: a {HUGE} x 40 {MORE_CELLS}"),
    ("check", {"actuators": {"count": HUGE}, "sensors": {"count": HUGE}},
     f"actuators.count: {HUGE} {NO_CENTER}"),
    ("run", {"grid": {"K": HUGE}}, f"grid.K: a 100 x {HUGE} {MORE_CELLS}"),
    ("check", {"grid": {"J": BEYOND}}, f"grid.J: a {BEYOND} x 40 {MORE_CELLS}"),
    ("check", {"actuators": {"count": BEYOND}, "sensors": {"count": BEYOND}},
     f"actuators.count: {BEYOND} {NO_CENTER}"),
    ("check", {"grid": {"K": BEYOND}}, f"grid.K: a 100 x {BEYOND} {MORE_CELLS}"),
    ("run", {"grid": {"K": BEYOND}}, f"grid.K: a 100 x {BEYOND} {MORE_CELLS}"),
    # a tie blames J
    ("check", {"grid": {"J": 4000000000, "K": 4000000000}},
     f"grid.J: a 4000000000 x 4000000000 {MORE_CELLS}"),
    ("run", {"grid": {"J": 4000000000, "K": 4000000000}},
     f"grid.J: a 4000000000 x 4000000000 {MORE_CELLS}"),
    ("check", {"actuators": {"count": 2e18}, "sensors": {"count": 2e18}},
     f"actuators.count: {2 * 10 ** 18} {NO_CENTER}"),
    ("run", {"actuators": {"count": 2e18}, "sensors": {"count": 2e18}},
     f"actuators.count: {2 * 10 ** 18} {NO_CENTER}"),
]
# every such count, alone and with both sections, under both commands
SIZE_CASES += [case for case in (
    (command, {"actuators": {"count": count}, **sensors},
     f"actuators.count: {int(count)} {NO_CENTER}")
    for count in (10 ** 7, HUGE, BEYOND, 2e18)
    for sensors in ({}, {"sensors": {"count": count}})
    for command in ("check", "run")) if case not in SIZE_CASES]


@pytest.mark.parametrize("command,doc,message", [
    pytest.param(*case, id=f"{case[0]}-doc{i}") for i, case in enumerate(SIZE_CASES)
])
def test_size_too_large_to_allocate_exits_2(command, doc, message, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(path), *out]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_allocation_failure_exits_2(monkeypatch, capsys):
    # no size in range fails to allocate any longer; pin the branch directly
    def exhausted(document):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_config", exhausted)
    assert main(["check", "--scenario", "1"]) == 2
    assert f"config error: {TOO_LARGE}" in capsys.readouterr().err


def test_unusable_out_exits_2_before_the_run(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("run_simulation was called")

    monkeypatch.setattr(cli, "run_simulation", never)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--scenario", "1", "--t-final", "2", "--out", str(out)]) == 2
    assert "i/o error: [Errno 17] File exists" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "run"])
def test_ambient_above_theta_cap_exits_2(command, tmp_path, capsys):
    # caught as config errors: an ambient above the cap, an initial field
    # that takes the cosine of an infinite phase, a negative u_max that makes
    # heaters cool, a cell whose reciprocal square overflows, and every
    # document whose one-step probe faults, under the key of that stage
    path = tmp_path / "hot.json"
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    on = "on [0, 3000.0] K faults:"
    for doc, message in (
            ('{"exchange": {"theta_amb": 1e80}, "time": {"t_final": 0.002}}',
             "exchange.theta_amb: must be <= material.theta_cap"),
            ('{"material": {"theta_cap": 1e80}, "exchange": {"theta_amb": 1e79}, '
             '"time": {"t_final": 0.002}}',
             "material.theta_cap: the emitted flux on [0, 1e+80] K faults: "
             "overflow encountered in power"),
            ('{"initial": {"a1": 1e308}, "time": {"t_final": 0.002}}',
             "initial.a1: the cosine phase must be finite at every cell center, "
             "got a1 = 1e+308"),
            ('{"initial": {"a2": 1e308}, "time": {"t_final": 0.002}}',
             "initial.a2: the cosine phase must be finite at every cell center, "
             "got a2 = 1e+308"),
            ('{"material": {"rho": 1e308}, "time": {"t_final": 0.01}}',
             f"material.rho: rho*c {on} overflow encountered in multiply"),
            ('{"material": {"c0": 1e308}}',
             f"material.rho: rho*c {on} not a finite float"),
            ('{"controller": {"u_min": -5.0, "u_max": -1.0}}',
             "controller.u_max: must be >= 0 (heaters cannot cool), got -1.0"),
            ('{"material": {"rho": 1e-320}}',
             f"material.lambda1: the conduction rates {on} overflow encountered "
             "in divide"),
            ('{"material": {"rho": 1e-300, "c0": 1e-30, "c1": 0}}',
             f"material.lambda1: the conduction rates {on} divide by zero"),
            ('{"geometry": {"L": 1e-154}}', "grid.J: cell size 1e-156 m"),
            ('{"material": {"lambda0": 1e300}, "geometry": {"L": 1e-150}}',
             f"material.lambda0: the conduction rates {on}"),
            ('{"material": {"lambda0": 1e303}}',
             f"material.lambda0: the conduction rates {on} overflow"),
            ('{"exchange": {"h": 1e308}, "time": {"t_final": 0.002}}',
             f"exchange.h: the emitted flux {on} overflow"),
            ('{"exchange": {"sigma": 1e300}, "time": {"t_final": 0.002}}',
             f"exchange.sigma: the emitted flux {on} overflow"),
            ('{"material": {"rho": 1e-290, "lambda0": 1e-290, "lambda1": 0, "c1": 0}, '
             '"exchange": {"h": 1e20}, "time": {"dt": 1e-5, "t_final": 2e-5}}',
             f"exchange.h: the rates with emission {on} overflow"),
            ('{"controller": {"kp": 1e308}, "time": {"t_final": 0.002}}',
             f"controller.kp: the command at e = y_ref {on} overflow"),
            ('{"controller": {"kp": 1e306}, "time": {"t_final": 0.002}}',
             f"controller.kp: the command at e = y_ref {on} overflow"),
            ('{"controller": {"kp": 1e305}, "time": {"t_final": 0.002}}',
             f"controller.kp: the mean command {on} overflow"),
            ('{"controller": {"kp": 1e308, "u_max": 1e5}, "time": {"t_final": 0.002}}',
             f"controller.kp: the command at e = y_ref {on}"),
            ('{"controller": {"kp": 1e305, "u_max": 1e307}, "time": {"t_final": 0.002}}',
             f"controller.u_max: the rates with heating {on} overflow"),
            ('{"controller": {"u_min": 1e300}, "time": {"dt": 1e12, "t_final": 2e12}}',
             f"time.dt: the Euler step {on} overflow")):
        path.write_text(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(path), *out]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_repeated_runs_write_identical_bytes(tiny_config_path, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["run", "--config", str(tiny_config_path),
                     "--out", str(d)]) == 0
    for name in ("final_field.csv", "signals.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize("flags", [
    ["--t-final", "inf"],
    ["--dt", "1e300"],
    ["--t-final", "1e-9"],
    ["--dt", "0.003", "--t-final", "0.0045"],
])
def test_horizon_override_that_is_not_whole_steps_exits_2(flags, tmp_path, capsys):
    out_dir = tmp_path / "h"
    assert main(["run", "--scenario", "1", *flags, "--out", str(out_dir)]) == 2
    assert "time.t_final" in capsys.readouterr().err
    assert not out_dir.exists()
