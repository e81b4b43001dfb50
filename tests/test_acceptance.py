"""End-to-end acceptance suite.

One test per shipping criterion; each prints a PASS/FAIL line (visible with
pytest -s).  Expected values were computed independently before the build:
closed-form bounds and rates by hand, scenario thresholds frozen from the
reference runs of this configuration.
"""

import dataclasses
import io
from contextlib import contextmanager

import numpy as np
import pytest

from heatplate import (Grid, PlateGeometry, SurfaceExchange, ThermalMaterial,
                       assemble_rhs, averaged_signals, boundary_fluxes,
                       initial_field, load_config, run_simulation,
                       scenario_preset, stability_limit, step_forward_euler,
                       topside_statistics, weighted_rhs_sum, write_field_csv)
from heatplate.cli import main
from heatplate.control import ControllerConfig
from heatplate.simulation import InitialCondition
from heatplate.solver import RhsBuffers

from test_solver import ghost_cell_rhs, random_fluxes, zero_fluxes


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def topside_row(result):
    grid = result.config.grid
    return result.final_field[(grid.K - 1) * grid.J:]


def test_scenario_1_reproduction(scenario1_result):
    with criterion("scenario-1 reproduction"):
        assert not scenario1_result.diverged
        _, _, y_mean = averaged_signals(scenario1_result)
        assert abs(y_mean[-1] - 400.0) <= 2.0
        assert np.abs(topside_row(scenario1_result) - 400.0).max() <= 3.0


def test_scenario_2_oscillation(scenario1_result, scenario2_result):
    with criterion("scenario-2 oscillation"):
        assert not scenario2_result.diverged
        stats2 = topside_statistics(scenario2_result)
        stats1 = topside_statistics(scenario1_result)
        assert stats2.dominant_mode == 5
        assert stats2.peak_to_peak >= 5.0 * stats1.peak_to_peak


def test_comparable_averaged_signals(scenario1_result, scenario2_result):
    # Threshold frozen from the first reference pair of this implementation
    # (measured max gap 6.28 K).
    with criterion("comparable averaged signals"):
        t1, _, y1 = averaged_signals(scenario1_result)
        t2, _, y2 = averaged_signals(scenario2_result)
        assert (t1 == t2).all()
        assert np.abs(y1 - y2).max() <= 7.0


def test_conservation(preset1):
    grid, material = preset1.grid, preset1.material
    with criterion("conservation"):
        # insulated, unforced: the weighted per-step increment dt*rhs must
        # telescope to zero at every one of the 10^4 steps
        field = initial_field(grid, preset1.initial)
        fluxes = zero_fluxes(grid)
        area = grid.dx1 * grid.dx2
        dt = preset1.dt
        for _ in range(preset1.n_steps()):
            rhs = assemble_rhs(field, material, fluxes, RhsBuffers(grid))
            increment = dt * weighted_rhs_sum(field, rhs, grid, material)
            gross = dt * float(np.sum(np.abs(
                material.volumetric_heat_coefficient(field) * rhs)) * area)
            assert abs(increment) <= 1e-12 * gross
            field = step_forward_euler(field, rhs, dt)

        # flux-balance identity on randomized fields and boundary fluxes
        rng = np.random.default_rng(2024)
        for _ in range(100):
            J = int(rng.integers(3, 12))
            K = int(rng.integers(3, 12))
            g = Grid(PlateGeometry(0.3, 0.01), J=J, K=K)
            rand_field = rng.uniform(250.0, 450.0, g.n_cells)
            rand_fluxes = random_fluxes(g, rng, scale=1e4)
            rhs = assemble_rhs(rand_field, material, rand_fluxes, RhsBuffers(g))
            total = weighted_rhs_sum(rand_field, rhs, g, material)
            underside, left, right, top = rand_fluxes
            boundary = (g.dx2 * (left.sum() + right.sum())
                        + g.dx1 * (top.sum() + underside.sum()))
            gross = float(np.sum(np.abs(
                material.volumetric_heat_coefficient(rand_field) * rhs
            )) * g.dx1 * g.dx2)
            assert abs(total - boundary) <= 1e-9 * max(abs(boundary), gross)


def decay_rate_error(preset, J):
    """Relative error of the measured cosine-mode decay rate against the
    separable solution of the constant-coefficient heat equation."""
    material = ThermalMaterial(rho=7800.0, c0=330.0, c1=0.0,
                               lambda0=10.0, lambda1=0.0)
    cfg = dataclasses.replace(
        preset,
        grid=Grid(PlateGeometry(0.30, 0.01), J=J, K=40),
        material=material,
        exchange=SurfaceExchange(h=0.0, emissivity=0.0, theta_amb=300.0),
        controller=ControllerConfig(kp=(0.0,) * 5, y_ref=400.0),
        initial=InitialCondition(base=300.0, a0=3.0, a1=10.0, a2=0.0),
        snapshot_stride=100,
    )
    result = run_simulation(cfg)
    assert not result.diverged
    length = cfg.grid.geometry.L
    mode = np.cos(2 * np.pi * 10.0 * cfg.grid.x1_centers() / length)
    times, amplitudes = [], []
    for t, snapshot in result.snapshots:
        rows = snapshot.reshape(cfg.grid.K, cfg.grid.J)
        amplitudes.append(2.0 / cfg.grid.J * float(rows.mean(axis=0) @ mode))
        times.append(t)
    slope = np.polyfit(times, np.log(amplitudes), 1)[0]
    alpha = material.lambda0 / (material.rho * material.c0)
    exact = alpha * (2 * np.pi * 10.0 / length) ** 2
    return abs(-slope - exact) / exact


def test_analytical_decay_oracle(preset1):
    with criterion("analytical decay oracle"):
        err_100 = decay_rate_error(preset1, J=100)
        err_200 = decay_rate_error(preset1, J=200)
        assert err_100 <= 0.06
        assert err_200 <= 0.02
        assert 3.0 <= err_100 / err_200 <= 5.0


def test_oracle_equivalence(preset1):
    material = preset1.material  # temperature-dependent conductivity
    with criterion("oracle equivalence"):
        rng = np.random.default_rng(99)
        for case in range(200):
            n = 3 if case % 2 == 0 else 4
            g = Grid(PlateGeometry(0.3, 0.01), J=n, K=n)
            field = rng.uniform(250.0, 450.0, g.n_cells)
            fluxes = random_fluxes(g, rng)
            got = assemble_rhs(field, material, fluxes, RhsBuffers(g))
            want = ghost_cell_rhs(field, g, material, fluxes)
            assert got == pytest.approx(want, rel=1e-12)


def test_stability_behavior(preset1, scenario1_result, tmp_path):
    with criterion("stability behavior"):
        # closed-form bound evaluated by hand:
        # alpha = lambda(300)/(rho*c(300)) = 40/3.51e6 = 1.1396e-5 m^2/s
        # 1/(2*alpha*(1/dx1^2 + 1/dx2^2)) = 2.7233e-3 s
        limit = stability_limit(preset1.grid, preset1.material, 300.0)
        assert limit == pytest.approx(2.7233e-3, rel=0.05)
        assert preset1.dt < limit
        assert not scenario1_result.diverged

        unstable = run_simulation(dataclasses.replace(preset1, dt=5e-2))
        assert unstable.diverged
        assert unstable.divergence_step < 200

        code = main(["run", "--scenario", "1", "--dt", "0.05",
                     "--out", str(tmp_path / "unstable")])
        assert code == 1


def test_determinism_and_io(preset1, scenario1_result, tmp_path):
    with criterion("determinism and I/O"):
        # byte-identical outputs across repeated CLI runs
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            assert main(["run", "--scenario", "1", "--out", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert "final_field.csv" in names and "signals.csv" in names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        # stride-1 log: one row per step plus the closing sample
        signal_lines = (dirs[0] / "signals.csv").read_text().strip().split("\n")
        assert len(signal_lines) == 1 + 10_001
        field_lines = (dirs[0] / "final_field.csv").read_text().strip().split("\n")
        assert len(field_lines) == 1 + 4_000

        # the field table round-trips bit-exactly
        grid = preset1.grid
        text = io.StringIO()
        write_field_csv(scenario1_result.final_field, grid, text)
        text.seek(0)
        in_memory = np.loadtxt(text, delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert (in_memory == scenario1_result.final_field).all()
        on_disk = np.loadtxt(dirs[0] / "final_field.csv",
                             delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert (on_disk == scenario1_result.final_field).all()

        # an empty config document means scenario 1
        assert load_config("{}") == preset1
