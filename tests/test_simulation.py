import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from heatplate import (ControllerConfig, DeviceSpec, Grid, InitialCondition,
                       PlateGeometry, SimulationConfig, SurfaceExchange,
                       ThermalMaterial, averaged_signals, dump_config,
                       initial_field, load_config, run_simulation,
                       scenario_preset, stability_limit, topside_statistics,
                       write_run_outputs)


def short_config(**overrides):
    """Small, fast variant of the reference setup for loop-behavior tests."""
    base = scenario_preset(1)
    defaults = dict(
        grid=Grid(PlateGeometry(0.30, 0.01), J=20, K=8),
        dt=1e-3,
        t_final=0.05,
        snapshot_stride=10,
        signal_stride=1,
    )
    defaults.update(overrides)
    return dataclasses.replace(base, **defaults)


def composed_run(cfg):
    """The closed loop written out in the order solver.py documents, with no
    call to measure, the law, boundary_fluxes, assemble_rhs or the Euler step.

    Returns (final field, inputs, outputs, snapshots) for a run that does
    not diverge.
    """
    grid, material, exchange = cfg.grid, cfg.material, cfg.exchange
    controller, (actuators, sensors) = cfg.controller, cfg.banks
    J, K, dx1, dx2 = grid.J, grid.K, grid.dx1, grid.dx2
    theta, n_steps = initial_field(grid, cfg.initial), cfg.n_steps()
    inputs, outputs, snapshots = [], [], []
    for step in range(n_steps + 1):
        y = (sensors.weight_table @ theta[-J:]) * dx1 / sensors.mass
        e = controller.y_ref - y
        u = np.array(controller.kp) * np.where(e > 0, e, 0.0)
        u = np.minimum(np.maximum(u, controller.u_min), controller.u_max)
        if step % cfg.signal_stride == 0 or step == n_steps:
            inputs.append(u)
            outputs.append(y)
        if step % cfg.snapshot_stride == 0 or step == n_steps:
            snapshots.append((step * cfg.dt, theta.copy()))
        if step == n_steps:
            return theta, np.array(inputs), np.array(outputs), snapshots

        underside = actuators.weight_table.T @ u
        edge = np.concatenate((theta[::J], theta[J - 1::J], theta[-J:]))
        emitted = (-exchange.h * (edge - exchange.theta_amb)
                   - exchange.emissivity * exchange.sigma
                   * (edge**4 - exchange.theta_amb**4))
        # Kirchhoff potential over dx1^2, then the face differences; a cell
        # on the plate's edge has a zero face there.
        potential = (theta * (material.lambda0 / dx1**2
                              + material.lambda1 / (2 * dx1**2) * theta)).reshape(K, J)
        east, west = np.zeros((K, J)), np.zeros((K, J))
        east[:, :-1] = west[:, 1:] = potential[:, 1:] - potential[:, :-1]
        rate = east - west
        north = (potential[1:] - potential[:-1]) * (dx1**2 / dx2**2)
        rate[:-1] += north
        rate[1:] -= north
        rate[:, 0] += emitted[:K] / dx1
        rate[:, -1] += emitted[K:2 * K] / dx1
        rate[0] += underside / dx2
        rate[-1] += emitted[2 * K:] / dx2
        rate = rate.reshape(-1) / (theta * (material.rho * material.c1)
                                   + material.rho * material.c0)
        theta = theta + cfg.dt * rate


class TestInitialField:
    def test_flat_when_amplitude_zero(self, grid):
        ic = InitialCondition(base=300.0, a0=0.0, a1=10.0, a2=5.0)
        assert (initial_field(grid, ic) == 300.0).all()

    def test_first_cell_value(self, grid):
        # 300 + 3*cos(2*pi*10*0.005)*cos(2*pi*5*0.0125), evaluated directly
        field = initial_field(grid, InitialCondition())
        expected = 300.0 + 3.0 * math.cos(0.1 * math.pi) * math.cos(0.125 * math.pi)
        assert field[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(302.636, abs=1e-3)

    def test_zero_modes_shift_uniformly(self, grid):
        ic = InitialCondition(base=300.0, a0=3.0, a1=0.0, a2=0.0)
        assert initial_field(grid, ic) == pytest.approx(np.full(grid.n_cells, 303.0))

    def test_rejects_negative_dip(self):
        with pytest.raises(ValueError):
            InitialCondition(base=2.0, a0=3.0)


class TestScenarioPresets:
    def test_only_actuator_shape_differs(self, preset1, preset2):
        assert preset1.actuators.M == 0.0
        assert preset2.actuators.M == 30.0
        assert dataclasses.replace(preset1, actuators=preset2.actuators) == preset2

    def test_shared_settings(self, preset1):
        assert preset1.grid.dx1 == pytest.approx(3e-3, rel=1e-12)
        assert preset1.grid.dx2 == pytest.approx(2.5e-4, rel=1e-12)
        assert preset1.sensors == DeviceSpec(count=5, m=1.0, M=10.0, nu=4.0)
        assert preset1.controller.kp == 1e4 and preset1.controller.channels is None
        assert preset1.controller.y_ref == 400.0
        assert preset1.dt == 1e-3 and preset1.t_final == 10.0
        assert preset1.n_steps() == 10_000

    @pytest.mark.parametrize("which", [1, 2])
    def test_config_keeps_its_step_advisory(self, which):
        # the probe's last stage, kept bit for bit, recomputed by replace and
        # never part of the document, the repr or equality
        preset = scenario_preset(which)
        for cfg in (preset, dataclasses.replace(preset, dt=5e-4)):
            limit = stability_limit(cfg.grid, cfg.material, cfg.initial.base)
            assert np.float64(cfg.advisory_dt).tobytes() == np.float64(limit).tobytes()
        finer = dataclasses.replace(preset, grid=Grid(PlateGeometry(0.30, 0.01), 200, 80))
        assert finer.advisory_dt == stability_limit(finer.grid, finer.material, 300.0)
        assert finer.advisory_dt < preset.advisory_dt
        assert "advisory" not in dump_config(preset) + repr(preset)
        assert load_config(dump_config(preset)) == preset

    @pytest.mark.parametrize("which", [1, 2])
    def test_probe_steps_one_checkerboard(self, which, monkeypatch):
        # The admissibility probe steps one checkerboard in one set of
        # buffers: three assemble_rhs calls and one Euler step, so rho*c is
        # evaluated 5 times (its own stage, three rates and the advisory) and
        # the emission once.  The traced benchmark wraps these two material
        # methods and charges their config-time calls to per-step stages, so
        # each one added here eats into the slack of its partition check.
        from heatplate import solver
        document = dump_config(scenario_preset(which))
        targets = ((ThermalMaterial, "volumetric_heat_coefficient"),
                   (SurfaceExchange, "emitted_flux"),
                   (solver, "RhsBuffers"), (solver, "assemble_rhs"),
                   (solver, "step_forward_euler"))
        counts = {name: 0 for _, name in targets}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for owner, name in targets:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        load_config(document)
        assert counts == {"volumetric_heat_coefficient": 5, "emitted_flux": 1,
                          "RhsBuffers": 1, "assemble_rhs": 3, "step_forward_euler": 1}

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario_preset(3)


class TestRunSimulation:
    def test_ambient_equilibrium_is_fixed_point(self):
        cfg = short_config(
            controller=ControllerConfig(kp=(0.0,) * 5, y_ref=400.0),
            initial=InitialCondition(base=300.0, a0=0.0),
        )
        result = run_simulation(cfg)
        assert not result.diverged
        assert result.final_field == pytest.approx(
            np.full(cfg.grid.n_cells, 300.0), abs=1e-9)

    def test_deterministic_reruns(self):
        cfg = short_config()
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert (a.final_field == b.final_field).all()
        assert (a.inputs == b.inputs).all()
        assert (a.outputs == b.outputs).all()
        assert (a.signal_times == b.signal_times).all()

    def test_inputs_never_negative(self):
        result = run_simulation(short_config(t_final=0.2))
        assert (result.inputs >= 0.0).all()

    def test_signal_and_snapshot_strides(self):
        cfg = short_config(t_final=0.1, signal_stride=7, snapshot_stride=25)
        result = run_simulation(cfg)  # 100 steps
        # steps 0, 7, ..., 98 plus the closing sample at step 100
        assert len(result.signal_times) == 16
        assert result.signal_times[0] == 0.0
        assert result.signal_times[-1] == pytest.approx(0.1)
        assert result.inputs.shape == (16, 5)
        # snapshots at steps 0, 25, 50, 75 plus the final field
        assert [t for t, _ in result.snapshots] == pytest.approx(
            [0.0, 0.025, 0.05, 0.075, 0.1])
        assert (result.snapshots[-1][1] == result.final_field).all()
        # a stride that does not divide the step count still ends on the
        # closing snapshot
        result = run_simulation(short_config(t_final=0.1, snapshot_stride=30))
        assert [t for t, _ in result.snapshots] == pytest.approx(
            [0.0, 0.03, 0.06, 0.09, 0.1])
        assert result.snapshots[-1][1] is result.final_field

    def test_monotone_logged_times(self):
        result = run_simulation(short_config(t_final=0.1))
        assert (np.diff(result.signal_times) > 0).all()

    def test_divergence_flagged_with_partial_logs(self, preset1):
        cfg = dataclasses.replace(preset1, dt=5e-2)
        # dt exceeds the stability advisory: the run diverges, and the
        # library neither warns nor raises on its own
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulation(cfg)
        assert result.diverged
        assert result.divergence_step is not None and result.divergence_step < 200
        assert result.divergence_cell is not None
        assert 0 <= result.divergence_cell < cfg.grid.n_cells
        assert len(result.signal_times) >= 1
        assert len(result.signal_times) <= result.divergence_step + 1

    def test_crossing_theta_cap_diverges_at_first_hot_cell(self):
        # the heaters lift the underside past a cap set just above the start
        cap = 300.5
        cfg = short_config(
            material=dataclasses.replace(scenario_preset(1).material, theta_cap=cap),
            initial=InitialCondition(base=300.0, a0=0.0),
        )
        result = run_simulation(cfg)
        assert result.diverged
        assert 0 < result.divergence_step < cfg.n_steps()
        field = result.final_field
        assert np.isfinite(field).all() and field.min() >= 0
        assert field.max() > cap
        assert result.divergence_cell == np.argmax(field)

    def test_loop_calls_public_solver_functions_once_per_step(self, monkeypatch):
        # the loop must reach the solver through these module names, which
        # is where tracing wrappers are installed
        from heatplate import simulation
        names = ("boundary_fluxes", "assemble_rhs", "step_forward_euler")
        counts = dict.fromkeys(names, 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(simulation, name, counting(name, getattr(simulation, name)))
        cfg = short_config(t_final=0.02)
        run_simulation(cfg)
        assert counts == dict.fromkeys(names, cfg.n_steps())

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("J,K", [(20, 8), (100, 40)])
    def test_loop_matches_its_composition_bit_for_bit(self, which, J, K):
        # At 20x8 a step moves a cell by about 1e-3 K, so a last-bit change of
        # a rate seldom reaches the field; the paper's grid has larger rates.
        cfg = short_config(actuators=scenario_preset(which).actuators,
                           grid=Grid(PlateGeometry(0.30, 0.01), J=J, K=K))
        assert cfg.n_steps() == 50 and cfg.snapshot_stride == 10
        result = run_simulation(cfg)
        assert not result.diverged
        final, inputs, outputs, snapshots = composed_run(cfg)
        assert result.final_field.tobytes() == final.tobytes()
        assert result.inputs.tobytes() == inputs.tobytes()
        assert result.outputs.tobytes() == outputs.tobytes()
        assert [t for t, _ in result.snapshots] == [t for t, _ in snapshots]
        assert [f.tobytes() for _, f in result.snapshots] == [
            f.tobytes() for _, f in snapshots]
        assert len(snapshots) == 6 and not (final == snapshots[0][1]).all()

    def test_config_time_work_stays_out_of_the_step_names(self, monkeypatch):
        # A traced benchmark wraps these names, and its energy check pairs
        # each boundary_fluxes call with the next Euler step; a config-time
        # probe that reached them would pair the wrong states.
        from heatplate import simulation
        names = ("boundary_fluxes", "assemble_rhs", "step_forward_euler",
                 "proportional_law")
        counts = dict.fromkeys(names, 0)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(simulation, name, counting(name, getattr(simulation, name)))
        for which in (1, 2):
            cfg = load_config(dump_config(scenario_preset(which)))
            dataclasses.replace(cfg, dt=5e-4)
        assert counts == dict.fromkeys(names, 0)
        run_simulation(short_config(t_final=0.002))  # and the wrappers are live
        assert counts == dict(dict.fromkeys(names, 2), proportional_law=3)

    def test_loop_steps_in_two_aligned_field_buffers(self, monkeypatch):
        # Each step writes the new field into the array the old field does
        # not use, and the rates into one fixed array: no field-sized
        # result is allocated per step.
        from heatplate import simulation
        addresses = {"assemble_rhs": [], "step_forward_euler": []}

        def recording(name, original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                addresses[name].append(result.ctypes.data)
                return result
            return wrapper

        for name in addresses:
            monkeypatch.setattr(simulation, name, recording(name, getattr(simulation, name)))
        cfg = short_config(t_final=0.02)
        result = run_simulation(cfg)
        rates, fields = addresses["assemble_rhs"], addresses["step_forward_euler"]
        assert len(rates) == len(fields) == cfg.n_steps()
        assert set(rates) == {rates[0]} and rates[0] % 64 == 0
        first, second = fields[:2]
        assert first != second and first % 64 == 0 and second % 64 == 0
        assert fields == [first, second] * (cfg.n_steps() // 2)
        assert result.final_field.ctypes.data == fields[-1]

    def test_banks_built_once_per_config(self, monkeypatch):
        # making a config builds its banks, which validates them; the run
        # reuses them
        from heatplate import load_config, simulation
        calls = []
        original = simulation.build_banks

        def counting(cfg):
            calls.append(cfg)
            return original(cfg)

        monkeypatch.setattr(simulation, "build_banks", counting)
        cfg = load_config('{"grid": {"J": 20, "K": 8}, "time": {"t_final": 0.02}}')
        run_simulation(cfg)
        assert len(calls) == 1
        # a replaced config compares by its fields and builds its own banks
        assert dataclasses.replace(cfg) == cfg
        assert len(calls) == 2
        wider = dataclasses.replace(cfg, grid=Grid(PlateGeometry(0.30, 0.01), J=40, K=8))
        assert len(calls) == 3
        assert wider.banks[0].weight_table.shape == (5, 40)
        assert len(calls) == 3

    def test_a_run_keeps_no_reference_to_its_grid(self, tmp_path):
        # A grid no other test builds: a cache holding an equal grid built
        # earlier would keep that one as its key and mask a leak of this one.
        # Writing the outputs must not keep it either.
        grid = Grid(PlateGeometry(0.30, 0.01), J=43, K=13)
        alive = weakref.ref(grid)
        cfg = short_config(grid=grid, t_final=0.002)
        result = run_simulation(cfg)
        write_run_outputs(result, tmp_path)
        del grid, cfg, result
        gc.collect()
        assert alive() is None

    def test_config_checks_its_banks_when_made(self, preset1):
        # five heater intervals on three columns: interval 1, [0.06, 0.12),
        # holds no cell center (0.05, 0.15, 0.25)
        with pytest.raises(ValueError, match="^actuators.count: 5 actuators on J = 3 "
                                             "columns: at least one covers no cell "
                                             "center$"):
            dataclasses.replace(preset1, grid=Grid(PlateGeometry(0.30, 0.01), J=3, K=8))

    @pytest.mark.parametrize("base,a0,key", [
        (3100.0, 0.0, "base"), (2999.0, -3.0, "a0"), (3001.0, 3.0, "base"),
    ])
    def test_initial_field_must_start_below_theta_cap(self, preset1, base, a0, key):
        with pytest.raises(ValueError, match=rf"^initial\.{key}: .*theta_cap = 3000"):
            dataclasses.replace(preset1, initial=InitialCondition(base=base, a0=a0))

    def test_insulated_constant_material_preserves_mean(self):
        cfg = short_config(
            material=ThermalMaterial(rho=7800.0, c0=330.0, c1=0.0,
                                     lambda0=10.0, lambda1=0.0),
            exchange=SurfaceExchange(h=0.0, emissivity=0.0, theta_amb=300.0),
            controller=ControllerConfig(kp=(0.0,) * 5, y_ref=400.0),
            t_final=0.2,
        )
        result = run_simulation(cfg)
        start = initial_field(cfg.grid, cfg.initial)
        assert result.final_field.mean() == pytest.approx(start.mean(), rel=1e-9)

    def test_channel_count_mismatch_rejected(self, preset1):
        with pytest.raises(ValueError, match="channel|actuators"):
            dataclasses.replace(preset1,
                                controller=ControllerConfig(kp=(1e4,) * 4, y_ref=400.0))


class TestAveragedSignals:
    def test_channel_means(self):
        result = run_simulation(short_config(t_final=0.01))
        times, u_mean, y_mean = averaged_signals(result)
        assert u_mean == pytest.approx(result.inputs.mean(axis=1))
        assert y_mean == pytest.approx(result.outputs.mean(axis=1))
        assert len(times) == len(u_mean) == len(y_mean)

    def test_hand_picked_rows(self):
        result = run_simulation(short_config(t_final=0.01))
        result.inputs = np.array([[2.0, 2.0, 2.0, 2.0, 2.0]])
        result.outputs = np.array([[390.0, 400.0, 410.0, 395.0, 405.0]])
        result.signal_times = np.array([0.0])
        _, u_mean, y_mean = averaged_signals(result)
        assert u_mean == pytest.approx([2.0])
        assert y_mean == pytest.approx([400.0])


class TestTopsideStatistics:
    def synthetic_result(self, row, grid):
        from heatplate import SimulationResult
        return SimulationResult(
            config=short_config(grid=grid),
            final_field=np.tile(row, grid.K),
            snapshots=[],
            signal_times=np.array([0.0]),
            inputs=np.zeros((1, 5)),
            outputs=np.zeros((1, 5)),
        )

    def test_uniform_row(self):
        g = Grid(PlateGeometry(0.3, 0.01), J=100, K=4)
        stats = topside_statistics(self.synthetic_result(np.full(100, 333.0), g))
        assert stats.peak_to_peak == 0.0
        assert stats.mean == pytest.approx(333.0)

    def test_single_mode_row(self):
        g = Grid(PlateGeometry(0.3, 0.01), J=100, K=4)
        x = g.x1_centers()
        row = 350.0 + np.cos(2 * np.pi * 5 * x / 0.3)
        stats = topside_statistics(self.synthetic_result(row, g))
        assert stats.dominant_mode == 5
        # extrema of the sampled cosine: 2*cos(pi/20)
        assert stats.peak_to_peak == pytest.approx(2 * math.cos(math.pi / 20), rel=1e-12)
        assert stats.peak_to_peak == pytest.approx(2.0, abs=0.05)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(dt=0.0),
        dict(t_final=-1.0),
        dict(snapshot_stride=0),
        dict(signal_stride=0),
        dict(t_final=math.inf),
        dict(dt=math.inf),
        dict(t_final=1e-9),
        dict(dt=0.003, t_final=0.0045),
    ])
    def test_rejects_bad_time_settings(self, overrides):
        with pytest.raises(ValueError):
            short_config(**overrides)
