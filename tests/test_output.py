import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from heatplate import (Grid, InitialCondition, PlateGeometry, averaged_signals,
                       output, render_heatmap, run_simulation, scenario_preset,
                       write_field_csv, write_run_outputs, write_signals_csv)

from test_simulation import short_config


def field_text(field_values, grid):
    """What write_field_csv streams, collected in memory."""
    buffer = io.StringIO()
    write_field_csv(field_values, grid, buffer)
    return buffer.getvalue()


def signals_text(result):
    """What write_signals_csv streams, collected in memory."""
    buffer = io.StringIO()
    write_signals_csv(result, buffer)
    return buffer.getvalue()


def per_cell_field_csv(field_values, grid):
    """Reference writer: one f-string per cell."""
    lines = ["x1,x2,theta"]
    for k, x2 in enumerate(grid.x2_centers().tolist()):
        for j, x1 in enumerate(grid.x1_centers().tolist()):
            lines.append(f"{x1!r},{x2!r},{float(field_values[k * grid.J + j])!r}")
    return "\n".join(lines) + "\n"


def per_cell_signals_csv(result):
    """Reference writer: repr(float(v)) per numpy scalar."""
    times, u_mean, y_mean = averaged_signals(result)
    n_u, n_y = result.inputs.shape[1], result.outputs.shape[1]
    header = (["t"] + [f"u_{n}" for n in range(n_u)]
              + [f"y_{n}" for n in range(n_y)] + ["u_avg", "y_avg"])
    lines = [",".join(header)]
    for i, t in enumerate(times):
        cells = [repr(float(t))]
        cells += [repr(float(v)) for v in result.inputs[i]]
        cells += [repr(float(v)) for v in result.outputs[i]]
        cells += [repr(float(u_mean[i])), repr(float(y_mean[i]))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestByteIdenticalWriters:
    def test_random_field(self):
        g = Grid(PlateGeometry(0.3, 0.01), J=37, K=11)
        field = np.random.default_rng(4).uniform(0.0, 3000.0, g.n_cells)
        assert field_text(field, g) == per_cell_field_csv(field, g)

    def test_short_run(self):
        result = run_simulation(short_config(t_final=0.03, snapshot_stride=10))
        grid = result.config.grid
        for _, snapshot in result.snapshots:
            assert field_text(snapshot, grid) == per_cell_field_csv(snapshot, grid)
        assert signals_text(result) == per_cell_signals_csv(result)


@pytest.fixture
def unit_grid():
    return Grid(PlateGeometry(1.0, 1.0), J=2, K=2)


class TestFieldCsv:
    def test_small_uniform_field(self, unit_grid):
        text = field_text(np.full(4, 300.0), unit_grid)
        lines = text.strip().split("\n")
        assert lines[0] == "x1,x2,theta"
        assert len(lines) == 5
        coords = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert coords == {("0.25", "0.25"), ("0.75", "0.25"),
                          ("0.25", "0.75"), ("0.75", "0.75")}
        assert all(line.endswith(",300.0") for line in lines[1:])

    def test_row_count_matches_cells(self, grid):
        text = field_text(np.full(grid.n_cells, 300.0), grid)
        assert len(text.strip().split("\n")) == grid.n_cells + 1

    def test_flat_index_order(self, unit_grid):
        field = np.array([1.0, 2.0, 3.0, 4.0])
        thetas = [line.split(",")[2]
                  for line in field_text(field, unit_grid).strip().split("\n")[1:]]
        assert thetas == ["1.0", "2.0", "3.0", "4.0"]

    def test_round_trip_is_bit_exact(self, grid):
        rng = np.random.default_rng(2)
        field = rng.uniform(250.0, 500.0, grid.n_cells)
        recovered = np.loadtxt(io.StringIO(field_text(field, grid)),
                               delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert (recovered == field).all()


class TestSignalsCsv:
    def test_header_and_single_row(self):
        result = run_simulation(short_config(t_final=0.001))
        result.signal_times = np.array([0.0])
        result.inputs = np.ones((1, 5))
        result.outputs = np.full((1, 5), 400.0)
        lines = signals_text(result).strip().split("\n")
        assert lines[0] == "t,u_0,u_1,u_2,u_3,u_4,y_0,y_1,y_2,y_3,y_4,u_avg,y_avg"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "0.0"
        assert cells[-2:] == ["1.0", "400.0"]

    def test_row_per_logged_step(self):
        result = run_simulation(short_config(t_final=0.05, signal_stride=10))
        lines = signals_text(result).strip().split("\n")
        # steps 0, 10, 20, 30, 40 plus the closing sample
        assert len(lines) == 1 + 6

    def test_averages_match_channel_means(self):
        result = run_simulation(short_config(t_final=0.01))
        lines = signals_text(result).strip().split("\n")
        for i, line in enumerate(lines[1:]):
            cells = [float(v) for v in line.split(",")]
            assert cells[11] == pytest.approx(result.inputs[i].mean(), rel=1e-12)
            assert cells[12] == pytest.approx(result.outputs[i].mean(), rel=1e-12)


class TestHeatmap:
    def header_and_pixels(self, blob, grid):
        head, rest = blob.split(b"\n", 1)
        dims, rest = rest.split(b"\n", 1)
        maxval, pixels = rest.split(b"\n", 1)
        return head, dims, maxval, np.frombuffer(pixels, dtype=np.uint8)

    def test_format_and_dimensions(self, grid):
        blob = render_heatmap(np.full(grid.n_cells, 300.0), grid)
        head, dims, maxval, pixels = self.header_and_pixels(blob, grid)
        assert head == b"P5"
        assert dims == b"100 40"
        assert maxval == b"255"
        assert pixels.size == grid.n_cells

    def test_midrange_is_midgray(self, unit_grid):
        # 300 K sits halfway between the field's 250 K and 350 K
        blob = render_heatmap(np.array([300.0, 250.0, 350.0, 300.0]), unit_grid)
        *_, pixels = self.header_and_pixels(blob, unit_grid)
        assert pixels.reshape(2, 2).tolist() == [[255, 128], [128, 0]]

    def test_lower_bound_is_black(self, unit_grid):
        blob = render_heatmap(np.array([250.0, 250.0, 250.0, 350.0]), unit_grid)
        *_, pixels = self.header_and_pixels(blob, unit_grid)
        assert pixels.tolist() == [0, 255, 0, 0]

    def test_column_extremes_and_row_order(self, unit_grid):
        # columns hold the field's 300/400 extremes; the topside row is
        # written first
        field = np.array([300.0, 400.0, 300.0, 400.0])
        blob = render_heatmap(field, unit_grid)
        *_, pixels = self.header_and_pixels(blob, unit_grid)
        assert pixels.reshape(2, 2).tolist() == [[0, 255], [0, 255]]
        # make the topside row distinct to pin the order
        field = np.array([300.0, 300.0, 400.0, 400.0])
        *_, pixels = self.header_and_pixels(
            render_heatmap(field, unit_grid), unit_grid)
        assert pixels.reshape(2, 2).tolist() == [[255, 255], [0, 0]]

    def test_auto_range_uses_field_extremes(self, unit_grid):
        field = np.array([300.0, 400.0, 300.0, 400.0])
        *_, pixels = self.header_and_pixels(
            render_heatmap(field, unit_grid), unit_grid)
        assert set(pixels) == {0, 255}

    def test_degenerate_auto_range_is_midgray(self, unit_grid):
        *_, pixels = self.header_and_pixels(
            render_heatmap(np.full(4, 300.0), unit_grid), unit_grid)
        assert (pixels == 128).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_field(self, unit_grid, bad):
        with pytest.raises(ValueError, match="non-finite"):
            render_heatmap(np.array([300.0, bad, 310.0, 320.0]), unit_grid)


class TestRunOutputs:
    def test_writes_all_files(self, tmp_path):
        result = run_simulation(short_config(t_final=0.05, snapshot_stride=20))
        written = write_run_outputs(result, tmp_path, render=True)
        names = sorted(p.name for p in written)
        assert names == ["final_field.csv", "heatmap.pgm", "signals.csv",
                         "snapshot_0000.csv", "snapshot_0001.csv",
                         "snapshot_0002.csv", "snapshot_0003.csv"]
        final = np.loadtxt(tmp_path / "final_field.csv",
                           delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert (final == result.final_field).all()
        # the last snapshot equals the final field
        last = np.loadtxt(tmp_path / "snapshot_0003.csv",
                          delimiter=",", skiprows=1, usecols=2, ndmin=1)
        assert (last == result.final_field).all()

    def test_closing_snapshot_is_copied_not_formatted(self, tmp_path, monkeypatch):
        result = run_simulation(short_config(t_final=0.05, snapshot_stride=20))
        assert result.snapshots[-1][1] is result.final_field
        calls = []
        original = output.write_field_csv

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(output, "write_field_csv", counting)
        write_run_outputs(result, tmp_path)
        # final field plus the snapshots, less the closing one
        assert len(calls) == len(result.snapshots)
        grid = result.config.grid
        final = (tmp_path / "final_field.csv").read_bytes()
        assert final == per_cell_field_csv(result.final_field, grid).encode()
        assert (tmp_path / "snapshot_0003.csv").read_bytes() == final

    def test_diverged_run_gets_no_heatmap(self, tmp_path):
        result = capped_run(signal_stride=3, snapshot_stride=2)
        assert result.diverged
        written = write_run_outputs(result, tmp_path, render=True)
        assert not (tmp_path / "heatmap.pgm").exists()
        assert tmp_path / "final_field.csv" in written

    def test_reused_directory_keeps_no_earlier_snapshot_or_heatmap(self, tmp_path):
        # A diverged run into the directory of a rendered one with more
        # snapshots: the earlier heatmap and surplus snapshots go, files
        # that are not output names stay.
        first = run_simulation(short_config(t_final=0.004, snapshot_stride=1))
        assert len(first.snapshots) == 5
        write_run_outputs(first, tmp_path, render=True)
        notes = [tmp_path / "notes.txt", tmp_path / "snapshot_notes.csv"]
        for path in notes:
            path.write_text("kept\n")
        second = capped_run(snapshot_stride=2)
        assert second.diverged and len(second.snapshots) == 2
        written = write_run_outputs(second, tmp_path, render=True)
        assert sorted(tmp_path.iterdir()) == sorted([*written, *notes])


def capped_run(**overrides):
    """A short run whose heaters push the underside past a low theta_cap."""
    return run_simulation(short_config(
        material=dataclasses.replace(scenario_preset(1).material, theta_cap=300.5),
        initial=InitialCondition(base=300.0, a0=0.0), **overrides))


class TestStreamedFiles:
    @pytest.mark.parametrize("make_result", [
        lambda: run_simulation(short_config(t_final=0.05, snapshot_stride=20)),
        lambda: run_simulation(short_config(t_final=0.01, signal_stride=3,
                                            snapshot_stride=4)),
        lambda: capped_run(signal_stride=3, snapshot_stride=2),
    ], ids=["whole-run", "stride-3-of-10", "diverged"])
    def test_files_equal_writer_and_reference_text(self, tmp_path, make_result):
        result = make_result()
        grid = result.config.grid
        write_run_outputs(result, tmp_path)
        fields = [("final_field.csv", result.final_field)]
        fields += [(f"snapshot_{i:04d}.csv", snapshot)
                   for i, (_, snapshot) in enumerate(result.snapshots)]
        for name, field in fields:
            on_disk = (tmp_path / name).read_bytes()
            assert on_disk == field_text(field, grid).encode()
            assert on_disk == per_cell_field_csv(field, grid).encode()
        on_disk = (tmp_path / "signals.csv").read_bytes()
        assert on_disk == signals_text(result).encode()
        assert on_disk == per_cell_signals_csv(result).encode()

    def test_stride_that_does_not_divide_the_steps(self):
        result = run_simulation(short_config(t_final=0.01, signal_stride=3))
        dt = result.config.dt
        # steps 0, 3, 6, 9 plus the closing sample at step 10
        assert result.signal_times.tolist() == [s * dt for s in (0, 3, 6, 9, 10)]
        assert result.inputs.shape == result.outputs.shape == (5, 5)

    def test_diverged_logs_hold_only_logged_rows(self):
        result = capped_run(signal_stride=3)
        assert result.diverged
        rows = len(range(0, result.divergence_step + 1, 3))
        assert len(result.signal_times) == rows
        assert result.inputs.shape == result.outputs.shape == (rows, 5)
        assert np.isfinite(result.inputs).all() and np.isfinite(result.outputs).all()

    def test_writing_memory_does_not_grow_with_file_size(self, tmp_path):
        cfg = short_config(grid=Grid(PlateGeometry(0.30, 0.01), J=400, K=160),
                           dt=1e-4, t_final=1e-4)
        result = run_simulation(cfg)
        tracemalloc.start()
        try:
            write_run_outputs(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "final_field.csv").stat().st_size
        assert size > 2_000_000
        assert peak < size / 4

    def test_signals_memory_does_not_grow_with_log_length(self, tmp_path):
        result = run_simulation(short_config(t_final=0.001))
        rows = 50_000
        rng = np.random.default_rng(5)
        result.signal_times = np.arange(rows) * 1e-3
        result.inputs = rng.uniform(0.0, 3e5, (rows, 5))
        result.outputs = rng.uniform(300.0, 420.0, (rows, 5))
        path = tmp_path / "signals.csv"
        with path.open("w", encoding="utf-8", newline="\n") as file:
            tracemalloc.start()
            try:
                write_signals_csv(result, file)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert path.read_bytes() == per_cell_signals_csv(result).encode()
        assert peak < path.stat().st_size / 4
