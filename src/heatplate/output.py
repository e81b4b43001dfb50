"""Result serialization: CSV tables and a binary PGM heatmap.

CSV numbers are Python's repr, the shortest decimal form that round-trips
bit-exactly; they are produced for a block of cells (or logged rows) at a
time by numpy, and the tables stream one bounded block at a time.  Files
use LF line endings and UTF-8.
"""

from __future__ import annotations

import re
import shutil
import weakref
from pathlib import Path

import numpy as np

from ._floatrepr import repr_block
from .grid import Grid
from .simulation import SimulationResult, averaged_signals

# Values formatted per block.  Each block's temporaries take a few hundred
# bytes per value, so this bounds the writers' memory whatever the file size.
_BLOCK_VALUES = 2048


def _write_lines(file, fields) -> None:
    """Write one line per element of the fields' common leading shape: the
    fields' text joined by "," and ended by a newline.  Each field is a
    repr_block character matrix whose last axis holds the text."""
    shape = np.broadcast_shapes(*(field.shape[:-1] for field in fields))
    width = sum(field.shape[-1] + 1 for field in fields)
    lines = np.empty((*shape, width), np.uint8)
    start = 0
    for field in fields:
        end = start + field.shape[-1]
        lines[..., start:end] = field
        lines[..., end] = ord(",")
        start = end + 1
    lines[..., -1] = ord("\n")
    file.write(str(lines[lines != 0], "ascii"))


_COORDINATES = weakref.WeakKeyDictionary()


def _coordinate_columns(grid: Grid):
    """x1 and x2 cell-centre text, formatted once per live grid, shaped to broadcast."""
    if grid not in _COORDINATES:
        _COORDINATES[grid] = (repr_block(grid.x1_centers())[None],
                              repr_block(grid.x2_centers())[:, None])
    return _COORDINATES[grid]


def write_field_csv(field_values, grid: Grid, file) -> None:
    """Field table "x1,x2,theta", one row per cell in flat-index order,
    written into an open text file one block of whole grid rows at a time."""
    rows = np.asarray(field_values, dtype=float).reshape(grid.K, grid.J)
    x1, x2 = _coordinate_columns(grid)
    file.write("x1,x2,theta\n")
    step = max(1, _BLOCK_VALUES // grid.J)
    for k in range(0, grid.K, step):
        block = rows[k:k + step]
        theta = repr_block(block).reshape(*block.shape, -1)
        _write_lines(file, [x1, x2[k:k + step], theta])


def write_signals_csv(result: SimulationResult, file) -> None:
    """Signal log with per-channel inputs/outputs plus channel averages,
    written into an open text file one block of logged rows at a time.

    Header "t,u_0..,y_0..,u_avg,y_avg"; one line per logged time.
    """
    times, u_mean, y_mean = averaged_signals(result)
    n_u = result.inputs.shape[1]
    n_y = result.outputs.shape[1]
    header = ["t"]
    header += [f"u_{n}" for n in range(n_u)]
    header += [f"y_{n}" for n in range(n_y)]
    header += ["u_avg", "y_avg"]
    file.write(",".join(header) + "\n")
    step = max(1, _BLOCK_VALUES // len(header))
    for i in range(0, len(times), step):
        rows = slice(i, i + step)
        table = np.column_stack([times[rows], result.inputs[rows],
                                 result.outputs[rows], u_mean[rows], y_mean[rows]])
        chars = repr_block(table).reshape(*table.shape, -1)
        _write_lines(file, [chars[:, n] for n in range(len(header))])


def render_heatmap(field_values, grid: Grid) -> bytes:
    """Binary PGM (P5, maxval 255) of the field, J columns by K rows.

    The topside row k = K-1 comes first so the image sits the way the
    plate does.  Pixels map theta linearly from the field's min/max onto
    0..255, and a uniform field renders mid-gray.  A field with a
    non-finite value has no image and raises ValueError.
    """
    field_values = np.asarray(field_values, dtype=float)
    if not np.isfinite(field_values).all():
        raise ValueError("cannot render a field with non-finite values")
    image = field_values.reshape(grid.K, grid.J)[::-1]
    lo, hi = image.min(), image.max()
    if hi > lo:
        pixels = np.rint(255 * ((image - lo) / (hi - lo))).astype(np.uint8)
    else:
        pixels = np.full_like(image, 128, dtype=np.uint8)
    header = f"P5\n{grid.J} {grid.K}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def write_run_outputs(result: SimulationResult, out_dir, *,
                      render: bool = False) -> list[Path]:
    """Write final_field.csv, snapshot_NNNN.csv, signals.csv and optionally
    heatmap.pgm into out_dir, deleting first any heatmap.pgm or snapshot_NNNN.csv
    (4+ digits) there that this run does not write; returns the written paths.

    The CSV writers stream into the open files.  A snapshot that is the
    final field itself is copied from final_field.csv, not formatted again.
    A diverged run gets no heatmap: its CSVs keep the forensics.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = result.config.grid
    snapshots = [out / f"snapshot_{i:04d}.csv" for i in range(len(result.snapshots))]
    heatmap = out / "heatmap.pgm" if render and not result.diverged else None
    earlier = {path for path in out.iterdir()
               if re.fullmatch(r"snapshot_[0-9]{4,}\.csv|heatmap\.pgm", path.name)}
    for path in earlier - {*snapshots, heatmap}:
        path.unlink()
    written = []

    def write_csv(path, writer, *args):
        with path.open("w", encoding="utf-8", newline="\n") as file:
            writer(*args, file)
        written.append(path)

    write_csv(out / "final_field.csv", write_field_csv, result.final_field, grid)
    for path, (_, snapshot) in zip(snapshots, result.snapshots):
        if snapshot is result.final_field:
            written.append(shutil.copyfile(out / "final_field.csv", path))
        else:
            write_csv(path, write_field_csv, snapshot, grid)
    write_csv(out / "signals.csv", write_signals_csv, result)
    if heatmap:
        heatmap.write_bytes(render_heatmap(result.final_field, grid))
        written.append(heatmap)
    return written
