"""Correctness checks on a run's written outputs, computed apart from heatplate.

Every law used here (device weights, emission, heat capacity, initial
condition, controller) is re-implemented from the configuration document,
so a check never compares the program against itself.  Outputs are read
back from disk.  No stored copy of an earlier output serves as reference.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

FIELD_HEADER = "x1,x2,theta"


class CheckFailed(AssertionError):
    """A property the outputs must have does not hold."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- independent re-implementations of the model's laws --------------------

def centers(doc):
    """Cell-centre coordinates (j+1/2)*dx1 and (k+1/2)*dx2."""
    L, H = doc["geometry"]["L"], doc["geometry"]["H"]
    J, K = doc["grid"]["J"], doc["grid"]["K"]
    return (np.arange(J) + 0.5) * (L / J), (np.arange(K) + 0.5) * (H / K)


def device_weights(doc, section):
    """(count, J) weights m*exp(-|M(x-c)|^nu) on equal half-open intervals."""
    spec = doc[section]
    L = doc["geometry"]["L"]
    x1, _ = centers(doc)
    n = spec["count"]
    table = np.zeros((n, len(x1)))
    for i in range(n):
        lo, hi = i * L / n, (i + 1) * L / n
        inside = (x1 >= lo) & (x1 < hi)
        bump = spec["m"] * np.exp(-np.abs(spec["M"] * (x1 - (lo + hi) / 2)) ** spec["nu"])
        table[i] = np.where(inside, bump, 0.0)
    return table


def emission(doc, theta):
    ex = doc["exchange"]
    amb = ex["theta_amb"]
    return (-ex["h"] * (theta - amb)
            - ex["emissivity"] * ex["sigma"] * (theta**4 - amb**4))


def rho_c(doc, theta):
    mat = doc["material"]
    return mat["rho"] * (mat["c0"] + mat["c1"] * theta)


def initial_theta(doc):
    ic = doc["initial"]
    L, H = doc["geometry"]["L"], doc["geometry"]["H"]
    x1, x2 = centers(doc)
    return ic["base"] + ic["a0"] * np.outer(np.cos(2 * np.pi * ic["a2"] * x2 / H),
                                            np.cos(2 * np.pi * ic["a1"] * x1 / L))


def dominant_mode(row):
    spectrum = np.abs(np.fft.rfft(row - row.mean()))
    return 1 + int(np.argmax(spectrum[1:]))


def boundary_power(doc, theta, u):
    """Heating power through the four boundaries, W per unit depth.

    Underside: heater flux sum_n w_n(x) u_n; the other three sides emit at
    their cell-centre temperatures.  Also returns the sum of magnitudes
    of the terms, the scale against which rounding is judged.
    """
    L, H = doc["geometry"]["L"], doc["geometry"]["H"]
    J, K = doc["grid"]["J"], doc["grid"]["K"]
    dx1, dx2 = L / J, H / K
    T = theta.reshape(K, J)
    heater = device_weights(doc, "actuators").T @ u
    terms = [dx2 * emission(doc, T[:, 0]), dx2 * emission(doc, T[:, -1]),
             dx1 * emission(doc, T[-1, :]), dx1 * heater]
    return (sum(float(t.sum()) for t in terms),
            sum(float(np.abs(t).sum()) for t in terms))


# --- output checks ----------------------------------------------------------

def expected_files(n_steps, snapshot_stride):
    n_snap = -(-n_steps // snapshot_stride) + 1  # strided ones plus the final
    return {"final_field.csv", "signals.csv"} | {
        f"snapshot_{i:04d}.csv" for i in range(n_snap)}


def digest(out_dir: Path) -> str:
    h = hashlib.sha1()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def read_field(path: Path, doc, label):
    """Parse a field CSV; check its form, coordinates and canonical numbers."""
    J, K = doc["grid"]["J"], doc["grid"]["K"]
    text = path.read_text(encoding="utf-8")
    _require(text.endswith("\n"), f"{label}: no final newline")
    lines = text[:-1].split("\n")
    _require(lines[0] == FIELD_HEADER, f"{label}: header {lines[0]!r}")
    _require(len(lines) == J * K + 1, f"{label}: {len(lines) - 1} rows, want {J * K}")
    tokens = ",".join(lines[1:]).split(",")
    _require(len(tokens) == 3 * J * K, f"{label}: not three columns per row")
    values = np.fromiter(map(float, tokens), float, len(tokens)).reshape(-1, 3)
    theta_tokens = tokens[2::3]
    _require(list(map(repr, values[:, 2].tolist())) == theta_tokens,
             f"{label}: theta not in shortest round-trip form")
    x1, x2 = centers(doc)
    want = np.column_stack([np.tile(x1, K), np.repeat(x2, J)])
    _require(np.allclose(values[:, :2], want, rtol=4e-16, atol=0.0),
             f"{label}: coordinates differ from ((j+1/2)dx1, (k+1/2)dx2)")
    return values[:, 2]


def check_run(run, out_dir: Path, result) -> None:
    """All output checks for one finished run; raises CheckFailed."""
    doc, n = run.document, run.n_steps
    label = run.label
    t = doc["time"]
    J, K = doc["grid"]["J"], doc["grid"]["K"]
    _require(not result.diverged, f"{label}: diverged at step {result.divergence_step}")

    names = {p.name for p in out_dir.iterdir()}
    want = expected_files(n, t["snapshot_stride"])
    _require(names == want, f"{label}: files {sorted(names ^ want)[:4]} differ from the strides")

    # Field files: form, bit-exact round trip against the in-memory result.
    snaps = sorted(name for name in names if name.startswith("snapshot_"))
    snap_steps = list(range(0, n, t["snapshot_stride"])) + [n]
    _require(len(result.snapshots) == len(snaps), f"{label}: snapshot count")
    fields = {}
    for name, step, (_, in_memory) in zip(snaps, snap_steps, result.snapshots):
        theta = read_field(out_dir / name, doc, f"{label}/{name}")
        _require(np.array_equal(theta, in_memory), f"{label}/{name}: does not round-trip")
        fields[step] = theta
    final = read_field(out_dir / "final_field.csv", doc, f"{label}/final_field.csv")
    _require(np.array_equal(final, result.final_field), f"{label}/final_field.csv: does not round-trip")
    _require(np.array_equal(final, fields[n]), f"{label}: final snapshot differs from final field")
    _require(np.allclose(fields[0], initial_theta(doc).reshape(-1), rtol=0.0, atol=1e-9),
             f"{label}: snapshot_0000 is not the initial condition")

    # Signals: row count, times, controller law, sensor readings.
    lines = (out_dir / "signals.csv").read_text(encoding="utf-8").rstrip("\n").split("\n")
    ch = doc["actuators"]["count"]
    header = ["t"] + [f"u_{i}" for i in range(ch)] + [f"y_{i}" for i in range(ch)] + ["u_avg", "y_avg"]
    _require(lines[0] == ",".join(header), f"{label}: signals header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    steps = list(range(0, n, t["signal_stride"])) + [n]
    _require(rows.shape == (len(steps), len(header)),
             f"{label}: signals shape {rows.shape}, want {(len(steps), len(header))}")
    _require(np.allclose(rows[:, 0], np.array(steps) * t["dt"], rtol=1e-12, atol=0.0),
             f"{label}: signal times are not step*dt")
    u, y = rows[:, 1:1 + ch], rows[:, 1 + ch:1 + 2 * ch]
    ctrl = doc["controller"]
    kp = np.array(ctrl["kp"], dtype=float)
    law = kp * np.maximum(ctrl["y_ref"] - y, 0.0)
    _require(np.allclose(u, law, rtol=1e-12, atol=1e-9 * kp.max()),
             f"{label}: a logged input breaks u = kp*max(y_ref - y, 0)")
    _require(np.allclose(rows[:, -2], u.mean(axis=1), rtol=1e-12, atol=0.0)
             and np.allclose(rows[:, -1], y.mean(axis=1), rtol=1e-12, atol=0.0),
             f"{label}: u_avg/y_avg are not the channel means")

    g = device_weights(doc, "sensors")
    row_of_step = {s: i for i, s in enumerate(steps)}
    for step, theta in fields.items():
        if step not in row_of_step:
            continue
        top = theta[(K - 1) * J:]
        reading = y[row_of_step[step]]
        for i in range(ch):
            part = top[g[i] > 0]
            _require(part.min() - 1e-9 <= reading[i] <= part.max() + 1e-9,
                     f"{label}: y_{i} at step {step} outside its topside range")
        _require(np.allclose(reading, (g @ top) / g.sum(axis=1), rtol=0.0, atol=1e-9),
                 f"{label}: readings at step {step} are not the weighted topside means")

    # Scenario-level properties of the closed loop.
    if "y_avg_near" in run.expect:
        gap = abs(y[-1].mean() - ctrl["y_ref"])
        _require(gap <= run.expect["y_avg_near"],
                 f"{label}: y_avg(t_final) is {gap:.3f} K from y_ref")
    if "topside_mode" in run.expect:
        mode = dominant_mode(final[(K - 1) * J:])
        _require(mode == run.expect["topside_mode"],
                 f"{label}: topside mode {mode}, want {run.expect['topside_mode']}")


def check_energy(doc, samples) -> float:
    """Discrete energy balance sum rho*c(theta_n)(theta_n+1 - theta_n)dA = dt*P.

    `samples` holds (theta_n, u_n, theta_n+1) at sampled steps.  Returns
    the worst residual relative to the magnitude of the terms.
    """
    L, H = doc["geometry"]["L"], doc["geometry"]["H"]
    J, K = doc["grid"]["J"], doc["grid"]["K"]
    dA = (L / J) * (H / K)
    dt = doc["time"]["dt"]
    _require(samples, "no energy-balance samples were taken")
    worst = 0.0
    for theta, u, theta_next in samples:
        stored = rho_c(doc, theta) * (theta_next - theta) * dA
        power, scale = boundary_power(doc, theta, u)
        rel = abs(float(stored.sum()) - dt * power) / (dt * scale + float(np.abs(stored).sum()))
        worst = max(worst, rel)
    _require(worst <= 1e-9, f"energy balance residual {worst:.3e} of the term scale")
    return worst
