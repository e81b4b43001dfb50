#!/usr/bin/env python3
"""heatplate benchmark: closed-loop runs end to end, and layer by layer.

    python3 heatbench/run.py [--workload reference|fine|snapshots|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One workload runs in this process; `all`
(the default) runs each workload in a fresh process of its own.  Each run
repeats whole rounds of the workload's closed-loop runs (load_config,
run_simulation, write_run_outputs, as `heatplate run` calls them) for about
`--seconds`, reports medians over rounds, checks the written outputs, and
prints every metric with its unit.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 1` the rounds alternate untraced and traced and the per-layer
metrics are reported instead.  Exit status 1 when a check fails.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed, check_energy, check_run, digest  # noqa: E402
from workloads import warmup_document, workload_runs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
RESULTS = HERE / "_results"

WORKLOAD_NAMES = ("reference", "fine", "snapshots")
MIN_ROUNDS = 3          # untraced rounds per run, whatever --seconds says
MIN_PAIRS = 2           # untraced+traced pairs per traced run
SETUP_PER_ROUND = 2     # fresh-interpreter set-up launches after each round

END_TO_END = {  # name -> unit
    "wall_s": "s", "step_us": "us", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "config.load_config_ms": "ms", "devices.build_banks_ms": "ms",
    "grid.stability_limit_us": "us",
    "devices.measure_us": "us", "devices.induced_flux_us": "us",
    "control.law_us": "us", "solver.boundary_fluxes_us": "us",
    "material.emitted_flux_us": "us", "solver.invalid_scan_us": "us",
    "simulation.loop_self_us": "us",
    "solver.assemble_rhs_us": "us", "material.face_conductivity_us": "us",
    "material.heat_coefficient_us": "us", "solver.euler_step_us": "us",
    "solver.rhs_bytes": "B-computed", "solver.rhs_flops": "flop-computed",
    "solver.calls_per_step": "count",
    "output.write_s": "s", "output.field_csv_ms": "ms", "output.signals_csv_ms": "ms",
    "output.file_io_ms": "ms", "output.bytes": "B",
    "src.lines": "lines",
    "trace.step_us": "us", "trace.stage_sum_us": "us",
    "trace.overhead_s": "s", "trace.span_cost_ns": "ns",
}
# Per-step stages: together with the run's set-up calls they partition
# run_simulation's traced time.
STAGES = {
    "devices.measure_us": ("devices.measure",),
    "devices.induced_flux_us": ("devices.induced_flux",),
    "control.law_us": ("control.control_error", "control.proportional_law"),
    "solver.boundary_fluxes_us": ("solver.boundary_fluxes",),
    "material.emitted_flux_us": ("material.emitted_flux",),
    "solver.invalid_scan_us": ("solver.invalid_scan",),
    "simulation.loop_self_us": ("simulation.run_simulation",),
    "solver.assemble_rhs_us": ("solver.assemble_rhs",),
    "material.face_conductivity_us": ("material.face_conductivity",),
    "material.heat_coefficient_us": ("material.heat_coefficient",),
    "solver.euler_step_us": ("solver.euler_step",),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload run, s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_source():
    """Exit 2 unless this checkout holds the heatplate sources."""
    if not (SRC / "heatplate" / "__init__.py").is_file():
        print(f"heatbench: no heatplate package under {SRC}", file=sys.stderr)
        sys.exit(2)


def import_heatplate():
    """Import heatplate from this checkout's src/, or exit 2."""
    require_source()
    sys.path.insert(0, str(SRC))
    import heatplate
    if Path(heatplate.__file__).resolve().parent != (SRC / "heatplate").resolve():
        print(f"heatbench: imported heatplate from {heatplate.__file__}", file=sys.stderr)
        sys.exit(2)


def src_lines() -> int:
    return sum(1 for path in sorted((SRC / "heatplate").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


class Bench:
    """One workload run: warm-up, timed rounds, checks, metrics."""

    def __init__(self, workload: str, seed: int):
        from heatplate import config, output, simulation

        self.config, self.simulation, self.output = config, simulation, output
        self.workload = workload
        self.runs = workload_runs(workload, seed)
        self.texts = [json.dumps(run.document) for run in self.runs]
        self.out = OUT / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.steps = sum(run.n_steps for run in self.runs)

    def one_run(self, text: str, out_dir: Path):
        shutil.rmtree(out_dir, ignore_errors=True)
        c0 = time.process_time()
        t0 = time.perf_counter()
        cfg = self.config.load_config(text)
        t1 = time.perf_counter()
        result = self.simulation.run_simulation(cfg)
        t2 = time.perf_counter()
        self.output.write_run_outputs(result, out_dir)
        t3 = time.perf_counter()
        c3 = time.process_time()
        return result, {"wall_s": t3 - t0, "sim_s": t2 - t1, "write_s": t3 - t2,
                        "cpu_s": c3 - c0}

    def round(self):
        """Every run of the workload once; returns (results, timings, digests)."""
        results, digests = [], []
        totals = {"wall_s": 0.0, "sim_s": 0.0, "write_s": 0.0, "cpu_s": 0.0}
        for run, text in zip(self.runs, self.texts):
            result, times = self.one_run(text, self.out / run.label)
            for key, value in times.items():
                totals[key] += value
            results.append(result)
        for run in self.runs:
            digests.append(digest(self.out / run.label))
        totals["step_us"] = totals["sim_s"] / self.steps * 1e6
        return results, totals, digests

    def warm_up(self):
        for run in self.runs:
            self.one_run(json.dumps(warmup_document(run)), self.out / "warmup")
        shutil.rmtree(self.out / "warmup")

    def setup_seconds(self, repeats: int) -> list[float]:
        """Launch-to-exit times of fresh interpreters doing the set-up calls."""
        doc = self.out / "setup_doc.json"
        doc.write_text(self.texts[0], encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(doc)],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - t0)
        return samples

    def check_outputs(self, results):
        for run, result in zip(self.runs, results):
            check_run(run, self.out / run.label, result)


def measure(bench: Bench, seconds: float) -> dict:
    bench.warm_up()
    rounds, setup = [], []
    first_digests = None
    failed = 0
    start = time.perf_counter()
    while True:
        results = None  # let the previous round's results go before the next
        results, totals, digests = bench.round()
        failed += sum(result.diverged for result in results)
        first_digests = first_digests or digests
        if digests != first_digests:
            raise CheckFailed("outputs differ between rounds of identical inputs")
        rounds.append(totals)
        # Spread over the run, like the rounds, so one slow spell of the
        # host does not set the whole set-up figure.
        setup += bench.setup_seconds(SETUP_PER_ROUND)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.check_outputs(results)
    metrics = {key: statistics.median(r[key] for r in rounds)
               for key in ("wall_s", "step_us", "cpu_s")}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {"metrics": metrics, "attempted": len(rounds) * len(bench.runs),
            "failed": failed, "rounds": f"{len(rounds)} rounds", "note": ""}


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer medians over traced ones."""
    from spans import Tracer, rhs_cost, summarize

    sampler = EnergySampler()
    tracer = Tracer(probes={"solver.boundary_fluxes": sampler.on_fluxes,
                            "solver.euler_step": sampler.on_step})
    span_cost_ns = tracer.span_cost_ns()
    bench.warm_up()
    untraced, untraced_write, traced, layers = [], [], [], []
    residual = 0.0
    first_digests = None
    failed = 0
    start = time.perf_counter()
    while True:
        results = None
        results, totals, digests = bench.round()
        failed += sum(result.diverged for result in results)
        untraced.append(totals["wall_s"])
        untraced_write.append(totals["write_s"])
        if first_digests is None:
            bench.check_outputs(results)
            first_digests = digests
        elif digests != first_digests:
            raise CheckFailed("outputs differ between rounds of identical inputs")
        results = None

        tracer.reset()
        tracer.patch()
        try:
            results, totals, digests, runs_samples = traced_round(bench, sampler)
        finally:
            tracer.restore()
        failed += sum(result.diverged for result in results)
        if digests != first_digests:
            raise CheckFailed("tracing changed the outputs")
        for run, samples in zip(bench.runs, runs_samples):
            residual = max(residual, check_energy(run.document, samples))
        traced.append(totals["wall_s"])
        layers.append(layer_metrics(bench, summarize(tracer), span_cost_ns))
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_PAIRS and elapsed * (1 + 1 / len(traced)) > seconds:
            break
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{bench.workload}.csv")

    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    doc = bench.runs[0].document
    metrics["solver.rhs_bytes"], metrics["solver.rhs_flops"] = rhs_cost(
        doc["grid"]["J"], doc["grid"]["K"])
    metrics["output.bytes"] = sum(p.stat().st_size for run in bench.runs
                                  for p in (bench.out / run.label).iterdir())
    metrics["src.lines"] = src_lines()
    metrics["output.write_s"] = statistics.median(untraced_write)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    return {"metrics": metrics, "attempted": 2 * len(traced) * len(bench.runs),
            "failed": failed, "rounds": f"{len(traced)} untraced+traced pairs",
            "note": (f"; tracing overhead {overhead:+.4f} s on wall_s"
                     f"; worst energy-balance residual {residual:.2e}")}


def traced_round(bench: Bench, sampler):
    results, digests, samples = [], [], []
    totals = {"wall_s": 0.0}
    for run, text in zip(bench.runs, bench.texts):
        sampler.begin(run.n_steps)
        result, times = bench.one_run(text, bench.out / run.label)
        totals["wall_s"] += times["wall_s"]
        results.append(result)
        samples.append(sampler.samples)
    for run in bench.runs:
        digests.append(digest(bench.out / run.label))
    return results, totals, digests, samples


class EnergySampler:
    """Captures (theta_n, u_n, theta_n+1) at a few steps of a traced run."""

    def __init__(self):
        self.begin(0)

    def begin(self, n_steps):
        self.at = {0, n_steps // 3, 2 * n_steps // 3, n_steps - 1}
        self.samples = []
        self._fluxes = self._steps = 0
        self._pending = None

    def on_fluxes(self, args, result):
        if self._fluxes in self.at:
            self._pending = (np.array(args[0], dtype=float), np.array(args[4], dtype=float))
        self._fluxes += 1

    def on_step(self, args, result):
        if self._steps in self.at and self._pending is not None:
            self.samples.append((*self._pending, np.array(result, dtype=float)))
            self._pending = None
        self._steps += 1


def layer_metrics(bench: Bench, summary: dict, span_cost_ns: float) -> dict:
    self_ns, calls = summary["self_ns"], summary["calls"]
    steps = bench.steps

    def per_call(name, scale):
        n = calls.get(name, 0)
        return self_ns.get(name, 0.0) / n / scale if n else 0.0

    def total(name, scale):
        return self_ns.get(name, 0.0) / scale

    metrics = {
        "config.load_config_ms": per_call("config.load_config", 1e6),
        "devices.build_banks_ms": per_call("devices.build_banks", 1e6),
        "grid.stability_limit_us": per_call("grid.stability_limit", 1e3),
    }
    for metric, names in STAGES.items():
        metrics[metric] = sum(self_ns.get(n, 0.0) for n in names) / steps / 1e3
    metrics["solver.calls_per_step"] = summary["solver_calls"] / steps
    metrics["output.field_csv_ms"] = total("output.field_csv", 1e6)
    metrics["output.signals_csv_ms"] = total("output.signals_csv", 1e6)
    metrics["output.file_io_ms"] = total("output.write_run_outputs", 1e6)
    metrics["trace.step_us"] = summary["run_ns"] / steps / 1e3
    metrics["trace.stage_sum_us"] = sum(metrics[m] for m in STAGES)
    metrics["trace.span_cost_ns"] = span_cost_ns
    # The stage self times partition run_simulation apart from its set-up
    # calls; a gap larger than the tracer's own cost means spans are lost.
    loop_spans = sum(calls.get(n, 0) for names in STAGES.values() for n in names)
    gap = metrics["trace.step_us"] - metrics["trace.stage_sum_us"]
    allowed = span_cost_ns * loop_spans / steps / 1e3
    if not 0 <= gap <= allowed:
        raise CheckFailed(f"stage self times miss {gap:.3f} us/step of the traced step "
                    f"(tracing overhead {allowed:.3f} us/step)")
    return metrics


def run_one(args) -> int:
    import_heatplate()
    bench = Bench(args.workload, args.seed)
    units = PER_LAYER if args.trace else END_TO_END
    correct = True
    try:
        outcome = (measure_traced if args.trace else measure)(bench, args.seconds)
    except CheckFailed as exc:
        print(f"heatbench: check failed: {exc}", file=sys.stderr)
        correct = False
        outcome = {"metrics": {}, "attempted": len(bench.runs), "failed": 0,
                   "rounds": "no complete rounds", "note": ""}
    metrics = {name: outcome["metrics"][name] for name in units if name in outcome["metrics"]}
    print(f"{args.workload} seed {args.seed}: {outcome['rounds']}, "
          f"{outcome['attempted']} runs attempted, {outcome['failed']} failed, "
          f"checks {'passed' if correct else 'FAILED'}{outcome['note']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    result = {"correct": correct, "attempted": outcome["attempted"],
              "failed": outcome["failed"],
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, seed=args.seed), indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except json.JSONDecodeError:
            child = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if proc.returncode != 0 or not child["correct"]:
            status = 1
        combined["correct"] &= child["correct"] and proc.returncode == 0
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for name, entry in child["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        require_source()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
