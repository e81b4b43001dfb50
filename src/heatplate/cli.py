"""Command-line front end: run scenarios or configs, check configs.

Exit codes: 0 on success, 1 when a run diverges, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import (ConfigError, _decode_document, _scenario_document,
                     parse_config)
from .output import write_run_outputs
from .simulation import averaged_signals, run_simulation, topside_statistics


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        j_text, k_text = text.lower().split("x")
        return int(j_text), int(k_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected JxK, e.g. 100x40, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatplate",
        description="Finite-volume heating-plate simulator with closed-loop "
                    "proportional control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--scenario", type=int, choices=(1, 2),
                            help="built-in test scenario")
        source.add_argument("--config", type=Path, metavar="PATH",
                            help="JSON configuration file")

    run = sub.add_parser("run", help="run a simulation and write its outputs")
    add_source(run)
    run.add_argument("--out", type=Path, required=True, metavar="DIR",
                     help="output directory for CSV/PGM files")
    run.add_argument("--grid", type=_parse_grid, metavar="JxK",
                     help="override the cell counts")
    run.add_argument("--dt", type=float, help="override the time step, s")
    run.add_argument("--t-final", type=float, help="override the horizon, s")
    run.add_argument("--render", action="store_true",
                     help="also write a heatmap.pgm of the final field")

    check = sub.add_parser("check", help="validate a config and report the "
                                         "explicit stability advisory")
    add_source(check)

    sub.add_parser("version", help="print the package version")
    return parser


def _load(args) -> dict:
    if args.scenario is not None:
        return _scenario_document(args.scenario)
    try:
        text = args.config.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc.strerror}") from exc
    return _decode_document(text)


def _override(doc, section: str, key: str, value):
    """Set doc[section][key]; a malformed document is left to parse_config."""
    if isinstance(doc, dict) and isinstance(doc.setdefault(section, {}), dict):
        doc[section][key] = value


def _advisory(cfg) -> tuple[str, bool]:
    """The explicit stability advisory line for cfg, and whether dt keeps to it."""
    limit = cfg.advisory_dt
    verdict = "is OK" if cfg.dt <= limit else "EXCEEDS the advisory limit"
    return (f"explicit stability advisory at {cfg.initial.base} K: dt <= "
            f"{limit:.6e} s; configured dt = {cfg.dt} s {verdict}"), cfg.dt <= limit


def _cmd_run(args) -> int:
    # Overrides edit the config document, so they pass the same validation
    # as a JSON file and their errors name the same paths.
    doc = _load(args)
    if args.grid is not None:
        _override(doc, "grid", "J", args.grid[0])
        _override(doc, "grid", "K", args.grid[1])
    if args.dt is not None:
        _override(doc, "time", "dt", args.dt)
    if args.t_final is not None:
        _override(doc, "time", "t_final", args.t_final)
    cfg = parse_config(doc)
    advisory, within = _advisory(cfg)
    if not within:
        print(advisory, file=sys.stderr)
    # Made before the run, so an unusable --out fails before any step.
    args.out.mkdir(parents=True, exist_ok=True)
    result = run_simulation(cfg)
    written = write_run_outputs(result, args.out, render=args.render)
    print(f"wrote {len(written)} files to {args.out}")
    if result.diverged:
        t = (result.divergence_step + 1) * cfg.dt  # the end of the failed step
        j, k = cfg.grid.cell_from_flat(result.divergence_cell)
        theta = result.final_field[result.divergence_cell]
        print(f"DIVERGED at step {result.divergence_step} (t = {t:.6g} s), "
              f"cell (j, k) = ({j}, {k}), theta = {theta:.6g} K", file=sys.stderr)
        return 1
    _, _, y_mean = averaged_signals(result)
    stats = topside_statistics(result)
    print(f"y_avg(t_final) = {y_mean[-1]:.4f} K (reference {cfg.controller.y_ref} K)")
    print(f"topside: mean = {stats.mean:.4f} K, peak-to-peak = "
          f"{stats.peak_to_peak:.4f} K, dominant mode = {stats.dominant_mode}")
    return 0


def _cmd_check(args) -> int:
    cfg = parse_config(_load(args))
    print("config OK: "
          f"grid {cfg.grid.J}x{cfg.grid.K}, {cfg.n_steps()} steps of dt = {cfg.dt} s")
    print(_advisory(cfg)[0])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)

    if args.command == "version":
        print(f"heatplate {__version__}")
        return 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except ValueError as exc:
        # ConfigError names the document path of the rejected value
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("config error: the configuration is too large to allocate",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
