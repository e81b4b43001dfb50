"""Set-up work of one CLI run, for timing from interpreter launch to exit.

Usage: python3 setup_probe.py CONFIG.json   (with heatplate importable)

Imports heatplate and makes the calls a run makes before its first step:
load_config, build_banks, initial_field and stability_limit.
"""

import sys
from pathlib import Path

import heatplate as hp

cfg = hp.load_config(Path(sys.argv[1]).read_text(encoding="utf-8"))
hp.build_banks(cfg)
hp.initial_field(cfg.grid, cfg.initial)
hp.stability_limit(cfg.grid, cfg.material, cfg.initial.base)
