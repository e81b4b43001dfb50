"""Finite-volume simulator for a 2D heating plate with distributed heaters,
weighted topside sensors and closed-loop proportional control."""

from .config import (ConfigError, dump_config, load_config, parse_config,
                     scenario_preset)
from .control import ControllerConfig, proportional_law
from .devices import ActuatorBank, DeviceSpec, SensorBank
from .grid import Grid, PlateGeometry
from .material import STEFAN_BOLTZMANN, SurfaceExchange, ThermalMaterial
from .output import (render_heatmap, write_field_csv, write_run_outputs,
                     write_signals_csv)
from .simulation import (InitialCondition, SimulationConfig, SimulationResult,
                         TopsideStatistics, averaged_signals, build_banks,
                         initial_field, run_simulation, topside_statistics)
from .solver import (assemble_rhs, boundary_fluxes, stability_limit,
                     step_forward_euler, weighted_rhs_sum, worst_invalid_cell)

__version__ = "0.1.0"

__all__ = [
    "ActuatorBank", "ConfigError", "ControllerConfig", "DeviceSpec", "Grid",
    "InitialCondition", "PlateGeometry", "STEFAN_BOLTZMANN", "SensorBank",
    "SimulationConfig", "SimulationResult", "SurfaceExchange",
    "ThermalMaterial", "TopsideStatistics", "assemble_rhs", "averaged_signals",
    "boundary_fluxes", "build_banks", "dump_config", "initial_field",
    "load_config", "parse_config", "proportional_law", "render_heatmap",
    "run_simulation", "scenario_preset", "stability_limit",
    "step_forward_euler", "topside_statistics", "weighted_rhs_sum",
    "worst_invalid_cell", "write_field_csv", "write_run_outputs",
    "write_signals_csv",
]
