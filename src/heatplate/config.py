"""JSON configuration documents for simulation runs.

Every section is optional; omitted values fall back to the Scenario-1
document.  The two reference scenarios are documents too, parsed like any
other.  Unknown keys are rejected so typos surface instead of silently
running the defaults.  This module checks only JSON types; the range and
cross-field rules belong to the dataclasses, whose errors are reported
under the offending document path, e.g. "grid.J: must be >= 2, got 1".
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import fields

from .control import ControllerConfig
from .devices import DeviceSpec
from .grid import Grid, PlateGeometry
from .material import STEFAN_BOLTZMANN, SurfaceExchange, ThermalMaterial
from .simulation import InitialCondition, SimulationConfig


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


# Document sections in build order, each with the dataclass it builds.  A
# section's keys are that dataclass's field names; a field named after an
# earlier section holds that section's object instead.
_SECTIONS = {
    "geometry": PlateGeometry,
    "grid": Grid,
    "material": ThermalMaterial,
    "exchange": SurfaceExchange,
    "actuators": DeviceSpec,
    "sensors": DeviceSpec,
    "controller": ControllerConfig,
    "initial": InitialCondition,
    "time": SimulationConfig,
}

# Scenario 1 in full, the README's document; scenario 2 sets actuators.M = 30.
_SCENARIO_1 = {
    "geometry": {"L": 0.30, "H": 0.01},
    "grid": {"J": 100, "K": 40},
    "material": {"rho": 7800.0, "c0": 330.0, "c1": 0.4, "lambda0": 10.0,
                 "lambda1": 0.1, "theta_cap": 3000.0},
    "exchange": {"h": 10.0, "emissivity": 0.6, "sigma": STEFAN_BOLTZMANN,
                 "theta_amb": 300.0},
    "actuators": {"count": 5, "m": 1.0, "M": 0.0, "nu": 4.0},
    "sensors": {"count": 5, "m": 1.0, "M": 10.0, "nu": 4.0},
    "controller": {"kp": 10000.0, "y_ref": 400.0, "u_min": 0.0, "u_max": None},
    "initial": {"base": 300.0, "a0": 3.0, "a1": 10.0, "a2": 5.0},
    "time": {"dt": 0.001, "t_final": 10.0, "snapshot_stride": 1000, "signal_stride": 1},
}


def _scenario_document(which: int) -> dict:
    """A fresh copy of reference scenario 1 (nominal) or 2 (realistic)."""
    if which not in (1, 2):
        raise ValueError(f"scenario must be 1 or 2, got {which}")
    doc = {section: dict(values) for section, values in _SCENARIO_1.items()}
    doc["actuators"]["M"] = 0.0 if which == 1 else 30.0
    return doc


def _keyed_fields(cls):
    """The fields a section's keys name: all but those holding a section."""
    return [f for f in fields(cls) if f.init and f.name not in _SECTIONS]


def dump_config(cfg: SimulationConfig) -> str:
    """Serialize a config as a JSON document that reloads equivalently."""
    # The config is the time section's object; the geometry sits on the grid.
    objects = {"time": cfg, "geometry": cfg.grid.geometry}
    doc = {}
    for section, cls in _SECTIONS.items():
        obj = objects[section] if section in objects else getattr(cfg, section)
        doc[section] = {f.name: getattr(obj, f.name) for f in _keyed_fields(cls)}
    if math.isinf(doc["controller"]["u_max"]):  # JSON has no infinity
        doc["controller"]["u_max"] = None
    return json.dumps(doc, indent=2) + "\n"


def _reject_unknown(given: dict, known: dict, prefix: str):
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key")


def _number(value, path, *, integer=False):
    """`value` checked for JSON type, finiteness and integrality."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"{path}: must be finite")
    if integer and value != int(value):
        raise ConfigError(f"{path}: expected an integer")
    return int(value) if integer else float(value)


def _value(path, field, value):
    """The dataclass argument for the document value at `path`."""
    if path == "controller.kp" and isinstance(value, list):  # one gain per channel
        return tuple(_number(gain, path) for gain in value)
    if path == "controller.u_max" and value is None:
        return math.inf
    return _number(value, path, integer=field.type in (int, "int"))


@contextmanager
def _errors_under(section):
    """Re-raise a dataclass's ValueError as a ConfigError on its document path.

    The dataclasses raise ValueError("<field>: <reason>"), and the path is
    "<section>.<field>".  A dotted field, such as "sensors.count" from
    SimulationConfig or "geometry.L" from Grid, is already a path.
    """
    try:
        yield
    except ValueError as exc:
        field, _, reason = str(exc).partition(": ")
        path = field if "." in field else f"{section}.{field}"
        raise ConfigError(f"{path}: {reason}") from exc


def parse_config(document: dict) -> SimulationConfig:
    """Validate a document dict and build the simulation configuration."""
    if not isinstance(document, dict):
        raise ConfigError("top level: expected an object")
    doc = _scenario_document(1)
    for section, values in doc.items():
        given = document.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section}: expected an object")
        _reject_unknown(given, values, f"{section}.")
        values.update(given)
    _reject_unknown(document, doc, "")

    objects = {}
    for section, cls in _SECTIONS.items():
        kwargs = {f.name: objects[f.name] for f in fields(cls) if f.name in _SECTIONS}
        for f in _keyed_fields(cls):
            kwargs[f.name] = _value(f"{section}.{f.name}", f, doc[section][f.name])
        with _errors_under(section):
            objects[section] = cls(**kwargs)
    return objects["time"]


def scenario_preset(which: int) -> SimulationConfig:
    """Reference scenario 1 (nominal, flat heaters) or 2 (realistic, bumps)."""
    return parse_config(_scenario_document(which))


def _decode_document(text: str) -> dict:
    """The JSON document in `text`; a syntax error names its position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(text: str) -> SimulationConfig:
    """Parse and validate a JSON configuration document."""
    return parse_config(_decode_document(text))
