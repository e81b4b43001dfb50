"""JSON configuration documents for simulation runs.

Every section is optional; omitted values fall back to the Scenario-1
preset.  Unknown keys are rejected so typos surface instead of silently
running the defaults.  This module checks only JSON types; the range and
cross-field rules belong to the dataclasses, whose errors are reported
under the offending document path, e.g. "grid.J: must be >= 2, got 1".
"""

from __future__ import annotations

import json
import math

from .control import ControllerConfig
from .devices import DeviceSpec
from .grid import Grid, PlateGeometry
from .material import SurfaceExchange, ThermalMaterial
from .simulation import InitialCondition, SimulationConfig, scenario_preset


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


def config_to_document(cfg: SimulationConfig) -> dict:
    """Plain-dict document for a config; inverse of parse_config."""
    ctrl = cfg.controller
    kp = list(ctrl.kp)
    return {
        "geometry": {"L": cfg.grid.geometry.length, "H": cfg.grid.geometry.height},
        "grid": {"J": cfg.grid.J, "K": cfg.grid.K},
        "material": {"rho": cfg.material.rho, "c0": cfg.material.c0,
                     "c1": cfg.material.c1, "lambda0": cfg.material.lambda0,
                     "lambda1": cfg.material.lambda1,
                     "theta_cap": cfg.material.theta_cap},
        "exchange": {"h": cfg.exchange.h, "emissivity": cfg.exchange.emissivity,
                     "sigma": cfg.exchange.sigma, "theta_amb": cfg.exchange.theta_amb},
        "actuators": {"count": cfg.actuators.count, "m": cfg.actuators.m,
                      "M": cfg.actuators.M, "nu": cfg.actuators.nu},
        "sensors": {"count": cfg.sensors.count, "m": cfg.sensors.m,
                    "M": cfg.sensors.M, "nu": cfg.sensors.nu},
        "controller": {"kp": kp[0] if len(set(kp)) == 1 else kp,
                       "y_ref": ctrl.y_ref, "u_min": ctrl.u_min,
                       "u_max": None if math.isinf(ctrl.u_max) else ctrl.u_max},
        "initial": {"base": cfg.initial.base, "a0": cfg.initial.a0,
                    "a1": cfg.initial.a1, "a2": cfg.initial.a2},
        "time": {"dt": cfg.dt, "t_final": cfg.t_final,
                 "snapshot_stride": cfg.snapshot_stride,
                 "signal_stride": cfg.signal_stride},
    }


def dump_config(cfg: SimulationConfig) -> str:
    """Serialize a config as a JSON document that reloads equivalently."""
    return json.dumps(config_to_document(cfg), indent=2) + "\n"


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    merged = {}
    for key, default in defaults.items():
        here = f"{path}{key}"
        if key in user:
            value = user[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{here}: expected an object")
                merged[key] = _merge(default, value, here + ".")
            else:
                merged[key] = value
        else:
            merged[key] = default
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}{sorted(unknown)[0]}: unknown key")
    return merged


def _number(doc, path, *, integer=False, allow_null=False):
    """The number at `path`, checked for JSON type, finiteness and integrality."""
    section, key = path.split(".")
    value = doc[section][key]
    if value is None and allow_null:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    if integer and value != int(value):
        raise ConfigError(f"{path}: expected an integer")
    return int(value) if integer else float(value)


# Dataclass fields whose document path is not "<section>.<field>".
_PATHS = {"length": "geometry.L", "height": "geometry.H",
          "sensors": "sensors.count", "controller": "controller.kp"}


def _build(section, factory, **kwargs):
    """Construct a domain object, mapping its ValueError onto a document path.

    The dataclasses raise ValueError("<field>: <reason>"); the path is
    "<section>.<field>" unless _PATHS names another.
    """
    try:
        return factory(**kwargs)
    except ValueError as exc:
        field, _, reason = str(exc).partition(": ")
        path = _PATHS.get(field, f"{section}.{field}")
        raise ConfigError(f"{path}: {reason}") from exc


def parse_config(document: dict) -> SimulationConfig:
    """Validate a document dict and build the simulation configuration."""
    if not isinstance(document, dict):
        raise ConfigError("top level: expected an object")
    doc = _merge(config_to_document(scenario_preset(1)), document)

    geometry = _build(
        "geometry", PlateGeometry,
        length=_number(doc, "geometry.L"),
        height=_number(doc, "geometry.H"),
    )
    grid = _build(
        "grid", Grid,
        geometry=geometry,
        J=_number(doc, "grid.J", integer=True),
        K=_number(doc, "grid.K", integer=True),
    )
    material = _build(
        "material", ThermalMaterial,
        rho=_number(doc, "material.rho"),
        c0=_number(doc, "material.c0"),
        c1=_number(doc, "material.c1"),
        lambda0=_number(doc, "material.lambda0"),
        lambda1=_number(doc, "material.lambda1"),
        theta_cap=_number(doc, "material.theta_cap"),
    )
    exchange = _build(
        "exchange", SurfaceExchange,
        h=_number(doc, "exchange.h"),
        emissivity=_number(doc, "exchange.emissivity"),
        sigma=_number(doc, "exchange.sigma"),
        theta_amb=_number(doc, "exchange.theta_amb"),
    )

    def device_spec(section):
        return _build(
            section, DeviceSpec,
            count=_number(doc, f"{section}.count", integer=True),
            m=_number(doc, f"{section}.m"),
            M=_number(doc, f"{section}.M"),
            nu=_number(doc, f"{section}.nu"),
        )

    actuators = device_spec("actuators")
    sensors = device_spec("sensors")

    kp = doc["controller"]["kp"]
    if isinstance(kp, list):
        if not all(isinstance(g, (int, float)) and not isinstance(g, bool)
                   and math.isfinite(g) for g in kp):
            raise ConfigError("controller.kp: gains must be finite numbers")
        kp = tuple(float(g) for g in kp)
    else:
        kp = (_number(doc, "controller.kp"),) * actuators.count

    u_max = _number(doc, "controller.u_max", allow_null=True)
    controller = _build(
        "controller", ControllerConfig,
        kp=kp,
        y_ref=_number(doc, "controller.y_ref"),
        u_min=_number(doc, "controller.u_min"),
        u_max=math.inf if u_max is None else u_max,
    )

    initial = _build(
        "initial", InitialCondition,
        base=_number(doc, "initial.base"),
        a0=_number(doc, "initial.a0"),
        a1=_number(doc, "initial.a1"),
        a2=_number(doc, "initial.a2"),
    )

    # SimulationConfig's own fields form the time section; its cross-field
    # errors name the counts or gains they compare, through _PATHS.
    cfg = _build(
        "time", SimulationConfig,
        grid=grid,
        material=material,
        exchange=exchange,
        actuators=actuators,
        sensors=sensors,
        controller=controller,
        initial=initial,
        dt=_number(doc, "time.dt"),
        t_final=_number(doc, "time.t_final"),
        snapshot_stride=_number(doc, "time.snapshot_stride", integer=True),
        signal_stride=_number(doc, "time.signal_stride", integer=True),
    )
    # Banks that do not fit the grid fail here, under their spec's path, so
    # `check` rejects what `run` would; the run reuses the cached banks.
    try:
        cfg.banks
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(text: str) -> SimulationConfig:
    """Parse and validate a JSON configuration document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(document)
