"""Versioned JSON run configuration with field-level validation.

Each setting is declared once, as a field of a section dataclass: its
default, its validation rule and, where it differs from the attribute
name, its JSON key (``params.lambda`` is ``ParamsConfig.lam``).
:func:`parse_config` and :meth:`RunConfig.to_dict` both walk these
declarations, and :func:`validated` applies the same rules to one section
built from command-line flags.  A key that no field declares is an error
that names its path, so a misspelt setting never falls back to its default
silently.

This module imports nothing from the rest of the package, so any module
can import it: ``radial`` reads the seed shapes and steppers here.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

SCHEMA_VERSION = 1

SEED_SHAPES = ("zero", "parabolic", "quartic", "random")
STEPPERS = ("adaptive", "rk4")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


# -- validation rules: each maps (raw JSON value, key path) to the value --------

def _number(ge=None, gt=None, le=None, lt=None, nullable=False):
    """Rule for a number within the given bounds, or null where ``nullable``."""
    bounds = [(bound, symbol, holds) for bound, symbol, holds in
              ((ge, ">=", operator.ge), (gt, ">", operator.gt),
               (le, "<=", operator.le), (lt, "<", operator.lt)) if bound is not None]

    def rule(raw, path):
        if nullable and raw is None:
            return None
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ConfigError(f"{path}: expected a number, got {raw!r}")
        value = float(raw)
        for bound, symbol, holds in bounds:
            _require(holds(value, bound), path, f"must be {symbol} {bound}")
        return value
    return rule


def _integer(ge=None, among=None):
    def rule(raw, path):
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(f"{path}: expected an integer, got {raw!r}")
        if ge is not None:
            _require(raw >= ge, path, f"must be >= {ge}")
        if among is not None:
            _require(raw in among, path, "must be " + " or ".join(map(str, among)))
        return raw
    return rule


def _choice(options):
    def rule(raw, path):
        _require(isinstance(raw, str) and raw in options, path,
                 f"must be one of {list(options)}, got {raw!r}")
        return raw
    return rule


def _boolean(raw, path):
    _require(isinstance(raw, bool), path, "expected a boolean")
    return raw


def _nonempty_string(raw, path):
    _require(isinstance(raw, str) and raw, path, "expected a nonempty string")
    return raw


def setting(default, rule, key: str | None = None):
    """A configuration field: its default, its ``rule(raw, path)`` and its
    JSON key where that differs from the attribute name."""
    return field(default=default, metadata={"rule": rule, "key": key})


# -- sections ----------------------------------------------------------------

@dataclass
class ParamsConfig:
    n: int = setting(3, _integer(among=(2, 3)))
    lam: float = setting(0.0, _number(ge=0.0, lt=1), key="lambda")
    gamma: float = setting(2.0, _number(gt=1.0))
    mass: float = setting(1.0, _number(gt=0.0))


@dataclass
class OdeConfig:
    t_end: float = setting(1e6, _number(ge=1.0, le=1e8))
    rel_tol: float = setting(1e-10, _number(gt=0.0, le=1e-3))
    abs_tol: float = setting(1e-13, _number(gt=0.0, le=1e-3))


@dataclass
class SeedConfig:
    shape: str = setting("zero", _choice(SEED_SHAPES))
    amplitude: float = setting(0.0, _number(ge=0.0))


@dataclass
class SolverConfig:
    num_nodes: int = setting(128, _integer(ge=16))
    t_end: float = setting(1e4, _number(gt=0.0))
    rel_tol: float = setting(1e-7, _number(gt=0.0, le=1e-3))
    abs_tol: float = setting(1e-11, _number(gt=0.0, le=1e-3))
    stepper: str = setting("adaptive", _choice(STEPPERS))
    fixed_dt: float | None = setting(None, _number(gt=0.0, nullable=True))
    outputs_per_decade: int = setting(60, _integer(ge=4))
    collect_energies: bool = setting(True, _boolean)
    seed: SeedConfig = field(default_factory=SeedConfig)


@dataclass
class OutputsConfig:
    directory: str = setting("runs/run", _nonempty_string)
    checkpoint_every: int = setting(20, _integer(ge=1))


@dataclass
class RunConfig:
    params: ParamsConfig = field(default_factory=ParamsConfig)
    ode: OdeConfig = field(default_factory=OdeConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    outputs: OutputsConfig = field(default_factory=OutputsConfig)
    rng_seed: int = setting(1234, _integer(ge=0))

    def to_dict(self) -> dict:
        return {**_to_dict(self), "schema_version": SCHEMA_VERSION}

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _key(f) -> str:
    return f.metadata.get("key") or f.name


def _to_dict(section) -> dict:
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        out[_key(f)] = _to_dict(value) if is_dataclass(value) else value
    return out


def _parse(cls, raw: dict, prefix: str, unknown: str = "unknown configuration key"):
    """An instance of section ``cls`` from its JSON object: every key must
    be declared, and every given value passes its field's rule."""
    declared = {_key(f): f for f in fields(cls)}
    for key in raw:
        _require(key in declared, prefix + key, unknown)
    values = {}
    for key, f in declared.items():
        if key not in raw:
            continue
        path = prefix + key
        if is_dataclass(f.default_factory):
            _require(isinstance(raw[key], dict), path, "expected an object")
            values[f.name] = _parse(f.default_factory, raw[key], path + ".")
        else:
            values[f.name] = f.metadata["rule"](raw[key], path)
    return cls(**values)


def validated(section, name: str):
    """A copy of the section ``section`` checked by its fields' rules, as
    :func:`parse_config` checks them; an error names the key under ``name``
    (``params.n: must be 2 or 3``)."""
    return _parse(type(section), _to_dict(section), name + ".")


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version",
             f"unsupported version {version!r} (expected {SCHEMA_VERSION})")
    body = {key: value for key, value in data.items() if key != "schema_version"}
    cfg = _parse(RunConfig, body, "", unknown="unknown configuration section")

    _require(cfg.ode.t_end >= cfg.solver.t_end, "ode.t_end",
             "must cover solver.t_end")
    if cfg.solver.stepper == "rk4":
        _require(cfg.solver.fixed_dt is not None, "solver.fixed_dt",
                 "required when solver.stepper is 'rk4'")
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") \
            from None
    return parse_config(data)
