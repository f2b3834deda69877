"""Scenario configuration: plain-text config files and their semantics.

A run is its config file, so everything a scenario needs (grid, background,
nonlinearity, solver settings, initial data, diagnostics cadence, output
directory) lives in one INI-style document with nested sections.  Values
are literal (whole-line comments, no `%` interpolation), and serialization
round-trips: parse(serialize(cfg)) is semantically identical.

Each setting is declared once: a key in `SCHEMA` (its type and default are
the attribute's on `ScenarioConfig()`), a catalog entry in `BACKGROUNDS`,
`INITIALS` or `NONLINEARITIES`, or an entry's parameter.  Parsing rejects
any other section or key with a ConfigError naming it.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .background import BACKGROUNDS, Background
from .fieldio import read_snapshot
from .nonlinearity import AnalyticNonlinearity
from .solver import SolverConfig
from .spectral import Grid, PhysicalField

__all__ = ["ScenarioConfig", "ConfigError", "SCHEMA", "INITIALS",
           "NONLINEARITIES", "BACKGROUND_VARIANTS", "NONLINEARITY_KINDS",
           "INITIAL_KINDS"]


class ConfigError(ValueError):
    pass


# section -> {key: attribute it sets}, in file order; None: retired, ignored
SCHEMA = {
    "grid": {"half_length": "grid_half_length", "points": "grid_points"},
    "background": {"variant": "background_variant"},
    "nonlinearity": {"kind": "nonlinearity_kind",
                     "order": "nonlinearity_order",
                     "coefficients": "nonlinearity_coefficients"},
    "solver": {"scheme": "solver.scheme", "dt": "solver.dt",
               "horizon": "solver.horizon", "viscosity": "solver.mu",
               "dealias": "solver.dealias",
               "boundary_buffer": "solver.boundary_buffer",
               "boundary_threshold": "solver.boundary_threshold",
               "tail_threshold": "solver.tail_threshold",
               "cadence": "solver.cadence"},
    "initial": {"kind": "initial_kind"},
    "diagnostics": {"s": "diagnostics_s", "omega_eps": "omega_eps"},
    "output": {"directory": "output_directory", "seed": None},
}


def _initial_file(grid, file):
    try:
        fld, _ = read_snapshot(file)
        if fld.values.ndim != 1:
            raise ValueError(f"snapshot {file}: a stack of "
                             f"{len(fld.values)} fields, not one field")
    except (OSError, ValueError) as err:
        raise ConfigError(f"invalid initial data file: {err}") from err
    if fld.grid != grid:
        raise ConfigError("initial data file grid mismatch")
    return fld


INITIALS = {
    "zero": (PhysicalField.zero, {}),
    "gaussian": (lambda grid, amplitude, width, center: PhysicalField.sample(
        grid, lambda x: amplitude * np.exp(-((x - center) / width) ** 2)),
        {"amplitude": 1.0, "width": 1.0, "center": 0.0}),
    "soliton": (lambda grid, speed: PhysicalField.sample(
        grid, lambda x: 1.5 * speed / np.cosh(np.sqrt(speed) / 2.0 * x) ** 2),
        {"speed": 1.0}),
    "file": (_initial_file, {"file": None}),
}

NONLINEARITIES = {
    "kdv": lambda cfg: AnalyticNonlinearity.kdv(),
    "mkdv_focusing": lambda cfg: AnalyticNonlinearity.mkdv_focusing(),
    "mkdv_defocusing": lambda cfg: AnalyticNonlinearity.mkdv_defocusing(),
    "gardner": lambda cfg: AnalyticNonlinearity.gardner(
        cfg.background_params.get("beta",
                                  BACKGROUNDS["gardner_kink"][1]["beta"])),
    "polynomial": lambda cfg: AnalyticNonlinearity.polynomial(
        cfg.nonlinearity_coefficients),
    "exponential": lambda cfg: AnalyticNonlinearity.exponential(
        cfg.nonlinearity_order),
    "sine": lambda cfg: AnalyticNonlinearity.sine(cfg.nonlinearity_order),
    "cosine": lambda cfg: AnalyticNonlinearity.cosine(cfg.nonlinearity_order),
    "series": lambda cfg: AnalyticNonlinearity.from_series(
        cfg.nonlinearity_coefficients),
}

BACKGROUND_VARIANTS = tuple(BACKGROUNDS)
NONLINEARITY_KINDS = tuple(NONLINEARITIES)
INITIAL_KINDS = tuple(INITIALS)

_CHOICES = {  # the attribute naming each catalog choice -> its registry
    "background_variant": BACKGROUNDS, "nonlinearity_kind": NONLINEARITIES,
    "initial_kind": INITIALS}

_PARAMETER_TYPES = {  # how a catalog parameter reads; any other, as a float
    "sign": {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}.__getitem__,
    "file": str}


def _reader(cfg, attr):
    """The reader of a schema key, from the type of its default on cfg."""
    default = reduce(getattr, attr.split("."), cfg)
    if isinstance(default, tuple):
        return lambda text: tuple(float(tok) for tok in text.split())
    return type(default)


def _arguments(defaults, given, section):
    """The constructor arguments: given values over the registry defaults."""
    args = {key: given.get(key, default) for key, default in defaults.items()}
    for key, value in args.items():
        if value is None:
            raise ConfigError(f"[{section}] {key} is required")
    return args


@dataclass
class ScenarioConfig:
    grid_half_length: float = 50.0
    grid_points: int = 1024

    background_variant: str = "zero"
    background_params: dict = field(default_factory=dict)

    nonlinearity_kind: str = "kdv"
    nonlinearity_coefficients: tuple = ()
    nonlinearity_order: int = 30

    solver: SolverConfig = field(default_factory=SolverConfig)

    initial_kind: str = "zero"
    initial_params: dict = field(default_factory=dict)

    diagnostics_s: float = 1.0
    omega_eps: float = 0.0

    output_directory: str = "out"

    # -- semantic construction -------------------------------------------

    def grid(self) -> Grid:
        try:
            return Grid(self.grid_half_length, self.grid_points)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def background(self) -> Background:
        build, defaults = self._entry("background_variant")
        args = _arguments(defaults, self.background_params, "background")
        try:
            return build(**args)
        except OSError as err:      # only the tabulated variant reads a file
            raise ConfigError(f"cannot read [background] file: {err}") from err
        except ValueError as err:
            raise ConfigError(f"invalid background: {err}") from err

    def nonlinearity(self) -> AnalyticNonlinearity:
        build = self._entry("nonlinearity_kind")
        try:
            return build(self)
        except ValueError as err:
            raise ConfigError(f"invalid nonlinearity: {err}") from err

    def initial_data(self) -> PhysicalField:
        build, defaults = self._entry("initial_kind")
        return build(self.grid(),
                     **_arguments(defaults, self.initial_params, "initial"))

    def _entry(self, attr):
        name = getattr(self, attr)
        if name not in _CHOICES[attr]:
            raise ConfigError(f"unknown {attr.replace('_', ' ')} {name!r}")
        return _CHOICES[attr][name]

    # -- text round trip ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ScenarioConfig":
        # "" can name no section, so a [DEFAULT] section, whose keys would
        # reach every section, is read as an unknown section instead
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="")
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ConfigError(f"malformed config: {err}") from err

        def read(section, key, cast):
            try:
                return cast(parser.get(section, key))
            except (KeyError, ValueError) as err:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {err}") from err

        cfg, solver = cls(), {}
        for section, keys in SCHEMA.items():
            for key, attr in keys.items():
                if attr and parser.has_option(section, key):
                    owner, _, name = attr.rpartition(".")
                    (solver if owner else vars(cfg))[name] = read(
                        section, key, _reader(cfg, attr))
        try:
            cfg.solver = SolverConfig(**solver)
        except ValueError as err:
            raise ConfigError(f"invalid solver settings: {err}") from err

        entries = {attr: cfg._entry(attr) for attr in _CHOICES}
        gardner = {"beta"} if cfg.nonlinearity_kind == "gardner" else set()
        known = {"background": gardner.union(entries["background_variant"][1]),
                 "initial": entries["initial_kind"][1]}
        params = {"background": {}, "initial": {}}
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser[section]:
                if key in SCHEMA[section]:
                    continue
                if key not in known.get(section, ()):
                    raise ConfigError(f"unknown key [{section}] {key}")
                params[section][key] = read(
                    section, key, _PARAMETER_TYPES.get(key, float))
        cfg.background_params, cfg.initial_params = params.values()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                return cls.parse(fh.read())
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err

    def serialize(self) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        for section, keys in SCHEMA.items():
            values = {key: reduce(getattr, attr.split("."), self)
                      for key, attr in keys.items() if attr}
            # the catalog parameters, background_params and initial_params
            values.update(getattr(self, f"{section}_params", {}))
            parser[section] = {  # each value is written by str()
                key: " ".join(map(str, v)) if isinstance(v, tuple) else v
                for key, v in values.items() if v != ()}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()
