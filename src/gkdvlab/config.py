"""Scenario configuration: plain-text config files and their semantics.

A run is its config file, so everything a scenario needs (grid, background,
nonlinearity, solver settings, initial data, diagnostics cadence, output
directory) lives in one INI-style document with nested sections.
Serialization round-trips: parse(serialize(cfg)) is semantically identical.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .background import (
    Background,
    GardnerKink,
    KdVCnoidal,
    MKdVDnoidal,
    MKdVKink,
    SyntheticBackground,
    TabulatedBackground,
    ZeroBackground,
)
from .nonlinearity import AnalyticNonlinearity
from .solver import SolverConfig
from .spectral import Grid, PhysicalField

__all__ = ["ScenarioConfig", "ConfigError", "BACKGROUND_VARIANTS",
           "NONLINEARITY_KINDS", "INITIAL_KINDS"]


class ConfigError(ValueError):
    pass


BACKGROUND_VARIANTS = (
    "zero", "mkdv_kink", "gardner_kink", "kdv_cnoidal", "mkdv_dnoidal",
    "synthetic", "tabulated",
)
NONLINEARITY_KINDS = (
    "kdv", "mkdv_focusing", "mkdv_defocusing", "gardner", "polynomial",
    "exponential", "sine", "cosine", "series",
)
INITIAL_KINDS = ("zero", "gaussian", "soliton", "file")


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
        params = self.background_params
        try:
            if self.background_variant == "zero":
                return ZeroBackground()
            if self.background_variant == "mkdv_kink":
                return MKdVKink(c=float(params.get("c", 1.0)),
                                sign=int(params.get("sign", 1)))
            if self.background_variant == "gardner_kink":
                return GardnerKink(c=float(params.get("c", 1.0)),
                                   beta=float(params.get("beta", 1.0)),
                                   sign=int(params.get("sign", 1)))
            if self.background_variant == "kdv_cnoidal":
                return KdVCnoidal(c=float(params.get("c", 1.0)),
                                  kappa=float(params.get("kappa", 0.8)))
            if self.background_variant == "mkdv_dnoidal":
                return MKdVDnoidal(c=float(params.get("c", 1.0)),
                                   kappa=float(params.get("kappa", 0.5)))
            if self.background_variant == "synthetic":
                return SyntheticBackground()
            if self.background_variant == "tabulated":
                return TabulatedBackground.from_file(params["file"])
        except (KeyError, ValueError) as err:
            raise ConfigError(f"invalid background: {err}") from err
        raise ConfigError(f"unknown background variant {self.background_variant!r}")

    def nonlinearity(self) -> AnalyticNonlinearity:
        kind = self.nonlinearity_kind
        try:
            if kind == "kdv":
                return AnalyticNonlinearity.kdv()
            if kind == "mkdv_focusing":
                return AnalyticNonlinearity.mkdv_focusing()
            if kind == "mkdv_defocusing":
                return AnalyticNonlinearity.mkdv_defocusing()
            if kind == "gardner":
                beta = float(self.background_params.get("beta", 1.0))
                return AnalyticNonlinearity.gardner(beta)
            if kind == "polynomial":
                return AnalyticNonlinearity.polynomial(
                    self.nonlinearity_coefficients)
            if kind == "exponential":
                return AnalyticNonlinearity.exponential(self.nonlinearity_order)
            if kind == "sine":
                return AnalyticNonlinearity.sine(self.nonlinearity_order)
            if kind == "cosine":
                return AnalyticNonlinearity.cosine(self.nonlinearity_order)
            if kind == "series":
                return AnalyticNonlinearity.from_series(
                    self.nonlinearity_coefficients)
        except ValueError as err:
            raise ConfigError(f"invalid nonlinearity: {err}") from err
        raise ConfigError(f"unknown nonlinearity kind {kind!r}")

    def initial_data(self) -> PhysicalField:
        grid = self.grid()
        params = self.initial_params
        kind = self.initial_kind
        if kind == "zero":
            return PhysicalField.zero(grid)
        if kind == "gaussian":
            amp = float(params.get("amplitude", 1.0))
            width = float(params.get("width", 1.0))
            center = float(params.get("center", 0.0))
            return PhysicalField.sample(
                grid, lambda x: amp * np.exp(-((x - center) / width) ** 2))
        if kind == "soliton":
            c = float(params.get("speed", 1.0))
            return PhysicalField.sample(
                grid, lambda x: 1.5 * c / np.cosh(np.sqrt(c) / 2.0 * x) ** 2)
        if kind == "file":
            from .fieldio import read_snapshot

            try:
                fld, _ = read_snapshot(params["file"])
            except (KeyError, OSError, ValueError) as err:
                raise ConfigError(f"invalid initial data file: {err}") from err
            if fld.grid != grid:
                raise ConfigError("initial data file grid mismatch")
            return fld
        raise ConfigError(f"unknown initial data kind {kind!r}")

    # -- text round trip ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ScenarioConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ConfigError(f"malformed config: {err}") from err
        cfg = cls()

        def get(section, option, cast, default):
            if parser.has_option(section, option):
                try:
                    return cast(parser.get(section, option))
                except ValueError as err:
                    raise ConfigError(
                        f"bad value for [{section}] {option}: {err}") from err
            return default

        cfg.grid_half_length = get("grid", "half_length", float, 50.0)
        cfg.grid_points = get("grid", "points", int, 1024)

        cfg.background_variant = get("background", "variant", str, "zero")
        if cfg.background_variant not in BACKGROUND_VARIANTS:
            raise ConfigError(
                f"unknown background variant {cfg.background_variant!r}")
        params = {}
        if parser.has_section("background"):
            for key, value in parser.items("background"):
                if key == "variant":
                    continue
                if key == "sign":
                    params[key] = 1 if value.strip() in ("+", "+1", "1") else -1
                elif key == "file":
                    params[key] = value.strip()
                else:
                    params[key] = float(value)
        cfg.background_params = params

        cfg.nonlinearity_kind = get("nonlinearity", "kind", str, "kdv")
        if cfg.nonlinearity_kind not in NONLINEARITY_KINDS:
            raise ConfigError(
                f"unknown nonlinearity kind {cfg.nonlinearity_kind!r}")
        coeff_text = get("nonlinearity", "coefficients", str, "")
        if coeff_text:
            try:
                cfg.nonlinearity_coefficients = tuple(
                    float(tok) for tok in coeff_text.split())
            except ValueError as err:
                raise ConfigError(f"bad coefficient list: {err}") from err
        cfg.nonlinearity_order = get("nonlinearity", "order", int, 30)

        try:
            cfg.solver = SolverConfig(
                scheme=get("solver", "scheme", str, "etdrk4"),
                dt=get("solver", "dt", float, 1e-3),
                horizon=get("solver", "horizon", float, 1.0),
                mu=get("solver", "viscosity", float, 0.0),
                dealias=get("solver", "dealias", str, "auto"),
                boundary_buffer=get("solver", "boundary_buffer", float, 0.1),
                boundary_threshold=get("solver", "boundary_threshold", float,
                                       1e-3),
                tail_threshold=get("solver", "tail_threshold", float, 1e-6),
                cadence=get("solver", "cadence", int, 1),
            )
        except ValueError as err:
            raise ConfigError(f"invalid solver settings: {err}") from err

        cfg.initial_kind = get("initial", "kind", str, "zero")
        if cfg.initial_kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial data kind {cfg.initial_kind!r}")
        iparams = {}
        if parser.has_section("initial"):
            for key, value in parser.items("initial"):
                if key == "kind":
                    continue
                iparams[key] = value.strip() if key == "file" else float(value)
        cfg.initial_params = iparams

        cfg.diagnostics_s = get("diagnostics", "s", float, 1.0)
        cfg.omega_eps = get("diagnostics", "omega_eps", float, 0.0)

        cfg.output_directory = get("output", "directory", str, "out")
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                return cls.parse(fh.read())
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err

    def serialize(self) -> str:
        parser = configparser.ConfigParser()
        parser["grid"] = {
            "half_length": repr(self.grid_half_length),
            "points": str(self.grid_points),
        }
        bg = {"variant": self.background_variant}
        for key, value in self.background_params.items():
            bg[key] = str(value)
        parser["background"] = bg
        nl = {"kind": self.nonlinearity_kind, "order": str(self.nonlinearity_order)}
        if self.nonlinearity_coefficients:
            nl["coefficients"] = " ".join(
                repr(a) for a in self.nonlinearity_coefficients)
        parser["nonlinearity"] = nl
        parser["solver"] = {
            "scheme": self.solver.scheme,
            "dt": repr(self.solver.dt),
            "horizon": repr(self.solver.horizon),
            "viscosity": repr(self.solver.mu),
            "dealias": self.solver.dealias,
            "boundary_buffer": repr(self.solver.boundary_buffer),
            "boundary_threshold": repr(self.solver.boundary_threshold),
            "tail_threshold": repr(self.solver.tail_threshold),
            "cadence": str(self.solver.cadence),
        }
        init = {"kind": self.initial_kind}
        for key, value in self.initial_params.items():
            init[key] = str(value)
        parser["initial"] = init
        parser["diagnostics"] = {
            "s": repr(self.diagnostics_s),
            "omega_eps": repr(self.omega_eps),
        }
        parser["output"] = {"directory": self.output_directory}
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()
