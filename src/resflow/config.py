"""Experiment configuration: flat ``section.key = value`` documents.

The format is deliberately minimal -- one dotted key per line, ``#``
comments, numbers / comma-separated pairs / bare words as values. Parsing
is strict: unknown keys, missing required keys, and constraint violations
are all reported with the offending line. ``render_config`` produces a
canonical document that parses back to an equal config.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import Grid, build_grid
from .model import Model, build_model
from .reactions import REACTION_PARAMS, Coefficient, make_reaction


class ConfigError(ValueError):
    """Malformed or invalid configuration document."""


# default of each reaction parameter key under model.*
_PARAM_DEFAULTS: dict[str, Coefficient] = {
    "w": (1.0, 0.0), "beta": (0.0, 0.0), "q": (1.0, 0.0), "alpha": (0.5, 0.0),
}

_INITIAL_KINDS = ("constant", "linear", "sine")


@dataclass(frozen=True)
class DomainConfig:
    x_lo: float = 0.0
    x_hi: float = 1.0
    n_cells: int = 64


@dataclass(frozen=True)
class ModelConfig:
    reaction: str = "power"
    params: dict[str, Coefficient] = field(
        default_factory=lambda: {name: _PARAM_DEFAULTS[name] for name in REACTION_PARAMS["power"]}
    )
    drift: Coefficient = (0.0, 0.0)
    boundary_density: tuple[float, float] = (1.0, 1.0)


@dataclass(frozen=True)
class SchemeConfig:
    tau_list: tuple[float, ...] = (0.05,)
    t_final: float = 1.0

    @property
    def tau(self) -> float:
        return self.tau_list[0]


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "constant"
    value: Coefficient = (1.0, 0.0)   # constant / linear profile a + b*x
    base: float = 1.0                 # sine profile: base + amplitude*sin(modes*pi*s)
    amplitude: float = 0.1
    modes: int = 1

    def density(self, grid: Grid) -> np.ndarray:
        x = grid.cell_centers
        if self.kind == "constant":
            return np.full(grid.n_cells, float(self.value[0]))
        if self.kind == "linear":
            return self.value[0] + self.value[1] * x
        s = (x - grid.x_lo) / (grid.x_hi - grid.x_lo)
        return self.base + self.amplitude * np.sin(self.modes * np.pi * s)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."


@dataclass(frozen=True)
class ExperimentConfig:
    domain: DomainConfig = DomainConfig()
    model: ModelConfig = ModelConfig()
    scheme: SchemeConfig = SchemeConfig()
    initial: InitialConfig = InitialConfig()
    output: OutputConfig = OutputConfig()

    def build_grid(self) -> Grid:
        return build_grid(self.domain.x_lo, self.domain.x_hi, self.domain.n_cells)

    def build_model(self, *, run_audit: bool = True) -> Model:
        reaction = make_reaction(self.model.reaction, **self.model.params)
        return build_model(
            self.domain.x_lo,
            self.domain.x_hi,
            reaction,
            drift=self.model.drift,
            boundary_density=self.model.boundary_density,
            run_audit=run_audit,
        )

    def initial_density(self, grid: Grid) -> np.ndarray:
        rho0 = self.initial.density(grid)
        if np.any(rho0 <= 0.0):
            raise ConfigError("initial density must be strictly positive on the grid")
        return rho0


def _tokenize(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _parse_scalar(token: str) -> float:
    try:
        num = float(token)
    except ValueError:
        raise ConfigError(f"expected a number, got {token!r}") from None
    if not np.isfinite(num):
        raise ConfigError(f"expected a finite number, got {token!r}")
    return num


def _parse_numbers(value: str) -> tuple[float, ...]:
    return tuple(_parse_scalar(tok) for tok in value.split(","))


def _parse_coefficient(value: str) -> Coefficient:
    nums = _parse_numbers(value)
    if len(nums) == 1:
        return (nums[0], 0.0)
    if len(nums) == 2:
        return (nums[0], nums[1])
    raise ConfigError(f"coefficients take one or two numbers, got {value!r}")


def _parse_int(value: str) -> int:
    num = _parse_scalar(value)
    if num != int(num):
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(num)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Every key must be known, every value well-typed, and the cross-field
    constraints (positive widths and steps, decreasing tau_list, and the
    reaction and model checks of build_model) must hold; violations raise
    ConfigError, naming the line where one applies.
    """
    entries: dict[str, tuple[int, str]] = {}
    for lineno, key, value in _tokenize(text):
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)

    def take(key: str) -> str | None:
        item = entries.pop(key, None)
        return None if item is None else item[1]

    def guard(key: str, parser: Callable, value: str | None, default):
        if value is None:
            return default
        try:
            return parser(value)
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None

    def get(key: str, parser: Callable, default=None):
        return guard(key, parser, take(key), default)

    domain = DomainConfig(
        x_lo=get("domain.x_lo", _parse_scalar, 0.0),
        x_hi=get("domain.x_hi", _parse_scalar, 1.0),
        n_cells=get("domain.n_cells", _parse_int, 64),
    )
    if domain.x_hi <= domain.x_lo:
        raise ConfigError("domain.x_hi must exceed domain.x_lo")
    if domain.n_cells < 1:
        raise ConfigError("domain.n_cells must be at least 1")

    kind = get("model.reaction", str, "power")
    if kind not in REACTION_PARAMS:
        raise ConfigError(
            f"model.reaction must be one of {sorted(REACTION_PARAMS)}, got {kind!r}"
        )
    params = {name: get(f"model.{name}", _parse_coefficient, _PARAM_DEFAULTS[name])
              for name in REACTION_PARAMS[kind]}
    bd = get("model.boundary_density", _parse_numbers, (1.0,))
    if len(bd) == 1:
        bd = (bd[0], bd[0])
    if len(bd) != 2 or min(bd) <= 0.0:
        raise ConfigError("model.boundary_density takes one or two positive numbers")
    model = ModelConfig(
        reaction=kind,
        params=params,
        drift=get("model.drift", _parse_coefficient, (0.0, 0.0)),
        boundary_density=(float(bd[0]), float(bd[1])),
    )

    tau = take("scheme.tau")
    tau_list = take("scheme.tau_list")
    if tau is not None and tau_list is not None:
        raise ConfigError("give scheme.tau or scheme.tau_list, not both")
    if tau_list is not None:
        taus = guard("scheme.tau_list", _parse_numbers, tau_list, None)
        if len(taus) < 2 or any(b >= a for a, b in zip(taus, taus[1:])):
            raise ConfigError("scheme.tau_list must be strictly decreasing (>= 2 entries)")
    else:
        taus = (guard("scheme.tau", _parse_scalar, tau, 0.05),)
    if min(taus) <= 0.0:
        raise ConfigError("time steps must be positive")
    scheme = SchemeConfig(
        tau_list=tuple(float(t) for t in taus),
        t_final=get("scheme.t_final", _parse_scalar, 1.0),
    )
    if scheme.t_final <= 0.0:
        raise ConfigError("scheme.t_final must be positive")

    init_kind = get("initial.kind", str, "constant")
    if init_kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial.kind must be one of {_INITIAL_KINDS}, got {init_kind!r}")
    # only the chosen profile's keys are read; another's is an unknown key
    if init_kind == "constant":
        initial = InitialConfig(kind=init_kind,
                                value=(get("initial.value", _parse_scalar, 1.0), 0.0))
    elif init_kind == "linear":
        initial = InitialConfig(kind=init_kind,
                                value=get("initial.value", _parse_coefficient, (1.0, 0.0)))
    else:
        initial = InitialConfig(
            kind=init_kind,
            base=get("initial.base", _parse_scalar, 1.0),
            amplitude=get("initial.amplitude", _parse_scalar, 0.1),
            modes=get("initial.modes", _parse_int, 1),
        )

    output = OutputConfig(
        directory=get("output.directory", str, "."),
    )

    if entries:
        key, (lineno, _) = next(iter(entries.items()))
        raise ConfigError(f"line {lineno}: unknown key {key!r}")

    cfg = ExperimentConfig(
        domain=domain, model=model, scheme=scheme, initial=initial, output=output,
    )
    # surface reaction-parameter and model violations (positivity, a rate
    # floor that admits no equilibrium density) at parse time
    try:
        cfg.build_model(run_audit=False)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_coefficient(coeff: Coefficient) -> str:
    c0, c1 = coeff
    return _fmt(float(c0)) if c1 == 0.0 else f"{_fmt(float(c0))}, {_fmt(float(c1))}"


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical document for a config; parse_config(render_config(c)) == c."""
    lines = [
        f"domain.x_lo = {_fmt(cfg.domain.x_lo)}",
        f"domain.x_hi = {_fmt(cfg.domain.x_hi)}",
        f"domain.n_cells = {cfg.domain.n_cells}",
        f"model.reaction = {cfg.model.reaction}",
    ]
    for name in REACTION_PARAMS[cfg.model.reaction]:
        lines.append(f"model.{name} = {_fmt_coefficient(cfg.model.params[name])}")
    lines.append(f"model.drift = {_fmt_coefficient(cfg.model.drift)}")
    bd = cfg.model.boundary_density
    bd_txt = _fmt(bd[0]) if bd[0] == bd[1] else f"{_fmt(bd[0])}, {_fmt(bd[1])}"
    lines.append(f"model.boundary_density = {bd_txt}")
    if len(cfg.scheme.tau_list) == 1:
        lines.append(f"scheme.tau = {_fmt(cfg.scheme.tau)}")
    else:
        lines.append("scheme.tau_list = " + ", ".join(_fmt(t) for t in cfg.scheme.tau_list))
    lines.append(f"scheme.t_final = {_fmt(cfg.scheme.t_final)}")
    lines.append(f"initial.kind = {cfg.initial.kind}")
    if cfg.initial.kind == "constant":
        lines.append(f"initial.value = {_fmt(float(cfg.initial.value[0]))}")
    elif cfg.initial.kind == "linear":
        lines.append(f"initial.value = {_fmt_coefficient(cfg.initial.value)}")
    else:
        lines.append(f"initial.base = {_fmt(cfg.initial.base)}")
        lines.append(f"initial.amplitude = {_fmt(cfg.initial.amplitude)}")
        lines.append(f"initial.modes = {cfg.initial.modes}")
    lines.append(f"output.directory = {cfg.output.directory}")
    return "\n".join(lines) + "\n"
