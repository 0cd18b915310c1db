"""Experiment configuration: a flat JSON document with named presets.

No expression evaluation: rough profiles are preset-parameterised or
tabulated, so a config is plain data and a run is reproducible from the
normalised echo alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigurationError
from .profiles import (RoughProfile, bump_profile, box_profile,
                       constant_profile, heaviside_profile, hoelder_profile,
                       piecewise_constant_profile, point_mass_profile,
                       polynomial_piece_profile, zero_profile)
from .roots import (OmegaScale, RootFamily, constant_roots, linear_scale,
                    logarithmic_scale, roots_from_time_profiles,
                    transport_roots, wave_speed_roots)
from .solver import CONE_MARGIN, MIN_SWEEP

#: subcommands that solve the epsilon sweep as a solution net
_NET_SUBCOMMANDS = ("solve", "sweep")


def _require(mapping: Mapping, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigurationError(f"missing required field '{path}.{key}'",
                                 field=f"{path}.{key}")
    return mapping[key]


def _opt(mapping: Mapping, key: str, default: Any) -> Any:
    return mapping.get(key, default)


def build_profile(spec: Mapping, path: str,
                  support: tuple[float, float] | None = None) -> RoughProfile:
    """Resolve a named profile preset into a RoughProfile."""
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"'{path}' must be an object", field=path)
    preset = _require(spec, "preset", path)
    sup = tuple(_opt(spec, "support", support or (0.0, 1.0)))
    try:
        if preset == "constant":
            return constant_profile(_require(spec, "value", path), sup)
        if preset == "heaviside":
            return heaviside_profile(_require(spec, "jump", path),
                                     _require(spec, "low", path),
                                     _require(spec, "high", path), sup)
        if preset == "piecewise_constant":
            return piecewise_constant_profile(
                _require(spec, "breakpoints", path),
                _require(spec, "values", path), sup)
        if preset == "hoelder":
            return hoelder_profile(_require(spec, "alpha", path),
                                   _require(spec, "center", path),
                                   _opt(spec, "base", 1.0),
                                   _opt(spec, "amplitude", 1.0), sup)
        if preset == "polynomial":
            return polynomial_piece_profile(
                _require(spec, "coefficients", path),
                _require(spec, "lo", path), _require(spec, "hi", path))
        if preset == "bump":
            return bump_profile(_opt(spec, "center", 0.0),
                                _require(spec, "radius", path),
                                _opt(spec, "amplitude", 1.0))
        if preset == "box":
            return box_profile(_opt(spec, "center", 0.0),
                               _require(spec, "halfwidth", path),
                               _opt(spec, "amplitude", 1.0))
        if preset in ("point_mass", "delta"):
            return point_mass_profile(_opt(spec, "location", 0.0),
                                      _opt(spec, "order", 0),
                                      _opt(spec, "weight", 1.0))
        if preset == "zero":
            return zero_profile()
    except ConfigurationError:
        raise
    except Exception as exc:
        raise ConfigurationError(f"'{path}': {exc}", field=path) from exc
    raise ConfigurationError(f"unknown profile preset '{preset}' at '{path}'",
                             field=path)


def build_root_family(spec: Mapping, horizon: float) -> RootFamily:
    preset = _require(spec, "preset", "roots")
    if preset == "constant":
        values = _require(spec, "values", "roots")
        if sorted(values) != list(values):
            raise ConfigurationError("root values must be sorted",
                                     field="roots.values")
        return constant_roots(values, horizon=horizon)
    if preset == "transport":
        return transport_roots(_require(spec, "speed", "roots"),
                               horizon=horizon)
    if preset == "wave_speed":
        speed = build_profile(_require(spec, "speed", "roots"), "roots.speed",
                              (0.0, horizon))
        return wave_speed_roots(speed, horizon=horizon)
    # shorthand: a speed-profile preset name directly names the wave speed
    if preset in ("heaviside", "hoelder", "piecewise_constant"):
        speed = build_profile(dict(spec, preset=preset), "roots",
                              (0.0, horizon))
        return wave_speed_roots(speed, horizon=horizon)
    if preset == "profiles":
        profiles = [build_profile(p, f"roots.profiles[{i}]", (0.0, horizon))
                    for i, p in enumerate(_require(spec, "profiles", "roots"))]
        return roots_from_time_profiles(profiles, horizon=horizon)
    raise ConfigurationError(f"unknown roots preset '{preset}'",
                             field="roots.preset")


def build_scale(spec: Mapping, order: int) -> OmegaScale:
    kind = _opt(spec, "scale", "linear")
    if kind == "linear":
        return linear_scale(_opt(spec, "coefficient", 1.0))
    if kind == "logarithmic":
        return logarithmic_scale(int(_opt(spec, "log_exponent", 1)), order)
    raise ConfigurationError(f"unknown scale '{kind}'",
                             field="regularisation.scale")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration document plus its raw normalised form."""

    raw: dict

    # -- typed accessors used by the drivers ---------------------------------

    @property
    def order(self) -> int:
        return int(self.raw["problem"]["order"])

    @property
    def horizon(self) -> float:
        return float(self.raw["problem"].get("horizon", 1.0))

    @property
    def gevrey_s(self) -> float:
        return float(self.raw["problem"].get("gevrey_s", 2.0))

    @property
    def epsilon_sweep(self) -> tuple[float, ...]:
        return tuple(float(e)
                     for e in self.raw["regularisation"]["epsilon_sweep"])

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})

    @property
    def seed(self) -> int:
        return int(self.raw.get("run", {}).get("seed", 0))


_KNOWN_SECTIONS = {"problem", "roots", "lower_terms", "data", "forcing",
                   "regularisation", "grid", "reference", "analysis",
                   "checks", "roundtrip", "symmetriser", "reduce", "run"}


def validate_config(raw: Mapping,
                    subcommand: str | None = None) -> ExperimentConfig:
    """Structural validation; errors name the offending field.

    With a ``subcommand``, also the rules of that subcommand: ``solve`` and
    ``sweep`` need an epsilon sweep of at least ``MIN_SWEEP`` values, while
    the audits accept one value.
    """
    if not isinstance(raw, Mapping):
        raise ConfigurationError("configuration must be a JSON object")
    unknown = set(raw) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigurationError(
            f"unknown section(s): {sorted(unknown)}",
            field=sorted(unknown)[0])
    problem = raw.get("problem", {})
    order = problem.get("order")
    if not isinstance(order, int) or order < 1:
        raise ConfigurationError("problem.order must be an integer >= 1",
                                 field="problem.order")
    horizon = problem.get("horizon", 1.0)
    if not horizon > 0:
        raise ConfigurationError("problem.horizon must be positive",
                                 field="problem.horizon")
    reg = raw.get("regularisation", {})
    sweep = reg.get("epsilon_sweep", [])
    if sweep is not None:
        if not isinstance(sweep, (list, tuple)) or len(sweep) == 0:
            raise ConfigurationError("epsilon_sweep must be a non-empty array",
                                     field="regularisation.epsilon_sweep")
        values = [float(e) for e in sweep]
        if any(not 0.0 < e <= 1.0 for e in values):
            raise ConfigurationError(
                "epsilon_sweep values must lie in (0, 1]",
                field="regularisation.epsilon_sweep")
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ConfigurationError(
                "epsilon_sweep must decrease strictly",
                field="regularisation.epsilon_sweep")
    if subcommand in _NET_SUBCOMMANDS and len(sweep or ()) < MIN_SWEEP:
        raise ConfigurationError(
            f"{subcommand} needs an epsilon_sweep of at least {MIN_SWEEP} "
            "values", field="regularisation.epsilon_sweep")
    grid = raw.get("grid", {})
    points = grid.get("points", 256)
    if not isinstance(points, int) or points < 2 or points & (points - 1):
        raise ConfigurationError("grid.points must be a power of two",
                                 field="grid.points")
    steps = grid.get("time_steps", 1024)
    if not isinstance(steps, int) or steps < 1:
        raise ConfigurationError("grid.time_steps must be an integer >= 1",
                                 field="grid.time_steps")
    box = grid.get("box_length")  # absent or null: sized from the cone
    if box is not None and not (isinstance(box, (int, float)) and box > 0):
        raise ConfigurationError("grid.box_length must be a positive number",
                                 field="grid.box_length")
    margin = grid.get("margin", 1.0)
    if not (isinstance(margin, (int, float)) and margin >= CONE_MARGIN):
        raise ConfigurationError(
            f"grid.margin must be a number >= {CONE_MARGIN:g}, the clearance "
            "every solve checks between the causal cone and the box edge",
            field="grid.margin")
    data = raw.get("data", [])
    if data and len(data) != order:
        raise ConfigurationError(
            f"data must list {order} entries (one per derivative order)",
            field="data")
    # resolve presets now so unknown names fail at validation time
    if "roots" in raw:
        build_root_family(raw["roots"], float(horizon))
    for i, spec in enumerate(raw.get("data", [])):
        build_profile(spec, f"data[{i}]")
    for i, spec in enumerate(raw.get("lower_terms", [])):
        if "profile" not in spec:
            raise ConfigurationError(
                f"lower_terms[{i}] needs a 'profile'",
                field=f"lower_terms[{i}].profile")
        build_profile(spec["profile"], f"lower_terms[{i}].profile")
        nu, j = int(spec.get("nu", -1)), int(spec.get("j", -1))
        if not 0 <= nu < j or j > order:
            raise ConfigurationError(
                f"lower_terms[{i}] needs 0 <= nu < j <= order",
                field=f"lower_terms[{i}]")
    forcing = raw.get("forcing")
    if forcing is not None:
        build_profile(_require(forcing, "time", "forcing"), "forcing.time")
        build_profile(_require(forcing, "space", "forcing"), "forcing.space")
    build_scale(reg, order)
    return ExperimentConfig(raw=dict(raw))


def load_config(path: str | Path,
                subcommand: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw, subcommand=subcommand)


# -- normalised echo ----------------------------------------------------------------


def _flatten(prefix: str, value: Any, out: list[tuple[str, str]]) -> None:
    if isinstance(value, Mapping):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    elif isinstance(value, bool):
        out.append((prefix, "true" if value else "false"))
    elif isinstance(value, float):
        out.append((prefix, format(value, ".17g")))
    elif value is None:
        out.append((prefix, "null"))
    else:
        out.append((prefix, str(value)))


def config_echo(cfg: ExperimentConfig) -> str:
    """Flat, sorted key = value rendering; the canonical run identity."""
    rows: list[tuple[str, str]] = []
    _flatten("", cfg.raw, rows)
    return "\n".join(f"{k} = {v}" for k, v in sorted(rows)) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_echo(cfg).encode("utf-8")).hexdigest()
