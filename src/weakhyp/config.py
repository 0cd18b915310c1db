"""Experiment configuration: a flat JSON document with named presets.

No expression evaluation: rough profiles are preset-parameterised or
tabulated, so a config is plain data and a run is reproducible from the
normalised echo alone.

The config is read once.  :func:`validate_config` checks the document's
shape and the epsilon sweep; the builders here and in ``experiments`` check
the values they read, before any stage runs.  A malformed value is a
:class:`ConfigurationError` naming its field, which the CLI reports with
exit status 2.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from .analysis import MIN_FIT_SAMPLES
from .errors import ConfigurationError, WeakHypError
from .profiles import (RoughProfile, bump_profile, box_profile,
                       constant_profile, heaviside_profile, hoelder_profile,
                       piecewise_constant_profile, point_mass_profile,
                       polynomial_piece_profile, zero_profile)
from .roots import (OmegaScale, RootFamily, constant_roots, linear_scale,
                    logarithmic_scale, roots_from_time_profiles,
                    transport_roots, wave_speed_roots)
from .solver import MIN_SWEEP

# SHA-256 from the interpreter's own module, as ``random`` takes SHA-512:
# hashlib loads OpenSSL, several MB, to hash one short echo
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: fewest epsilons each subcommand that solves a net needs: ``solve``
#: compares epsilons, and ``sweep`` also fits the moderateness exponent
_MIN_SWEEP = {"solve": MIN_SWEEP, "sweep": MIN_FIT_SAMPLES}


@contextmanager
def config_field(path: str) -> Iterator[None]:
    """Report a missing key, an ill-typed value or a package error met
    while reading the config field ``path`` as a :class:`ConfigurationError`
    naming it; one raised inside, which names its own field, passes."""
    try:
        yield
    except ConfigurationError:
        raise
    except (WeakHypError, ValueError, TypeError, KeyError) as exc:
        raise ConfigurationError(f"'{path}': {exc}", field=path) from exc


def require(mapping: Mapping, key: str, path: str) -> Any:
    """``mapping[key]``; ``path`` names the mapping, "" for the document."""
    field = f"{path}.{key}" if path else key
    if not isinstance(mapping, Mapping) or key not in mapping:
        raise ConfigurationError(f"missing required field '{field}'",
                                 field=field)
    return mapping[key]


def integer(value: Any, path: str) -> int:
    """``value`` as an int; anything but an integral number in the float
    range, a boolean included, is a ConfigurationError naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max \
            or not float(value).is_integer():
        raise ConfigurationError(f"'{path}' must be an integer, got {value!r}",
                                 field=path)
    return int(value)


def real(value: Any, path: str) -> float:
    """``value`` as a finite float; anything else, a boolean, a string, the
    NaN and Infinity that JSON readers accept or an integer past the float
    range included, is a ConfigurationError naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigurationError(
            f"'{path}' must be a finite number, got {value!r}", field=path)
    return float(value)


def reals(values: Any, path: str) -> tuple[float, ...]:
    """``values``, a JSON array of numbers, as floats; a wrong element is a
    ConfigurationError naming ``path[i]``."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"'{path}' must be an array, got {values!r}",
                                 field=path)
    return tuple(real(v, f"{path}[{i}]") for i, v in enumerate(values))


def positive_integer(value: Any, path: str) -> int:
    """``value`` as an int of at least 1, the check of every count and size;
    anything else is a ConfigurationError naming ``path``."""
    number = integer(value, path)
    if number < 1:
        raise ConfigurationError(f"'{path}' must be at least 1, got {number}",
                                 field=path)
    return number


def build_profile(spec: Mapping, path: str,
                  support: tuple[float, float] | None = None) -> RoughProfile:
    """Resolve a named profile preset into a RoughProfile; every number is
    read through :func:`real` or :func:`reals`, under ``path.key``."""
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"'{path}' must be an object", field=path)
    preset = require(spec, "preset", path)

    def number(key: str, default: float | None = None) -> float:
        return real(require(spec, key, path) if default is None
                    else spec.get(key, default), f"{path}.{key}")

    def numbers(key: str) -> tuple[float, ...]:
        return reals(require(spec, key, path), f"{path}.{key}")

    with config_field(path):
        sup = reals(spec.get("support", support or (0.0, 1.0)),
                    f"{path}.support")
        if preset == "constant":
            return constant_profile(number("value"), sup)
        if preset == "heaviside":
            return heaviside_profile(number("jump"), number("low"),
                                     number("high"), sup)
        if preset == "piecewise_constant":
            return piecewise_constant_profile(numbers("breakpoints"),
                                              numbers("values"), sup)
        if preset == "hoelder":
            return hoelder_profile(number("alpha"), number("center"),
                                   number("base", 1.0),
                                   number("amplitude", 1.0), sup)
        if preset == "polynomial":
            return polynomial_piece_profile(numbers("coefficients"),
                                            number("lo"), number("hi"))
        if preset == "bump":
            return bump_profile(number("center", 0.0), number("radius"),
                                number("amplitude", 1.0))
        if preset == "box":
            return box_profile(number("center", 0.0), number("halfwidth"),
                               number("amplitude", 1.0))
        if preset in ("point_mass", "delta"):
            return point_mass_profile(
                number("location", 0.0),
                integer(spec.get("order", 0), f"{path}.order"),
                number("weight", 1.0))
        if preset == "zero":
            return zero_profile()
    raise ConfigurationError(f"unknown profile preset '{preset}' at '{path}'",
                             field=path)


def build_root_family(spec: Mapping, horizon: float) -> RootFamily:
    preset = require(spec, "preset", "roots")
    if preset == "constant":
        with config_field("roots.values"):
            return constant_roots(
                reals(require(spec, "values", "roots"), "roots.values"),
                horizon=horizon)
    if preset == "transport":
        return transport_roots(real(require(spec, "speed", "roots"),
                                    "roots.speed"), horizon=horizon)
    if preset == "wave_speed":
        speed = build_profile(require(spec, "speed", "roots"), "roots.speed",
                              (0.0, horizon))
        return wave_speed_roots(speed, horizon=horizon)
    # shorthand: a speed-profile preset name directly names the wave speed
    if preset in ("heaviside", "hoelder", "piecewise_constant"):
        speed = build_profile(dict(spec, preset=preset), "roots",
                              (0.0, horizon))
        return wave_speed_roots(speed, horizon=horizon)
    if preset == "profiles":
        profiles = [build_profile(p, f"roots.profiles[{i}]", (0.0, horizon))
                    for i, p in enumerate(require(spec, "profiles", "roots"))]
        return roots_from_time_profiles(profiles, horizon=horizon)
    raise ConfigurationError(f"unknown roots preset '{preset}'",
                             field="roots.preset")


def build_scale(spec: Mapping, order: int) -> OmegaScale:
    kind = spec.get("scale", "linear")
    if kind == "linear":
        with config_field("regularisation.coefficient"):
            return linear_scale(real(spec.get("coefficient", 1.0),
                                     "regularisation.coefficient"))
    if kind == "logarithmic":
        path = "regularisation.log_exponent"
        with config_field(path):
            return logarithmic_scale(
                integer(spec.get("log_exponent", 1), path), order)
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
        return self.number("problem.horizon", 1.0, float)

    @property
    def epsilon_sweep(self) -> tuple[float, ...]:
        return tuple(float(e)
                     for e in self.raw["regularisation"]["epsilon_sweep"])

    def section(self, name: str) -> dict:
        return self.raw.get(name, {})

    def number(self, path: str, default: float, kind: type) -> Any:
        """The value at ``section.key`` as ``kind``, float or int, or
        ``default`` when absent; a value that is not a ``kind`` (see
        :func:`integer` and :func:`real`) is a ConfigurationError naming
        ``path``."""
        section, key = path.split(".", 1)
        value = self.section(section).get(key, default)
        return integer(value, path) if kind is int else real(value, path)

    def count(self, path: str, default: int) -> int:
        """The value at ``section.key``, or ``default``, as an int of at
        least 1 (see :func:`positive_integer`)."""
        section, key = path.split(".", 1)
        return positive_integer(self.section(section).get(key, default), path)

    @property
    def seed(self) -> int:
        return self.number("run.seed", 0, int)


_KNOWN_SECTIONS = {"problem", "roots", "lower_terms", "data", "forcing",
                   "regularisation", "grid", "reference", "analysis",
                   "checks", "roundtrip", "symmetriser", "reduce", "run"}


def validate_config(raw: Mapping,
                    subcommand: str | None = None) -> ExperimentConfig:
    """Check the document's shape; errors name the offending field.

    With a ``subcommand``, also its minimum sweep: ``solve`` needs
    ``MIN_SWEEP`` epsilons and ``sweep`` ``MIN_FIT_SAMPLES``, while the
    audits accept one value.  Everything else is checked by the builders
    that read it.
    """
    if not isinstance(raw, Mapping):
        raise ConfigurationError("configuration must be a JSON object")
    unknown = set(raw) - _KNOWN_SECTIONS
    if unknown:
        raise ConfigurationError(
            f"unknown section(s): {sorted(unknown)}",
            field=sorted(unknown)[0])
    for name, section in raw.items():
        # two sections are arrays, the others objects; forcing may be null
        array = name in ("data", "lower_terms")
        if not (isinstance(section, list if array else Mapping)
                or name == "forcing" and section is None):
            raise ConfigurationError(
                f"'{name}' must be {'an array' if array else 'an object'}",
                field=name)
    cfg = ExperimentConfig(raw=dict(raw))
    if integer(raw.get("problem", {}).get("order"), "problem.order") < 1:
        raise ConfigurationError("problem.order must be >= 1",
                                 field="problem.order")
    if not cfg.horizon > 0:
        raise ConfigurationError("problem.horizon must be positive",
                                 field="problem.horizon")
    sweep = raw.get("regularisation", {}).get("epsilon_sweep", [])
    if sweep is not None:
        if not isinstance(sweep, (list, tuple)) or len(sweep) == 0:
            raise ConfigurationError("epsilon_sweep must be a non-empty array",
                                     field="regularisation.epsilon_sweep")
        values = reals(sweep, "regularisation.epsilon_sweep")
        if any(not 0.0 < e <= 1.0 for e in values):
            raise ConfigurationError(
                "epsilon_sweep values must lie in (0, 1]",
                field="regularisation.epsilon_sweep")
        if any(b >= a for a, b in zip(values, values[1:])):
            raise ConfigurationError(
                "epsilon_sweep must decrease strictly",
                field="regularisation.epsilon_sweep")
    least = _MIN_SWEEP.get(subcommand)
    if least is not None and len(sweep or ()) < least:
        raise ConfigurationError(
            f"{subcommand} needs an epsilon_sweep of at least {least} "
            "values", field="regularisation.epsilon_sweep")
    return cfg


def load_config(path: str | Path,
                subcommand: str | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
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
    return sha256(config_echo(cfg).encode("utf-8")).hexdigest()
