"""Experiment configuration: JSON schema, validation, defaults, sweeps.

Configs are JSON objects with a versioned schema.  Unknown and repeated keys
are errors (not warnings) so that result files can always be traced back to
an exact parameter set.  This module checks JSON types and resolves
defaults, among them the closed-form diffusion ``gamma``; the range checks
are the parameter dataclasses' own, and their
:class:`~qscsim.errors.FieldError` is re-raised with the dotted path of the
offending field.  Defaults follow the reference magnitudes of the protocol:
millisecond perception latency against a minutes-scale mean collapse time.

Each config key is a parameter-dataclass field, declared once: the reader,
the echo (:func:`~qscsim.report.to_json_dict`), :data:`SWEEPABLE_FIELDS` and
the stream-layout key come from its type, default and ``metadata``: ``json``
(the config default, where the dataclass has none or another), ``required``,
``sweep`` (a sweep may target it) and ``draws`` (it can change a draw or a
draw count).

The decision threshold, when left null, resolves to
``t_p + 5 * max(jitter_sigma, 0.01)``: five noise scales leave
negligible false-positive mass under Gaussian jitter.  The config-level
``rule.batch_n`` default is 5 (a small batch of identically prepared states
per decision hedges against early stochastic collapses); a bare
:class:`~qscsim.protocol.DecisionRule` stays single-copy.
"""

from __future__ import annotations

import functools
import json
import sys
from collections.abc import Callable, Mapping
from dataclasses import MISSING, dataclass, field, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any

from .collapse import CollapseModel, CollapseParams, between_bands, diffusion_gamma
from .errors import ConfigError, FieldError, check_field, check_integer
from .observer import ObserverParams, PerceptionScenario
from .protocol import DecisionRule, RuleKind, field_types, leaf_fields

SCHEMA_VERSION = 1
#: Largest ``n_trials``: a float64 holds every count up to it exactly.
MAX_TRIALS = 2**53

DEFAULT_THRESHOLD_NOISE_MARGIN = 5.0
#: Least noise scale (s) of the default threshold: the timing gap an observer without jitter tells apart.
DEFAULT_THRESHOLD_NOISE_FLOOR = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep: dotted field path and its values."""

    param: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment definition with all defaults resolved.

    Construction checks the top-level fields, and for diffusion from an input
    weight :func:`~qscsim.collapse.between_bands` that ``collapse.gamma`` is
    given and yields a mean first passage of ``collapse.t_c_mean`` (to 1e-9
    relative), a closed form that must be finite; elsewhere it is never read
    and may be None.  A field out of range raises a
    :class:`~qscsim.errors.FieldError` naming its dotted path.
    """

    # Keyword-only so that it can come first: the echo keeps declaration order.
    schema_version: int = field(default=SCHEMA_VERSION, kw_only=True)
    master_seed: int = field(metadata={"required": True, "draws": True})
    n_trials: int = field(metadata={"required": True, "sweep": True, "draws": True})
    priors: float = field(metadata={"json": 0.5, "sweep": True, "draws": True})
    input_p1: float = field(metadata={"json": 0.5, "sweep": True, "draws": True})
    collapse: CollapseParams
    observer: ObserverParams
    scenario: PerceptionScenario
    rule: DecisionRule
    device_baseline: bool = field(metadata={"json": False, "draws": True})
    sweep: SweepSpec | None

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise FieldError(
                "schema_version", f"unsupported version {self.schema_version!r}; this build reads {SCHEMA_VERSION}"
            )
        check_integer("master_seed", self.master_seed)
        if not 0 <= self.master_seed < 2**64:
            raise FieldError("master_seed", f"must be an unsigned 64-bit integer, got {self.master_seed!r}")
        check_integer("n_trials", self.n_trials)
        check_field("n_trials", self.n_trials, 1 <= self.n_trials <= MAX_TRIALS, "in [1, 2**53]")
        check_field("priors", self.priors, 0.0 <= self.priors <= 1.0, "in [0.0, 1.0]")
        check_field("input_p1", self.input_p1, 0.0 <= self.input_p1 <= 1.0, "in [0.0, 1.0]")
        collapse, p1 = self.collapse, self.input_p1
        closed = _closed_gamma(collapse, p1)
        if closed is not None:
            if collapse.gamma is None:
                raise FieldError(
                    "collapse.gamma",
                    f"required for diffusion from input_p1 {p1!r} inside (epsilon, 1 - epsilon); "
                    f"the closed form for t_c_mean {collapse.t_c_mean!r} is {closed!r}",
                )
            if abs(collapse.gamma - closed) > 1e-9 * closed:
                raise FieldError(
                    "collapse.gamma",
                    f"{collapse.gamma!r} is inconsistent with t_c_mean {collapse.t_c_mean!r}: a mean first "
                    f"passage of t_c_mean from input_p1 {p1!r} needs gamma {closed!r}; omit gamma to use it",
                )


def _closed_gamma(collapse: CollapseParams, p1: float) -> float | None:
    """The closed-form diffusion ``gamma`` of ``collapse`` from ``p1``, or None where the walk
    needs none; a :class:`FieldError` at ``collapse.t_c_mean`` where the closed form overflows."""
    if collapse.model is not CollapseModel.DIFFUSION or not between_bands(p1, collapse.epsilon):
        return None
    try:
        return diffusion_gamma(collapse.t_c_mean, p1, collapse.epsilon)
    except ValueError:  # CollapseParams bounds t_c_mean and epsilon, so only the overflow is left
        raise FieldError(
            "collapse.t_c_mean",
            f"{collapse.t_c_mean!r} is too small for diffusion from input_p1 {p1!r}: the closed-form gamma overflows",
        ) from None


#: Fields a sweep may target, with the scalar type the values must carry.
SWEEPABLE_FIELDS: dict[str, type] = {
    path: kind for path, f, kind in leaf_fields(ExperimentConfig) if f.metadata.get("sweep")
}


def _check_unknown(section: Mapping[str, Any], allowed: frozenset[str] | set[str], path: str) -> None:
    if not allowed.issuperset(section):
        raise FieldError(_field(path, min(set(section) - allowed)), "unknown key")


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_number(where: str, value: Any) -> None:
    """Raise :class:`FieldError` unless ``value`` is a JSON number that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FieldError(where, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf and integers beyond the float range
        raise FieldError(where, f"must be finite, got {value!r}")


@functools.cache
def _plan(cls: type, path: str) -> tuple[frozenset[str], tuple[tuple[str, str, type, Any], ...]]:
    """The keys a ``cls`` section at ``path`` allows, and each non-section field's ``(name,
    dotted path, type or enum members by value, JSON default or MISSING if required)``."""
    scalars = []
    for f, kind in field_types(cls):
        if not is_dataclass(kind):
            default = f.metadata.get("json", None if f.default is MISSING else f.default)
            if issubclass(kind, Enum):
                kind = {member.value: member for member in kind}
            scalars.append((f.name, _field(path, f.name), kind, MISSING if f.metadata.get("required") else default))
    return frozenset(f.name for f, _ in field_types(cls)), tuple(scalars)


def _read(cls: type, section: Mapping[str, Any], path: str) -> dict[str, Any]:
    """A ``cls`` section's fields that are not sections, type-checked, null ones at their JSON default."""
    allowed, scalars = _plan(cls, path)
    _check_unknown(section, allowed, path)
    values = {}
    for name, where, kind, default in scalars:
        value = section.get(name)
        # A null true/false is a type error, not the default.
        if value is None and (kind is not bool or name not in section):
            if default is MISSING:
                raise FieldError(where, "required field is missing")
            value = default
        elif kind is float or kind is int:
            _check_number(where, value)
            if kind is int and not isinstance(value, int):
                raise FieldError(where, f"expected an integer, got {value!r}")
            value = kind(value)
        elif kind is bool:
            if not isinstance(value, bool):
                raise FieldError(where, f"expected true/false, got {value!r}")
        else:
            try:
                value = kind[value]
            except (KeyError, TypeError):  # TypeError: an unhashable value
                raise FieldError(where, f"must be one of: {', '.join(kind)}; got {value!r}") from None
        values[name] = value
    return values


def _build(section: str, make: Callable[..., Any], **fields: Any) -> Any:
    """``make(**fields)``, with a field error reported at its dotted path."""
    try:
        return make(**fields)
    except FieldError as exc:
        raise FieldError(_field(section, exc.field), exc.message) from None


def _parse_sweep(section: Mapping[str, Any]) -> SweepSpec:
    _check_unknown(section, {"param", "values"}, "sweep")
    if "param" not in section or not isinstance(section["param"], str):
        raise FieldError("sweep.param", "required string field")
    param = section["param"]
    if param not in SWEEPABLE_FIELDS:
        options = ", ".join(sorted(SWEEPABLE_FIELDS))
        raise FieldError("sweep.param", f"not sweepable; choose one of: {options}")
    values = section.get("values")
    if not isinstance(values, list) or len(values) == 0:
        raise FieldError("sweep.values", "must be a non-empty list")
    want = SWEEPABLE_FIELDS[param]
    for i, value in enumerate(values):
        _check_number(f"sweep.values[{i}]", value)
        if want is int and not isinstance(value, int):
            raise FieldError(f"sweep.values[{i}]", f"{param} takes integers, got {value!r}")
    return SweepSpec(param=param, values=tuple(want(v) for v in values))


def parse_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw JSON object and resolve every default."""
    if not isinstance(raw, Mapping):
        raise FieldError("", "config must be a JSON object")
    top = _read(ExperimentConfig, raw, "")
    for key in ("collapse", "observer", "scenario", "rule", "sweep"):
        if raw.get(key) is not None and not isinstance(raw[key], Mapping):
            raise FieldError(key, "must be a JSON object")

    collapse = _build("collapse", CollapseParams, **_read(CollapseParams, raw.get("collapse") or {}, "collapse"))
    # An omitted diffusion gamma is the closed form wherever the walk needs one.
    if collapse.gamma is None:
        collapse = replace(collapse, gamma=_closed_gamma(collapse, top["input_p1"]))
    observer = _build("observer", ObserverParams, **_read(ObserverParams, raw.get("observer") or {}, "observer"))
    scenario = _build("scenario", PerceptionScenario, **_read(PerceptionScenario, raw.get("scenario") or {}, "scenario"))
    rule = _read(DecisionRule, raw.get("rule") or {}, "rule")
    if rule["threshold_time"] is None and rule["kind"] is not RuleKind.CHANGE_DETECTION:
        noise = max(observer.jitter_sigma, DEFAULT_THRESHOLD_NOISE_FLOOR)
        rule["threshold_time"] = observer.t_p + DEFAULT_THRESHOLD_NOISE_MARGIN * noise
    rule = _build("rule", DecisionRule, **rule)
    sweep = None if raw.get("sweep") is None else _parse_sweep(raw["sweep"])
    return _build(
        "", ExperimentConfig,
        **top, collapse=collapse, observer=observer, scenario=scenario, rule=rule, sweep=sweep,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read, parse, and validate a config file."""
    return parse_config(read_raw_config(path))


def read_raw_config(path: str | Path) -> dict[str, Any]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj: dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config file {path} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    # A JSONDecodeError, an integer beyond Python's digit limit, or nesting beyond the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return raw


def set_config_field(raw: Mapping[str, Any], param: str, value: Any) -> dict[str, Any]:
    """Return a copy of ``raw`` with the dotted field replaced.

    Only the dicts on the dotted path are copied; everything else is shared
    with ``raw``, which is left unmodified.  A section on the path that is
    absent or not an object is created.
    """
    head, _, rest = param.partition(".")
    updated = dict(raw)
    if rest:
        child = raw.get(head)
        updated[head] = set_config_field(child if isinstance(child, dict) else {}, rest, value)
    else:
        updated[head] = value
    return updated


def expand_sweep(raw: Mapping[str, Any]) -> list[tuple[Any, ExperimentConfig]]:
    """Expand a raw config with a sweep into per-point validated configs.

    Points are ordered by ascending sweep value.  Each point revalidates the
    whole config, so defaults that depend on the swept field are re-resolved
    per point.  A point that fails validation keeps the field path of the
    offending field and names the sweep value in its message.
    """
    base = parse_config(raw)
    if base.sweep is None:
        raise FieldError("sweep", "required for sweep expansion")
    param = base.sweep.param
    points = []
    for value in sorted(base.sweep.values):
        raw_point = set_config_field(raw, param, value)
        raw_point.pop("sweep", None)
        try:
            config = parse_config(raw_point)
        except FieldError as exc:
            raise FieldError(exc.field, f"{exc.message} (sweep point {param} = {value!r})") from None
        points.append((value, config))
    return points
