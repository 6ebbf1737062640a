"""Experiment configuration: JSON schema, validation, defaults, sweeps.

Configs are JSON objects with a versioned schema.  Unknown keys are errors
(not warnings) so that result files can always be traced back to an exact
parameter set.  This module checks JSON types and resolves defaults, among
them the closed-form diffusion ``gamma``; the range checks are the parameter
dataclasses' own, and their :class:`~qscsim.errors.FieldError` is re-raised
with the dotted path of the offending field.  Defaults follow the
reference magnitudes of the protocol: millisecond perception latency against
a minutes-scale mean collapse time.

The decision threshold, when left null, resolves to
``t_p + 5 * max(jitter_sigma, resolution)``: five noise scales leave
negligible false-positive mass under Gaussian jitter.  The config-level
``rule.batch_n`` default is 5 (a small batch of identically prepared states
per decision hedges against early stochastic collapses); a bare
:class:`~qscsim.protocol.DecisionRule` stays single-copy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from .collapse import DEFAULT_EPSILON, DEFAULT_KAPPA, CollapseModel, CollapseParams, diffusion_gamma
from .errors import ConfigFileError, ConfigParseError, FieldError, check_field, check_integer
from .observer import ObserverParams, PerceptionScenario, ScenarioTag
from .protocol import DecisionRule, InputKind, RuleKind

SCHEMA_VERSION = 1

DEFAULT_T_P = 0.001
DEFAULT_T_C_MEAN = 180.0
DEFAULT_JITTER_SIGMA = 0.0002
DEFAULT_RESOLUTION = 0.01
DEFAULT_THRESHOLD_NOISE_MARGIN = 5.0
DEFAULT_BATCH_N = 5

#: Fields a sweep may target, with the scalar type the values must carry.
SWEEPABLE_FIELDS: dict[str, type] = {
    "n_trials": int,
    "priors": float,
    "input_p1": float,
    "collapse.t_c_mean": float,
    "collapse.epsilon": float,
    "observer.t_p": float,
    "observer.jitter_sigma": float,
    "observer.resolution": float,
    "scenario.r": float,
    "rule.threshold_time": float,
    "rule.batch_n": int,
}


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional parameter sweep: dotted field path and its values."""

    param: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment definition with all defaults resolved.

    Construction checks the top-level fields, and for diffusion from an input
    weight inside ``(epsilon, 1 - epsilon)`` that ``collapse.gamma`` is given
    and yields a mean first passage of ``collapse.t_c_mean`` (to 1e-9
    relative).  Outside that band a diffusion ``gamma`` is never read, so it
    may be None.  A field out of range raises a
    :class:`~qscsim.errors.FieldError` that names it by its dotted path.
    """

    master_seed: int
    n_trials: int
    priors: float
    input_p1: float
    collapse: CollapseParams
    observer: ObserverParams
    scenario: PerceptionScenario
    rule: DecisionRule
    device_baseline: bool
    sweep: SweepSpec | None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise FieldError(
                "schema_version", f"unsupported version {self.schema_version!r}; this build reads {SCHEMA_VERSION}"
            )
        check_integer("master_seed", self.master_seed)
        if not 0 <= self.master_seed < 2**64:
            raise FieldError("master_seed", f"must be an unsigned 64-bit integer, got {self.master_seed!r}")
        check_integer("n_trials", self.n_trials)
        check_field("n_trials", self.n_trials, self.n_trials >= 1, ">= 1")
        check_field("priors", self.priors, 0.0 <= self.priors <= 1.0, "in [0.0, 1.0]")
        check_field("input_p1", self.input_p1, 0.0 <= self.input_p1 <= 1.0, "in [0.0, 1.0]")
        collapse, p1 = self.collapse, self.input_p1
        if collapse.model is CollapseModel.DIFFUSION and collapse.epsilon < p1 < 1.0 - collapse.epsilon:
            closed = diffusion_gamma(collapse.t_c_mean, p1, collapse.epsilon)
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


def default_threshold_time(observer: ObserverParams) -> float:
    return observer.t_p + DEFAULT_THRESHOLD_NOISE_MARGIN * max(
        observer.jitter_sigma, observer.resolution
    )


def _check_unknown(section: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise FieldError(where, "unknown key")


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_number(where: str, value: Any) -> None:
    """Raise :class:`FieldError` unless ``value`` is a JSON number that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FieldError(where, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf and integers beyond the float range
        raise FieldError(where, f"must be finite, got {value!r}")


def _get_number(
    section: Mapping[str, Any],
    key: str,
    path: str,
    default: float | None,
    *,
    required: bool = False,
    integer: bool = False,
) -> Any:
    where = _field(path, key)
    if key not in section or section[key] is None:
        if required:
            raise FieldError(where, "required field is missing")
        return default
    value = section[key]
    _check_number(where, value)
    if integer:
        if not isinstance(value, int):
            raise FieldError(where, f"expected an integer, got {value!r}")
        return value
    return float(value)


def _get_enum(
    section: Mapping[str, Any], key: str, path: str, enum_type: type, default: Any
) -> Any:
    where = _field(path, key)
    if key not in section or section[key] is None:
        return default
    value = section[key]
    try:
        return enum_type(value)
    except ValueError:
        options = ", ".join(member.value for member in enum_type)
        raise FieldError(where, f"must be one of: {options}; got {value!r}") from None


def _build(section: str, make: Callable[..., Any], **fields: Any) -> Any:
    """``make(**fields)``, with a field error reported at its dotted path."""
    try:
        return make(**fields)
    except FieldError as exc:
        raise FieldError(_field(section, exc.field), exc.message) from None


def _parse_collapse(section: Mapping[str, Any], input_p1: float) -> CollapseParams:
    path = "collapse"
    _check_unknown(section, {"model", "t_c_mean", "gamma", "epsilon", "energy", "kappa"}, path)
    model = _get_enum(section, "model", path, CollapseModel, CollapseModel.JUMP_EXPONENTIAL)
    kappa = _get_number(section, "kappa", path, DEFAULT_KAPPA)
    energy = _get_number(section, "energy", path, None)
    t_c_mean = _get_number(section, "t_c_mean", path, None)
    if t_c_mean is None:
        t_c_mean = kappa / energy if energy else DEFAULT_T_C_MEAN
    collapse = _build(
        path, CollapseParams,
        model=model, t_c_mean=t_c_mean, epsilon=_get_number(section, "epsilon", path, DEFAULT_EPSILON),
        gamma=_get_number(section, "gamma", path, None), energy=energy, kappa=kappa,
    )
    # An omitted diffusion gamma is the closed form wherever one exists;
    # outside (epsilon, 1 - epsilon) it is never read.
    in_band = collapse.epsilon < input_p1 < 1.0 - collapse.epsilon
    if collapse.model is CollapseModel.DIFFUSION and collapse.gamma is None and in_band:
        collapse = replace(collapse, gamma=diffusion_gamma(collapse.t_c_mean, input_p1, collapse.epsilon))
    return collapse


def _parse_observer(section: Mapping[str, Any]) -> ObserverParams:
    path = "observer"
    _check_unknown(section, {"t_p", "jitter_sigma", "resolution"}, path)
    return _build(
        path, ObserverParams,
        t_p=_get_number(section, "t_p", path, DEFAULT_T_P),
        jitter_sigma=_get_number(section, "jitter_sigma", path, DEFAULT_JITTER_SIGMA),
        resolution=_get_number(section, "resolution", path, DEFAULT_RESOLUTION),
    )


def _parse_scenario(section: Mapping[str, Any]) -> PerceptionScenario:
    path = "scenario"
    _check_unknown(section, {"tag", "r"}, path)
    tag = _get_enum(section, "tag", path, ScenarioTag, ScenarioTag.POST_COLLAPSE_ONLY)
    return _build(path, PerceptionScenario, tag=tag, r=_get_number(section, "r", path, None))


def _parse_rule(section: Mapping[str, Any], observer: ObserverParams) -> DecisionRule:
    path = "rule"
    _check_unknown(section, {"kind", "threshold_time", "batch_n", "no_change_guess"}, path)
    kind = _get_enum(section, "kind", path, RuleKind, RuleKind.TIMING_THRESHOLD)
    threshold = _get_number(section, "threshold_time", path, None)
    if threshold is None and kind is not RuleKind.CHANGE_DETECTION:
        threshold = default_threshold_time(observer)
    return _build(
        path, DecisionRule,
        kind=kind,
        threshold_time=threshold,
        batch_n=_get_number(section, "batch_n", path, DEFAULT_BATCH_N, integer=True),
        no_change_guess=_get_enum(section, "no_change_guess", path, InputKind, InputKind.DEFINITE),
    )


def _parse_sweep(section: Mapping[str, Any]) -> SweepSpec:
    path = "sweep"
    _check_unknown(section, {"param", "values"}, path)
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
    cast = (lambda v: int(v)) if want is int else (lambda v: float(v))
    return SweepSpec(param=param, values=tuple(cast(v) for v in values))


_TOP_KEYS = {
    "schema_version", "master_seed", "n_trials", "priors", "input_p1",
    "collapse", "observer", "scenario", "rule", "device_baseline", "sweep",
}


def parse_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw JSON object and resolve every default."""
    if not isinstance(raw, Mapping):
        raise FieldError("", "config must be a JSON object")
    _check_unknown(raw, _TOP_KEYS, "")

    version = _get_number(raw, "schema_version", "", SCHEMA_VERSION, integer=True)
    seed = _get_number(raw, "master_seed", "", None, required=True, integer=True)
    n_trials = _get_number(raw, "n_trials", "", None, required=True, integer=True)
    priors = _get_number(raw, "priors", "", 0.5)
    input_p1 = _get_number(raw, "input_p1", "", 0.5)

    for key in ("collapse", "observer", "scenario", "rule", "sweep"):
        if key in raw and raw[key] is not None and not isinstance(raw[key], Mapping):
            raise FieldError(key, "must be a JSON object")

    collapse = _parse_collapse(raw.get("collapse") or {}, input_p1)
    observer = _parse_observer(raw.get("observer") or {})
    scenario = _parse_scenario(raw.get("scenario") or {})
    rule = _parse_rule(raw.get("rule") or {}, observer)

    device = raw.get("device_baseline", False)
    if not isinstance(device, bool):
        raise FieldError("device_baseline", f"expected true/false, got {device!r}")

    sweep = None
    if raw.get("sweep") is not None:
        sweep = _parse_sweep(raw["sweep"])

    return _build(
        "", ExperimentConfig,
        master_seed=seed,
        n_trials=n_trials,
        priors=priors,
        input_p1=input_p1,
        collapse=collapse,
        observer=observer,
        scenario=scenario,
        rule=rule,
        device_baseline=device,
        sweep=sweep,
        schema_version=version,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read, parse, and validate a config file."""
    return parse_config(read_raw_config(path))


def read_raw_config(path: str | Path) -> dict[str, Any]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"config file {path} must contain a JSON object")
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


def config_to_json_dict(config: ExperimentConfig) -> dict[str, Any]:
    """Resolved parameter set as a JSON-serializable dict (for echoing)."""
    out: dict[str, Any] = {
        "schema_version": config.schema_version,
        "master_seed": config.master_seed,
        "n_trials": config.n_trials,
        "priors": config.priors,
        "input_p1": config.input_p1,
        "collapse": {
            "model": config.collapse.model.value,
            "t_c_mean": config.collapse.t_c_mean,
            "gamma": config.collapse.gamma,
            "epsilon": config.collapse.epsilon,
            "energy": config.collapse.energy,
            "kappa": config.collapse.kappa,
        },
        "observer": {
            "t_p": config.observer.t_p,
            "jitter_sigma": config.observer.jitter_sigma,
            "resolution": config.observer.resolution,
        },
        "scenario": {"tag": config.scenario.tag.value, "r": config.scenario.r},
        "rule": {
            "kind": config.rule.kind.value,
            "threshold_time": config.rule.threshold_time,
            "batch_n": config.rule.batch_n,
            "no_change_guess": config.rule.no_change_guess.value,
        },
        "device_baseline": config.device_baseline,
        "sweep": None,
    }
    if config.sweep is not None:
        out["sweep"] = {"param": config.sweep.param, "values": list(config.sweep.values)}
    return out
