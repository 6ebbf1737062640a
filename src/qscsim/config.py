"""Experiment configuration: JSON schema, validation, defaults, sweeps.

Configs are JSON objects with a versioned schema.  Unknown keys are errors
(not warnings) so that result files can always be traced back to an exact
parameter set.  Validation errors carry the dotted path of the offending
field.  Defaults follow the reference magnitudes of the protocol: millisecond
perception latency against a minutes-scale mean collapse time.

The decision threshold, when left null, resolves to
``t_p + 5 * max(jitter_sigma, resolution)``: five noise scales leave
negligible false-positive mass under Gaussian jitter.  The config-level
``rule.batch_n`` default is 5 (a small batch of identically prepared states
per decision hedges against early stochastic collapses); a bare
:class:`~qscsim.protocol.DecisionRule` stays single-copy.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .collapse import DEFAULT_EPSILON, DEFAULT_KAPPA, CollapseModel, CollapseParams
from .errors import ConfigFileError, ConfigParseError, ConfigValidationError
from .observer import ObserverParams, PerceptionScenario, ScenarioTag
from .protocol import DecisionRule, RuleKind
from .states import InputKind

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
    "collapse.gamma": float,
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
    """Fully validated experiment definition with all defaults resolved."""

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


def default_threshold_time(observer: ObserverParams) -> float:
    return observer.t_p + DEFAULT_THRESHOLD_NOISE_MARGIN * max(
        observer.jitter_sigma, observer.resolution
    )


def _check_unknown(section: Mapping[str, Any], allowed: set[str], path: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        name = sorted(unknown)[0]
        where = f"{path}.{name}" if path else name
        raise ConfigValidationError(where, "unknown key")


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


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
            raise ConfigValidationError(where, "required field is missing")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigValidationError(where, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigValidationError(where, f"must be finite, got {value!r}")
    if integer:
        if not isinstance(value, int):
            raise ConfigValidationError(where, f"expected an integer, got {value!r}")
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
        raise ConfigValidationError(where, f"must be one of: {options}; got {value!r}") from None


def _require_range(value: float, lo: float, hi: float, where: str, *, open_lo: bool = False, open_hi: bool = False) -> None:
    bad_lo = value <= lo if open_lo else value < lo
    bad_hi = value >= hi if open_hi else value > hi
    if bad_lo or bad_hi:
        lo_b = "(" if open_lo else "["
        hi_b = ")" if open_hi else "]"
        raise ConfigValidationError(where, f"must be in {lo_b}{lo}, {hi}{hi_b}, got {value!r}")


def _parse_collapse(section: Mapping[str, Any]) -> CollapseParams:
    path = "collapse"
    _check_unknown(section, {"model", "t_c_mean", "gamma", "epsilon", "energy", "kappa"}, path)
    model = _get_enum(section, "model", path, CollapseModel, CollapseModel.JUMP_EXPONENTIAL)
    kappa = _get_number(section, "kappa", path, DEFAULT_KAPPA)
    energy = _get_number(section, "energy", path, None)
    t_c_mean = _get_number(section, "t_c_mean", path, None)
    if t_c_mean is None:
        t_c_mean = kappa / energy if energy else DEFAULT_T_C_MEAN
    if t_c_mean <= 0.0:
        raise ConfigValidationError("collapse.t_c_mean", f"must be > 0, got {t_c_mean!r}")
    gamma = _get_number(section, "gamma", path, None)
    if model is CollapseModel.DIFFUSION and (gamma is None or gamma <= 0.0):
        raise ConfigValidationError("collapse.gamma", "diffusion model requires gamma > 0 (see the calibrate command)")
    epsilon = _get_number(section, "epsilon", path, DEFAULT_EPSILON)
    _require_range(epsilon, 0.0, 0.5, "collapse.epsilon", open_lo=True, open_hi=True)
    if energy is not None and energy <= 0.0:
        raise ConfigValidationError("collapse.energy", f"must be > 0, got {energy!r}")
    if kappa <= 0.0:
        raise ConfigValidationError("collapse.kappa", f"must be > 0, got {kappa!r}")
    try:
        return CollapseParams(
            model=model, t_c_mean=t_c_mean, gamma=gamma, epsilon=epsilon, energy=energy, kappa=kappa,
        )
    except ValueError as exc:
        raise ConfigValidationError(path, str(exc)) from None


def _parse_observer(section: Mapping[str, Any]) -> ObserverParams:
    path = "observer"
    _check_unknown(section, {"t_p", "jitter_sigma", "resolution"}, path)
    t_p = _get_number(section, "t_p", path, DEFAULT_T_P)
    if t_p <= 0.0:
        raise ConfigValidationError("observer.t_p", f"must be > 0, got {t_p!r}")
    jitter = _get_number(section, "jitter_sigma", path, DEFAULT_JITTER_SIGMA)
    if jitter < 0.0:
        raise ConfigValidationError("observer.jitter_sigma", f"must be >= 0, got {jitter!r}")
    resolution = _get_number(section, "resolution", path, DEFAULT_RESOLUTION)
    if resolution <= 0.0:
        raise ConfigValidationError("observer.resolution", f"must be > 0, got {resolution!r}")
    return ObserverParams(t_p=t_p, jitter_sigma=jitter, resolution=resolution)


def _parse_scenario(section: Mapping[str, Any]) -> PerceptionScenario:
    path = "scenario"
    _check_unknown(section, {"tag", "r"}, path)
    tag = _get_enum(section, "tag", path, ScenarioTag, ScenarioTag.POST_COLLAPSE_ONLY)
    r = _get_number(section, "r", path, None)
    if tag is ScenarioTag.RANDOM_PERCEPT:
        if r is None:
            raise ConfigValidationError("scenario.r", "required for random_percept")
        _require_range(r, 0.0, 1.0, "scenario.r")
    elif r is not None:
        raise ConfigValidationError("scenario.r", "only meaningful for random_percept")
    return PerceptionScenario(tag=tag, r=r)


def _parse_rule(section: Mapping[str, Any], observer: ObserverParams) -> DecisionRule:
    path = "rule"
    _check_unknown(section, {"kind", "threshold_time", "batch_n", "no_change_guess"}, path)
    kind = _get_enum(section, "kind", path, RuleKind, RuleKind.TIMING_THRESHOLD)
    threshold = _get_number(section, "threshold_time", path, None)
    if threshold is None and kind is not RuleKind.CHANGE_DETECTION:
        threshold = default_threshold_time(observer)
    if threshold is not None and threshold <= 0.0:
        raise ConfigValidationError("rule.threshold_time", f"must be > 0, got {threshold!r}")
    batch_n = _get_number(section, "batch_n", path, DEFAULT_BATCH_N, integer=True)
    if batch_n < 1:
        raise ConfigValidationError("rule.batch_n", f"must be >= 1, got {batch_n!r}")
    guess = _get_enum(section, "no_change_guess", path, InputKind, InputKind.DEFINITE)
    return DecisionRule(kind=kind, threshold_time=threshold, batch_n=batch_n, no_change_guess=guess)


def _parse_sweep(section: Mapping[str, Any]) -> SweepSpec:
    path = "sweep"
    _check_unknown(section, {"param", "values"}, path)
    if "param" not in section or not isinstance(section["param"], str):
        raise ConfigValidationError("sweep.param", "required string field")
    param = section["param"]
    if param not in SWEEPABLE_FIELDS:
        options = ", ".join(sorted(SWEEPABLE_FIELDS))
        raise ConfigValidationError("sweep.param", f"not sweepable; choose one of: {options}")
    values = section.get("values")
    if not isinstance(values, list) or len(values) == 0:
        raise ConfigValidationError("sweep.values", "must be a non-empty list")
    want = SWEEPABLE_FIELDS[param]
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigValidationError(f"sweep.values[{i}]", f"expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigValidationError(f"sweep.values[{i}]", f"must be finite, got {value!r}")
        if want is int and not isinstance(value, int):
            raise ConfigValidationError(f"sweep.values[{i}]", f"{param} takes integers, got {value!r}")
    cast = (lambda v: int(v)) if want is int else (lambda v: float(v))
    return SweepSpec(param=param, values=tuple(cast(v) for v in values))


_TOP_KEYS = {
    "schema_version", "master_seed", "n_trials", "priors", "input_p1",
    "collapse", "observer", "scenario", "rule", "device_baseline", "sweep",
}


def parse_config(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw JSON object and resolve every default."""
    if not isinstance(raw, Mapping):
        raise ConfigValidationError("", "config must be a JSON object")
    _check_unknown(raw, _TOP_KEYS, "")

    version = _get_number(raw, "schema_version", "", SCHEMA_VERSION, integer=True)
    if version != SCHEMA_VERSION:
        raise ConfigValidationError("schema_version", f"unsupported version {version!r}; this build reads {SCHEMA_VERSION}")

    seed = _get_number(raw, "master_seed", "", None, required=True, integer=True)
    if not 0 <= seed < 2**64:
        raise ConfigValidationError("master_seed", f"must be an unsigned 64-bit integer, got {seed!r}")
    n_trials = _get_number(raw, "n_trials", "", None, required=True, integer=True)
    if n_trials < 1:
        raise ConfigValidationError("n_trials", f"must be >= 1, got {n_trials!r}")
    priors = _get_number(raw, "priors", "", 0.5)
    _require_range(priors, 0.0, 1.0, "priors")
    input_p1 = _get_number(raw, "input_p1", "", 0.5)
    _require_range(input_p1, 0.0, 1.0, "input_p1")

    for key in ("collapse", "observer", "scenario", "rule", "sweep"):
        if key in raw and raw[key] is not None and not isinstance(raw[key], Mapping):
            raise ConfigValidationError(key, "must be a JSON object")

    collapse = _parse_collapse(raw.get("collapse") or {})
    observer = _parse_observer(raw.get("observer") or {})
    scenario = _parse_scenario(raw.get("scenario") or {})
    rule = _parse_rule(raw.get("rule") or {}, observer)

    device = raw.get("device_baseline", False)
    if not isinstance(device, bool):
        raise ConfigValidationError("device_baseline", f"expected true/false, got {device!r}")

    sweep = None
    if raw.get("sweep") is not None:
        sweep = _parse_sweep(raw["sweep"])

    return ExperimentConfig(
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
        schema_version=SCHEMA_VERSION,
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


def set_config_field(raw: dict[str, Any], param: str, value: Any) -> dict[str, Any]:
    """Return a deep copy of ``raw`` with the dotted field replaced."""
    updated = copy.deepcopy(raw)
    parts = param.split(".")
    node = updated
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            child = {}
            node[part] = child
        node = child
    node[parts[-1]] = value
    return updated


def expand_sweep(raw: dict[str, Any]) -> list[tuple[Any, ExperimentConfig]]:
    """Expand a raw config with a sweep into per-point validated configs.

    Points are ordered by ascending sweep value.  Each point revalidates the
    whole config, so defaults that depend on the swept field are re-resolved
    per point.
    """
    base = parse_config(raw)
    if base.sweep is None:
        raise ConfigValidationError("sweep", "required for sweep expansion")
    points = []
    for value in sorted(base.sweep.values):
        raw_point = set_config_field(raw, base.sweep.param, value)
        raw_point.pop("sweep", None)
        points.append((value, parse_config(raw_point)))
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
