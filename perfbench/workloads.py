"""The four benchmark workloads: config generation and correctness gates.

Every workload is a config generated from a master seed, a ``qscsim`` verb
with its flags, a decision count, and a gate that checks the verb's output
against closed-form values.  No gate compares against stored output bytes,
so a change to the package's random-stream layout cannot break it; only a
change in the distribution of results can.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

#: Half-width, in standard errors, of a "consistent with" check.  Benchmark
#: runs make hundreds of these checks, so a 95% interval would fail
#: several times by chance; five standard errors keep the chance failure
#: rate below 1e-6 per check while still catching a wrong law outright.
Z_CONSISTENT = 5.0

T_P = 0.001
JITTER = 0.0002
EPSILON = 1e-3

JUMP_TRIALS = 20000
DIFFUSION_TRIALS = 600
DIFFUSION_P1 = 0.3
CALIBRATE_P1 = 0.5
CALIBRATE_RUNS = 8192
CALIBRATE_TOLERANCE = 0.02
SWEEP_TRIALS = 300
SWEEP_POINTS = 96
#: The sweep grid runs geometrically from zero gap (t_c_mean == t_p) up to
#: this many decades above it.
SWEEP_DECADES = 5.0

CSV_COLUMNS = [
    "sweep_param", "sweep_value", "n_trials",
    "acc_definite", "acc_definite_lo", "acc_definite_hi",
    "acc_superposition", "acc_superposition_lo", "acc_superposition_hi",
    "acc_overall", "acc_overall_lo", "acc_overall_hi",
    "device_success", "device_bound",
    "mean_report_time_definite", "mean_report_time_superposition",
    "master_seed",
]


def master_seed(workload: str, seed: int, index: int) -> int:
    """Master seed of the ``index``-th input of a run, derived from the
    benchmark seed alone."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def diffusion_gamma(t_c_mean: float, p1: float, epsilon: float) -> float:
    """Diffusion strength whose mean first-passage time is ``t_c_mean``.

    Solving (1/2) gamma^2 w^2 (1-w)^2 u'' = -1 with absorbing bands at
    ``epsilon`` and ``1 - epsilon`` gives
    T(p1) = (2/gamma^2) [(1-2e) ln((1-e)/e) - (2 p1 - 1) ln(p1/(1-p1))].
    """
    bracket = (1.0 - 2.0 * epsilon) * math.log((1.0 - epsilon) / epsilon) - (
        2.0 * p1 - 1.0
    ) * math.log(p1 / (1.0 - p1))
    return math.sqrt(2.0 * bracket / t_c_mean)


def strict_json(text: str) -> Any:
    """Parse JSON, rejecting the non-standard NaN and Infinity literals."""

    def reject(token: str) -> Any:
        raise ValueError(f"non-standard JSON literal {token}")

    return json.loads(text, parse_constant=reject)


def _consistent(successes: int, trials: int, p: float) -> bool:
    if trials == 0:
        return False
    se = math.sqrt(p * (1.0 - p) / trials)
    return abs(successes / trials - p) <= Z_CONSISTENT * se


def _csv_rows(csv_text: str | None, failures: list[str]) -> list[dict[str, str]]:
    if csv_text is None:
        failures.append("no CSV written")
        return []
    reader = csv.reader(io.StringIO(csv_text))
    rows = list(reader)
    if not rows or rows[0] != CSV_COLUMNS:
        failures.append("CSV header differs from the column contract")
        return []
    return [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]


def _csv_matches(row: dict[str, str], summary: dict, failures: list[str], where: str) -> None:
    overall = summary["accuracy_overall"]["estimate"]
    if row.get("acc_overall") != repr(overall) or row.get("n_trials") != str(summary["n_trials"]):
        failures.append(f"{where}: CSV row disagrees with the JSON summary")


def _check_jump(config: dict, out: Any, csv_text: str | None) -> list[str]:
    failures: list[str] = []
    summary = out["summary"]
    n = config["n_trials"]
    if summary["n_trials"] != n:
        failures.append(f"n_trials {summary['n_trials']} != {n}")
    overall = summary["accuracy_overall"]["estimate"]
    if not overall >= 0.995:
        failures.append(f"overall accuracy {overall} < 0.995")
    bound = 0.5 * (1.0 + math.sqrt(1.0 - config["input_p1"]))
    if summary["device_bound"] is None or abs(summary["device_bound"] - bound) > 1e-12:
        failures.append(f"device_bound {summary['device_bound']} != {bound}")
    device = summary["device_success"]
    # Branch-basis measurement: definite inputs always read B1; a
    # superposition reads B2 (and is caught) with probability 1 - p1.
    expected = config["priors"] + (1.0 - config["priors"]) * (1.0 - config["input_p1"])
    if device is None or not _consistent(device["successes"], device["trials"], expected):
        failures.append(f"device success {device} inconsistent with {expected}")
    elif device["estimate"] > bound:
        failures.append(f"device success {device['estimate']} exceeds the bound {bound}")
    rows = _csv_rows(csv_text, failures)
    if len(rows) != 1:
        failures.append(f"expected 1 CSV row, got {len(rows)}")
    else:
        _csv_matches(rows[0], summary, failures, "run")
    return failures


def _check_diffusion(config: dict, out: Any, csv_text: str | None) -> list[str]:
    failures: list[str] = []
    summary = out["summary"]
    p1 = config["input_p1"]
    # Under fixed_c1 only a collapse onto branch 2 flips the percept, and the
    # martingale absorbs at the lower band with probability
    # 1 - (p1 - e) / (1 - 2e); the first percept arrives at t_p, so the
    # timing half of the combined rule never fires.
    expected = 1.0 - (p1 - EPSILON) / (1.0 - 2.0 * EPSILON)
    sup = summary["accuracy_superposition"]
    if not _consistent(sup["successes"], sup["trials"], expected):
        failures.append(f"superposition accuracy {sup['estimate']} inconsistent with {expected:.4f}")
    definite = summary["accuracy_definite"]["estimate"]
    if not definite >= 0.99:
        failures.append(f"definite accuracy {definite} < 0.99")
    gamma = out["resolved_config"]["collapse"]["gamma"]
    if gamma != config["collapse"]["gamma"]:
        failures.append(f"resolved gamma {gamma} != configured {config['collapse']['gamma']}")
    rows = _csv_rows(csv_text, failures)
    if len(rows) != 1:
        failures.append(f"expected 1 CSV row, got {len(rows)}")
    else:
        _csv_matches(rows[0], summary, failures, "run")
    return failures


def _check_calibrate(config: dict, out: Any, csv_text: str | None) -> list[str]:
    failures: list[str] = []
    target = config["collapse"]["t_c_mean"]
    closed = diffusion_gamma(target, config["input_p1"], EPSILON)
    gamma = out["gamma"]
    # Mean time scales as 1/gamma^2, so a mean within the tolerance of the
    # target puts gamma within about half the tolerance of the closed form;
    # the full tolerance leaves room for Monte Carlo and Euler-step bias.
    if not abs(gamma / closed - 1.0) <= CALIBRATE_TOLERANCE:
        failures.append(f"gamma {gamma} not within {CALIBRATE_TOLERANCE} of the closed form {closed:.4f}")
    lo, hi = out["achieved_mean_ci95"]
    if not (lo <= out["achieved_mean"] <= hi):
        failures.append("achieved mean lies outside its own CI")
    if not (lo <= target * (1.0 + CALIBRATE_TOLERANCE) and hi >= target * (1.0 - CALIBRATE_TOLERANCE)):
        failures.append(f"achieved-mean CI [{lo}, {hi}] misses t_c_mean {target} within the tolerance")
    if out["n_runs"] != CALIBRATE_RUNS or out["t_c_target"] != target:
        failures.append("calibrate echoed the wrong run budget or target")
    return failures


def _check_sweep(config: dict, out: Any, csv_text: str | None) -> list[str]:
    failures: list[str] = []
    values = sorted(config["sweep"]["values"])
    points = out["points"]
    if [p["sweep_value"] for p in points] != values:
        failures.append("sweep points differ from the configured values")
        return failures
    priors = config["priors"]
    floor_checked = wide_checked = 0
    for point in points:
        resolved = point["resolved_config"]
        summary = point["summary"]
        t_c = resolved["collapse"]["t_c_mean"]
        t_p = resolved["observer"]["t_p"]
        margin = Z_CONSISTENT * resolved["observer"]["jitter_sigma"]
        threshold = resolved["rule"]["threshold_time"]
        overall = summary["accuracy_overall"]
        # Deterministic collapse: a superposition is first perceived at
        # t_c + t_p (plus jitter).  Below the threshold every input reads as
        # definite and accuracy sits at the definite prior; above it every
        # input is classified correctly.
        if t_c + t_p + margin < threshold:
            floor_checked += 1
            if not _consistent(overall["successes"], overall["trials"], priors):
                failures.append(f"t_c_mean={t_c}: accuracy {overall['estimate']} off the chance floor {priors}")
        elif t_c + t_p - margin > threshold:
            wide_checked += 1
            if not overall["estimate"] >= 0.995:
                failures.append(f"t_c_mean={t_c}: accuracy {overall['estimate']} < 0.995")
    if points[0]["resolved_config"]["collapse"]["t_c_mean"] != T_P or floor_checked == 0 or wide_checked == 0:
        failures.append("sweep does not span zero gap to wide gaps")
    rows = _csv_rows(csv_text, failures)
    if len(rows) != len(points):
        failures.append(f"expected {len(points)} CSV rows, got {len(rows)}")
    else:
        for row, point in zip(rows, points):
            _csv_matches(row, point["summary"], failures, f"sweep value {point['sweep_value']}")
    return failures


def _jump_config(seed: int) -> dict:
    return {
        "master_seed": seed,
        "n_trials": JUMP_TRIALS,
        "priors": 0.5,
        "input_p1": 0.5,
        "collapse": {"model": "jump_exponential", "t_c_mean": 180.0},
        "observer": {"t_p": T_P, "jitter_sigma": JITTER},
        "scenario": {"tag": "post_collapse_only"},
        "rule": {"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 5},
    }


def _diffusion_config(seed: int) -> dict:
    return {
        "master_seed": seed,
        "n_trials": DIFFUSION_TRIALS,
        "priors": 0.5,
        "input_p1": DIFFUSION_P1,
        "collapse": {
            "model": "diffusion",
            "t_c_mean": 1.0,
            "gamma": diffusion_gamma(1.0, DIFFUSION_P1, EPSILON),
            "epsilon": EPSILON,
        },
        "observer": {"t_p": T_P, "jitter_sigma": JITTER},
        "scenario": {"tag": "fixed_c1"},
        "rule": {"kind": "combined", "batch_n": 1},
    }


def _calibrate_config(seed: int) -> dict:
    return {
        "master_seed": seed,
        "n_trials": 1,
        "input_p1": CALIBRATE_P1,
        "collapse": {
            "model": "diffusion",
            "t_c_mean": 1.0,
            "gamma": diffusion_gamma(1.0, CALIBRATE_P1, EPSILON),
            "epsilon": EPSILON,
        },
    }


def _sweep_config(seed: int) -> dict:
    step = SWEEP_DECADES / (SWEEP_POINTS - 1)
    values = [T_P] + [T_P * 10.0 ** (step * k) for k in range(1, SWEEP_POINTS)]
    return {
        "master_seed": seed,
        "n_trials": SWEEP_TRIALS,
        "priors": 0.5,
        "input_p1": 0.5,
        "collapse": {"model": "deterministic_time", "t_c_mean": 1.0},
        "observer": {"t_p": T_P, "jitter_sigma": JITTER},
        "scenario": {"tag": "post_collapse_only"},
        "rule": {"kind": "timing_threshold", "batch_n": 1},
        "sweep": {"param": "collapse.t_c_mean", "values": values},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    flags: list[str]
    make_config: Callable[[int], dict]
    #: Decisions one operation makes; a calibration counts as one decision.
    decisions: Callable[[dict], int]
    check: Callable[[dict, Any, str | None], list[str]]
    writes_csv: bool

    def argv(self, config_path: str, csv_path: str, threads: int) -> list[str]:
        args = [self.verb, "--config", config_path, "--json", "--threads", str(threads)]
        if self.writes_csv:
            args += ["--out", csv_path]
        return args + self.flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload("jump_timing", "run", ["--device-baseline"], _jump_config,
                 lambda c: c["n_trials"], _check_jump, True),
        Workload("diffusion_change", "run", [], _diffusion_config,
                 lambda c: c["n_trials"], _check_diffusion, True),
        Workload("calibrate", "calibrate",
                 ["--tolerance", str(CALIBRATE_TOLERANCE), "--runs", str(CALIBRATE_RUNS)],
                 _calibrate_config, lambda c: 1, _check_calibrate, False),
        Workload("sweep_small", "sweep", [], _sweep_config,
                 lambda c: c["n_trials"] * len(c["sweep"]["values"]), _check_sweep, True),
    )
}
