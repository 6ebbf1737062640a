"""Reduced-size invariant suite behind the ``selftest`` CLI verb.

Each check is a shrunken version of one acceptance property (Born
conformance, collapse-time law, awareness probabilities, the
observer-vs-device separation, the chance floor at zero gap, batch
detection, reproducibility), sized to finish well under a minute total.
Statistical bounds are rescaled to the reduced trial counts; every check
runs from a seed split off the selftest master seed, so results are stable
run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .collapse import (
    CollapseEvent,
    CollapseModel,
    CollapseParams,
    calibrate_gamma,
    sample_collapse_times,
    sample_collapses,
    sample_outcome,
)
from .config import expand_sweep, parse_config
from .observer import (
    ObserverParams,
    PerceptionScenario,
    ScenarioTag,
    awareness_probability,
    perceive_superposition,
)
from .protocol import run_experiment
from .report import render_csv, summary_csv_row
from .stats import binomial_chi_square_pvalue

DEFAULT_SEED = 20250809


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _subseed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1, dtype=np.uint64)[0])


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


def _check_born_rule(seed: int) -> CheckResult:
    n = 20_000
    worst = ""
    ok = True
    jump = CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0)
    diffusion = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=2.0)
    for j, p1 in enumerate((0.1, 0.5, 0.9)):
        bound = 3.0 * math.sqrt(p1 * (1.0 - p1) / n)
        _, jump_upper = sample_collapses(p1, jump, _rng(seed, 10 + j), n)
        _, diffusion_upper = sample_collapses(p1, diffusion, _rng(seed, 20 + j), n)
        for label, hit_upper in (("jump", jump_upper), ("diffusion", diffusion_upper)):
            k = int(hit_upper.sum())
            freq = k / n
            pval = binomial_chi_square_pvalue(k, n, p1)
            if abs(freq - p1) > bound or pval <= 0.001:
                ok = False
                worst += f" {label}@p1={p1}: freq={freq:.4f} p={pval:.2g};"
    detail = worst if worst else f"B1 frequencies within 3-sigma and chi-square p > 0.001 at n={n}"
    return CheckResult("born_rule_conformance", ok, detail)


def _check_collapse_time_law(seed: int) -> CheckResult:
    n = 200_000
    t_c = 2.0
    params = CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=t_c)
    x = sample_collapse_times(params, _rng(seed, 30), n)
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    mean_bound = 3.0 * t_c / math.sqrt(n)
    var_bound = 3.0 * t_c * t_c * math.sqrt(8.0 / n)
    ok = abs(mean - t_c) <= mean_bound and abs(var - t_c * t_c) <= var_bound

    target = 1.0
    cal = calibrate_gamma(target, 0.5, 1e-3, 0.04, _rng(seed, 31), n_runs=4096)
    cal_ok = abs(cal.achieved_mean - target) <= 0.07 * target  # 0.04 calibration + MC noise at n=4096
    detail = (
        f"exp mean={mean:.4f} (±{mean_bound:.4f}), var={var:.4f} (±{var_bound:.4f}); "
        f"calibrated gamma={cal.gamma:.4f}, mean FPT={cal.achieved_mean:.4f} (target {target})"
    )
    return CheckResult("collapse_time_law", ok and cal_ok, detail)


def _check_case2_awareness(seed: int) -> CheckResult:
    observer = ObserverParams(t_p=0.001, jitter_sigma=0.0, resolution=0.01)
    scenario = PerceptionScenario(tag=ScenarioTag.FIXED_C1)
    n = 20_000
    rng = _rng(seed, 40)
    changes = 0
    for _ in range(n):
        event = CollapseEvent(time=1.0, outcome=sample_outcome(0.5, rng))
        if perceive_superposition(observer, scenario, event, rng).change_detected:
            changes += 1
    freq = changes / n
    bound = 3.0 * math.sqrt(0.25 / n)
    ok = abs(freq - 0.5) <= bound

    grid_ok = True
    n_grid = 4000
    for j, p1 in enumerate(np.round(np.arange(0.1, 0.95, 0.1), 10)):
        p1 = float(p1)
        expected = awareness_probability(scenario, p1)
        rng_j = _rng(seed, 41 + j)
        k = 0
        for _ in range(n_grid):
            event = CollapseEvent(time=1.0, outcome=sample_outcome(p1, rng_j))
            if perceive_superposition(observer, scenario, event, rng_j).change_detected:
                k += 1
        sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n_grid)
        if abs(k / n_grid - expected) > 3.0 * sigma:
            grid_ok = False
    detail = f"change frequency {freq:.4f} (0.5 ±{bound:.4f}); closed form matched on the p1 grid"
    return CheckResult("case2_change_probability", ok and grid_ok, detail)


def _qsc_config(seed: int, n_trials: int, scenario: str, rule_kind: str, device: bool) -> dict:
    rule: dict = {"kind": rule_kind, "batch_n": 1}
    if rule_kind != "change_detection":
        rule["threshold_time"] = 0.05
    return {
        "master_seed": seed,
        "n_trials": n_trials,
        "collapse": {"model": "jump_exponential", "t_c_mean": 180.0},
        "observer": {"t_p": 0.001, "jitter_sigma": 0.0002, "resolution": 0.01},
        "scenario": {"tag": scenario},
        "rule": rule,
        "device_baseline": device,
    }


def _check_qsc_separation(seed: int) -> CheckResult:
    n = 2000
    timing = run_experiment(parse_config(_qsc_config(_subseed(seed, 50), n, "post_collapse_only", "timing_threshold", True)))
    change = run_experiment(parse_config(_qsc_config(_subseed(seed, 51), n, "distinct_percept", "change_detection", False)))
    bound = timing.device_bound
    dev = timing.device_success.estimate
    dev_slack = 3.46 * math.sqrt(0.1875 / n)
    ok = (
        timing.overall.estimate >= 0.995
        and change.overall.estimate >= 0.995
        and abs(dev - 0.75) <= dev_slack
        and dev <= bound
        and timing.overall.estimate > bound + 0.05
        and change.overall.estimate > bound + 0.05
    )
    detail = (
        f"observer acc: timing={timing.overall.estimate:.4f}, change={change.overall.estimate:.4f}; "
        f"device={dev:.4f} (bound {bound:.4f})"
    )
    return CheckResult("qsc_separation", ok, detail)


def _check_qsc_failure_mode(seed: int) -> CheckResult:
    n = 2000
    t_p = 0.001
    resolution = 0.01
    raw = {
        "master_seed": _subseed(seed, 60),
        "n_trials": n,
        "collapse": {"model": "deterministic_time", "t_c_mean": t_p},
        "observer": {"t_p": t_p, "jitter_sigma": 0.0002, "resolution": resolution},
        "scenario": {"tag": "post_collapse_only"},
        "rule": {"kind": "timing_threshold", "batch_n": 1},
        "sweep": {
            "param": "collapse.t_c_mean",
            "values": [t_p + k * resolution for k in (0, 0.5, 1, 2, 5, 10)],
        },
    }
    accs = [run_experiment(cfg).overall for _, cfg in expand_sweep(raw)]
    chance_ok = abs(accs[0].estimate - 0.5) <= 0.045
    monotone_ok = True
    for a, b in zip(accs, accs[1:]):
        sigma = math.sqrt(
            a.estimate * (1 - a.estimate) / a.trials + b.estimate * (1 - b.estimate) / b.trials
        )
        if b.estimate < a.estimate - 2.0 * sigma - 1e-12:
            monotone_ok = False
    top_ok = accs[-1].estimate >= 0.995
    detail = f"accuracy along the gap sweep: {[round(a.estimate, 4) for a in accs]}"
    return CheckResult("qsc_failure_mode", chance_ok and monotone_ok and top_ok, detail)


def _batch_config(seed: int, n_trials: int, batch_n: int) -> dict:
    return {
        "master_seed": seed,
        "n_trials": n_trials,
        "priors": 0.0,
        "input_p1": 0.5,
        "collapse": {"model": "deterministic_time", "t_c_mean": 1.0},
        "observer": {"t_p": 0.001, "jitter_sigma": 0.0, "resolution": 0.01},
        "scenario": {"tag": "fixed_c1"},
        "rule": {"kind": "change_detection", "batch_n": batch_n},
    }


def _check_batching(seed: int) -> CheckResult:
    n = 20_000
    summary = run_experiment(parse_config(_batch_config(_subseed(seed, 70), n, 5)))
    rate = summary.superposition.estimate
    ok = abs(rate - 0.96875) <= 0.005

    # Reduced-N variant of the sweep check: 3-sigma binomial bounds instead of
    # the 95% Wilson containment the full acceptance suite applies.
    sweep_ok = True
    n_sweep = 5000
    rates = []
    for j, batch_n in enumerate((1, 2, 3, 5, 8)):
        s = run_experiment(parse_config(_batch_config(_subseed(seed, 71 + j), n_sweep, batch_n)))
        expected = 1.0 - 0.5**batch_n
        rates.append(round(s.superposition.estimate, 4))
        if abs(s.superposition.estimate - expected) > 3.0 * math.sqrt(expected * (1.0 - expected) / n_sweep):
            sweep_ok = False
    detail = f"batch-5 detection {rate:.5f} (0.96875 ±0.005); sweep rates {rates}"
    return CheckResult("batch_detection", ok and sweep_ok, detail)


def _check_reproducibility(seed: int) -> CheckResult:
    raw = _qsc_config(_subseed(seed, 80), 500, "post_collapse_only", "timing_threshold", True)
    config = parse_config(raw)
    first = render_csv([summary_csv_row(run_experiment(config))])
    second = render_csv([summary_csv_row(run_experiment(config))])
    ok = first == second
    detail = "rerun CSV byte-identical" if ok else "CSV outputs diverged"
    return CheckResult("reproducibility", ok, detail)


_CHECKS: list[Callable[[int], CheckResult]] = [
    _check_born_rule,
    _check_collapse_time_law,
    _check_case2_awareness,
    _check_qsc_separation,
    _check_qsc_failure_mode,
    _check_batching,
    _check_reproducibility,
]


def run_selftest(seed: int = DEFAULT_SEED, echo: Callable[[str], None] = print) -> bool:
    """Run every check, print one PASS/FAIL line each, return overall result."""
    all_ok = True
    for check in _CHECKS:
        result = check(seed)
        all_ok &= result.passed
        echo(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    echo(f"selftest {'passed' if all_ok else 'FAILED'} (seed {seed})")
    return all_ok
