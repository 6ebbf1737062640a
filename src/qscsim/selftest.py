"""The acceptance criteria C1-C7, run by the ``selftest`` CLI verb and by
``tests/test_acceptance.py``.

Each criterion is one function that runs at its stated size from fixed
seeds (the streams ``default_rng(42 + k)`` and the master seeds 42 and 43),
applies its gates and returns a :class:`CheckResult` whose detail holds
measured values only.  These are the acceptance gates; they are never loosened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .collapse import CollapseModel, CollapseParams, diffusion_gamma, sample_collapses
from .config import DEFAULT_THRESHOLD_NOISE_FLOOR, expand_sweep, parse_config
from .observer import PerceptionScenario, ScenarioTag, awareness_probability, percept_changes
from .protocol import optimal_device_bound, run_experiment, run_experiments
from .report import render_csv, summary_csv_row
from .stats import binomial_chi_square_pvalue

SEED = 42
#: Case (2): the pre-collapse percept is pinned to C1.
CASE2_SCENARIO = PerceptionScenario(tag=ScenarioTag.FIXED_C1)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _binom_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def qsc_config(seed: int, n_trials: int, scenario: str, rule_kind: str, device: bool) -> dict:
    """Raw config of a single-copy decision on a minutes-scale jump collapse."""
    rule: dict = {"kind": rule_kind, "batch_n": 1}
    if rule_kind != "change_detection":
        rule["threshold_time"] = 0.05
    return {
        "master_seed": seed,
        "n_trials": n_trials,
        "collapse": {"model": "jump_exponential", "t_c_mean": 180.0},
        "observer": {"t_p": 0.001, "jitter_sigma": 0.0002},
        "scenario": {"tag": scenario},
        "rule": rule,
        "device_baseline": device,
    }


def batch_config(seed: int, n_trials: int, batch_n: int) -> dict:
    """Raw config of case-(2) change detection over ``batch_n`` copies of an
    equal-weight superposition, which is always the input."""
    return {
        "master_seed": seed,
        "n_trials": n_trials,
        "priors": 0.0,
        "input_p1": 0.5,
        "collapse": {"model": "deterministic_time", "t_c_mean": 1.0},
        "observer": {"t_p": 0.001, "jitter_sigma": 0.0},
        "scenario": {"tag": "fixed_c1"},
        "rule": {"kind": "change_detection", "batch_n": batch_n},
    }


def born_rule_conformance() -> CheckResult:
    """C1: the B1 frequency of 1e5 jump and 1e5 diffusion collapses at p1 0.1,
    0.5 and 0.9 lies within 3 SE of its expectation and passes a chi-square
    test at p > 0.001.  The expectation is p1 for the jump law and the band
    absorption probability ``(p1 - epsilon) / (1 - 2 epsilon)`` for diffusion."""
    n, eps = 100_000, 1e-3
    jump = CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0)
    gates, freqs = [], []
    for j, p1 in enumerate((0.1, 0.5, 0.9)):
        diffusion = CollapseParams(
            model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=diffusion_gamma(1.0, p1, eps), epsilon=eps
        )
        laws = (("jump", jump, p1), ("diffusion", diffusion, (p1 - eps) / (1.0 - 2.0 * eps)))
        for m, (label, law, expected) in enumerate(laws):
            k = int(sample_collapses(p1, law, np.random.default_rng(SEED + 10 * m + j), n)[1].sum())
            gates += [abs(k / n - expected) <= _binom_3sigma(expected, n)]
            gates += [binomial_chi_square_pvalue(k, n, expected) > 0.001]
            freqs.append(f"{label}@{p1}:{k / n:.4f}")
    return CheckResult("C1 born_rule_conformance", all(gates), "; ".join(freqs))


def collapse_time_law() -> CheckResult:
    """C2: 1e6 jump-law collapse times of mean 2 have their mean within 3 SE
    and their variance within 3 SE and 5% of 4; 1e4 diffusion collapses at
    the closed-form gamma for mean 1 have a mean first passage within 5% of 1."""
    n, t_c = 1_000_000, 2.0
    times, _ = sample_collapses(
        0.5, CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=t_c), np.random.default_rng(SEED), n
    )
    mean, var = float(times.mean()), float(times.var(ddof=1))
    gamma = diffusion_gamma(1.0, 0.5, 1e-3)
    law = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=gamma, epsilon=1e-3)
    fpt_mean = float(sample_collapses(0.5, law, np.random.default_rng(SEED + 1), 10_000)[0].mean())
    # The sd of an exponential sample variance S^2 is sigma^2 sqrt(8 / n).
    var_error = abs(var - t_c * t_c)
    passed = abs(mean - t_c) <= 3.0 * t_c / math.sqrt(n) and abs(fpt_mean - 1.0) <= 0.05
    passed &= var_error <= 3.0 * t_c * t_c * math.sqrt(8.0 / n) and var_error <= 0.05 * t_c * t_c
    detail = f"exp mean={mean:.4f} var={var:.4f}; calibrated gamma={gamma:.4f}, mean FPT={fpt_mean:.4f}"
    return CheckResult("C2 collapse_time_law", passed, detail)


def _change_frequency(p1: float, n: int, rng: np.random.Generator) -> float:
    """Fraction of ``n`` case-(2) copies at weight ``p1`` whose percept changes."""
    law = CollapseParams(model=CollapseModel.DETERMINISTIC_TIME, t_c_mean=1.0)
    _, hit_upper = sample_collapses(p1, law, rng, n)
    return float(percept_changes(CASE2_SCENARIO, hit_upper, rng).mean())


def case2_change_probability() -> CheckResult:
    """C3: 1e5 case-(2) copies of an equal-weight superposition change percept
    at a frequency within 0.0047 of 0.5, and 2e4 copies at each p1 of 0.1 to
    0.9 within 3 SE of the closed form ``1 - p1``."""
    freq = _change_frequency(0.5, 100_000, np.random.default_rng(SEED))
    passed = abs(freq - 0.5) <= 0.0047
    grid = []
    for j in range(9):
        p1 = round(0.1 * (j + 1), 1)
        expected = awareness_probability(CASE2_SCENARIO, p1)
        grid.append(_change_frequency(p1, 20_000, np.random.default_rng(SEED + 100 + j)))
        passed &= expected == 1.0 - p1 and abs(grid[-1] - expected) <= _binom_3sigma(expected, 20_000)
    detail = f"freq={freq:.4f}; grid p1 0.1..0.9: {[round(f, 4) for f in grid]}"
    return CheckResult("C3 case2_change_probability", passed, detail)


def qsc_separation() -> CheckResult:
    """C4: on 1e4 decisions each, the single-copy timing rule and change
    detection reach 0.999 accuracy and beat the optimal device bound by 0.05,
    while the device baseline succeeds within 0.015 of 0.75 and under the bound."""
    timing = run_experiment(parse_config(qsc_config(SEED, 10_000, "post_collapse_only", "timing_threshold", True)))
    change = run_experiment(parse_config(qsc_config(SEED + 1, 10_000, "distinct_percept", "change_detection", False)))
    acc_timing, acc_change = timing.accuracy_overall.estimate, change.accuracy_overall.estimate
    device, bound = timing.device_success.estimate, optimal_device_bound(0.5)
    worst = min(acc_timing, acc_change)
    passed = worst >= 0.999 and worst > bound + 0.05 and timing.device_bound == bound
    passed &= abs(device - 0.75) <= 0.015 and device <= 0.8536
    detail = f"timing acc={acc_timing:.4f}, change acc={acc_change:.4f}, device={device:.4f}, bound {bound:.4f}"
    return CheckResult("C4 qsc_separation", passed, detail)


def qsc_failure_mode() -> CheckResult:
    """C5: with no pre-collapse percept, single-copy timing accuracy on 1e4
    decisions sits within 0.02 of chance at zero collapse-perception gap, never
    drops as the gap grows to 10 noise floors of the default threshold, and
    reaches 0.999.  The points share every draw, so the check is exact: overall
    successes never fall from one point to the next."""
    t_p, floor = 0.001, DEFAULT_THRESHOLD_NOISE_FLOOR
    raw = {
        "master_seed": SEED,
        "n_trials": 10_000,
        "collapse": {"model": "deterministic_time", "t_c_mean": t_p},
        "observer": {"t_p": t_p, "jitter_sigma": 0.0002},
        "scenario": {"tag": "post_collapse_only"},
        "rule": {"kind": "timing_threshold", "batch_n": 1},
        "sweep": {"param": "collapse.t_c_mean", "values": [t_p + k * floor for k in (0, 0.5, 1, 2, 5, 10)]},
    }
    rates = [s.accuracy_overall for s in run_experiments([config for _, config in expand_sweep(raw)])]
    monotone = all(a.successes <= b.successes for a, b in zip(rates, rates[1:]))
    passed = abs(rates[0].estimate - 0.5) <= 0.02 and monotone and rates[-1].estimate >= 0.999
    detail = f"accuracy over gap sweep: {[round(r.estimate, 4) for r in rates]}"
    return CheckResult("C5 qsc_failure_mode", passed, detail)


def batch_detection() -> CheckResult:
    """C6: change detection over 5 copies of an equal-weight superposition
    detects 1e5 superpositions at a rate within 0.005 of 31/32; over 1, 2, 3, 5
    and 8 copies each 2e4-decision 95% interval holds ``1 - 2^-n``, and 5
    copies detect at least 0.4 more often than one."""
    rate = run_experiment(parse_config(batch_config(SEED, 100_000, 5))).accuracy_superposition.estimate
    passed = abs(rate - 0.96875) <= 0.005
    raw = batch_config(SEED, 20_000, 5) | {"sweep": {"param": "rule.batch_n", "values": [1, 2, 3, 5, 8]}}
    sweep_rates = []
    for batch_n, config in expand_sweep(raw):
        est = run_experiment(config).accuracy_superposition
        passed &= est.lo <= 1.0 - 0.5**batch_n <= est.hi
        sweep_rates.append(round(est.estimate, 4))
    passed &= sweep_rates[3] - sweep_rates[0] >= 0.4
    return CheckResult("C6 batch_detection", passed, f"batch-5 rate={rate:.5f}; sweep rates {sweep_rates}")


def reproducibility() -> CheckResult:
    """C7: reruns of a 2000-decision run and of a three-point sweep render byte-identical CSV."""
    config = parse_config(qsc_config(SEED, 2000, "post_collapse_only", "timing_threshold", True))
    points = expand_sweep(batch_config(SEED, 1000, 1) | {"sweep": {"param": "rule.batch_n", "values": [1, 2, 4]}})

    def csvs() -> tuple[str, str]:
        sweep = zip(points, run_experiments([c for _, c in points]))
        sweep_rows = [summary_csv_row(s, sweep_param="rule.batch_n", sweep_value=v) for (v, _), s in sweep]
        return render_csv([summary_csv_row(run_experiment(config))]), render_csv(sweep_rows)

    same = [a == b for a, b in zip(csvs(), csvs())]
    return CheckResult("C7 reproducibility", all(same), f"run CSV identical: {same[0]}; sweep CSV identical: {same[1]}")


CRITERIA: tuple[Callable[[], CheckResult], ...] = (
    born_rule_conformance, collapse_time_law, case2_change_probability, qsc_separation,
    qsc_failure_mode, batch_detection, reproducibility,
)


def run_selftest(echo: Callable[[str], None] = print) -> bool:
    """Run every criterion, echo one PASS/FAIL line each, return whether all passed."""
    all_ok = True
    for criterion in CRITERIA:
        result = criterion()
        all_ok &= result.passed
        echo(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    echo(f"selftest {'passed' if all_ok else 'FAILED'}")
    return all_ok
