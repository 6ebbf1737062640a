"""The acceptance properties, and the reduced-size suite behind the ``selftest`` CLI verb.

Each property that ``tests/test_acceptance.py`` and ``selftest`` both check
is one function here.  It builds its configs or laws, draws from the seeds
or generator factory its caller passes in, and returns what it measured;
each caller applies its own gates.  ``selftest`` runs the properties at
reduced size, with bounds rescaled to the smaller trial counts, from seeds
split off its master seed, so results are stable run to run.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .collapse import CollapseModel, CollapseParams, diffusion_gamma, sample_collapses
from .config import expand_sweep, parse_config
from .observer import PerceptionScenario, ScenarioTag, awareness_probability, perceive_collapses
from .protocol import run_experiment, run_experiments
from .report import render_csv, summary_csv_row
from .stats import RateEstimate, binomial_chi_square_pvalue

DEFAULT_SEED = 20250809

#: Stream ``k`` of a property's draws; each caller keeps its own seeding.
RngFactory = Callable[[int], np.random.Generator]

#: Case (2): the pre-collapse percept is pinned to C1.
CASE2_SCENARIO = PerceptionScenario(tag=ScenarioTag.FIXED_C1)
#: The branch-1 weights at which the case-(2) change rate meets its closed form.
CASE2_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


def born_counts(n: int, rng: RngFactory) -> list[tuple[str, float, int]]:
    """B1 counts of ``n`` jump and ``n`` diffusion collapses at p1 0.1, 0.5
    and 0.9, as ``(law, p1, count)``, jump first at each p1.  The draws of
    p1 number ``j`` under law ``m`` (jump 0, diffusion 1) come from
    ``rng(10*m + j)``."""
    jump = CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0)
    counts = []
    for j, p1 in enumerate((0.1, 0.5, 0.9)):
        diffusion = CollapseParams(
            model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=diffusion_gamma(1.0, p1, 1e-3), epsilon=1e-3
        )
        for m, (label, law) in enumerate((("jump", jump), ("diffusion", diffusion))):
            _, hit_upper = sample_collapses(p1, law, rng(10 * m + j), n)
            counts.append((label, p1, int(hit_upper.sum())))
    return counts


def exponential_moments(t_c: float, n: int, rng: np.random.Generator) -> tuple[float, float]:
    """Sample mean and variance of ``n`` jump-law collapse times of mean ``t_c``."""
    times, _ = sample_collapses(0.5, CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=t_c), rng, n)
    return float(times.mean()), float(times.var(ddof=1))


def change_counts(p1s: Sequence[float], n: int, rng: RngFactory) -> list[int]:
    """Percept changes among ``n`` case-(2) copies at each weight of ``p1s``;
    weight number ``j`` draws from ``rng(j)``."""
    collapse = CollapseParams(model=CollapseModel.DETERMINISTIC_TIME, t_c_mean=1.0)
    counts = []
    for j, p1 in enumerate(p1s):
        stream = rng(j)
        times, hit_upper = sample_collapses(p1, collapse, stream, n)
        counts.append(int(perceive_collapses(0.001, CASE2_SCENARIO, times, hit_upper, stream)[1].sum()))
    return counts


def qsc_config(seed: int, n_trials: int, scenario: str, rule_kind: str, device: bool) -> dict:
    """Raw config of a single-copy decision on a minutes-scale jump collapse."""
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


def batch_config(seed: int, n_trials: int, batch_n: int) -> dict:
    """Raw config of case-(2) change detection over ``batch_n`` copies of an
    equal-weight superposition, which is always the input."""
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


def gap_sweep(seed: int, n_trials: int) -> list[RateEstimate]:
    """Overall accuracy of the single-copy timing rule with no pre-collapse
    percept, as the collapse-perception gap grows from 0 to 10 resolutions."""
    t_p = 0.001
    resolution = 0.01
    raw = {
        "master_seed": seed,
        "n_trials": n_trials,
        "collapse": {"model": "deterministic_time", "t_c_mean": t_p},
        "observer": {"t_p": t_p, "jitter_sigma": 0.0002, "resolution": resolution},
        "scenario": {"tag": "post_collapse_only"},
        "rule": {"kind": "timing_threshold", "batch_n": 1},
        "sweep": {
            "param": "collapse.t_c_mean",
            "values": [t_p + k * resolution for k in (0, 0.5, 1, 2, 5, 10)],
        },
    }
    return [summary.accuracy_overall for summary in run_experiments([config for _, config in expand_sweep(raw)])]


def monotone_within_2sigma(rates: Sequence[RateEstimate]) -> bool:
    """Whether no rate falls below the one before it by more than twice the
    standard error of their difference."""
    return all(
        b.estimate >= a.estimate - 2.0 * math.sqrt(
            a.estimate * (1.0 - a.estimate) / a.trials + b.estimate * (1.0 - b.estimate) / b.trials
        ) - 1e-12
        for a, b in zip(rates, rates[1:])
    )


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
    for label, p1, k in born_counts(n, lambda stream: _rng(seed, 10 + stream)):
        freq = k / n
        pval = binomial_chi_square_pvalue(k, n, p1)
        if abs(freq - p1) > 3.0 * math.sqrt(p1 * (1.0 - p1) / n) or pval <= 0.001:
            worst += f" {label}@p1={p1}: freq={freq:.4f} p={pval:.2g};"
    detail = worst or f"B1 frequencies within 3-sigma and chi-square p > 0.001 at n={n}"
    return CheckResult("born_rule_conformance", not worst, detail)


def _check_collapse_time_law(seed: int) -> CheckResult:
    n = 200_000
    t_c = 2.0
    mean, var = exponential_moments(t_c, n, _rng(seed, 30))
    mean_bound = 3.0 * t_c / math.sqrt(n)
    var_bound = 3.0 * t_c * t_c * math.sqrt(8.0 / n)
    ok = abs(mean - t_c) <= mean_bound and abs(var - t_c * t_c) <= var_bound

    target = 1.0
    gamma = diffusion_gamma(target, 0.5, 1e-3)
    law = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=target, gamma=gamma, epsilon=1e-3)
    fpt_mean = float(sample_collapses(0.5, law, _rng(seed, 31), 4096)[0].mean())
    cal_ok = abs(fpt_mean - target) <= 0.07 * target  # the closed form is exact: 0.07 is Monte Carlo slack
    detail = (
        f"exp mean={mean:.4f} (±{mean_bound:.4f}), var={var:.4f} (±{var_bound:.4f}); "
        f"calibrated gamma={gamma:.4f}, mean FPT={fpt_mean:.4f} (target {target})"
    )
    return CheckResult("collapse_time_law", ok and cal_ok, detail)


def _check_case2_awareness(seed: int) -> CheckResult:
    n = 20_000
    [k] = change_counts((0.5,), n, lambda _: _rng(seed, 40))
    freq = k / n
    bound = 3.0 * math.sqrt(0.25 / n)
    ok = abs(freq - 0.5) <= bound

    n_grid = 4000
    grid_ok = True
    for p1, k in zip(CASE2_GRID, change_counts(CASE2_GRID, n_grid, lambda j: _rng(seed, 41 + j))):
        expected = awareness_probability(CASE2_SCENARIO, p1)
        sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / n_grid)
        grid_ok &= abs(k / n_grid - expected) <= 3.0 * sigma
    detail = f"change frequency {freq:.4f} (0.5 ±{bound:.4f}); closed form matched on the p1 grid"
    return CheckResult("case2_change_probability", ok and grid_ok, detail)


def _check_qsc_separation(seed: int) -> CheckResult:
    n = 2000
    timing = run_experiment(parse_config(qsc_config(_subseed(seed, 50), n, "post_collapse_only", "timing_threshold", True)))
    change = run_experiment(parse_config(qsc_config(_subseed(seed, 51), n, "distinct_percept", "change_detection", False)))
    acc_timing, acc_change = timing.accuracy_overall.estimate, change.accuracy_overall.estimate
    bound = timing.device_bound
    dev = timing.device_success.estimate
    dev_slack = 3.46 * math.sqrt(0.1875 / n)
    ok = (
        acc_timing >= 0.995
        and acc_change >= 0.995
        and abs(dev - 0.75) <= dev_slack
        and dev <= bound
        and acc_timing > bound + 0.05
        and acc_change > bound + 0.05
    )
    detail = f"observer acc: timing={acc_timing:.4f}, change={acc_change:.4f}; device={dev:.4f} (bound {bound:.4f})"
    return CheckResult("qsc_separation", ok, detail)


def _check_qsc_failure_mode(seed: int) -> CheckResult:
    accs = gap_sweep(_subseed(seed, 60), 2000)
    ok = abs(accs[0].estimate - 0.5) <= 0.045 and monotone_within_2sigma(accs) and accs[-1].estimate >= 0.995
    detail = f"accuracy along the gap sweep: {[round(a.estimate, 4) for a in accs]}"
    return CheckResult("qsc_failure_mode", ok, detail)


def _check_batching(seed: int) -> CheckResult:
    n = 20_000
    summary = run_experiment(parse_config(batch_config(_subseed(seed, 70), n, 5)))
    rate = summary.accuracy_superposition.estimate
    ok = abs(rate - 0.96875) <= 0.005

    # Reduced-N variant of the sweep check: 3-sigma binomial bounds instead of
    # the 95% Wilson containment the full acceptance suite applies.
    sweep_ok = True
    n_sweep = 5000
    rates = []
    for j, batch_n in enumerate((1, 2, 3, 5, 8)):
        s = run_experiment(parse_config(batch_config(_subseed(seed, 71 + j), n_sweep, batch_n)))
        expected = 1.0 - 0.5**batch_n
        estimate = s.accuracy_superposition.estimate
        rates.append(round(estimate, 4))
        if abs(estimate - expected) > 3.0 * math.sqrt(expected * (1.0 - expected) / n_sweep):
            sweep_ok = False
    detail = f"batch-5 detection {rate:.5f} (0.96875 ±0.005); sweep rates {rates}"
    return CheckResult("batch_detection", ok and sweep_ok, detail)


def _check_reproducibility(seed: int) -> CheckResult:
    config = parse_config(qsc_config(_subseed(seed, 80), 500, "post_collapse_only", "timing_threshold", True))
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
