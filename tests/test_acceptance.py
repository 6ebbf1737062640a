"""Acceptance suite: every gate criterion at its stated size and tolerance.

One test per criterion; each prints a PASS line with the measured numbers
(visible with ``pytest -s``). Statistical bounds come from the independent
oracles in ``oracles.py``; trial sizes and tolerances are fixed here, not
tuned at runtime.
"""

import json
import time

import numpy as np
import pytest

from oracles import binom_3sigma, exp_mean_3sigma, exp_var_3sigma
from qscsim.cli import main
from qscsim.collapse import CollapseModel, CollapseParams, calibrate_gamma, sample_collapses
from qscsim.config import expand_sweep, parse_config
from qscsim.observer import awareness_probability
from qscsim.protocol import optimal_device_bound, run_experiment
from qscsim.selftest import (
    CASE2_GRID,
    CASE2_SCENARIO,
    batch_config,
    born_counts,
    change_counts,
    exponential_moments,
    gap_sweep,
    monotone_within_2sigma,
    qsc_config,
    run_selftest,
)
from qscsim.stats import binomial_chi_square_pvalue

SEED = 42


def _pass(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_born_rule_conformance():
    started = time.perf_counter()
    n = 100_000
    details = []
    for label, p1, k in born_counts(n, lambda stream: np.random.default_rng(SEED + stream)):
        freq = k / n
        assert abs(freq - p1) <= binom_3sigma(p1, n), f"{label} p1={p1}: freq={freq}"
        pvalue = binomial_chi_square_pvalue(k, n, p1)
        assert pvalue > 0.001, f"{label} p1={p1}: chi-square p={pvalue}"
        details.append(f"{label}@{p1}:{freq:.4f}")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    _pass("C1 born-rule conformance", f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_2_collapse_time_law():
    n = 1_000_000
    t_c = 2.0
    started = time.perf_counter()
    mean, var = exponential_moments(t_c, n, np.random.default_rng(SEED))
    elapsed = time.perf_counter() - started
    assert abs(mean - t_c) <= exp_mean_3sigma(t_c, n)  # = 0.006 at t_c=2, n=1e6
    assert abs(var - t_c * t_c) <= exp_var_3sigma(t_c, n)
    assert abs(var - t_c * t_c) <= 0.05 * t_c * t_c
    assert elapsed < 5.0, f"exponential-law check took {elapsed:.1f}s, budget 5s"

    target = 1.0
    gamma = calibrate_gamma(target, 0.5, 1e-3, 0.02, np.random.default_rng(SEED), n_runs=8192).gamma
    calibrated = CollapseParams(
        model=CollapseModel.DIFFUSION, t_c_mean=target, gamma=gamma, epsilon=1e-3
    )
    times, _ = sample_collapses(0.5, calibrated, np.random.default_rng(SEED + 1), 10_000)
    fpt_mean = float(times.mean())
    assert abs(fpt_mean - target) <= 0.05 * target
    _pass(
        "C2 collapse-time law",
        f"exp mean={mean:.4f} var={var:.4f} in {elapsed:.1f}s; "
        f"calibrated gamma={gamma:.4f}, mean FPT={fpt_mean:.4f}",
    )


def test_criterion_3_case2_change_probability():
    n = 100_000
    [k] = change_counts((0.5,), n, lambda _: np.random.default_rng(SEED))
    freq = k / n
    assert abs(freq - 0.5) <= 0.0047

    n_grid = 20_000
    counts = change_counts(CASE2_GRID, n_grid, lambda j: np.random.default_rng(SEED + 100 + j))
    for p1, k in zip(CASE2_GRID, counts):
        expected = awareness_probability(CASE2_SCENARIO, p1)
        assert expected == pytest.approx(1.0 - p1, abs=1e-15)
        assert abs(k / n_grid - expected) <= binom_3sigma(expected, n_grid), f"p1={p1}"
    _pass("C3 case-(2) probability", f"freq={freq:.4f} vs 0.5 +/-0.0047; grid 0.1..0.9 matched")


def test_criterion_4_qsc_separation():
    started = time.perf_counter()
    timing = run_experiment(parse_config(qsc_config(SEED, 10_000, "post_collapse_only", "timing_threshold", True)))
    change = run_experiment(parse_config(qsc_config(SEED + 1, 10_000, "distinct_percept", "change_detection", False)))
    elapsed = time.perf_counter() - started
    assert timing.overall.estimate >= 0.999
    assert change.overall.estimate >= 0.999

    device = timing.device_success.estimate
    bound = optimal_device_bound(0.5)
    assert timing.device_bound == pytest.approx(bound, abs=1e-12)
    assert abs(device - 0.75) <= 0.015
    assert device <= 0.8536
    # central separation: observer beats any single-copy device strategy
    assert timing.overall.estimate > bound + 0.05
    assert change.overall.estimate > bound + 0.05
    assert elapsed < 30.0, f"criterion 4 runtime {elapsed:.1f}s exceeds 30s"
    _pass(
        "C4 QSC separation",
        f"timing acc={timing.overall.estimate:.4f}, change acc={change.overall.estimate:.4f}, "
        f"device={device:.4f} <= bound {bound:.4f}; {elapsed:.1f}s",
    )


def test_criterion_5_qsc_failure_mode():
    rates = gap_sweep(SEED, 10_000)
    chance = rates[0].estimate
    assert abs(chance - 0.5) <= 0.02
    assert monotone_within_2sigma(rates), [r.estimate for r in rates]
    assert rates[-1].estimate >= 0.999
    _pass(
        "C5 QSC failure mode",
        f"accuracy over gap sweep: {[round(r.estimate, 4) for r in rates]}",
    )


def test_criterion_6_batch_detection():
    headline = run_experiment(parse_config(batch_config(SEED, 100_000, 5)))
    rate = headline.superposition.estimate
    assert abs(rate - 0.96875) <= 0.005

    raw = batch_config(SEED, 20_000, 5) | {"sweep": {"param": "rule.batch_n", "values": [1, 2, 3, 5, 8]}}
    sweep_rates = []
    for value, config in expand_sweep(raw):
        summary = run_experiment(config)
        expected = 1.0 - 0.5**value
        est = summary.superposition
        assert est.lo <= expected <= est.hi, f"batch_n={value}: CI missed {expected}"
        sweep_rates.append(round(est.estimate, 4))
    # footnote-style monotonicity: batching adds at least 0.4 detection
    assert sweep_rates[3] - sweep_rates[0] >= 0.4
    _pass("C6 batch detection", f"batch-5 rate={rate:.5f}; sweep rates {sweep_rates}")


def test_criterion_7_reproducibility(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(qsc_config(SEED, 2000, "post_collapse_only", "timing_threshold", True)))
    out = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(["run", "--config", str(config_path), "--out", str(out[0])]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out[1])]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out[2]), "--threads", "4"]) == 0
    assert out[0].read_bytes() == out[1].read_bytes() == out[2].read_bytes()

    sweep_path = tmp_path / "sweep.json"
    raw = batch_config(SEED, 1000, 1) | {"sweep": {"param": "rule.batch_n", "values": [1, 2, 4]}}
    sweep_path.write_text(json.dumps(raw))
    sweep_out = [tmp_path / name for name in ("s1.csv", "s2.csv")]
    for path in sweep_out:
        assert main(["sweep", "--config", str(sweep_path), "--out", str(path), "--threads", "2"]) == 0
    assert sweep_out[0].read_bytes() == sweep_out[1].read_bytes()
    _pass("C7 reproducibility", "run and sweep CSVs byte-identical across reruns and threads")


def test_criterion_8_selftest(capsys):
    started = time.perf_counter()
    exit_code = main(["selftest"])
    elapsed = time.perf_counter() - started
    output = capsys.readouterr().out
    assert exit_code == 0
    assert elapsed < 60.0, f"selftest took {elapsed:.1f}s, budget 60s"
    assert output.count("[PASS]") == 7
    with capsys.disabled():
        _pass("C8 selftest", f"exit 0 in {elapsed:.1f}s")


def test_selftest_entrypoint_matches_library():
    # the CLI verb and the library function must agree
    lines = []
    assert run_selftest(echo=lines.append)
    assert sum(line.startswith("[PASS]") for line in lines) == 7
