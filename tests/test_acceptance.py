"""Acceptance suite: one test per criterion of ``qscsim.selftest`` (which also
backs the ``selftest`` verb), each within a runtime budget; ``pytest -s`` shows
the PASS lines.  The oracles in ``oracles.py`` check the same laws elsewhere.
"""

import json
import math
import time

import numpy as np

from oracles import band_absorption_probability, binom_3sigma
from qscsim import selftest
from qscsim.cli import main
from qscsim.collapse import CollapseModel


def _accept(criterion, budget_s: float) -> None:
    started = time.perf_counter()
    result = criterion()
    elapsed = time.perf_counter() - started
    assert result.passed, result.detail
    assert elapsed < budget_s, f"{result.name} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {result.name}: PASS ({result.detail}; {elapsed:.1f}s)")


def test_criterion_1_born_rule_conformance():
    _accept(selftest.born_rule_conformance, 10.0)


def test_criterion_1_expects_the_band_corrected_diffusion_weight(monkeypatch):
    # Diffusion lands on B1 exactly 2.9 SE above (p1 - eps) / (1 - 2 eps): inside the
    # 3-SE gate, but at p1 0.9 it is 3.7 SE above p1, so a p1 expectation would fail.
    n, real = 100_000, selftest.sample_collapses

    def b1_count(p1, epsilon):
        q = band_absorption_probability(p1, epsilon)
        return round(n * q + 2.9 * math.sqrt(n * q * (1.0 - q)))

    def biased(p1, law, rng, size):
        times, hit_upper = real(p1, law, rng, size)
        if law.model is CollapseModel.DIFFUSION:
            hit_upper = np.arange(size) < b1_count(p1, law.epsilon)
        return times, hit_upper

    monkeypatch.setattr(selftest, "sample_collapses", biased)
    assert selftest.born_rule_conformance().passed
    assert abs(b1_count(0.9, 1e-3) / n - 0.9) > binom_3sigma(0.9, n)


def test_criterion_2_collapse_time_law():
    _accept(selftest.collapse_time_law, 5.0)


def test_criterion_3_case2_change_probability():
    _accept(selftest.case2_change_probability, 10.0)


def test_criterion_4_qsc_separation():
    _accept(selftest.qsc_separation, 30.0)


def test_criterion_5_qsc_failure_mode():
    _accept(selftest.qsc_failure_mode, 10.0)


def test_criterion_6_batch_detection():
    _accept(selftest.batch_detection, 10.0)


def test_criterion_7_reproducibility(tmp_path):
    _accept(selftest.reproducibility, 10.0)
    # Byte identity across --threads is a CLI property, so it is checked through the CLI.
    path = tmp_path / "config.json"
    for verb, raw in (
        ("run", selftest.qsc_config(42, 2000, "post_collapse_only", "timing_threshold", True)),
        ("sweep", selftest.batch_config(42, 1000, 1) | {"sweep": {"param": "rule.batch_n", "values": [1, 2, 4]}}),
    ):
        path.write_text(json.dumps(raw))
        outs = [tmp_path / f"{verb}{threads}.csv" for threads in (1, 4)]
        for threads, out in zip((1, 4), outs):
            assert main([verb, "--config", str(path), "--out", str(out), "--threads", str(threads)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_criterion_8_selftest(capsys):
    started = time.perf_counter()
    assert main(["selftest"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"selftest took {elapsed:.1f}s, budget 60s"
    assert capsys.readouterr().out.count("[PASS]") == 7
    with capsys.disabled():
        print(f"ACCEPTANCE C8 selftest: PASS (exit 0 in {elapsed:.1f}s)")


def test_selftest_entrypoint_matches_library():
    # the CLI verb and the library function must agree
    lines = []
    assert selftest.run_selftest(echo=lines.append)
    assert sum(line.startswith("[PASS]") for line in lines) == 7
