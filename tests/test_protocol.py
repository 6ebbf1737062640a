import dataclasses
import functools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import binom_3sigma, device_bound_grid, device_success_enumeration
from reference import (
    Percept,
    PerceptionReport,
    classify_batch,
    classify_single,
    device_trial,
    reference_run,
    run_trial,
    trial_rng,
)
from qscsim.collapse import CollapseModel, CollapseParams
from qscsim.config import parse_config, set_config_field
from qscsim.errors import FieldError
from qscsim.observer import ObserverParams, PerceptionScenario, ScenarioTag
import qscsim.protocol as protocol
from qscsim.protocol import (
    BLOCK_SIZE,
    DecisionRule,
    ExperimentSummary,
    RuleKind,
    optimal_device_bound,
    run_experiment,
    run_experiments,
)
from qscsim.states import Branch, InputKind
from qscsim.stats import RateEstimate

QUIET = ObserverParams(t_p=0.001, jitter_sigma=0.0, resolution=0.01)
POST = PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY)
FIXED_C1 = PerceptionScenario(tag=ScenarioTag.FIXED_C1)
TIMING = DecisionRule(kind=RuleKind.TIMING_THRESHOLD, threshold_time=0.05)
CHANGE = DecisionRule(kind=RuleKind.CHANGE_DETECTION)


def quiet_report(time, changed=False):
    return PerceptionReport(
        first_percept_time=time,
        first_percept=Percept.C1,
        change_detected=changed,
        change_time=time + 1.0 if changed else None,
        final_percept=Percept.C2 if changed else Percept.C1,
    )


class TestDecisionRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionRule(kind=RuleKind.TIMING_THRESHOLD)
        with pytest.raises(ValueError):
            DecisionRule(kind=RuleKind.COMBINED, threshold_time=-1.0)
        with pytest.raises(ValueError):
            DecisionRule(kind=RuleKind.CHANGE_DETECTION, batch_n=0)
        assert DecisionRule(kind=RuleKind.CHANGE_DETECTION).threshold_time is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", list(RuleKind))
    def test_non_finite_threshold_is_named(self, kind, value):
        with pytest.raises(FieldError, match="must be finite") as err:
            DecisionRule(kind=kind, threshold_time=value)
        assert err.value.field == "threshold_time"


class TestClassifySingle:
    def test_timing_threshold(self):
        assert classify_single(quiet_report(0.001), TIMING) is InputKind.DEFINITE
        assert classify_single(quiet_report(180.001), TIMING) is InputKind.SUPERPOSITION

    def test_change_detection(self):
        assert classify_single(quiet_report(0.001, changed=True), CHANGE) is InputKind.SUPERPOSITION
        assert classify_single(quiet_report(0.001), CHANGE) is InputKind.DEFINITE

    def test_combined_fires_on_either(self):
        rule = DecisionRule(kind=RuleKind.COMBINED, threshold_time=0.05)
        assert classify_single(quiet_report(0.001, changed=True), rule) is InputKind.SUPERPOSITION
        assert classify_single(quiet_report(0.1), rule) is InputKind.SUPERPOSITION
        assert classify_single(quiet_report(0.001), rule) is InputKind.DEFINITE

    def test_no_change_guess_honored(self):
        rule = DecisionRule(
            kind=RuleKind.CHANGE_DETECTION, no_change_guess=InputKind.SUPERPOSITION
        )
        assert classify_single(quiet_report(0.001), rule) is InputKind.SUPERPOSITION


class TestClassifyBatch:
    def test_batch_of_one_matches_single(self):
        rule = DecisionRule(kind=RuleKind.TIMING_THRESHOLD, threshold_time=0.05, batch_n=1)
        for time in (0.001, 0.2):
            report = quiet_report(time)
            assert classify_batch([report], rule) is classify_single(report, rule)

    def test_any_positive_fires(self):
        rule = DecisionRule(kind=RuleKind.CHANGE_DETECTION, batch_n=3)
        quiet = [quiet_report(0.001)] * 2
        assert classify_batch(quiet + [quiet_report(0.001, changed=True)], rule) is InputKind.SUPERPOSITION
        assert classify_batch(quiet + [quiet_report(0.001)], rule) is InputKind.DEFINITE

    def test_size_validation(self):
        rule = DecisionRule(kind=RuleKind.CHANGE_DETECTION, batch_n=2)
        with pytest.raises(ValueError):
            classify_batch([], rule)
        with pytest.raises(ValueError):
            classify_batch([quiet_report(0.001)], rule)


class TestRunTrial:
    # run_trial is the scalar per-trial reference in tests/reference.py.
    def test_definite_trial_correct(self):
        params = CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=180.0)
        record = run_trial(
            InputKind.DEFINITE, 1.0, params, QUIET, POST, TIMING, np.random.default_rng(0)
        )
        assert record.collapse is None
        assert record.guess is InputKind.DEFINITE
        assert record.correct

    def test_superposition_timing_correct(self):
        params = CollapseParams(model=CollapseModel.DETERMINISTIC_TIME, t_c_mean=2.0)
        record = run_trial(
            InputKind.SUPERPOSITION, 0.5, params, QUIET, POST, TIMING, np.random.default_rng(0)
        )
        assert record.collapse.time == 2.0
        assert record.report.first_percept_time == 2.001
        assert record.guess is InputKind.SUPERPOSITION
        assert record.correct

    def test_half_blind_case(self):
        # Fixed pre-percept C1 plus outcome B1: no change, so the change
        # detector guesses definite and is wrong.
        params = CollapseParams(model=CollapseModel.DETERMINISTIC_TIME, t_c_mean=2.0)
        rng = np.random.default_rng(1)
        saw_blind = False
        for _ in range(50):
            record = run_trial(
                InputKind.SUPERPOSITION, 0.5, params, QUIET, FIXED_C1, CHANGE, rng
            )
            if record.collapse.outcome is Branch.B1:
                assert record.guess is InputKind.DEFINITE
                assert not record.correct
                saw_blind = True
            else:
                assert record.guess is InputKind.SUPERPOSITION
                assert record.correct
        assert saw_blind

    def test_definite_requires_unit_p1(self):
        params = CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0)
        with pytest.raises(ValueError):
            run_trial(InputKind.DEFINITE, 0.5, params, QUIET, POST, TIMING, np.random.default_rng(0))


class TestDeviceTrial:
    def test_definite_always_b1(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            outcome, guess = device_trial(InputKind.DEFINITE, 1.0, rng)
            assert outcome is Branch.B1
            assert guess is InputKind.DEFINITE

    def test_balanced_success_matches_enumeration(self):
        rng = np.random.default_rng(2)
        n = 20_000
        correct = 0
        for i in range(n):
            definite = i % 2 == 0  # exact equal priors
            kind = InputKind.DEFINITE if definite else InputKind.SUPERPOSITION
            _, guess = device_trial(kind, 1.0 if definite else 0.5, rng)
            correct += guess is kind
        expected = device_success_enumeration(0.5, 0.5)
        assert expected == 0.75
        assert abs(correct / n - expected) <= binom_3sigma(expected, n)

    def test_lopsided_superposition_rarely_detected(self):
        rng = np.random.default_rng(3)
        n = 20_000
        hits = sum(
            device_trial(InputKind.SUPERPOSITION, 0.9, rng)[1] is InputKind.SUPERPOSITION
            for _ in range(n)
        )
        assert abs(hits / n - 0.1) <= binom_3sigma(0.1, n)


class TestOptimalDeviceBound:
    def test_closed_form_values(self):
        assert optimal_device_bound(0.5) == pytest.approx(0.8535533905932737, abs=1e-12)
        assert optimal_device_bound(0.0) == 1.0
        assert optimal_device_bound(1.0) == 0.5

    def test_matches_measurement_grid_search(self):
        for fidelity in (0.0, 0.25, 0.5, 0.75, 0.9):
            assert device_bound_grid(fidelity) == pytest.approx(
                optimal_device_bound(fidelity), abs=1e-9
            )

    def test_range_validated(self):
        with pytest.raises(ValueError):
            optimal_device_bound(1.5)


def experiment_config(**overrides):
    raw = {
        "master_seed": 42,
        "n_trials": 2000,
        "collapse": {"model": "deterministic_time", "t_c_mean": 180.0},
        "observer": {"t_p": 0.001, "jitter_sigma": 0.0, "resolution": 0.01},
        "scenario": {"tag": "post_collapse_only"},
        "rule": {"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 1},
    }
    raw.update(overrides)
    return parse_config(raw)


#: Bases of the stream-layout check: on the jump base every draw-count
#: field matters; the diffusion base covers the fields only diffusion reads.
JUMP_LAYOUT_BASE = {
    "master_seed": 7,
    "n_trials": 600,
    "input_p1": 0.3,
    "collapse": {"model": "jump_exponential", "t_c_mean": 0.02},
    "observer": {"t_p": 0.001, "jitter_sigma": 0.002, "resolution": 0.01},
    "scenario": {"tag": "random_percept", "r": 0.4},
    "rule": {"kind": "combined", "threshold_time": 0.03, "batch_n": 2},
    "device_baseline": True,
}
LAYOUT_BASES = {
    "jump": JUMP_LAYOUT_BASE,
    "diffusion": JUMP_LAYOUT_BASE | {"collapse": {"model": "diffusion", "t_c_mean": 0.02}, "scenario": {"tag": "fixed_c1"}},
}
#: One valid change per leaf field of a config: (base, new raw value).  A
#: diffusion gamma left unset follows t_c_mean, epsilon and input_p1, as at
#: a sweep point; so only the jump base takes a gamma alone.
#: ``schema_version`` has no other valid value.
LEAF_CHANGES = {
    "master_seed": ("jump", 8),
    "n_trials": ("jump", 500),
    "priors": ("jump", 0.6),
    "input_p1": ("diffusion", 0.4),
    "collapse.model": ("jump", "deterministic_time"),
    "collapse.t_c_mean": ("diffusion", 0.03),
    "collapse.gamma": ("jump", 2.0),
    "collapse.epsilon": ("diffusion", 0.01),
    "collapse.energy": ("jump", 50.0),
    "collapse.kappa": ("jump", 2.0),
    "observer.t_p": ("jump", 0.002),
    "observer.jitter_sigma": ("jump", 0.001),
    "observer.resolution": ("jump", 0.02),
    "scenario.tag": ("diffusion", "fixed_c2"),
    "scenario.r": ("jump", 0.7),
    "rule.kind": ("jump", "timing_threshold"),
    "rule.threshold_time": ("jump", 0.04),
    "rule.batch_n": ("jump", 3),
    "rule.no_change_guess": ("jump", "superposition"),
    "device_baseline": ("jump", False),
    "sweep": ("jump", {"param": "priors", "values": [0.6]}),
    "schema_version": None,
}


def leaf_fields(obj, prefix=""):
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_fields(value, f"{prefix}{field.name}.")
        else:
            yield prefix + field.name


class TestRunExperiment:
    def test_deterministic_and_thread_invariant(self, monkeypatch):
        # The kernel runs in the calling thread, so no thread count can
        # change its output.
        config = experiment_config(device_baseline=True)
        s1 = run_experiment(config)

        def no_threads(self):
            raise AssertionError("run_experiment started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        assert run_experiment(config) == s1

    def test_no_signal_floor_without_jitter(self):
        config = experiment_config(priors=1.0, n_trials=5000)
        summary = run_experiment(config)
        assert summary.definite.estimate == 1.0  # exact: no false positives
        assert summary.superposition.estimate is None
        assert summary.mean_report_time_superposition is None

    def test_scenario_equivalence_with_clean_signals(self):
        timing = run_experiment(experiment_config(n_trials=3000))
        change = run_experiment(
            experiment_config(
                n_trials=3000,
                scenario={"tag": "distinct_percept"},
                rule={"kind": "change_detection"},
            )
        )
        assert timing.overall.estimate == change.overall.estimate == 1.0

    def test_counts_and_intervals_consistent(self):
        summary = run_experiment(experiment_config(device_baseline=True))
        assert summary.definite.trials + summary.superposition.trials == summary.n_trials
        for rate in (summary.definite, summary.superposition, summary.overall, summary.device_success):
            assert 0.0 <= rate.lo <= rate.estimate <= rate.hi <= 1.0
        assert summary.device_bound == pytest.approx(0.8535533905932737, abs=1e-12)
        assert summary.master_seed == 42

    def test_batch_consumes_batch_n_states(self):
        config = experiment_config(
            priors=0.0,
            n_trials=500,
            scenario={"tag": "fixed_c1"},
            rule={"kind": "change_detection", "batch_n": 5},
        )
        summary = run_experiment(config)
        # Mean report time averages over all 5 states per decision; with zero
        # jitter and a fixed pre-collapse percept every report lands at t_p.
        assert summary.mean_report_time_superposition == pytest.approx(0.001, abs=1e-12)
        expected = 1.0 - 0.5**5
        assert abs(summary.superposition.estimate - expected) <= binom_3sigma(expected, 500)

    def test_trial_rng_matches_seedsequence_spawn(self):
        # The scalar reference gives every trial its own spawned stream.
        children = np.random.SeedSequence(42).spawn(3)
        for i, child in enumerate(children):
            a = trial_rng(42, i).random(4)
            b = np.random.default_rng(child).random(4)
            assert np.array_equal(a, b)

    def test_block_rng_matches_seedsequence_spawn_key(self):
        # The first draw of block b is one prior uniform per decision from
        # SeedSequence(master_seed, spawn_key=(b,)); the last block is short.
        n = BLOCK_SIZE + 100
        summary = run_experiment(experiment_config(n_trials=n, priors=0.3))
        expected = 0
        for block, size in enumerate((BLOCK_SIZE, 100)):
            rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(block,)))
            expected += int(np.count_nonzero(rng.random(size) < 0.3))
        assert summary.definite.trials == expected
        assert summary.n_trials == n

    def test_memory_stays_at_one_block(self):
        # 200k decisions of 5 copies: one float per copy would take 8 MB.
        config = experiment_config(
            n_trials=200_000, rule={"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 5},
            observer={"t_p": 0.001, "jitter_sigma": 0.0002}, device_baseline=True,
        )
        tracemalloc.start()
        try:
            run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_points_with_one_stream_layout_share_a_block_pass(self, monkeypatch):
        # t_c_mean and t_p change no draw, so those points run as one group;
        # priors changes the draws, so that point runs alone.  Each summary
        # still equals its own run.
        def jump(**overrides):
            return experiment_config(collapse={"model": "jump_exponential", "t_c_mean": 0.01}, **overrides)

        configs = [
            jump(),
            experiment_config(collapse={"model": "jump_exponential", "t_c_mean": 0.04}),
            jump(priors=0.3),
            jump(observer={"t_p": 0.02, "jitter_sigma": 0.0}),
        ]
        expected = [run_experiment(config) for config in configs]
        sizes = []
        real = protocol._run_group
        monkeypatch.setattr(protocol, "_run_group", lambda group: sizes.append(len(group)) or real(group))
        assert run_experiments(configs) == expected
        assert sizes == [3, 1]

    def test_large_groups_run_in_slices(self, monkeypatch):
        # With two blocks' worth per slice, full blocks take two points at a
        # time; the summaries do not depend on the slicing.
        configs = [
            experiment_config(n_trials=BLOCK_SIZE + 10, collapse={"model": "jump_exponential", "t_c_mean": 0.01 * k})
            for k in range(1, 6)
        ]
        expected = [run_experiment(config) for config in configs]
        monkeypatch.setattr(protocol, "_SLICE_BLOCKS", 2)
        points = []
        real = protocol._run_block
        monkeypatch.setattr(
            protocol, "_run_block", lambda group, *rest: points.append(len(group)) or real(group, *rest)
        )
        assert run_experiments(configs) == expected
        assert points == [2, 2, 2, 2, 1, 1]

    def test_memory_of_a_group_is_bounded_by_its_slices(self):
        def peak(n_points):
            configs = [
                experiment_config(
                    n_trials=BLOCK_SIZE, collapse={"model": "jump_exponential", "t_c_mean": 0.001 * (k + 1)},
                    rule={"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 5},
                )
                for k in range(n_points)
            ]
            tracemalloc.start()
            try:
                run_experiments(configs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_slice = peak(protocol._SLICE_BLOCKS)
        assert peak(4 * protocol._SLICE_BLOCKS) < 1.5 * one_slice

    def test_stream_layout_key_is_complete(self):
        # A config that differs from another in one field, run next to it,
        # gives its own run's summary, whether or not the two share draws.
        bases = {name: parse_config(raw) for name, raw in LAYOUT_BASES.items()}
        assert set(leaf_fields(bases["jump"])) == set(LEAF_CHANGES)
        for path, change in LEAF_CHANGES.items():
            if change is None:
                continue
            name, value = change
            base = bases[name]
            changed = parse_config(set_config_field(LAYOUT_BASES[name], path, value))
            attrs = path.split(".")
            assert functools.reduce(getattr, attrs, changed) != functools.reduce(getattr, attrs, base), path
            assert run_experiments([base, changed]) == [run_experiment(base), run_experiment(changed)], path


SCENARIOS = ["post_collapse_only", "distinct_percept", "fixed_c1", "fixed_c2", "random_percept"]
RULES = ["timing_threshold", "change_detection", "combined"]
KERNEL_TRIALS = 20_000
REFERENCE_TRIALS = 1000


def grid_config(model, scenario, rule_kind, batch_n, jitter, seed):
    """Parameters that put every signal between never and always firing:
    t_c + t_p straddles the threshold, jitter truncates a definite report
    at 0 about one time in three, and p1 = 0.3 makes the two fixed
    scenarios differ."""
    scenario_raw = {"tag": scenario}
    if scenario == "random_percept":
        scenario_raw["r"] = 0.2
    rule = {"kind": rule_kind, "batch_n": batch_n}
    if rule_kind != "change_detection":
        rule["threshold_time"] = 0.03
    return parse_config({
        "master_seed": seed,
        "n_trials": KERNEL_TRIALS,
        "priors": 0.5,
        "input_p1": 0.3,
        "collapse": {"model": model, "t_c_mean": 0.02 if model == "jump_exponential" else 0.025},
        "observer": {"t_p": 0.01, "jitter_sigma": 0.02 if jitter else 0.0},
        "scenario": scenario_raw,
        "rule": rule,
        "device_baseline": True,
    })


def assert_rates_agree(k1, n1, k2, n2, what):
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    assert abs(k1 / n1 - k2 / n2) <= 5.0 * se, f"{what}: kernel {k1}/{n1} vs reference {k2}/{n2}"


def assert_mean_times_agree(kernel_mean, kernel_n, reference_times, what):
    ref = np.asarray(reference_times)
    se = float(ref.std(ddof=1)) * math.sqrt(1.0 / ref.size + 1.0 / kernel_n)
    assert abs(kernel_mean - float(ref.mean())) <= 5.0 * se + 1e-12, f"{what}: {kernel_mean} vs {ref.mean()}"


@pytest.mark.parametrize("jitter", [False, True], ids=["quiet", "jitter"])
@pytest.mark.parametrize("batch_n", [1, 5])
@pytest.mark.parametrize("rule_kind", RULES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("model", ["jump_exponential", "deterministic_time"])
def test_block_kernel_matches_scalar_reference(model, scenario, rule_kind, batch_n, jitter):
    config = grid_config(model, scenario, rule_kind, batch_n, jitter, seed=11)
    kernel = run_experiment(config)
    ref = reference_run(grid_config(model, scenario, rule_kind, batch_n, jitter, seed=12), REFERENCE_TRIALS)
    assert_rates_agree(
        kernel.definite.successes, kernel.definite.trials, ref.definite_correct, ref.definite_trials, "definite"
    )
    assert_rates_agree(
        kernel.superposition.successes, kernel.superposition.trials,
        ref.superposition_correct, ref.superposition_trials, "superposition",
    )
    assert_rates_agree(
        kernel.device_success.successes, KERNEL_TRIALS, ref.device_correct, REFERENCE_TRIALS, "device"
    )
    assert_mean_times_agree(
        kernel.mean_report_time_definite, kernel.definite.trials, ref.definite_times, "definite time"
    )
    assert_mean_times_agree(
        kernel.mean_report_time_superposition, kernel.superposition.trials,
        ref.superposition_times, "superposition time",
    )


def test_summary_count_invariant_enforced():
    ten = RateEstimate.from_counts(5, 10)
    with pytest.raises(ValueError):
        ExperimentSummary(
            n_trials=11,
            definite=ten,
            superposition=RateEstimate.from_counts(0, 0),
            overall=ten,
            mean_report_time_definite=None,
            mean_report_time_superposition=None,
            device_success=None,
            device_bound=None,
            master_seed=1,
        )
