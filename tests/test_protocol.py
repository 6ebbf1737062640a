import dataclasses
import functools
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import binom_3sigma, device_bound_grid, expected_outcomes
from qscsim.config import expand_sweep, parse_config, set_config_field
from qscsim.errors import FieldError
from qscsim.observer import ScenarioTag
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
from qscsim.stats import RateEstimate

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
        "observer": {"t_p": 0.001, "jitter_sigma": 0.0},
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
    "observer": {"t_p": 0.001, "jitter_sigma": 0.002},
    "scenario": {"tag": "random_percept", "r": 0.4},
    "rule": {"kind": "combined", "threshold_time": 0.03, "batch_n": 2},
    "device_baseline": True,
}
LAYOUT_BASES = {
    "jump": JUMP_LAYOUT_BASE,
    "diffusion": JUMP_LAYOUT_BASE | {"collapse": {"model": "diffusion", "t_c_mean": 0.02}, "scenario": {"tag": "fixed_c1"}},
}
#: One valid change per leaf field of a config: (base, new raw value).
#: ``schema_version`` has no other valid value, and ``collapse.gamma`` no
#: valid change alone: a diffusion gamma must agree with t_c_mean, epsilon
#: and input_p1, and the other laws refuse one.  A config with a ``sweep``
#: does not run (``test_a_sweep_config_runs_only_as_a_sweep``).
LEAF_CHANGES = {
    "master_seed": ("jump", 8),
    "n_trials": ("jump", 500),
    "priors": ("jump", 0.6),
    "input_p1": ("diffusion", 0.4),
    "collapse.model": ("jump", "deterministic_time"),
    "collapse.t_c_mean": ("diffusion", 0.03),
    "collapse.gamma": None,
    "collapse.epsilon": ("diffusion", 0.01),
    "observer.t_p": ("jump", 0.002),
    "observer.jitter_sigma": ("jump", 0.001),
    "scenario.tag": ("diffusion", "fixed_c2"),
    "scenario.r": ("jump", 0.7),
    "rule.kind": ("jump", "timing_threshold"),
    "rule.threshold_time": ("jump", 0.04),
    "rule.batch_n": ("jump", 3),
    "device_baseline": ("jump", False),
    "sweep": None,
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
        assert summary.accuracy_definite.estimate == 1.0  # exact: no false positives
        assert summary.accuracy_superposition.estimate is None
        assert summary.mean_report_time_superposition is None

    @pytest.mark.parametrize("tag", [tag.value for tag in ScenarioTag])
    def test_change_detection_never_misreads_a_definite_input(self, tag):
        # Only a collapse can flip a percept, so a definite input never fires
        # the change rule and every batch without a signal is guessed definite,
        # whatever the scenario and however noisy the report times.
        scenario = {"tag": tag, "r": 0.2} if tag == "random_percept" else {"tag": tag}
        summary = run_experiment(
            experiment_config(
                input_p1=0.3,
                observer={"t_p": 0.01, "jitter_sigma": 0.02},
                scenario=scenario,
                rule={"kind": "change_detection", "batch_n": 3},
                collapse={"model": "jump_exponential", "t_c_mean": 0.02},
            )
        )
        assert summary.accuracy_definite.trials > 0
        assert summary.accuracy_definite.successes == summary.accuracy_definite.trials

    def test_scenario_equivalence_with_clean_signals(self):
        timing = run_experiment(experiment_config(n_trials=3000))
        change = run_experiment(
            experiment_config(
                n_trials=3000,
                scenario={"tag": "distinct_percept"},
                rule={"kind": "change_detection"},
            )
        )
        assert timing.accuracy_overall.estimate == change.accuracy_overall.estimate == 1.0

    def test_counts_and_intervals_consistent(self):
        summary = run_experiment(experiment_config(device_baseline=True))
        assert summary.accuracy_definite.trials + summary.accuracy_superposition.trials == summary.n_trials
        rates = (summary.accuracy_definite, summary.accuracy_superposition, summary.accuracy_overall)
        for rate in (*rates, summary.device_success):
            assert 0.0 <= rate.lo <= rate.estimate <= rate.hi <= 1.0
        assert summary.device_bound == pytest.approx(0.8535533905932737, abs=1e-12)
        assert summary.master_seed == 42

    @pytest.mark.parametrize("input_p1", [0.2, 0.3, 0.5, 0.7, 0.999])
    def test_device_bound_is_the_closed_form(self, input_p1):
        # The pair's fidelity is input_p1 itself, with no amplitude round trip.
        summary = run_experiment(experiment_config(n_trials=100, input_p1=input_p1, device_baseline=True))
        assert summary.device_bound == 0.5 * (1.0 + math.sqrt(1.0 - input_p1))

    def test_near_unit_weight_is_prepared_definite(self):
        # A branch-2 weight under DEFINITE_WEIGHT_TOL never collapses, so the
        # superposition reports at t_p and reads as definite; just above the
        # tolerance it collapses after about t_c_mean and fires the timing rule.
        def near_unit(input_p1):
            return run_experiment(
                experiment_config(
                    priors=0.0, input_p1=input_p1, collapse={"model": "jump_exponential", "t_c_mean": 180.0}
                )
            )

        inside = near_unit(1.0 - 5e-13)
        assert inside.accuracy_superposition.estimate == 0.0
        assert abs(inside.mean_report_time_superposition - 0.001) <= 1e-15
        assert near_unit(1.0 - 2e-12).accuracy_superposition.estimate >= 0.99

    def test_definite_accuracy_under_jitter_is_the_closed_form(self):
        # A definite copy reports at t_p plus jitter and fires the timing
        # rule when the jitter passes theta - t_p, one sigma here; a decision
        # is correct when none of its batch_n copies fires.
        summary = run_experiment(
            experiment_config(
                n_trials=200_000, observer={"t_p": 0.01, "jitter_sigma": 0.005},
                rule={"kind": "timing_threshold", "threshold_time": 0.015, "batch_n": 3},
            )
        )
        expected = (1.0 - 0.5 * math.erfc(1.0 / math.sqrt(2.0))) ** 3
        rate = summary.accuracy_definite
        assert abs(rate.estimate - expected) <= 5.0 * math.sqrt(expected * (1.0 - expected) / rate.trials)

    def test_device_success_is_the_closed_form(self):
        # A definite input always reads B1, and a superposition reads B2, and
        # is caught, with probability 1 - input_p1.
        n = 200_000
        summary = run_experiment(experiment_config(n_trials=n, priors=0.3, input_p1=0.4, device_baseline=True))
        expected = 0.3 + (1.0 - 0.3) * (1.0 - 0.4)
        assert abs(summary.device_success.estimate - expected) <= 5.0 * math.sqrt(expected * (1.0 - expected) / n)

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
        assert abs(summary.accuracy_superposition.estimate - expected) <= binom_3sigma(expected, 500)

    def test_block_rng_matches_seedsequence_spawn_key(self):
        # The first draw of block b is one prior uniform per decision from
        # SeedSequence(master_seed, spawn_key=(b,)); the last block is short.
        n = BLOCK_SIZE + 100
        summary = run_experiment(experiment_config(n_trials=n, priors=0.3))
        expected = 0
        for block, size in enumerate((BLOCK_SIZE, 100)):
            rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(block,)))
            expected += int(np.count_nonzero(rng.random(size) < 0.3))
        assert summary.accuracy_definite.trials == expected
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

    @pytest.mark.parametrize("budget", [2 * BLOCK_SIZE, protocol._CHUNK_COPIES])
    @pytest.mark.parametrize("n_points", [1, 5])
    def test_a_group_draws_each_block_once(self, monkeypatch, budget, n_points):
        # Two blocks, each drawn once whatever the point count and chunk
        # budget; with two blocks' worth per chunk the first block evaluates
        # its points two at a time.  The summaries do not depend on either.
        configs = [
            experiment_config(n_trials=BLOCK_SIZE + 10, collapse={"model": "jump_exponential", "t_c_mean": 0.01 * k})
            for k in range(1, n_points + 1)
        ]
        expected = [run_experiment(config) for config in configs]
        monkeypatch.setattr(protocol, "_CHUNK_COPIES", budget)
        draws = []
        real = protocol.draw_collapses
        monkeypatch.setattr(protocol, "draw_collapses", lambda *args: draws.append(args[-1]) or real(*args))
        assert run_experiments(configs) == expected
        assert len(draws) == 2

    @pytest.mark.parametrize("model", ["jump_exponential", "diffusion"])
    @pytest.mark.parametrize("tag", ["post_collapse_only", "fixed_c1", "distinct_percept", "random_percept"])
    def test_collapse_times_are_evaluated_only_where_reports_read_them(self, monkeypatch, model, tag):
        # Only post_collapse_only reports a collapse time; a pre-collapse
        # percept arrives at t_p whenever the collapse ends.
        scenario = {"tag": tag, "r": 0.4} if tag == "random_percept" else {"tag": tag}
        configs = [
            experiment_config(
                n_trials=BLOCK_SIZE + 10, input_p1=0.3, collapse={"model": model, "t_c_mean": 0.01 * k},
                scenario=scenario, rule={"kind": "combined", "threshold_time": 0.05, "batch_n": 2},
            )
            for k in (1, 2)
        ]
        expected = [run_experiment(config) for config in configs]
        calls = []
        real = protocol.draw_collapses

        def counted(*args):
            hit_upper, times = real(*args)
            return hit_upper, lambda laws: calls.append(len(laws)) or times(laws)

        monkeypatch.setattr(protocol, "draw_collapses", counted)
        assert run_experiments(configs) == expected
        assert calls == ([2, 2] if tag == "post_collapse_only" else [])

    @pytest.mark.parametrize("model", ["jump_exponential", "diffusion"])
    def test_memory_of_a_group_is_bounded_by_its_chunks(self, model):
        # At batch_n 64 one point of a full block already fills the chunk
        # budget four times over, so more points add chunks, not memory.
        def peak(n_points):
            configs = [
                experiment_config(
                    n_trials=BLOCK_SIZE, input_p1=0.3,
                    collapse={"model": model, "t_c_mean": 0.001 * (k + 1)},
                    observer={"t_p": 0.001, "jitter_sigma": 0.0002},
                    rule={"kind": "timing_threshold", "threshold_time": 0.05, "batch_n": 64},
                )
                for k in range(n_points)
            ]
            tracemalloc.start()
            try:
                run_experiments(configs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < 1.5 * peak(1)

    def test_memory_of_a_run_does_not_grow_with_its_blocks(self):
        # Report-time sums are folded into exact integer totals as each block
        # completes, rather than kept until the end.
        def peak(blocks):
            config = experiment_config(n_trials=blocks * BLOCK_SIZE)
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) < 1.3 * peak(40)

    def test_report_time_totals_keep_fsum(self, monkeypatch):
        # Block sums across 40 decades, with 0.0 and the least subnormal,
        # join exact integer totals: each mean divides the correctly rounded
        # sum, as math.fsum gives it, by the copy count, for either sign.
        rng = np.random.default_rng(3)
        for size in (1, 2, 50, 500):
            values = [0.0, 5e-324, *(rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)).tolist()]
            blocks = iter(values)

            def block(configs, rng, m, p1, collapses):
                value = next(blocks)
                no_correct = np.zeros(1, dtype=np.int64)
                return m // 2, 0, no_correct, no_correct, np.array([value]), np.array([-value])

            monkeypatch.setattr(protocol, "_run_block", block)
            summary = run_experiment(experiment_config(n_trials=len(values) * BLOCK_SIZE))
            copies = len(values) * BLOCK_SIZE // 2
            assert summary.mean_report_time_definite == math.fsum(values) / copies
            assert summary.mean_report_time_superposition == math.fsum(-value for value in values) / copies

    def test_a_sweep_config_runs_only_as_a_sweep(self):
        # Its base values are not one of its points, so running it alone would report neither.
        config = experiment_config(sweep={"param": "collapse.t_c_mean", "values": [1.0, 2.0]})
        with pytest.raises(FieldError, match="use the sweep verb") as err:
            run_experiments([experiment_config(), config])
        assert err.value.field == "sweep"

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
#: Every law, scenario, rule, batch size and jitter setting; diffusion, whose
#: first-passage law the oracle does not integrate, only where the report
#: time does not depend on it, at a wide band so that the Born weight's band
#: correction shows.
EXACT_GRID = [
    *itertools.product(["jump_exponential", "deterministic_time"], SCENARIOS, RULES, [1, 5], ["quiet", "jitter"]),
    *itertools.product(["diffusion"], SCENARIOS[1:], RULES, [1, 5], ["jitter"]),
]


def grid_raw(model, scenario, rule_kind, batch_n, jitter, n_trials=KERNEL_TRIALS):
    """Parameters that put every signal between never and always firing:
    t_c + t_p straddles the threshold, jitter truncates a definite report
    at 0 about one time in three, and p1 = 0.3 makes the two fixed
    scenarios differ.  Diffusion's band at epsilon 0.2 lands a collapse on
    B1 with probability 1/6, not 0.3."""
    scenario_raw = {"tag": scenario}
    if scenario == "random_percept":
        scenario_raw["r"] = 0.2
    rule = {"kind": rule_kind, "batch_n": batch_n}
    if rule_kind != "change_detection":
        rule["threshold_time"] = 0.03
    collapse = {"model": model, "t_c_mean": 0.02 if model == "jump_exponential" else 0.025}
    if model == "diffusion":
        collapse["epsilon"] = 0.2
    return {
        "master_seed": 11,
        "n_trials": n_trials,
        "priors": 0.5,
        "input_p1": 0.3,
        "collapse": collapse,
        "observer": {"t_p": 0.01, "jitter_sigma": 0.02 if jitter == "jitter" else 0.0},
        "scenario": scenario_raw,
        "rule": rule,
        "device_baseline": True,
    }


def assert_within_5se(observed, expected, se, what):
    """``observed`` within 5 standard errors of ``expected``; with no
    sampling error, equal to 1e-12 relative."""
    if se == 0.0:
        assert math.isclose(observed, expected, rel_tol=1e-12), f"{what}: {observed!r} vs exactly {expected!r}"
    else:
        z = (observed - expected) / se
        assert abs(z) <= 5.0, f"{what}: {observed!r} vs {expected!r}, z = {z:.2f}"


@pytest.mark.parametrize("model, scenario, rule_kind, batch_n, jitter", EXACT_GRID)
def test_block_kernel_matches_exact_expectations(model, scenario, rule_kind, batch_n, jitter):
    # Each decision is correct independently, so a class's count is binomial
    # in its trials; a mean report time averages trials * batch_n
    # independent copies.
    config = parse_config(grid_raw(model, scenario, rule_kind, batch_n, jitter))
    kernel = run_experiment(config)
    expected = expected_outcomes(config)
    for what, rate in (
        ("definite", kernel.accuracy_definite),
        ("superposition", kernel.accuracy_superposition),
        ("device", kernel.device_success),
    ):
        p = expected[what]
        assert_within_5se(rate.estimate, p, math.sqrt(p * (1.0 - p) / rate.trials), what)
    for what, mean, trials in (
        ("time_definite", kernel.mean_report_time_definite, kernel.accuracy_definite.trials),
        ("time_superposition", kernel.mean_report_time_superposition, kernel.accuracy_superposition.trials),
    ):
        m1, m2 = expected[what]
        assert_within_5se(mean, m1, math.sqrt(max(m2 - m1 * m1, 0.0) / (trials * batch_n)), what)


#: Decisions per run of an exact relation: these hold whatever the sample,
#: so a small one serves.
RELATION_TRIALS = 5000
LAWS = ["jump_exponential", "deterministic_time", "diffusion"]
#: Every time field of a config; a change-detection rule has no threshold_time.
TIME_FIELDS = ["collapse.t_c_mean", "observer.t_p", "observer.jitter_sigma", "rule.threshold_time"]


@pytest.mark.parametrize("rule_kind", RULES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("model", LAWS)
def test_scaling_every_time_scales_the_means_and_keeps_every_count(model, scenario, rule_kind):
    # Every report time is a product or a sum of scaled times, and the bands
    # are in weight, not time.  A power of 4 is exact in each of them and
    # halves the closed-form diffusion gamma exactly; the default
    # threshold's floor does not scale, so the rule sets it.
    raw = grid_raw(model, scenario, rule_kind, 2, "jitter", n_trials=RELATION_TRIALS)
    base = run_experiment(parse_config(raw))
    for c in (4.0, 0.25):
        scaled = raw
        for path in TIME_FIELDS:
            section, name = path.split(".")
            if name in raw[section]:
                scaled = set_config_field(scaled, path, c * raw[section][name])
        assert run_experiment(parse_config(scaled)) == dataclasses.replace(
            base,
            mean_report_time_definite=c * base.mean_report_time_definite,
            mean_report_time_superposition=c * base.mean_report_time_superposition,
        ), c


#: Per swept field, the direction in which correct definite and correct
#: superposed decisions move as it grows: a later report fires the timing
#: signal more often, a later threshold less often.
SWEEP_DIRECTIONS = {
    "collapse.t_c_mean": (0, 1),
    "observer.t_p": (-1, 1),
    "rule.threshold_time": (1, -1),
}


@pytest.mark.parametrize("param", list(SWEEP_DIRECTIONS))
@pytest.mark.parametrize("rule_kind", ["timing_threshold", "combined"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("model", LAWS)
def test_sweep_counts_move_one_way(model, scenario, rule_kind, param):
    # The points change no draw, so every report time moves one way with
    # the swept value, and so does every count.
    raw = grid_raw(model, scenario, rule_kind, 2, "jitter", n_trials=RELATION_TRIALS)
    section, name = param.split(".")
    values = [raw[section][name] * 2.0 ** (k / 2) for k in range(-4, 5)]
    points = expand_sweep(raw | {"sweep": {"param": param, "values": values}})
    summaries = run_experiments([config for _, config in points])
    for direction, counts in zip(SWEEP_DIRECTIONS[param], (
        [s.accuracy_definite.successes for s in summaries],
        [s.accuracy_superposition.successes for s in summaries],
    )):
        steps = [direction * (b - a) for a, b in zip(counts, counts[1:])]
        assert all(step >= 0 for step in steps) if direction else not any(steps), (direction, counts)


def test_summary_count_invariant_enforced():
    ten = RateEstimate.from_counts(5, 10)
    with pytest.raises(ValueError):
        ExperimentSummary(
            n_trials=11,
            accuracy_definite=ten,
            accuracy_superposition=RateEstimate.from_counts(0, 0),
            accuracy_overall=ten,
            mean_report_time_definite=None,
            mean_report_time_superposition=None,
            device_success=None,
            device_bound=None,
            master_seed=1,
        )
