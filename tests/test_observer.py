import math

import numpy as np
import pytest

from oracles import RiggedRng, binom_3sigma
from reference import Branch, CollapseEvent, Percept, PerceptionReport, perceive_definite, perceive_superposition
from qscsim.errors import FieldError
from qscsim.observer import (
    ObserverParams,
    PerceptionScenario,
    ScenarioTag,
    awareness_probability,
    perceive_collapses,
)

QUIET = ObserverParams(t_p=0.001, jitter_sigma=0.0, resolution=0.01)

ALL_SCENARIOS = [
    PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY),
    PerceptionScenario(tag=ScenarioTag.DISTINCT_PERCEPT),
    PerceptionScenario(tag=ScenarioTag.FIXED_C1),
    PerceptionScenario(tag=ScenarioTag.FIXED_C2),
    PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=0.3),
]


def event(outcome, time=2.0):
    return CollapseEvent(time=time, outcome=outcome)


class TestParams:
    def test_observer_validation(self):
        with pytest.raises(ValueError):
            ObserverParams(t_p=0.0)
        with pytest.raises(ValueError):
            ObserverParams(t_p=0.001, jitter_sigma=-1.0)
        with pytest.raises(ValueError):
            ObserverParams(t_p=0.001, resolution=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["t_p", "jitter_sigma", "resolution"])
    def test_observer_non_finite_field_is_named(self, name, value):
        with pytest.raises(FieldError, match="must be finite") as err:
            ObserverParams(**{"t_p": 0.001, name: value})
        assert err.value.field == name

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_scenario_non_finite_r_is_named(self, value):
        with pytest.raises(FieldError, match="must be finite") as err:
            PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=value)
        assert err.value.field == "r"

    def test_scenario_r_presence(self):
        with pytest.raises(ValueError):
            PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT)
        with pytest.raises(ValueError):
            PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=1.5)
        with pytest.raises(ValueError):
            PerceptionScenario(tag=ScenarioTag.FIXED_C1, r=0.5)

    def test_report_invariants(self):
        with pytest.raises(ValueError):
            PerceptionReport(0.1, Percept.C1, True, None, Percept.C2)
        with pytest.raises(ValueError):
            PerceptionReport(0.1, Percept.C1, True, 0.2, Percept.C1)
        with pytest.raises(ValueError):
            PerceptionReport(0.1, Percept.C1, False, 0.2, Percept.C1)
        with pytest.raises(ValueError):
            PerceptionReport(-0.1, Percept.C1, False, None, Percept.C1)


class TestPerceiveDefinite:
    def test_noise_free_report(self):
        rep = perceive_definite(QUIET, np.random.default_rng(0))
        assert rep.first_percept_time == 0.001
        assert rep.first_percept is Percept.C1
        assert rep.final_percept is Percept.C1
        assert not rep.change_detected

    def test_jitter_mean(self):
        o = ObserverParams(t_p=0.001, jitter_sigma=0.0002, resolution=0.01)
        rng = np.random.default_rng(17)
        n = 20_000
        times = [perceive_definite(o, rng).first_percept_time for _ in range(n)]
        assert abs(float(np.mean(times)) - 0.001) <= 3.0 * 0.0002 / math.sqrt(n)

    def test_never_detects_change(self):
        rng = np.random.default_rng(3)
        o = ObserverParams(t_p=0.001, jitter_sigma=0.01, resolution=0.01)
        assert not any(perceive_definite(o, rng).change_detected for _ in range(200))


class TestPerceiveSuperposition:
    def test_requires_event(self):
        with pytest.raises(ValueError, match="needs a collapse event"):
            perceive_superposition(QUIET, ALL_SCENARIOS[0], None, np.random.default_rng(0))

    def test_post_collapse_only(self):
        sc = PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY)
        rep = perceive_superposition(QUIET, sc, event(Branch.B2), np.random.default_rng(0))
        assert rep.first_percept_time == 2.0 + 0.001
        assert rep.first_percept is Percept.C2
        assert not rep.change_detected
        assert rep.first_percept_time >= 2.0  # never earlier than the collapse

    def test_distinct_percept_always_changes(self):
        sc = PerceptionScenario(tag=ScenarioTag.DISTINCT_PERCEPT)
        for outcome in (Branch.B1, Branch.B2):
            rep = perceive_superposition(QUIET, sc, event(outcome), np.random.default_rng(0))
            assert rep.first_percept is Percept.DISTINCT
            assert rep.first_percept_time == 0.001
            assert rep.change_detected
            assert rep.change_time == 2.001
            assert rep.final_percept is (Percept.C1 if outcome is Branch.B1 else Percept.C2)

    def test_fixed_c1_branches(self):
        sc = PerceptionScenario(tag=ScenarioTag.FIXED_C1)
        same = perceive_superposition(QUIET, sc, event(Branch.B1), np.random.default_rng(0))
        assert not same.change_detected
        assert same.final_percept is Percept.C1
        flipped = perceive_superposition(QUIET, sc, event(Branch.B2), np.random.default_rng(0))
        assert flipped.change_detected
        assert flipped.change_time == 2.001
        assert flipped.final_percept is Percept.C2

    def test_fixed_c2_mirrors_fixed_c1(self):
        sc = PerceptionScenario(tag=ScenarioTag.FIXED_C2)
        same = perceive_superposition(QUIET, sc, event(Branch.B2), np.random.default_rng(0))
        assert not same.change_detected
        flipped = perceive_superposition(QUIET, sc, event(Branch.B1), np.random.default_rng(0))
        assert flipped.change_detected
        assert flipped.final_percept is Percept.C1

    def test_random_percept_draws_independently(self):
        sc = PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=0.3)
        # uniform below r picks C1; collapse to B1 means no change then
        rep = perceive_superposition(QUIET, sc, event(Branch.B1), RiggedRng((0.1,)))
        assert rep.first_percept is Percept.C1
        assert not rep.change_detected
        rep = perceive_superposition(QUIET, sc, event(Branch.B1), RiggedRng((0.9,)))
        assert rep.first_percept is Percept.C2
        assert rep.change_detected

    def test_reports_never_contain_initial_percept(self):
        rng = np.random.default_rng(21)
        for sc in ALL_SCENARIOS:
            for outcome in (Branch.B1, Branch.B2):
                rep = perceive_superposition(QUIET, sc, event(outcome), rng)
                assert rep.first_percept is not Percept.INITIAL
                assert rep.final_percept is not Percept.INITIAL

    def test_noise_free_reports_identical_across_seeds(self):
        sc = PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY)
        reps = {
            perceive_superposition(QUIET, sc, event(Branch.B1), np.random.default_rng(seed))
            for seed in (1, 2, 3)
        }
        assert len(reps) == 1


def enumerate_awareness(scenario, p1):
    """Exact E[change_detected] by enumerating (pre-percept, outcome) branches
    through the real implementation with rigged draws."""
    total = 0.0
    for outcome, w_out in ((Branch.B1, p1), (Branch.B2, 1.0 - p1)):
        if scenario.tag is ScenarioTag.RANDOM_PERCEPT:
            cells = ((RiggedRng((scenario.r / 2.0,)), scenario.r),
                     (RiggedRng(((1.0 + scenario.r) / 2.0,)), 1.0 - scenario.r))
        else:
            cells = ((RiggedRng(), 1.0),)
        for rng, w_pre in cells:
            rep = perceive_superposition(QUIET, scenario, event(outcome), rng)
            total += w_out * w_pre * (1.0 if rep.change_detected else 0.0)
    return total


class TestAwarenessProbability:
    def test_examples(self):
        assert awareness_probability(PerceptionScenario(tag=ScenarioTag.FIXED_C1), 0.5) == 0.5
        assert awareness_probability(PerceptionScenario(tag=ScenarioTag.DISTINCT_PERCEPT), 0.2) == 1.0
        assert awareness_probability(
            PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=0.3), 0.5
        ) == pytest.approx(0.5, abs=1e-15)
        assert awareness_probability(PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY), 0.5) == 0.0

    def test_closed_form_equals_branch_enumeration(self):
        for sc in ALL_SCENARIOS:
            for p1 in np.linspace(0.05, 0.95, 10):
                p1 = float(p1)
                assert enumerate_awareness(sc, p1) == pytest.approx(
                    awareness_probability(sc, p1), abs=1e-12
                )

    def test_simulation_matches_closed_form(self):
        n = 10_000
        rng = np.random.default_rng(5)
        times = np.full(n, 2.0)
        for sc in ALL_SCENARIOS:
            for p1 in (0.2, 0.5, 0.8):
                expected = awareness_probability(sc, p1)
                _, changed = perceive_collapses(QUIET.t_p, sc, times, rng.random(n) < p1, rng)
                hits = int(changed.sum())
                slack = max(binom_3sigma(expected, n), 1e-9) if 0.0 < expected < 1.0 else 0.0
                assert abs(hits / n - expected) <= slack

    def test_p1_range_validated(self):
        with pytest.raises(ValueError):
            awareness_probability(ALL_SCENARIOS[0], 1.5)

