import math

import numpy as np
import pytest

from oracles import RiggedRng
from qscsim.errors import FieldError
from qscsim.observer import (
    ObserverParams,
    PerceptionScenario,
    ScenarioTag,
    add_jitter,
    awareness_probability,
    first_reports,
    percept_changes,
    report_jitter,
)

QUIET = ObserverParams(t_p=0.001, jitter_sigma=0.0)

ALL_SCENARIOS = [
    PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY),
    PerceptionScenario(tag=ScenarioTag.DISTINCT_PERCEPT),
    PerceptionScenario(tag=ScenarioTag.FIXED_C1),
    PerceptionScenario(tag=ScenarioTag.FIXED_C2),
    PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=0.3),
]


class TestParams:
    def test_observer_validation(self):
        with pytest.raises(ValueError):
            ObserverParams(t_p=0.0)
        with pytest.raises(ValueError):
            ObserverParams(t_p=0.001, jitter_sigma=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["t_p", "jitter_sigma"])
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


class TestPerceiveCollapses:
    # Copies collapse at TIMES onto B1 where HIT_UPPER is set.
    TIMES = np.array([0.5, 2.0, 0.0, 3.0])
    HIT_UPPER = np.array([True, False, True, False])

    def perceive(self, scenario, rng=None):
        changed = percept_changes(scenario, self.HIT_UPPER, rng or np.random.default_rng(0))
        return first_reports(QUIET.t_p, scenario, self.TIMES.copy, self.TIMES.shape), changed

    def test_post_collapse_only(self):
        # The first percept arrives one latency after the collapse, never
        # earlier, and there is no earlier percept to change from.
        first, changed = self.perceive(PerceptionScenario(tag=ScenarioTag.POST_COLLAPSE_ONLY))
        assert np.array_equal(first, self.TIMES + 0.001)
        assert np.all(first >= self.TIMES)
        assert not changed.any()

    def test_distinct_percept_always_changes(self):
        first, changed = self.perceive(PerceptionScenario(tag=ScenarioTag.DISTINCT_PERCEPT))
        assert np.array_equal(first, np.full(4, 0.001))
        assert changed.all()

    def test_fixed_c1_branches(self):
        # A pre-collapse C1 changes only when the collapse lands on B2.
        first, changed = self.perceive(PerceptionScenario(tag=ScenarioTag.FIXED_C1))
        assert np.array_equal(first, np.full(4, 0.001))
        assert np.array_equal(changed, ~self.HIT_UPPER)

    def test_fixed_c2_mirrors_fixed_c1(self):
        first, changed = self.perceive(PerceptionScenario(tag=ScenarioTag.FIXED_C2))
        assert np.array_equal(first, np.full(4, 0.001))
        assert np.array_equal(changed, self.HIT_UPPER)

    def test_random_percept_reads_its_uniform_against_r(self):
        # A uniform below r makes the pre-collapse percept C1, which changes
        # on B2; at or above r it is C2, which changes on B1.
        sc = PerceptionScenario(tag=ScenarioTag.RANDOM_PERCEPT, r=0.3)
        first, changed = self.perceive(sc, RiggedRng((0.1, 0.1, 0.3, 0.9)))
        assert np.array_equal(first, np.full(4, 0.001))
        assert changed.tolist() == [False, True, True, False]

    @pytest.mark.parametrize("sc", ALL_SCENARIOS, ids=lambda sc: sc.tag.value)
    def test_only_random_percept_draws(self, sc):
        # One pre-percept uniform per copy for random_percept, nothing otherwise.
        rng = np.random.default_rng(21)
        self.perceive(sc, rng)
        expected = np.random.default_rng(21)
        if sc.tag is ScenarioTag.RANDOM_PERCEPT:
            expected.random(4)
        assert rng.bit_generator.state == expected.bit_generator.state

    @pytest.mark.parametrize("sc", ALL_SCENARIOS, ids=lambda sc: sc.tag.value)
    def test_first_reports_are_written_in_place_per_point(self, sc):
        # A leading point axis carries one latency per point over shared
        # times; only post_collapse_only asks for the times, once, and adds
        # the latencies to them in place.
        times = np.tile(self.TIMES, (2, 1))
        asked = []
        t_p = np.array([0.001, 0.004])[:, None]
        out = first_reports(t_p, sc, lambda: asked.append(1) or times, times.shape)
        post = sc.tag is ScenarioTag.POST_COLLAPSE_ONLY
        assert asked == ([1] if post else [])
        assert np.shares_memory(out, times) == post
        for row, latency in zip(out, (0.001, 0.004)):
            assert np.array_equal(row, first_reports(latency, sc, self.TIMES.copy, self.TIMES.shape))
        # With no collapse, every copy reports at its point's latency.
        assert np.array_equal(first_reports(t_p, sc, None, times.shape), np.repeat(t_p, 4, axis=1))


class TestReportTimes:
    def test_noise_free_report_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert report_jitter(QUIET, rng, (3, 4)) is None
        assert rng.bit_generator.state == state
        base = np.full((2, 3, 4), 0.001)
        assert add_jitter(base, None) is base
        assert np.all(base == 0.001)

    @pytest.mark.parametrize("sigma", [1e-12, 2e-4, 3.7, 1e100])
    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("copies", [1, 5])
    def test_in_place_jitter_is_bit_identical_to_normal(self, sigma, points, copies):
        # sigma * standard_normal is numpy's normal(0, sigma) on the same
        # stream, so jittering in place keeps every report time and the
        # generator state; the truncation at 0 bites at the larger sigmas.
        base = np.linspace(0.0, 2e-3, points * 7 * copies).reshape(points, 7, copies)
        seed = points * 10 + copies
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        jittered = base.copy()
        out = add_jitter(jittered, report_jitter(ObserverParams(t_p=0.001, jitter_sigma=sigma), rng, base.shape[1:]))
        expected = np.maximum(base + expected_rng.normal(0.0, sigma, base.shape[1:]), 0.0)
        assert out is jittered
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state


def enumerate_awareness(scenario, p1):
    """Exact E[changed] by enumerating (pre-percept, outcome) branches
    through the real implementation with rigged draws."""
    total = 0.0
    for hit_upper, w_out in ((True, p1), (False, 1.0 - p1)):
        if scenario.tag is ScenarioTag.RANDOM_PERCEPT:
            cells = ((RiggedRng((scenario.r / 2.0,)), scenario.r),
                     (RiggedRng(((1.0 + scenario.r) / 2.0,)), 1.0 - scenario.r))
        else:
            cells = ((RiggedRng(), 1.0),)
        for rng, w_pre in cells:
            changed = percept_changes(scenario, np.array([hit_upper]), rng)
            total += w_out * w_pre * (1.0 if changed[0] else 0.0)
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

    def test_p1_range_validated(self):
        with pytest.raises(ValueError):
            awareness_probability(ALL_SCENARIOS[0], 1.5)

