import math

import numpy as np
import pytest

from oracles import (
    band_absorption_probability,
    binom_3sigma,
    exp_mean_3sigma,
    exp_var_3sigma,
    mean_first_passage_time,
    second_moment_first_passage_time,
)
import qscsim.collapse as collapse_module
from qscsim.collapse import (
    CollapseEvent,
    CollapseModel,
    CollapseParams,
    calibrate_gamma,
    collapse_for_input,
    diffusion_gamma,
    sample_collapse_times,
    sample_collapses,
    sample_outcome,
    t_c_from_energy,
)
from qscsim.errors import CalibrationError, ModelMisuseError
from qscsim.states import Branch, InputKind, make_input_state


def jump(t_c=2.0):
    return CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=t_c)


def deterministic(t_c=2.0):
    return CollapseParams(model=CollapseModel.DETERMINISTIC_TIME, t_c_mean=t_c)


def diffusion(t_c=1.0, gamma=2.0, epsilon=1e-3):
    return CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=t_c, gamma=gamma, epsilon=epsilon)


class TestCollapseParams:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=-1.0)
        with pytest.raises(ValueError):
            diffusion(epsilon=0.0)
        with pytest.raises(ValueError):
            diffusion(epsilon=0.5)
        with pytest.raises(ValueError):
            CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0, kappa=0.0)

    def test_diffusion_requires_gamma(self):
        with pytest.raises(ValueError):
            CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0)

    def test_energy_consistency(self):
        p = CollapseParams(
            model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=0.5, energy=2.0, kappa=1.0
        )
        assert p.energy == 2.0
        with pytest.raises(ValueError):
            CollapseParams(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0, energy=2.0)

    def test_t_c_from_energy(self):
        assert t_c_from_energy(4.0) == 0.25
        assert t_c_from_energy(2.0, kappa=3.0) == 1.5
        with pytest.raises(ValueError):
            t_c_from_energy(0.0)


class TestSampleCollapseTime:
    def test_deterministic_is_exact(self):
        times, _ = sample_collapses(0.5, deterministic(2.0), np.random.default_rng(0), 100)
        assert np.all(times == 2.0)

    def test_diffusion_is_misuse(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelMisuseError):
            sample_collapse_times(diffusion(), rng, 10)

    def test_exponential_moments(self):
        n = 200_000
        x = sample_collapse_times(jump(2.0), np.random.default_rng(11), n)
        assert abs(float(x.mean()) - 2.0) <= exp_mean_3sigma(2.0, n)
        assert abs(float(x.var(ddof=1)) - 4.0) <= exp_var_3sigma(2.0, n)

    def test_scalar_and_batch_share_the_law(self):
        rng = np.random.default_rng(3)
        state = make_input_state(InputKind.SUPERPOSITION, 0.5)
        draws = [collapse_for_input(state, jump(2.0), rng).time for _ in range(5000)]
        assert abs(np.mean(draws) - 2.0) <= exp_mean_3sigma(2.0, 5000)


class TestSampleOutcome:
    def test_degenerate_weights(self):
        rng = np.random.default_rng(0)
        assert all(sample_outcome(1.0, rng) is Branch.B1 for _ in range(100))
        assert all(sample_outcome(0.0, rng) is Branch.B2 for _ in range(100))

    def test_balanced_frequency(self):
        rng = np.random.default_rng(5)
        n = 100_000
        k = sum(sample_outcome(0.5, rng) is Branch.B1 for _ in range(n))
        assert abs(k / n - 0.5) <= 0.0047  # 3-sigma binomial band at n=1e5

    def test_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_outcome(1.5, rng)


class TestDiffusion:
    def test_misuse_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelMisuseError):
            sample_collapses(1.0, diffusion(), rng, 1)
        with pytest.raises(ModelMisuseError):
            sample_collapses(0.0, diffusion(), rng, 1)
        with pytest.raises(ValueError):
            sample_collapses(1.5, diffusion(), rng, 1)
        with pytest.raises(ValueError):
            sample_collapses(0.5, diffusion(), rng, -1)

    def test_start_inside_a_band_has_collapsed(self):
        times, hit_upper = sample_collapses(1e-4, diffusion(), np.random.default_rng(0), 3)
        assert np.all(times == 0.0) and not hit_upper.any()
        times, hit_upper = sample_collapses(1.0 - 1e-4, diffusion(), np.random.default_rng(0), 3)
        assert np.all(times == 0.0) and hit_upper.all()

    def test_born_statistics_against_martingale_oracle(self):
        n = 20_000
        for p1 in (0.1, 0.5, 0.9):
            _, hit_upper = sample_collapses(p1, diffusion(), np.random.default_rng(int(p1 * 1000)), n)
            freq = float(hit_upper.mean())
            expected = band_absorption_probability(p1, 1e-3)
            assert abs(freq - p1) <= binom_3sigma(p1, n)
            assert abs(freq - expected) <= binom_3sigma(expected, n)

    def test_mean_first_passage_matches_boundary_value_oracle(self):
        # Independent route: finite-difference solve of the backward equation.
        n = 10_000
        params = diffusion(t_c=20.0, gamma=1.0)
        times, _ = sample_collapses(0.5, params, np.random.default_rng(31), n)
        predicted = mean_first_passage_time(0.5, 1.0, 1e-3)
        assert predicted == pytest.approx(13.786, abs=0.01)  # frozen oracle output
        assert abs(float(times.mean()) - predicted) <= 0.03 * predicted

    @pytest.mark.parametrize("p1", [0.1, 0.5, 0.9])
    def test_moments_match_boundary_value_oracles(self, p1):
        # Mean and variance within 5 standard errors of the finite-difference
        # solves; the variance's standard error comes from the sample's
        # fourth central moment.
        n = 40_000
        gamma = 1.5
        times, hit_upper = sample_collapses(p1, diffusion(gamma=gamma), np.random.default_rng(41), n)
        mean = mean_first_passage_time(p1, gamma, 1e-3)
        var = second_moment_first_passage_time(p1, gamma, 1e-3) - mean * mean
        assert abs(float(times.mean()) - mean) <= 5.0 * math.sqrt(var / n)
        centered = times - times.mean()
        m4 = float(np.mean(centered**4))
        assert abs(float(times.var(ddof=1)) - var) <= 5.0 * math.sqrt((m4 - var * var) / n)
        expected = band_absorption_probability(p1, 1e-3)
        assert abs(float(hit_upper.mean()) - expected) <= 5.0 * math.sqrt(expected * (1.0 - expected) / n)

    @pytest.mark.parametrize("z", [0.0, 0.05, 0.5, 1.5, 3.45, 10.0])
    def test_j_star_mean_matches_tanh_ratio(self, z):
        n = 40_000
        draws = collapse_module._sample_j_star(np.full(n, z), np.random.default_rng(5))
        expected = math.tanh(z) / z if z else 1.0
        assert draws.min() > 0.0
        assert abs(float(draws.mean()) - expected) <= 5.0 * float(draws.std()) / math.sqrt(n)

    def test_single_walker_agrees_with_ensemble_statistics(self):
        n = 2000
        params = diffusion()
        state = make_input_state(InputKind.SUPERPOSITION, 0.3)
        rng = np.random.default_rng(77)
        mean_single = float(np.mean([collapse_for_input(state, params, rng).time for _ in range(n)]))
        times, _ = sample_collapses(0.3, params, np.random.default_rng(78), 20_000)
        se = float(times.std()) / math.sqrt(n)
        assert abs(mean_single - float(times.mean())) <= 4.0 * se

    def test_identical_seeds_give_bit_identical_events(self):
        params = diffusion()
        t1, h1 = sample_collapses(0.3, params, np.random.default_rng(99), 500)
        t2, h2 = sample_collapses(0.3, params, np.random.default_rng(99), 500)
        assert np.array_equal(t1, t2) and np.array_equal(h1, h2)


class TestCalibrateGamma:
    @pytest.mark.parametrize("t_c", [1.0, 180.0])
    @pytest.mark.parametrize("p1", [0.1, 0.5, 0.9])
    def test_closed_form_matches_boundary_value_oracle(self, p1, t_c):
        gamma = diffusion_gamma(t_c, p1, 1e-3)
        assert mean_first_passage_time(p1, gamma, 1e-3) == pytest.approx(t_c, rel=1e-3)

    def test_deterministic_given_seed(self, monkeypatch):
        calls = count_ensembles(monkeypatch)
        kwargs = dict(n_runs=2048)
        c1 = calibrate_gamma(1.0, 0.5, 1e-3, 0.05, np.random.default_rng(4), **kwargs)
        c2 = calibrate_gamma(1.0, 0.5, 1e-3, 0.05, np.random.default_rng(4), **kwargs)
        assert c1 == c2
        assert len(calls) == 2  # one verification ensemble each
        assert c1.gamma == diffusion_gamma(1.0, 0.5, 1e-3)
        assert c1.n_runs == 2048
        lo, hi = c1.ci95()
        assert lo <= c1.achieved_mean <= hi
        assert lo <= 1.05 and hi >= 0.95

    def test_hits_target_and_doubling_overshoots(self):
        gamma = calibrate_gamma(1.0, 0.5, 1e-3, 0.05, np.random.default_rng(8), n_runs=2048).gamma
        params = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=gamma)
        times, _ = sample_collapses(0.5, params, np.random.default_rng(9), 4096)
        assert abs(float(times.mean()) - 1.0) <= 0.08
        doubled = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=2.0 * gamma)
        times2, _ = sample_collapses(0.5, doubled, np.random.default_rng(9), 4096)
        assert float(times2.mean()) < 1.0

    def test_ci_missing_target_raises(self, monkeypatch):
        def biased_sampler(p1, params, rng, n):
            times = np.full(n, 0.5)
            times[::2] = 0.6
            return times, np.zeros(n, dtype=bool)

        monkeypatch.setattr(collapse_module, "sample_collapses", biased_sampler)
        with pytest.raises(CalibrationError, match="misses 1.0"):
            calibrate_gamma(1.0, 0.5, 1e-3, 0.05, np.random.default_rng(7), n_runs=4096)

    def test_budget_rule_rejects_unreachable_tolerance(self):
        with pytest.raises(CalibrationError, match=r"need n_runs >= \d+"):
            calibrate_gamma(1.0, 0.5, 1e-3, 0.001, np.random.default_rng(4), n_runs=256)

    def test_argument_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            calibrate_gamma(-1.0, 0.5, 1e-3, 0.05, rng)
        with pytest.raises(ValueError):
            calibrate_gamma(1.0, 0.0, 1e-3, 0.05, rng)
        with pytest.raises(ValueError):
            calibrate_gamma(1.0, 0.5, 1e-3, 0.0, rng)
        with pytest.raises(ValueError):
            calibrate_gamma(1.0, 0.5, 1e-3, math.nan, rng)
        with pytest.raises(ValueError):
            diffusion_gamma(1.0, 5e-4, 1e-3)  # inside the absorbing band


def count_ensembles(monkeypatch):
    """Record the gamma of every ensemble the calibration runs."""
    calls = []
    real = collapse_module.sample_collapses

    def counting(p1, params, rng, n):
        calls.append(params.gamma)
        return real(p1, params, rng, n)

    monkeypatch.setattr(collapse_module, "sample_collapses", counting)
    return calls


class TestCollapseForInput:
    def test_definite_input_has_no_event(self):
        state = make_input_state(InputKind.DEFINITE, 1.0)
        assert collapse_for_input(state, jump(), np.random.default_rng(0)) is None

    def test_near_definite_weight_has_no_event(self):
        state = make_input_state(InputKind.SUPERPOSITION, 0.999999999999)
        assert collapse_for_input(state, jump(), np.random.default_rng(0)) is None

    def test_deterministic_superposition_event(self):
        state = make_input_state(InputKind.SUPERPOSITION, 0.5)
        rng = np.random.default_rng(13)
        events = [collapse_for_input(state, deterministic(2.0), rng) for _ in range(400)]
        assert all(ev.time == 2.0 for ev in events)
        b1 = sum(ev.outcome is Branch.B1 for ev in events)
        assert abs(b1 / 400 - 0.5) <= binom_3sigma(0.5, 400)

    def test_diffusion_dispatch(self):
        state = make_input_state(InputKind.SUPERPOSITION, 0.5)
        ev = collapse_for_input(state, diffusion(), np.random.default_rng(3))
        assert isinstance(ev, CollapseEvent)
        assert ev.time > 0.0


def test_event_invariants():
    with pytest.raises(ValueError):
        CollapseEvent(time=-0.1, outcome=Branch.B1)
    assert CollapseEvent(time=0.0, outcome=Branch.B2).time == 0.0
