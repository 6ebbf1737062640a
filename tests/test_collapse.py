import math
import warnings

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
from reference import per_walker_diffusion_collapses
import qscsim.collapse as collapse_module
from qscsim.collapse import CollapseModel, CollapseParams, diffusion_gamma, draw_collapses, sample_collapses
from qscsim.errors import FieldError


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
        # Diffusion requires epsilon; the other laws refuse gamma and epsilon.
        for fields, name in (
            (dict(model=CollapseModel.DIFFUSION, t_c_mean=1.0), "epsilon"),
            (dict(model=CollapseModel.JUMP_EXPONENTIAL, t_c_mean=1.0, gamma=2.0), "gamma"),
            (dict(model=CollapseModel.DETERMINISTIC_TIME, t_c_mean=1.0, epsilon=1e-3), "epsilon"),
        ):
            with pytest.raises(FieldError) as err:
                CollapseParams(**fields)
            assert err.value.field == name

    def test_diffusion_requires_gamma(self):
        # Only walkers that start between the bands read gamma; the config
        # ties it to t_c_mean there.
        params = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, epsilon=1e-3)
        with pytest.raises(ValueError, match="gamma"):
            sample_collapses(0.3, params, np.random.default_rng(0), 10)
        times, hit_upper = sample_collapses(5e-4, params, np.random.default_rng(0), 10)
        assert np.all(times == 0.0) and not hit_upper.any()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["t_c_mean", "gamma", "epsilon"])
    def test_non_finite_field_is_named(self, name, value):
        fields = dict(model=CollapseModel.DIFFUSION, t_c_mean=0.5, gamma=2.0, epsilon=1e-3)
        with pytest.raises(FieldError, match="must be finite") as err:
            CollapseParams(**{**fields, name: value})
        assert err.value.field == name
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize(
        "name, value",
        [("t_c_mean", 0.0), ("t_c_mean", -1.0), ("gamma", 0.0), ("gamma", -2.0), ("epsilon", 0.0), ("epsilon", 0.5)],
    )
    def test_out_of_range_field_is_named(self, name, value):
        fields = dict(model=CollapseModel.DIFFUSION, t_c_mean=0.5, gamma=2.0, epsilon=1e-3)
        with pytest.raises(FieldError, match="must be ") as err:
            CollapseParams(**{**fields, name: value})
        assert err.value.field == name
        assert "finite" not in str(err.value)


class TestSampleCollapseTime:
    def test_deterministic_is_exact(self):
        times, _ = sample_collapses(0.5, deterministic(2.0), np.random.default_rng(0), 100)
        assert np.all(times == 2.0)

    @pytest.mark.parametrize("law", [jump(0.5), deterministic(0.5), diffusion(gamma=0.7)], ids=lambda law: law.model.value)
    def test_group_times_draw_nothing(self, law):
        # Every draw happens in draw_collapses; the times of any laws, asked
        # for as often as wanted, come from those draws alone.
        rng = np.random.default_rng(4)
        hit_upper, times = draw_collapses(0.3, law.model, law.epsilon, rng, 500)
        state = rng.bit_generator.state
        assert times([law]).tobytes() == times([law]).tobytes()
        assert times([]).shape == (0, 500)
        assert rng.bit_generator.state == state
        expected_times, expected_upper = sample_collapses(0.3, law, np.random.default_rng(4), 500)
        assert times([law])[0].tobytes() == expected_times.tobytes()
        assert np.array_equal(hit_upper, expected_upper)

    def test_exponential_moments(self):
        n = 200_000
        x, _ = sample_collapses(0.5, jump(2.0), np.random.default_rng(11), n)
        assert abs(float(x.mean()) - 2.0) <= exp_mean_3sigma(2.0, n)
        assert abs(float(x.var(ddof=1)) - 4.0) <= exp_var_3sigma(2.0, n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_standard_exponential_is_numpy_exponential(self, seed):
        # The jump law draws one standard exponential per time and scales it
        # per point; that rounds exactly as numpy's own scaled draw.
        for t_c in (1e-3, 0.3, 2.0, 180.0):
            expected = np.random.default_rng(seed).exponential(t_c, 100_000)
            times, _ = sample_collapses(0.5, jump(t_c), np.random.default_rng(seed), 100_000)
            assert times.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "laws",
        [
            [jump(0.5), jump(2.0), jump(180.0)],
            [deterministic(0.5), deterministic(3.0)],
            [diffusion(gamma=0.7), diffusion(gamma=2.0), diffusion(t_c=9.0, gamma=5.5)],
        ],
    )
    def test_group_rows_equal_single_draws(self, laws):
        hit_upper, group_times = draw_collapses(0.3, laws[0].model, laws[0].epsilon, np.random.default_rng(21), 3000)
        times = group_times(laws)
        assert times.shape == (len(laws), 3000)
        for row, law in zip(times, laws):
            single_times, single_upper = sample_collapses(0.3, law, np.random.default_rng(21), 3000)
            assert row.tobytes() == single_times.tobytes()
            assert np.array_equal(hit_upper, single_upper)

    def test_scalar_and_batch_share_the_law(self):
        # Calls that draw one collapse each follow the law too.
        rng = np.random.default_rng(3)
        draws = [sample_collapses(0.5, jump(2.0), rng, 1)[0][0] for _ in range(5000)]
        assert abs(np.mean(draws) - 2.0) <= exp_mean_3sigma(2.0, 5000)


class TestSampleOutcome:
    # The jump and deterministic laws draw the outcome from the Born weight.
    @pytest.mark.parametrize("law", [jump(), deterministic()], ids=["jump", "deterministic"])
    def test_degenerate_weights(self, law):
        rng = np.random.default_rng(0)
        assert sample_collapses(1.0, law, rng, 100)[1].all()
        assert not sample_collapses(0.0, law, rng, 100)[1].any()

    @pytest.mark.parametrize("law", [jump(), deterministic()], ids=["jump", "deterministic"])
    def test_balanced_frequency(self, law):
        n = 100_000
        k = int(sample_collapses(0.5, law, np.random.default_rng(5), n)[1].sum())
        assert abs(k / n - 0.5) <= 0.0047  # 3-sigma binomial band at n=1e5


class TestDiffusion:
    def test_misuse_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_collapses(1.5, diffusion(), rng, 1)
        with pytest.raises(ValueError):
            sample_collapses(0.5, diffusion(), rng, -1)

    @pytest.mark.parametrize("p1", [0.0, 1e-4, 5e-4, 0.9995, 1.0 - 1e-4, 1.0])
    def test_start_inside_a_band_has_collapsed(self, p1):
        # p1 0 and 1 follow the same rule as any other start in a band:
        # time 0 on the nearer band, and no draw.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for params in (diffusion(), diffusion(gamma=None)):
            times, hit_upper = sample_collapses(p1, params, rng, 3)
            assert np.all(times == 0.0) and np.all(hit_upper == (p1 > 0.5))
        assert rng.bit_generator.state == state

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

    # 1.55 and 1.6 sit on either side of 1/0.64 = 1.5625, where the
    # truncated inverse Gaussian proposal switches samplers.
    @pytest.mark.parametrize("z", [0.0, 0.05, 0.5, 1.5, 1.55, 1.6, 3.45, 10.0])
    def test_j_star_mean_matches_tanh_ratio(self, z):
        n = 40_000
        draws = collapse_module._sample_j_star(z, n, np.random.default_rng(5))
        expected = math.tanh(z) / z if z else 1.0
        assert draws.min() > 0.0
        assert abs(float(draws.mean()) - expected) <= 5.0 * float(draws.std()) / math.sqrt(n)

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-6])
    @pytest.mark.parametrize("p1", [0.002, 0.1, 0.3, 0.5, 0.9, 0.998, 1e-4])
    def test_equals_per_walker_reference(self, p1, epsilon):
        # Every live walker shares one position, so the shared-ladder sampler
        # must reproduce the per-walker one draw for draw, leaving both
        # generators in the same state.  p1 = 1e-4 starts inside the band
        # at epsilon = 1e-3.
        params = diffusion(epsilon=epsilon)
        for n in (0, 1, 7, 4096):
            for seed in range(3):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                times, hit_upper = sample_collapses(p1, params, rng, n)
                ref_times, ref_hit_upper = per_walker_diffusion_collapses(p1, params, ref_rng, n)
                assert np.array_equal(times, ref_times) and np.array_equal(hit_upper, ref_hit_upper)
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("epsilon, p1", [(1e-300, 0.3), (1e-12, 0.3), (0.49, 0.505)])
    def test_extreme_bands_stay_finite_and_warning_free(self, epsilon, p1):
        # At epsilon 1e-300 the first step has z = r/2 near 345, where the
        # proposal mass ratio overflows and a normal CDF underflows to 0;
        # p_right must still come out without log(0) or exp overflow.
        # epsilon 0.49 leaves the narrowest band.
        n = 20_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, hit_upper = sample_collapses(p1, diffusion(epsilon=epsilon), np.random.default_rng(8), n)
        assert np.all(np.isfinite(times)) and times.min() >= 0.0
        expected = band_absorption_probability(p1, epsilon)
        assert abs(float(hit_upper.mean()) - expected) <= 5.0 * math.sqrt(expected * (1.0 - expected) / n)

    def test_single_walker_agrees_with_ensemble_statistics(self):
        n = 2000
        params = diffusion()
        rng = np.random.default_rng(77)
        mean_single = float(np.mean([sample_collapses(0.3, params, rng, 1)[0][0] for _ in range(n)]))
        times, _ = sample_collapses(0.3, params, np.random.default_rng(78), 20_000)
        se = float(times.std()) / math.sqrt(n)
        assert abs(mean_single - float(times.mean())) <= 4.0 * se

    def test_identical_seeds_give_bit_identical_events(self):
        params = diffusion()
        t1, h1 = sample_collapses(0.3, params, np.random.default_rng(99), 500)
        t2, h2 = sample_collapses(0.3, params, np.random.default_rng(99), 500)
        assert np.array_equal(t1, t2) and np.array_equal(h1, h2)


class TestDiffusionGamma:
    @pytest.mark.parametrize("t_c", [1.0, 180.0])
    @pytest.mark.parametrize("p1", [0.1, 0.5, 0.9])
    def test_closed_form_matches_boundary_value_oracle(self, p1, t_c):
        gamma = diffusion_gamma(t_c, p1, 1e-3)
        assert mean_first_passage_time(p1, gamma, 1e-3) == pytest.approx(t_c, rel=1e-3)

    def test_hits_target_and_doubling_overshoots(self):
        gamma = diffusion_gamma(1.0, 0.5, 1e-3)
        params = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=gamma, epsilon=1e-3)
        times, _ = sample_collapses(0.5, params, np.random.default_rng(9), 4096)
        assert abs(float(times.mean()) - 1.0) <= 0.08
        doubled = CollapseParams(model=CollapseModel.DIFFUSION, t_c_mean=1.0, gamma=2.0 * gamma, epsilon=1e-3)
        times2, _ = sample_collapses(0.5, doubled, np.random.default_rng(9), 4096)
        assert float(times2.mean()) < 1.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            diffusion_gamma(-1.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            diffusion_gamma(1.0, 0.0, 1e-3)
        with pytest.raises(ValueError):
            diffusion_gamma(1.0, 5e-4, 1e-3)  # inside the absorbing band
        with pytest.raises(ValueError, match="t_c_mean"):
            diffusion_gamma(math.inf, 0.5, 1e-3)  # the closed form would be 0
        with pytest.raises(ValueError, match="t_c_mean"):
            diffusion_gamma(1e-320, 0.3, 1e-3)  # the closed form overflows
