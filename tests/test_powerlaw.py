"""Discrete power-law fitting, bootstrap, likelihood ratios, and sampling."""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy import special

from asnkit import (
    DegenerateDataError,
    bootstrap_pvalue,
    ccdf_rows,
    fit_power_law,
    hurwitz_zeta,
    lrt,
    sample_discrete_powerlaw,
)
from asnkit.powerlaw import ALPHA_HI, ALPHA_TOL, LrtResult, PowerLawFit, _ks_distances
from oracles import (
    fit_oracle,
    golden_alphas,
    grid_fit,
    grid_ks_distances,
    jump_ks_oracle,
    ks_oracle,
    tail_candidates,
)


def tail_with_noise(alpha=2.5, xmin=4, n_tail=300, n_noise=120, seeds=(42, 43)):
    """Clean tail sample above xmin plus uniform junk below it."""
    data = list(sample_discrete_powerlaw(alpha, xmin, n_tail, seed=seeds[0]))
    rng = np.random.default_rng(seeds[1])
    data += [int(v) for v in rng.integers(1, xmin, size=n_noise)]
    return data


class TestHurwitzZeta:
    def test_riemann_point(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6,
                                                       rel=1e-14)

    def test_against_mpmath_grid(self):
        for s in (1.02, 1.5, 2.0, 2.5, 3.3, 4.7, 6.0):
            for q in (1.0, 2.0, 5.0, 17.0, 100.0, 1000.0):
                ref = float(mpmath.zeta(s, q))
                assert hurwitz_zeta(s, q) == pytest.approx(ref, rel=1e-10)

    def test_against_scipy(self):
        s = np.linspace(1.05, 6.0, 40)
        q = np.arange(1, 41, dtype=float)
        assert hurwitz_zeta(s, q) == pytest.approx(special.zeta(s, q),
                                                   rel=1e-12)

    def test_broadcasting(self):
        both = hurwitz_zeta([2.0, 3.0], [1.0, 2.0])
        assert both.shape == (2,)
        assert both[0] == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
        assert hurwitz_zeta(2.0, [1.0, 2.0])[1] == pytest.approx(
            math.pi ** 2 / 6 - 1.0, rel=1e-12)

    def test_scalar_in_scalar_out(self):
        assert isinstance(hurwitz_zeta(2.0, 1.0), float)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="s > 1"):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(ValueError, match="q > 0"):
            hurwitz_zeta(2.0, 0.0)


class TestFit:
    def test_matches_independent_oracle(self):
        for seeds in ((42, 43), (1, 2), (10, 20)):
            data = tail_with_noise(seeds=seeds)
            fit = fit_power_law(data)
            alpha, xmin, ks, n_tail = fit_oracle(data)
            assert fit.xmin == xmin
            assert fit.n_tail == n_tail
            assert fit.alpha == pytest.approx(alpha, abs=2e-5)
            assert fit.ks == pytest.approx(ks, abs=1e-6)

    def test_finds_the_planted_cutoff(self):
        fit = fit_power_law(tail_with_noise())
        assert fit.xmin == 4
        assert fit.n_tail == 300
        assert fit.alpha == pytest.approx(2.62, abs=0.01)

    def test_clean_sample_recovers_alpha(self):
        data = sample_discrete_powerlaw(2.5, 1, 5000, seed=8)
        fit = fit_power_law(data)
        assert fit.xmin <= 3
        assert fit.alpha == pytest.approx(2.5, abs=0.1)

    def test_ks_matches_explicit_loop(self):
        data = tail_with_noise()
        fit = fit_power_law(data)
        tail = [x for x in data if x >= fit.xmin]
        assert fit.ks == pytest.approx(
            ks_oracle(tail, fit.alpha, fit.xmin), abs=1e-9)

    def test_order_invariance(self):
        data = tail_with_noise()
        shuffled = list(data)
        np.random.default_rng(0).shuffle(shuffled)
        assert fit_power_law(data) == fit_power_law(shuffled)

    def test_accepts_numpy_and_float_valued_integers(self):
        data = tail_with_noise()
        assert fit_power_law(np.asarray(data)) == fit_power_law(
            [float(x) for x in data])

    def test_tail_is_never_smaller_than_ten(self):
        fit = fit_power_law([1] * 30 + [2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
        assert fit.n_tail >= 10

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="too few"):
            fit_power_law([1, 2, 3, 4, 5, 6, 7, 8, 9])

    def test_constant_data_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_power_law([3] * 50)

    def test_non_integtables_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            fit_power_law([1.5] * 20)
        with pytest.raises(ValueError, match="integer"):
            fit_power_law("not numbers")

    def test_zeros_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_power_law([0] * 10 + [1] * 10)


def rounded_lognormal(mean, sigma, size, seed):
    raw = np.random.default_rng(seed).lognormal(mean=mean, sigma=sigma, size=size)
    return np.maximum(np.rint(raw).astype(int), 1)


def bootstrap_samples(fit, data, count, seed):
    """The synthetic data sets ``bootstrap_pvalue`` fits, drawn the same way."""
    x = np.asarray(data)
    below = x[x < fit.xmin]
    samples = []
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.Generator(np.random.PCG64(child))
        k = int(rng.binomial(x.size, fit.n_tail / x.size))
        parts = [rng.choice(below, size=x.size - k, replace=True)] if x.size > k else []
        if k:
            parts.append(sample_discrete_powerlaw(fit.alpha, fit.xmin, k, rng))
        samples.append(np.concatenate(parts))
    return samples


GRID_SAMPLES = {
    "powerlaw-xmin1": lambda: sample_discrete_powerlaw(2.5, 1, 5000, seed=3),
    "powerlaw-xmin5": lambda: sample_discrete_powerlaw(2.5, 5, 10_000, seed=0),
    "tail-with-noise": tail_with_noise,
    "lognormal": lambda: rounded_lognormal(2.5, 0.25, 5000, seed=0),
}


class TestMatchesGridFitter:
    """The Newton/jump-point fitter against golden-section search and the
    dense-grid KS it replaced (``oracles.grid_fit``)."""

    @staticmethod
    def assert_matches(data):
        fit = fit_power_law(data)
        alpha, xmin, _, n_tail = grid_fit(data)
        assert (fit.xmin, fit.n_tail) == (xmin, n_tail)
        assert abs(fit.alpha - alpha) <= ALPHA_TOL
        uniq, counts, cand, ntails, _ = tail_candidates(data)
        chosen = cand[uniq[cand] == fit.xmin]
        grid_ks = grid_ks_distances(
            uniq, counts, chosen, np.array([fit.alpha]), np.array([fit.n_tail]))
        assert fit.ks == pytest.approx(grid_ks[0], abs=1e-9)
        return fit

    @pytest.mark.parametrize("name", sorted(GRID_SAMPLES))
    def test_same_fit_as_grid_fitter(self, name):
        self.assert_matches(GRID_SAMPLES[name]())

    def test_lognormal_exponent_is_pinned_at_the_upper_end(self):
        # The likelihood still rises at ALPHA_HI, so the fitter returns the
        # bracket end itself; golden-section search stopped 3e-7 below it.
        fit = self.assert_matches(GRID_SAMPLES["lognormal"]())
        assert fit.alpha == ALPHA_HI

    def test_bootstrap_replicates(self):
        data = GRID_SAMPLES["powerlaw-xmin1"]()
        fit = fit_power_law(data)
        for replicate in bootstrap_samples(fit, data, 40, seed=7):
            self.assert_matches(replicate)

    @pytest.mark.parametrize("name", sorted(GRID_SAMPLES))
    def test_ks_kernel_matches_grid_on_every_candidate(self, name):
        uniq, counts, cand, ntails, sumlogs = tail_candidates(GRID_SAMPLES[name]())
        alphas = golden_alphas(uniq[cand].astype(np.float64), ntails, sumlogs)
        assert _ks_distances(uniq, counts, cand, alphas, ntails) == pytest.approx(
            grid_ks_distances(uniq, counts, cand, alphas, ntails), abs=1e-9)

    def test_heavy_tail_fits_within_budget(self):
        # The largest of these draws is 3,110,602: the dense grid needed 43 s.
        data = sample_discrete_powerlaw(1.5, 1, 5000, seed=0)
        start = time.perf_counter()
        fit = fit_power_law(data)
        assert time.perf_counter() - start < 2.0
        tail = data[data >= fit.xmin]
        (golden,) = golden_alphas(
            np.array([float(fit.xmin)]), np.array([tail.size]),
            np.array([np.log(tail).sum()]))
        assert abs(fit.alpha - golden) <= ALPHA_TOL
        assert fit.ks == pytest.approx(
            jump_ks_oracle(tail, fit.alpha, fit.xmin), abs=1e-9)


class TestSampler:
    def test_deterministic_for_a_seed(self):
        one = sample_discrete_powerlaw(2.5, 1, 1000, seed=77)
        two = sample_discrete_powerlaw(2.5, 1, 1000, seed=77)
        assert np.array_equal(one, two)
        three = sample_discrete_powerlaw(2.5, 1, 1000, seed=78)
        assert not np.array_equal(one, three)

    def test_respects_xmin(self):
        xs = sample_discrete_powerlaw(3.0, 5, 50_000, seed=2)
        assert xs.min() == 5

    def test_head_probabilities_match_the_model(self):
        xs = sample_discrete_powerlaw(2.5, 1, 200_000, seed=1)
        z = hurwitz_zeta(2.5, 1)
        for x in (1, 2, 3):
            expected = x ** -2.5 / z
            sigma = math.sqrt(expected * (1 - expected) / xs.size)
            observed = float(np.mean(xs == x))
            assert abs(observed - expected) < 5 * sigma

    def test_accepts_a_generator(self):
        rng = np.random.default_rng(5)
        xs = sample_discrete_powerlaw(2.0, 2, 100, seed=rng)
        assert xs.shape == (100,) and xs.min() >= 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            sample_discrete_powerlaw(0.9, 1, 10, seed=1)
        with pytest.raises(ValueError):
            sample_discrete_powerlaw(2.0, 0, 10, seed=1)


class TestBootstrap:
    DATA = None

    @classmethod
    def setup_class(cls):
        cls.DATA = list(sample_discrete_powerlaw(2.3, 2, 600, seed=100))
        cls.FIT = fit_power_law(cls.DATA)

    def test_reproducible_bit_for_bit(self):
        one = bootstrap_pvalue(self.FIT, self.DATA, replicates=120, seed=9)
        two = bootstrap_pvalue(self.FIT, self.DATA, replicates=120, seed=9)
        assert one == two
        assert one.seed == 9 and one.replicates == 120

    def test_seed_changes_the_draws(self):
        one = bootstrap_pvalue(self.FIT, self.DATA, replicates=120, seed=9)
        two = bootstrap_pvalue(self.FIT, self.DATA, replicates=120, seed=10)
        assert one.p_value != two.p_value

    def test_true_power_law_is_not_rejected(self):
        out = bootstrap_pvalue(self.FIT, self.DATA, replicates=120, seed=9)
        assert out.p_value > 0.1

    def test_fit_fields_carried_over(self):
        out = bootstrap_pvalue(self.FIT, self.DATA, replicates=120, seed=9)
        assert (out.alpha, out.xmin, out.ks, out.n_tail) == (
            self.FIT.alpha, self.FIT.xmin, self.FIT.ks, self.FIT.n_tail)

    def test_requires_explicit_seed(self):
        with pytest.raises(ValueError, match="seed"):
            bootstrap_pvalue(self.FIT, self.DATA, replicates=120)

    def test_requires_enough_replicates(self):
        with pytest.raises(ValueError, match="100"):
            bootstrap_pvalue(self.FIT, self.DATA, replicates=50, seed=1)


class TestLrt:
    def test_power_law_data_beats_exponential(self):
        data = sample_discrete_powerlaw(1.8, 1, 2000, seed=7)
        fit = fit_power_law(data)
        result = lrt(data, fit, "exponential")
        assert result.favored == "powerlaw"
        assert result.log_likelihood_ratio > 0
        assert result.p_value < 0.01

    def test_geometric_data_favors_exponential(self):
        data = [int(x) for x in
                np.random.default_rng(11).geometric(0.2, size=5000)]
        fit = fit_power_law(data)
        result = lrt(data, fit, "exponential")
        assert result.favored == "exponential"
        assert result.log_likelihood_ratio < 0

    def test_power_law_vs_lognormal_is_indeterminate(self):
        # the well-known hard case: close fits, no significant winner
        data = sample_discrete_powerlaw(1.8, 1, 2000, seed=7)
        fit = fit_power_law(data)
        result = lrt(data, fit, "lognormal")
        assert result.favored == "indeterminate"
        assert result.p_value > 0.1

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 9])
    def test_far_tail_keeps_lognormal_mass(self, seed):
        # On seed 1 the value 178 sits 8.4 sigma above the starting mean,
        # where both ndtr terms of its cell round to 1.0; its mass must come
        # from the survival side instead of cancelling to 0.
        data = sample_discrete_powerlaw(2.5, 1, 5000, seed=seed)
        result = lrt(data, fit_power_law(data), "lognormal")
        assert isinstance(result, LrtResult)
        assert math.isfinite(result.log_likelihood_ratio)
        assert 0.0 <= result.p_value <= 1.0

    def test_infeasible_lognormal_fit_raises_value_error(self):
        # 10**9 sits ~45 sigma above the mean of 2,000 tens: its cell has no
        # mass on the distribution side or the survival side, at the start
        # and everywhere Nelder-Mead looks.
        data = [10] * 2000 + [10**9]
        fit = PowerLawFit(alpha=2.0, xmin=10, ks=0.5, n_tail=len(data))
        with pytest.raises(ValueError, match="lognormal fit is infeasible"):
            lrt(data, fit, "lognormal")

    def test_unknown_alternative(self):
        data = sample_discrete_powerlaw(2.0, 1, 100, seed=1)
        fit = fit_power_law(data)
        with pytest.raises(ValueError, match="alternative"):
            lrt(data, fit, "weibull")


class TestCcdf:
    def test_rows_start_at_one_and_decrease(self):
        data = tail_with_noise()
        fit = fit_power_law(data)
        rows = ccdf_rows(data, fit)
        assert rows[0]["x"] == min(data)
        assert rows[0]["empirical_ccdf"] == 1.0
        emp = [r["empirical_ccdf"] for r in rows]
        assert all(a >= b for a, b in zip(emp, emp[1:]))

    def test_fitted_column_is_none_below_xmin(self):
        data = tail_with_noise()
        fit = fit_power_law(data)
        assert fit.xmin == 4
        for row in ccdf_rows(data, fit):
            if row["x"] < fit.xmin:
                assert row["fitted_ccdf"] is None
            else:
                assert row["fitted_ccdf"] > 0

    def test_fitted_tail_is_anchored_at_the_tail_fraction(self):
        data = tail_with_noise()
        fit = fit_power_law(data)
        rows = {r["x"]: r for r in ccdf_rows(data, fit)}
        anchor = rows[fit.xmin]["fitted_ccdf"]
        assert anchor == pytest.approx(fit.n_tail / len(data), rel=1e-12)

    def test_works_without_a_fit(self):
        rows = ccdf_rows([1, 1, 2, 3], None)
        assert [r["fitted_ccdf"] for r in rows] == [None, None, None]
