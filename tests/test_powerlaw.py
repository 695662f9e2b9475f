"""Discrete power-law fitting, bootstrap, likelihood ratios, and sampling."""

import functools
import importlib.util
import logging
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

from asnkit import (
    DegenerateDataError,
    MissingPolicy,
    aggregate,
    bootstrap_pvalue,
    ccdf_rows,
    degree_sequences,
    filter_slice,
    fit_power_law,
    lrt,
)
from asnkit import powerlaw
from asnkit.powerlaw import (
    _BATCH_TERMS,
    _GUIDE,
    _MAX_TABLE,
    ALPHA_HI,
    ALPHA_LO,
    ALPHA_TOL,
    LrtResult,
    PowerLawFit,
    _ZETA_HORIZON,
    _TERMS,
    _Sampler,
    _em_tail,
    _fit_rows,
    _ks_distances,
    _mle_alphas,
    _near_table,
    _replicate_batches,
    _zeta_at_integers,
    _zeta_sums,
)
from oracles import (
    bootstrap_samples,
    fit_oracle,
    golden_alphas,
    grid_fit,
    grid_ks_distances,
    jump_ks_oracle,
    ks_oracle,
    mpmath_cell_moments,
    mpmath_lognormal_loglik,
    parse_corpus,
    reference_bootstrap,
    reference_draws,
    reference_em_tail,
    reference_lognormal_tail_loglik,
    reference_mle_alphas,
    reference_zeta_sums,
    sample_discrete_powerlaw,
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
        (z,) = _zeta_sums(np.array([2.0]), np.array([1.0]))
        assert z[0] == pytest.approx(math.pi ** 2 / 6, rel=1e-14)

    def test_against_mpmath_grid(self):
        s, q = np.meshgrid([1.02, 1.5, 2.0, 2.5, 3.3, 4.7, 6.0],
                           [1.0, 2.0, 5.0, 17.0, 100.0, 1000.0])
        (z,) = _zeta_sums(s, q)
        for got, a, b in zip(z.ravel(), s.ravel(), q.ravel()):
            assert got == pytest.approx(float(mpmath.zeta(a, b)), rel=1e-10)

    def test_against_scipy(self):
        s = np.linspace(1.05, 6.0, 40)
        q = np.arange(1, 41, dtype=float)
        assert _zeta_sums(s, q)[0] == pytest.approx(special.zeta(s, q), rel=1e-12)

    def test_broadcasting(self):
        # The term axis is appended to the inputs' shape, whatever it is, and
        # the sums and both derivatives come back in that shape.
        s = np.array([[2.0, 3.0], [2.0, 2.0]])
        q = np.array([[1.0, 2.0], [2.0, 40.0]])
        sums = _zeta_sums(s, q, derivatives=True)
        assert [d.shape for d in sums] == [(2, 2)] * 3
        assert sums[0][0, 0] == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
        assert sums[0][1, 0] == pytest.approx(math.pi ** 2 / 6 - 1.0, rel=1e-12)
        flat = _zeta_sums(s.ravel(), q.ravel(), derivatives=True)
        for d in range(3):
            np.testing.assert_array_equal(sums[d].ravel(), flat[d])

    def test_domain_validation(self):
        # The zeta's domain is the fit bracket in s and q >= 1, and a fit is
        # where both enter: the sampler, the LRT and the CCDF read them there.
        with pytest.raises(ValueError, match="alpha must lie in"):
            PowerLawFit(alpha=1.0, xmin=1, ks=0.1, n_tail=10)
        with pytest.raises(ValueError, match="xmin must be >= 1"):
            PowerLawFit(alpha=2.0, xmin=0, ks=0.1, n_tail=10)

    def test_a_value_does_not_depend_on_the_others_in_its_call(self):
        # Direct sums of every width round alike: q from below to past the
        # summation horizon, s over the whole fitting bracket.
        rng = np.random.default_rng(0)
        s = rng.uniform(ALPHA_LO, ALPHA_HI, 400)
        q = np.concatenate([np.arange(1.0, 61.0), rng.uniform(0.1, 80.0, 340)])
        (together,) = _zeta_sums(s, q)
        alone = np.array([_zeta_sums(s[i : i + 1], q[i : i + 1])[0][0]
                          for i in range(s.size)])
        np.testing.assert_array_equal(together, alone)
        np.testing.assert_array_equal(_zeta_sums(s[::-1], q[::-1])[0], alone[::-1])

    def test_a_large_exponent_does_not_change_the_others(self):
        # The bracket's largest exponent sums to the same horizon as the
        # rest; the other values, and their derivatives, keep their own.
        s = np.array([2.5, 2.5, 2.5, ALPHA_HI])
        q = np.array([5.0, 9.0, 20.0, 1.0])
        together = _zeta_sums(s, q, derivatives=True)
        for i in range(s.size):
            alone = _zeta_sums(s[i : i + 1], q[i : i + 1], derivatives=True)
            assert [d[i] for d in together] == [d[0] for d in alone]


class TestFitKernels:
    def test_zeta_at_integers_gives_the_next_value_by_subtraction(self):
        # Past the horizon zeta(u + 1) is zeta(u) - u^-alpha.
        alphas = np.linspace(ALPHA_LO, ALPHA_HI, 200)
        values = np.unique(np.geomspace(36, 1e6, 300).astype(np.int64))
        which = np.repeat(np.arange(alphas.size), values.size)
        grid = np.tile(values, alphas.size)
        at, after = _zeta_at_integers(alphas, which, grid, _near_table(alphas))
        q = grid.astype(np.float64)
        np.testing.assert_array_equal(at, _zeta_sums(alphas[which], q)[0])
        np.testing.assert_allclose(
            after, _zeta_sums(alphas[which], q + 1.0)[0], rtol=1e-14, atol=0)

    def test_zeta_at_integers_near_values_read_one_table(self):
        alphas = np.array([1.01, 2.5, 6.0])
        values = np.arange(1, 41)
        which = np.repeat(np.arange(3), values.size)
        grid = np.tile(values, 3)
        at, after = _zeta_at_integers(alphas, which, grid, _near_table(alphas))
        q = grid.astype(np.float64)
        np.testing.assert_allclose(at, _zeta_sums(alphas[which], q)[0], rtol=1e-13)
        np.testing.assert_allclose(after, _zeta_sums(alphas[which], q + 1.0)[0],
                                   rtol=1e-13)
        # Below the horizon, v's next value is v + 1's value, bit for bit.
        near = (grid < 35).nonzero()[0]
        np.testing.assert_array_equal(after[near], at[near + 1])

    def test_mle_alphas_pin_exactly_at_the_bracket_ends(self):
        # Mean log 150: the likelihood still rises toward ALPHA_LO.
        low = _mle_alphas(np.array([1.0]), np.array([10]), np.array([1500.0]))
        # Mean log ln 13.5 from xmin 13: the tail barely leaves xmin, and
        # the score is still negative at ALPHA_HI.
        high = _mle_alphas(np.array([13.0]), np.array([2353]),
                           np.array([2353 * math.log(13.5)]))
        assert low[0] == ALPHA_LO
        assert high[0] == ALPHA_HI
        both = _mle_alphas(np.array([1.0, 13.0]), np.array([10, 2353]),
                           np.array([1500.0, 2353 * math.log(13.5)]))
        assert both.tolist() == [ALPHA_LO, ALPHA_HI]


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

    @pytest.mark.parametrize("alpha", [1.005, 6.5])
    def test_an_exponent_outside_the_bracket_is_refused(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[1\.01, 6\.0\], got "):
            PowerLawFit(alpha=alpha, xmin=1, ks=0.1, n_tail=10)

    @pytest.mark.parametrize("field, message", [
        ({"ks": 1.5}, r"^ks must lie in \[0, 1\], got 1\.5$"),
        ({"n_tail": 0}, r"^n_tail must be >= 1, got 0$"),
        ({"p_value": 2.0}, r"^p_value must lie in \[0, 1\], got 2\.0$"),
    ], ids=["ks", "n_tail", "p_value"])
    def test_a_field_out_of_range_is_refused(self, field, message):
        with pytest.raises(ValueError, match=message):
            PowerLawFit(**{"alpha": 2.0, "xmin": 1, "ks": 0.1, "n_tail": 10, **field})


def rounded_lognormal(mean, sigma, size, seed):
    raw = np.random.default_rng(seed).lognormal(mean=mean, sigma=sigma, size=size)
    return np.maximum(np.rint(raw).astype(int), 1)


GRID_SAMPLES = {
    "powerlaw-xmin1": lambda: sample_discrete_powerlaw(2.5, 1, 5000, seed=3),
    "powerlaw-xmin5": lambda: sample_discrete_powerlaw(2.5, 5, 10_000, seed=0),
    "tail-with-noise": tail_with_noise,
    "lognormal": lambda: rounded_lognormal(2.5, 0.25, 5000, seed=0),
}


def ks_kernel_tables(uniq, counts, cand):
    """One sample's flat tables as ``_ks_distances`` reads them, with a 0
    slot after the largest value, and its candidates' ends."""
    table = np.append(uniq, 0)
    tails = np.append(counts[::-1].cumsum()[::-1], 0)
    return table, tails, np.full(cand.size, uniq.size)


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
        table, tails, ends = ks_kernel_tables(uniq, counts, cand)
        assert _ks_distances(table, tails, cand, ends, alphas) == pytest.approx(
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


#: Exponents across the fit bracket, both ends included.
KERNEL_S = np.linspace(ALPHA_LO, ALPHA_HI, 41)

#: Arguments q of the zeta from 0.1 to 1e6, integer and not, on either side
#: of the summation horizon and on it.
KERNEL_Q = np.unique(np.concatenate([
    [0.1, 0.5, 0.999, 35.0, 35.5, 36.0, 37.0, 1e6],
    np.arange(1.0, 80.0), np.arange(1.0, 80.0) + 0.25,
    np.geomspace(0.1, 1e6, 120), np.unique(np.geomspace(1.0, 1e6, 120).round()),
]))


class TestKernelsMatchTheReference:
    """The zeta sums and the Newton solve against the kernels of
    ``tests/oracles.py`` that summed every row in full, bit for bit."""

    @staticmethod
    def assert_same(got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_zeta_sums(self, derivatives):
        s, q = np.meshgrid(KERNEL_S, KERNEL_Q)
        for shape in (s.shape, (s.size,)):
            self.assert_same(
                _zeta_sums(s.reshape(shape), q.reshape(shape), derivatives),
                reference_zeta_sums(s.reshape(shape), q.reshape(shape), derivatives))

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_em_tail(self, derivatives):
        s, a = np.meshgrid(KERNEL_S, KERNEL_Q[KERNEL_Q >= _ZETA_HORIZON])
        for shape in (s.shape, (s.size,)):
            (first, sums), (ref_first, ref_sums) = (
                tail(s.reshape(shape), a.reshape(shape), derivatives)
                for tail in (_em_tail, reference_em_tail))
            assert np.array_equal(first, ref_first)
            self.assert_same(sums, ref_sums)
        # A column of exponents against one argument, as the near table asks.
        column, horizon = KERNEL_S[:, None], np.float64(np.ceil(_ZETA_HORIZON))
        self.assert_same(_em_tail(column, horizon, derivatives)[1],
                         reference_em_tail(column, horizon, derivatives)[1])

    @pytest.mark.parametrize("derivatives", [False, True])
    def test_a_value_at_or_past_the_horizon_is_its_tail_alone(self, derivatives):
        s, q = np.meshgrid(KERNEL_S, KERNEL_Q[KERNEL_Q >= _ZETA_HORIZON])
        assert q.min() == _ZETA_HORIZON
        self.assert_same(_zeta_sums(s, q, derivatives), _em_tail(s, q, derivatives)[1])

    @pytest.mark.parametrize("name", ["fit-bootstrap-zipf", "fit-bootstrap-powerlaw",
                                      "fit-bootstrap-lognormal", "ingest-large-sized"])
    def test_mle_alphas_on_bootstrap_candidates(self, name):
        # Every candidate of the first batches of seeded replicates, solved
        # in lockstep, and two pinned at the bracket ends.
        _, _, batches = staged_batches(name)
        parts = [tail_candidates(row) for rows, _ in batches for row in rows[:25]]
        xmins = np.concatenate(
            [uniq[cand] for uniq, _, cand, _, _ in parts] + [[1, 13]]).astype(np.float64)
        ntails = np.concatenate([part[3] for part in parts] + [[10, 2353]])
        sumlogs = np.concatenate(
            [part[4] for part in parts] + [[1500.0, 2353 * math.log(13.5)]])
        alphas = _mle_alphas(xmins, ntails, sumlogs)
        assert np.array_equal(alphas, reference_mle_alphas(xmins, ntails, sumlogs))
        assert alphas[-2:].tolist() == [ALPHA_LO, ALPHA_HI]
        assert np.count_nonzero((alphas > ALPHA_LO) & (alphas < ALPHA_HI)) > 100


def sampler_draws(alpha, xmin, size, seed):
    """``size`` draws of the bootstrap's sampler; ``seed`` is an integer or a
    Generator."""
    return _Sampler(alpha, xmin).draw(np.random.default_rng(seed).random(size))


class TestSampler:
    def test_deterministic_for_a_seed(self):
        one = sampler_draws(2.5, 1, 1000, seed=77)
        two = sampler_draws(2.5, 1, 1000, seed=77)
        assert np.array_equal(one, two)
        three = sampler_draws(2.5, 1, 1000, seed=78)
        assert not np.array_equal(one, three)

    def test_respects_xmin(self):
        xs = sampler_draws(3.0, 5, 50_000, seed=2)
        assert xs.min() == 5

    def test_head_probabilities_match_the_model(self):
        xs = sampler_draws(2.5, 1, 200_000, seed=1)
        z = special.zeta(2.5, 1)
        for x in (1, 2, 3):
            expected = x ** -2.5 / z
            sigma = math.sqrt(expected * (1 - expected) / xs.size)
            observed = float(np.mean(xs == x))
            assert abs(observed - expected) < 5 * sigma

    def test_accepts_a_generator(self):
        rng = np.random.default_rng(5)
        xs = sampler_draws(2.0, 2, 100, seed=rng)
        assert xs.shape == (100,) and xs.min() >= 2

    def test_heavy_tail_table_memory_is_bounded(self):
        # The largest of these draws is 13,436,720: the table stops at 2**20
        # entries (8 MB) and the draws beyond it are bisected.
        tracemalloc.start()
        try:
            sampler_draws(1.5, 1, 5000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("alpha, xmin, size, seed",
                             [(1.5, 1, 5000, 1), (1.3, 1, 5000, 0), (1.5, 3, 20_000, 2)])
    def test_draws_beyond_the_table_invert_the_zeta(self, alpha, xmin, size, seed):
        u = np.random.default_rng(seed).random(size)
        draws = sampler_draws(alpha, xmin, size, seed=seed)
        beyond = draws >= xmin + _MAX_TABLE
        assert np.count_nonzero(beyond) >= 5
        # Each is the smallest x with zeta(alpha, x + 1) <= (1 - u) zeta(alpha, xmin).
        target = (1.0 - u[beyond]) * special.zeta(alpha, xmin)
        x = draws[beyond].astype(np.float64)
        assert np.all(special.zeta(alpha, x + 1.0) <= target)
        assert np.all(special.zeta(alpha, x) > target)

    def test_zero_uniforms_give_no_draws(self):
        sampler = _Sampler(2.5, 3)
        draws = sampler.draw(np.empty(0))
        assert draws.dtype == np.int64 and draws.shape == (0,)
        u = np.random.default_rng(0).random(100)
        assert np.array_equal(sampler.draw(u), reference_draws(2.5, 3, u))

    def test_fresh_seed_coverage(self):
        # On seeds 1000-1299, 2000-2299 and 3000-3299, 89-92% of the fits
        # (n = 5,000, alpha = 2.5, xmin = 1) fall within two of these
        # standard errors, the continuous-data ones, which are about 11%
        # narrower than the discrete Fisher bound here.  At 300 seeds the
        # binomial spread of a 90% rate is 0.017, so 0.83 sits four spreads
        # below it.
        seeds = range(1000, 1300)
        hits = 0
        for seed in seeds:
            fit = fit_power_law(sample_discrete_powerlaw(2.5, 1, 5000, seed=seed))
            hits += abs(fit.alpha - 2.5) <= 2.0 * (fit.alpha - 1.0) / math.sqrt(fit.n_tail)
        assert hits / len(seeds) >= 0.83


class TestGuideTable:
    """``_Sampler.draw`` reads most draws off its guide table; each must be
    the integer the plain binary search of ``reference_draws`` returns."""

    @pytest.mark.parametrize("xmin", [1, 4, 13, 200])
    @pytest.mark.parametrize("alpha", [1.3, 1.5, 2.089, 2.5, 6.0])
    def test_seeded_uniforms(self, alpha, xmin):
        u = np.random.default_rng(xmin).random(20_000)
        sampler = _Sampler(alpha, xmin)
        for part in (u, u[:100]):
            draws = sampler.draw(part)
            assert draws.dtype == np.int64
            assert np.array_equal(draws, reference_draws(alpha, xmin, part))
        if alpha < 2:  # some draws lie beyond the table and are bisected
            assert np.any(sampler.draw(u) >= xmin + _MAX_TABLE)

    @pytest.mark.parametrize("alpha, xmin", [(1.5, 1), (2.5, 1), (2.5, 13), (6.0, 1)])
    def test_bucket_edges_and_table_entries(self, alpha, xmin):
        # Every bucket edge j / _GUIDE and its neighbours on either side, and
        # every table entry below 1 with its neighbours: where a bucket or a
        # search could be off by one.
        sampler = _Sampler(alpha, xmin)
        edges = np.arange(_GUIDE) / _GUIDE
        steps = sampler.cdf[sampler.cdf < 1.0]
        u = np.concatenate([
            edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0),
            steps, np.nextafter(steps, 1.0), np.nextafter(steps, 0.0),
            [np.nextafter(1.0, 0.0)],
        ])
        u = u[u < 1.0]
        assert np.array_equal(sampler.draw(u), reference_draws(alpha, xmin, u))
        # The table entries again, in rising draws of at most 511, so a fresh
        # sampler's table grows one draw at a time.
        near = np.concatenate([steps, np.nextafter(steps, 1.0), np.nextafter(steps, 0.0)])
        near = np.sort(near[near < 1.0])
        sampler = _Sampler(alpha, xmin)
        for part in np.array_split(near, -(-near.size // 511)):
            assert np.array_equal(sampler.draw(part), reference_draws(alpha, xmin, part))

    def test_successive_calls_grow_the_table(self):
        # The first draw after a growth builds the guide of the grown table.
        sampler = _Sampler(2.089, 4)
        rng = np.random.default_rng(3)
        sizes = []
        for top in (0.5, 0.999, 0.99999, np.nextafter(1.0, 0.0)):
            for size in (511, 512, 5_000, 100):
                u = np.append(rng.random(size - 1) * top, top)
                assert np.array_equal(sampler.draw(u), reference_draws(2.089, 4, u))
            sizes.append(sampler.cdf.size)
        assert sizes == sorted(set(sizes)) and sizes[0] == 1024 and sizes[-1] == _MAX_TABLE
        assert sampler.guide.size == _GUIDE

    def test_the_table_stops_where_its_sums_stop_rising(self):
        # At alpha 6 the sums stop rising in rounding at entry 510, at
        # 1 - 4.0e-15.  That entry, the float above it and 1 - 1e-16 are
        # inverted from there: each draw is the smallest x with
        # zeta(6, x + 1) <= (1 - u) zeta(6, 1), from a fresh sampler, after
        # other draws, and among other uniforms, and the table stays put.
        saturated = _Sampler(6.0, 1).cdf[-1]
        assert saturated == pytest.approx(1.0 - 4.0e-15, abs=1e-16)
        u = np.array([saturated, np.nextafter(saturated, 1.0), 1.0 - 1e-16])
        expected = [547, 551, 1121]
        target = (1.0 - u) * special.zeta(6.0, 1.0)
        assert np.all(special.zeta(6.0, np.array(expected) + 1.0) <= target)
        assert np.all(special.zeta(6.0, np.array(expected, dtype=float)) > target)
        assert reference_draws(6.0, 1, u).tolist() == expected
        assert _Sampler(6.0, 1).draw(u).tolist() == expected

        sampler = _Sampler(6.0, 1)
        others = np.random.default_rng(6).random(5_000)
        assert np.array_equal(sampler.draw(others), reference_draws(6.0, 1, others))
        assert sampler.draw(u).tolist() == expected
        batch = sampler.draw(np.concatenate([others[:100], u, others[100:]]))
        assert batch[100:103].tolist() == expected
        assert sampler.cdf.size == 510

    @pytest.mark.parametrize("alpha", [6.0, 1.5])
    def test_one_draw_mixes_every_kind_of_uniform(self, alpha):
        # Uniforms read off the guide, uniforms in buckets holding a table
        # step, and uniforms at or past the table's last entry, shuffled
        # into one draw of a fresh sampler.
        grown = _Sampler(alpha, 1)
        grown.draw(np.array([np.nextafter(1.0, 0.0)]))
        last = grown.cdf[-1]
        steps = grown.cdf[grown.cdf < last][:: max(1, grown.cdf.size // 2000)]
        rng = np.random.default_rng(35)
        u = np.concatenate([
            rng.random(3000) * last,
            steps, np.nextafter(steps, 1.0), np.nextafter(steps, 0.0),
            [last, np.nextafter(last, 1.0), np.nextafter(1.0, 0.0)],
            last + rng.random(20) * (1.0 - last),
        ])
        u = rng.permutation(u[u < 1.0])
        sampler = _Sampler(alpha, 1)
        draws = sampler.draw(u)
        assert np.array_equal(draws, reference_draws(alpha, 1, u))
        assert np.array_equal(sampler.cdf, grown.cdf)
        bucket = (u * _GUIDE).astype(np.intp)
        edges = np.searchsorted(sampler.cdf, np.arange(_GUIDE + 1) / _GUIDE, side="right")
        stepped = edges[bucket + 1] != edges[bucket]
        beyond = u >= last
        assert np.count_nonzero(~stepped & ~beyond) > 1000
        assert np.count_nonzero(stepped & ~beyond) > 100
        assert np.count_nonzero(beyond) >= 20
        assert np.all(draws[beyond] > sampler.cdf.size)


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

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match=r"^too few observations: 3 < 10$"):
            bootstrap_pvalue(self.FIT, [1, 2, 3], replicates=100, seed=9)

    def test_fit_of_other_data_is_refused(self):
        # More tail observations than the data hold, then a tail count that
        # merely differs: the first used to stop in numpy's binomial, the
        # second to draw from a tail fraction of other data.
        fit = self.FIT
        for data in (self.DATA[:20], self.DATA + [fit.xmin]):
            tail = sum(v >= fit.xmin for v in data)
            with pytest.raises(ValueError, match=(
                rf"^fit is not of this data: n_tail {fit.n_tail} at xmin {fit.xmin}, "
                rf"but the data hold {tail} observations >= {fit.xmin}$")):
                bootstrap_pvalue(fit, data, replicates=100, seed=9)

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


def criterion_7_lognormal(seed):
    raw = np.random.default_rng(1000 + seed).lognormal(mean=2.5, sigma=0.35, size=5_000)
    return np.maximum(np.rint(raw).astype(int), 1)


#: 30 ones and 4 twos: 12 of 200 replicates (6%) come out all equal.
SOME_DEGENERATE = [1] * 30 + [2] * 4

#: 90 points from 1 to 5 and a tail of 10 from 20: under seed 707, replicate
#: 89 of 100 draws no tail point.
TEN_IN_THE_TAIL = [
    *np.random.default_rng(0).integers(1, 6, size=90).tolist(),
    *sample_discrete_powerlaw(2.0, 20, 10, seed=0).tolist(),
]

#: (sample, replicates, seed) pairs the batched bootstrap must reproduce.
REFERENCE_CASES = {
    "zipf-shaped": (lambda: tail_with_noise(2.1, 4, 600, 900), 100, 0),
    "powerlaw-shaped": (lambda: sample_discrete_powerlaw(2.5, 1, 5000, seed=11), 100, 11),
    "lognormal-shaped": (lambda: rounded_lognormal(2.5, 0.25, 5000, seed=11), 100, 11),
    **{f"criterion-7-powerlaw-{s}":
       (lambda s=s: sample_discrete_powerlaw(2.5, 1, 5_000, seed=s), 200, s)
       for s in range(3)},
    **{f"criterion-7-lognormal-{s}": (lambda s=s: criterion_7_lognormal(s), 200, s)
       for s in range(3)},
    "heavy-tail": (lambda: sample_discrete_powerlaw(1.5, 1, 2000, seed=0), 100, 0),
    "some-degenerate": (lambda: SOME_DEGENERATE, 200, 0),
    "no-below-xmin": (lambda: sample_discrete_powerlaw(2.5, 5, 800, seed=0), 100, 0),
    "tail-size-zero": (lambda: TEN_IN_THE_TAIL, 100, 707),
}


class TestBatchedBootstrap:
    """Lockstep batches against the per-replicate bootstrap of
    ``oracles.reference_bootstrap``."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_matches_the_per_replicate_bootstrap(self, name):
        make, replicates, seed = REFERENCE_CASES[name]
        data = make()
        fit = fit_power_law(data)
        expected, reference = reference_bootstrap(fit, data, replicates, seed)
        assert bootstrap_pvalue(fit, data, replicates, seed) == expected

        batched = []
        x = np.asarray(data, dtype=np.int64)
        for rows in _replicate_batches(fit, x, replicates, seed):
            fits = _fit_rows(rows)
            batched += [None if n_tail == 0 else (a, xm, ks, n_tail)
                        for a, xm, ks, n_tail in zip(*fits)]
        # Each replicate's fit is bit-identical to fitting that sample alone.
        assert batched == [
            None if f is None else (f.alpha, f.xmin, f.ks, f.n_tail) for f in reference
        ]

    def test_the_edge_cases_reach_their_edges(self):
        # No observed point lies below the fit's xmin, so no replicate
        # resamples any; and some replicate draws a tail of size 0.
        data = REFERENCE_CASES["no-below-xmin"][0]()
        assert fit_power_law(data).xmin == min(data)
        fit = fit_power_law(TEN_IN_THE_TAIL)
        assert fit.n_tail == 10
        samples = bootstrap_samples(fit, TEN_IN_THE_TAIL, 100, 707)
        assert [i for i, sample in enumerate(samples) if sample.max() < fit.xmin] == [89]

    @pytest.mark.parametrize("name", ["zipf-shaped", "lognormal-shaped", "tail-size-zero"])
    def test_batches_have_one_size_but_the_last(self, name):
        make, replicates, _ = REFERENCE_CASES[name]
        data = np.asarray(make(), dtype=np.int64)
        fit = fit_power_law(data)
        sizes = [[rows.shape[0] for rows in _replicate_batches(fit, data, replicates, seed)]
                 for seed in (0, 1)]
        assert sizes[0] == sizes[1]
        assert sum(sizes[0]) == replicates
        assert len(set(sizes[0][:-1])) <= 1 and sizes[0][-1] <= sizes[0][0]

    def test_a_fit_does_not_depend_on_its_batch(self):
        # Samples with different smallest values need direct zeta sums of
        # different lengths, which round differently; each sample's are
        # formed as a fit of it alone forms them.
        rng = np.random.default_rng(0)
        rows = np.stack([
            np.sort(sample_discrete_powerlaw(
                rng.uniform(1.5, 4.0), int(rng.integers(1, 30)), 60, seed=i))
            for i in range(80)
        ])
        batched = [_fit_rows(rows[i : i + 8]) for i in range(0, 80, 8)]
        alone = [_fit_rows(rows[i : i + 1]) for i in range(80)]
        for field in range(4):
            np.testing.assert_array_equal(
                np.concatenate([fits[field] for fits in batched]),
                np.concatenate([fits[field] for fits in alone]),
            )

    def test_too_many_degenerate_replicates_raise(self):
        data = [1] * 20 + [2] * 2  # 41 of 200 replicates are all ones
        fit = fit_power_law(data)
        with pytest.raises(RuntimeError, match="41 of 200 bootstrap replicates"):
            bootstrap_pvalue(fit, data, replicates=200, seed=0)
        with pytest.raises(RuntimeError, match="41 of 200"):
            reference_bootstrap(fit, data, 200, 0)

    def test_one_replicate_batches_give_the_same_fit(self, monkeypatch, caplog):
        data = tail_with_noise(2.1, 4, 600, 900)
        fit = fit_power_law(data)
        default = bootstrap_pvalue(fit, data, replicates=100, seed=3)
        monkeypatch.setattr(powerlaw, "_BATCH_TERMS", 1)
        with caplog.at_level(logging.DEBUG, logger="asnkit.powerlaw"):
            single = bootstrap_pvalue(fit, data, replicates=100, seed=3)
        assert single == default
        assert "100 replicates kept, 0 discarded, 100 batches" in caplog.text

    @staticmethod
    def wide_sample():
        """A heavy-tailed sample of 166 distinct values, its fit, and the
        batches of its bootstrap's 100 replicates."""
        data = np.asarray(sample_discrete_powerlaw(1.6, 1, 2000, seed=0), dtype=np.int64)
        fit = fit_power_law(data)
        return data, list(_replicate_batches(fit, data, 100, 0))

    def test_wide_samples_share_batches(self):
        # The batch budget counts each distinct value's direct-sum row.
        data, batches = self.wide_sample()
        u = np.unique(data).size
        assert u >= 160
        size = _BATCH_TERMS // (_TERMS.size * u)
        assert size > 1
        assert [rows.shape[0] for rows in batches[:-1]] == [size] * (len(batches) - 1)
        assert sum(rows.shape[0] for rows in batches) == 100

    def test_wide_batches_fit_as_rows_alone(self):
        _, batches = self.wide_sample()
        for rows in batches:
            batched = _fit_rows(rows)
            alone = [_fit_rows(rows[i : i + 1]) for i in range(rows.shape[0])]
            for field in range(4):
                assert np.array_equal(
                    batched[field], np.concatenate([fits[field] for fits in alone]))

    def test_degenerate_replicates_log_one_warning(self, caplog):
        fit = fit_power_law(SOME_DEGENERATE)
        with caplog.at_level(logging.DEBUG, logger="asnkit.powerlaw"):
            bootstrap_pvalue(fit, SOME_DEGENERATE, replicates=200, seed=0)
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == [
            "discarded 12 of 200 degenerate replicates"]
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(debug) == 1
        assert debug[0].startswith("bootstrap: 188 replicates kept, 12 discarded, ")


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

    def test_far_outlier_keeps_finite_lognormal_mass(self):
        # 10**9 sits ~45 sigma above the mean of 2,000 tens.  In log space
        # its cell keeps its mass, and the supremum over the family is its
        # power-law limit.  ``lrt`` refuses a two-valued tail, so it is given
        # one more value, an eleven.
        data = [10] * 2000 + [10**9]
        fit = PowerLawFit(alpha=2.0, xmin=10, ks=0.5, n_tail=len(data) + 1)
        result = lrt(data + [11], fit, "lognormal")
        assert math.isfinite(result.log_likelihood_ratio)
        tail = np.asarray(data, dtype=np.float64)
        best = powerlaw._lognormal_tail_loglik(tail, 10.0)
        assert best.b == 0.0
        assert best.loglik.sum() == pytest.approx(-650.1488, abs=1e-4)
        np.testing.assert_allclose(
            best.loglik, mpmath_lognormal_loglik(tail, 10, best.a, best.b), rtol=1e-10)

    @pytest.mark.parametrize("alternative", ["exponential", "lognormal"])
    def test_constant_tail_is_refused(self, alternative):
        data = [1] * 20 + [7] * 12
        fit = PowerLawFit(alpha=2.0, xmin=5, ks=0.5, n_tail=12)
        with pytest.raises(ValueError, match=r"tail has 1 distinct value\(s\)"):
            lrt(data, fit, alternative)

    @pytest.mark.parametrize("alternative", ["exponential", "lognormal"])
    def test_short_tail_is_refused(self, alternative):
        data = [1] * 20 + list(range(5, 13))
        fit = PowerLawFit(alpha=2.0, xmin=5, ks=0.5, n_tail=8)
        with pytest.raises(ValueError, match=r"^tail too small for comparison: 8 < 10$"):
            lrt(data, fit, alternative)

    @pytest.mark.parametrize("alternative", ["exponential", "lognormal"])
    @pytest.mark.parametrize("low, high", [(1, 2), (3, 9)], ids=["neighbours", "apart"])
    def test_two_valued_tail_is_refused(self, alternative, low, high):
        # On two neighbouring values the lognormal's sigma -> 0 limit puts the
        # sample's own proportions on the two cells, whatever they are.
        data = [low] * 10 + [high] * 15
        fit = PowerLawFit(alpha=2.0, xmin=low, ks=0.5, n_tail=25)
        with pytest.raises(ValueError, match=(
                r"^tail has 2 distinct value\(s\); comparison needs at least 3$")):
            lrt(data, fit, alternative)

    def test_unknown_alternative(self):
        data = sample_discrete_powerlaw(2.0, 1, 100, seed=1)
        fit = fit_power_law(data)
        with pytest.raises(ValueError, match="alternative"):
            lrt(data, fit, "weibull")


_GEN_SPEC = importlib.util.spec_from_file_location(
    "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py")
gen = sys.modules[_GEN_SPEC.name] = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(gen)


@functools.cache
def analyze_zipf_degrees(seed):
    """Century -> degree variable -> the nonzero degrees that ``asnkit
    analyze`` fits, on the analyze-zipf benchmark corpus of ``seed``."""
    text, _ = gen.zipf_corpus(
        seed, (14, 15, 16, 17), sentences=40, vocab=150, planted_from=2,
        planted_sentences=15, adjacent=3, distant=3, exponent=0.6, tag=1)
    degrees = {}
    for corpus_slice in parse_corpus(text):
        kept, _ = filter_slice(corpus_slice, MissingPolicy.DROP_ADJACENT_TO_TARGET)
        degrees[corpus_slice.century] = {
            variable: [d for d in sequence if d > 0]
            for variable, sequence in degree_sequences(aggregate(kept.trees)).items()
        }
    return degrees


@functools.cache
def analyze_zipf_tails(seed):
    """Century -> (total-degree tail, xmin) of the analyze-zipf benchmark
    corpus of ``seed``, as ``asnkit analyze`` fits it."""
    return {century: fitted_tail(degrees["total"])
            for century, degrees in analyze_zipf_degrees(seed).items()}


def fitted_tail(data):
    """The tail ``lrt`` compares, and its xmin."""
    x = np.asarray(data)
    xmin = fit_power_law(x).xmin
    return x[x >= xmin].astype(np.float64), float(xmin)


#: Tails whose lognormal maximum is interior: the analyze-zipf corpora of
#: seeds 0-5, fit-bootstrap's Zipf and sigma = 0.25 samples, and the sigma =
#: 0.35 samples of criterion 7.
INTERIOR_TAILS = {
    **{f"analyze-zipf-{seed}-{century}":
       (lambda seed=seed, century=century: analyze_zipf_tails(seed)[century])
       for seed in range(6) for century in (14, 15, 16, 17)},
    "fit-bootstrap-zipf": lambda: fitted_tail(
        gen.zipf_degrees(0, sentences=800, vocab=1600, tag=2)),
    **{f"fit-bootstrap-lognormal-{seed}": (lambda seed=seed: fitted_tail(
        gen.lognormal_sample(seed, 2.5, 0.25, 5000, tag=4))) for seed in range(3)},
    **{f"criterion-7-lognormal-{seed}":
       (lambda seed=seed: fitted_tail(criterion_7_lognormal(seed))) for seed in range(20)},
}


def power_law_limit_tail():
    """Analyze-zipf seed 904, century 16: its supremum is the power-law
    limit, where Nelder-Mead stopped in underflow at -127.433."""
    return analyze_zipf_tails(904)[16]


#: Samples the staged KS scan must decide as the full scan does: the
#: analyze-zipf corpus of seed 0 under all three degree variables, the three
#: fit-bootstrap samples of seed 0, and total degrees of a Zipf slice the
#: size of an ingest-large century (2,022 nodes).
STAGED_SAMPLES = {
    **{f"analyze-zipf-{century}-{variable}":
       (lambda century=century, variable=variable:
        analyze_zipf_degrees(0)[century][variable])
       for century in (14, 15, 16, 17) for variable in ("in", "out", "total")},
    "fit-bootstrap-zipf": lambda: gen.zipf_degrees(0, sentences=800, vocab=1600, tag=2),
    "fit-bootstrap-powerlaw": lambda: gen.powerlaw_sample(0, 2.5, 1, 5000, tag=3),
    "fit-bootstrap-lognormal": lambda: gen.lognormal_sample(0, 2.5, 0.25, 5000, tag=4),
    "ingest-large-sized": lambda: gen.zipf_degrees(0, sentences=1000, vocab=2500, tag=5),
}


def staged_batches(name):
    """The sample, its fit, and its bootstrap's batches of 100 replicates
    (seed 0), each with its full-scan fits."""
    data = STAGED_SAMPLES[name]()
    fit = fit_power_law(data)
    batches = [(rows, _fit_rows(rows)) for rows in
               _replicate_batches(fit, np.asarray(data, dtype=np.int64), 100, 0)]
    return data, fit, batches


class TestStagedScan:
    """The bootstrap's staged KS scan, which stops once a replicate's
    comparison with the observed distance is decided, against the full scan
    of ``_fit_rows`` with no threshold."""

    @pytest.mark.parametrize("name", sorted(STAGED_SAMPLES))
    def test_decisions_and_p_value_equal_the_full_scan(self, name):
        data, fit, batches = staged_batches(name)
        exceed = kept = 0
        cells = [0, 0]
        for rows, full in batches:
            staged = _fit_rows(rows, fit.ks, cells)
            fitted = full.n_tail > 0
            np.testing.assert_array_equal(staged.n_tail > 0, fitted)
            np.testing.assert_array_equal(
                staged.ks[fitted] >= fit.ks, full.ks[fitted] >= fit.ks)
            # Each candidate's value is a largest gap over some of its cells.
            assert np.all(staged.ks[fitted] <= full.ks[fitted])
            kept += int(np.count_nonzero(fitted))
            exceed += int(np.count_nonzero(full.ks[fitted] >= fit.ks))
        assert cells[0] <= cells[1]
        assert bootstrap_pvalue(fit, data, 100, 0).p_value == exceed / kept

    @pytest.mark.parametrize("name", sorted(STAGED_SAMPLES))
    def test_a_replicates_own_distance_is_decided_exactly(self, name):
        # Thresholds at a replicate's KS distance and one float either side:
        # the replicate itself is >= at its distance and below past it, and
        # every other row of the batch decides as the full scan does.
        _, _, batches = staged_batches(name)
        rows, full = batches[0]
        fitted = full.n_tail > 0
        for r in np.flatnonzero(fitted)[:6]:
            tail = rows[r][rows[r] >= full.xmin[r]]
            assert set(np.unique(tail % 2)) == {0, 1}
            for threshold in (np.nextafter(full.ks[r], -np.inf), full.ks[r],
                              np.nextafter(full.ks[r], np.inf)):
                staged = _fit_rows(rows, threshold)
                np.testing.assert_array_equal(
                    staged.ks[fitted] >= threshold, full.ks[fitted] >= threshold)

    @staticmethod
    def one_sample_kernels(name, count=8):
        """``_ks_distances``'s arguments for each of the first ``count``
        replicates of the sample's bootstrap that have candidates, each alone
        in its tables, and the full-scan distances of its candidates."""
        _, _, batches = staged_batches(name)
        kernels = []
        for row in np.concatenate([rows for rows, _ in batches]):
            uniq, counts, cand, ntails, sumlogs = tail_candidates(row)
            if cand.size == 0:
                continue
            table, tails, ends = ks_kernel_tables(uniq, counts, cand)
            alphas = _mle_alphas(uniq[cand].astype(np.float64), ntails, sumlogs)
            full = _ks_distances(table, tails, cand, ends, alphas)
            kernels.append((table, tails, cand, ends, alphas, full))
            if len(kernels) == count:
                break
        return kernels

    @pytest.mark.parametrize("first, growth", [(16, 8), (1, 2)])
    @pytest.mark.parametrize("name", sorted(STAGED_SAMPLES))
    def test_a_candidate_scanned_in_rounds_reaches_its_full_distance(
            self, name, first, growth, monkeypatch):
        # Alone in its sample and with no threshold to reach, a candidate is
        # scanned to its end; its gaps, chunk ends included, are the full
        # scan's.  Rounds of 1, 2, 4, ... cells put a chunk end at every
        # power of two.
        monkeypatch.setattr(powerlaw, "_KS_FIRST_CELLS", first)
        monkeypatch.setattr(powerlaw, "_KS_GROWTH", growth)
        for table, tails, cand, ends, alphas, full in self.one_sample_kernels(name):
            alone = [_ks_distances(table, tails, cand[i : i + 1], ends[i : i + 1],
                                   alphas[i : i + 1], np.inf)[0]
                     for i in range(cand.size)]
            np.testing.assert_array_equal(alone, full)

    @pytest.mark.parametrize("first, growth", [(16, 8), (1, 2)])
    @pytest.mark.parametrize("name", sorted(STAGED_SAMPLES))
    def test_each_candidate_bounds_and_decides_at_every_distance(
            self, name, first, growth, monkeypatch):
        # At each candidate's distance, and one float either side of the
        # least: no value exceeds its distance; a sample whose distance is >=
        # the threshold has every candidate settled, and one below it has a
        # candidate scanned to its distance.
        monkeypatch.setattr(powerlaw, "_KS_FIRST_CELLS", first)
        monkeypatch.setattr(powerlaw, "_KS_GROWTH", growth)
        for table, tails, cand, ends, alphas, full in self.one_sample_kernels(name):
            least = full.min()
            for threshold in {*full, np.nextafter(least, -np.inf),
                              np.nextafter(least, np.inf)}:
                staged = _ks_distances(table, tails, cand, ends, alphas, threshold)
                assert np.all(staged <= full)
                if least >= threshold:
                    assert np.all(staged >= threshold)
                else:
                    assert np.any((staged == full) & (full < threshold))

    def test_a_gap_equal_to_the_threshold_settles_its_candidate(self):
        # Ten each of 1..200, with candidates at xmin 1 and 199.  At the
        # second's distance, reached at its last cell in the first round, that
        # candidate is settled, so the first is scanned on to its own smaller
        # distance rather than dropped with a partial bound.
        values = np.arange(1, 201)
        cand = np.array([0, 198])
        table, tails, ends = ks_kernel_tables(values, np.full(values.size, 10), cand)
        alphas = np.array([ALPHA_LO, ALPHA_HI])
        full = _ks_distances(table, tails, cand, ends, alphas)
        assert full[0] < full[1]
        staged = _ks_distances(table, tails, cand, ends, alphas, full[1])
        np.testing.assert_array_equal(staged, full)

    def test_debug_line_counts_the_cells_evaluated(self, caplog):
        data, fit, batches = staged_batches("fit-bootstrap-zipf")
        full_cells = [0, 0]
        for rows, _ in batches:
            _fit_rows(rows, None, full_cells)
        # With no threshold every cell is evaluated.
        assert full_cells[0] == full_cells[1]
        with caplog.at_level(logging.DEBUG, logger="asnkit.powerlaw"):
            bootstrap_pvalue(fit, data, 100, 0)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.startswith(
            f"bootstrap: 100 replicates kept, 0 discarded, {len(batches)} batches "
            f"of {batches[0][0].shape[0]}, ")
        evaluated, total = map(int, re.search(
            r", (\d+) of (\d+) KS cells evaluated$", line).groups())
        assert total == full_cells[1]
        assert 0 < evaluated < total


class TestLognormalFit:
    """The Newton solve against Nelder-Mead and a 50-digit mpmath oracle."""

    @pytest.mark.parametrize("a, b", [
        (-2.5, 0.0),     # the power-law limit: every tail from the series
        (-3.0, 1e-4),    # near it: the series with b > 0
        (-1.2, 0.16),    # mode below every cell
        (20.6, 4.1),     # mode inside the cell of 12, cells on both sides
        (60.0, 30.0),    # mode at 2.7, narrow: far cells deep in both tails
    ])
    def test_cells_match_mpmath(self, a, b):
        values = np.array([2.0, 3.0, 5.0, 12.0, 13.0, 40.0, 1000.0])
        per_value, moments = powerlaw._lognormal_cells(
            a, b, powerlaw._Cells.of(values, 2.0))
        np.testing.assert_allclose(
            per_value, mpmath_lognormal_loglik(values, 2, a, b), rtol=1e-12)
        edges = [(math.log(v - 0.5), math.log(v + 0.5)) for v in values]
        for column, (lo, hi) in enumerate([*edges, (math.log(1.5), mpmath.inf)]):
            exact = mpmath_cell_moments(lo, hi, a, b)
            np.testing.assert_allclose(moments[:3, column], exact[:3], rtol=1e-9)
            np.testing.assert_allclose(moments[3:, column], exact[3:], rtol=1e-6)

    def test_ascent_step_climbs_where_the_likelihood_is_not_concave(self):
        # The grouped log-likelihood is not concave everywhere: at this point
        # of a four-value tail its Hessian has a positive eigenvalue.
        values = np.array([2.0, 4.0, 5.0, 7.0])
        counts = np.array([40, 33, 1, 20])
        weights = np.append(counts, -counts.sum()).astype(np.float64)
        _, moments = powerlaw._lognormal_cells(-4.66, 2.19, powerlaw._Cells.of(values, 2.0))
        grad, hess = powerlaw._gradient_hessian(moments, weights)
        curv, axes = np.linalg.eigh(-hess)
        assert curv.min() < 0.0
        step = powerlaw._ascent_step(grad, hess)
        np.testing.assert_allclose(
            step, axes @ ((axes.T @ grad) / np.abs(curv)), rtol=1e-12)
        assert grad @ step > 0.0
        # Where -hess is positive definite the step is the Newton step.
        concave = np.array([[-3.0, 1.0], [1.0, -2.0]])
        np.testing.assert_allclose(powerlaw._ascent_step(grad, concave),
                                   np.linalg.solve(-concave, grad), rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(INTERIOR_TAILS))
    def test_matches_nelder_mead_on_interior_tails(self, name):
        tail, xmin = INTERIOR_TAILS[name]()
        best = powerlaw._lognormal_tail_loglik(tail, xmin)
        assert best.b > 0.0 and best.steps <= 25
        reference = reference_lognormal_tail_loglik(tail, xmin)
        assert best.loglik.sum() == pytest.approx(reference.sum(), abs=1e-8)

    @pytest.mark.parametrize("name", [
        "analyze-zipf-0-14", "fit-bootstrap-zipf", "fit-bootstrap-lognormal-0",
        "criterion-7-lognormal-0", "power-law-limit"])
    def test_is_the_maximum_under_mpmath(self, name):
        tail, xmin = (power_law_limit_tail if name == "power-law-limit"
                      else INTERIOR_TAILS[name])()
        best = powerlaw._lognormal_tail_loglik(tail, xmin)
        exact = mpmath_lognormal_loglik(tail, xmin, best.a, best.b)
        np.testing.assert_allclose(best.loglik, exact, rtol=1e-10)
        # No point of a small stencil in b >= 0 scores higher.
        da, db = 1e-4 * max(1.0, abs(best.a)), 1e-4 * max(1e-3, best.b)
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                a, b = best.a + i * da, best.b + j * db
                if (i or j) and b >= 0.0:
                    assert (mpmath_lognormal_loglik(tail, xmin, a, b).sum()
                            < exact.sum())

    def test_power_law_limit_is_the_supremum(self):
        tail, xmin = power_law_limit_tail()
        best = powerlaw._lognormal_tail_loglik(tail, xmin)
        assert best.b == 0.0 and best.a < 0.0
        assert best.loglik.sum() == pytest.approx(-130.48322, abs=1e-5)
        assert reference_lognormal_tail_loglik(tail, xmin).sum() == pytest.approx(
            -127.433, abs=1e-3)

    def test_each_fit_logs_its_optimum(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="asnkit.powerlaw"):
            powerlaw._lognormal_tail_loglik(*INTERIOR_TAILS["analyze-zipf-0-14"]())
            powerlaw._lognormal_tail_loglik(*power_law_limit_tail())
        lines = [r.getMessage() for r in caplog.records]
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        assert lines[0].startswith("lognormal fit: interior optimum mu ")
        assert lines[1].startswith("lognormal fit: power-law limit, exponent ")
        assert all(" Newton steps, |gradient| " in line for line in lines)

    def test_step_cap_is_logged_as_a_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(powerlaw, "_LOGNORMAL_STEPS", 2)
        with caplog.at_level(logging.WARNING, logger="asnkit.powerlaw"):
            best = powerlaw._lognormal_tail_loglik(*INTERIOR_TAILS["analyze-zipf-0-14"]())
        assert best.steps == 2
        assert [r.getMessage().split(",")[0] for r in caplog.records] == [
            "lognormal fit: step cap reached after 2 Newton steps"]


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

    def test_fit_of_other_data_is_anchored_at_this_data_tail(self):
        # 300 tail points in the fit against 100 observations here, so the
        # fit's own tail share n_tail / n would be 3.
        fit = fit_power_law(tail_with_noise())
        data = tail_with_noise(n_tail=60, n_noise=40, seeds=(5, 6))
        assert fit.n_tail > len(data)
        rows = {r["x"]: r for r in ccdf_rows(data, fit)}
        fitted = [r["fitted_ccdf"] for r in rows.values() if r["fitted_ccdf"] is not None]
        assert fitted and all(f <= 1.0 for f in fitted)
        assert rows[fit.xmin]["fitted_ccdf"] == rows[fit.xmin]["empirical_ccdf"]

    def test_works_without_a_fit(self):
        rows = ccdf_rows([1, 1, 2, 3], None)
        assert [r["fitted_ccdf"] for r in rows] == [None, None, None]

    def test_empty_data_gives_no_rows(self):
        fit = PowerLawFit(alpha=2.0, xmin=1, ks=0.1, n_tail=10)
        assert ccdf_rows([]) == ccdf_rows([], fit) == []
