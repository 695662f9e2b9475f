"""Discrete power-law fitting with KS model selection and bootstrap p-values.

The model is ``p(x) = x^-alpha / zeta(alpha, xmin)`` on integers x >= xmin.
Fitting follows the standard tail-selection recipe (Clauset, Shalizi &
Newman, SIAM Rev. 51, 2009): for every candidate xmin (each distinct data
value except the largest, keeping at least 10 tail observations) the
exponent maximizes the tail log-likelihood, and the candidate with the
smallest Kolmogorov-Smirnov distance between the empirical and fitted tail
CDFs wins.

The log-likelihood is strictly concave in alpha, so every candidate's
exponent is the unique root of its score, found by safeguarded Newton steps
with zeta and its first two alpha-derivatives from one summation.  The KS
distance is evaluated only where the supremum can sit, at each observed
value and one below the next, so a fit costs O(candidates x distinct values)
however far the tail reaches.  Goodness of fit comes from a semi-parametric
bootstrap; model comparison against exponential and lognormal alternatives
uses a normalized (Vuong-style) likelihood-ratio test.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import erfc, ndtr

__all__ = [
    "DegenerateDataError",
    "PowerLawFit",
    "LrtResult",
    "hurwitz_zeta",
    "fit_power_law",
    "bootstrap_pvalue",
    "lrt",
    "sample_discrete_powerlaw",
    "ccdf_rows",
]

logger = logging.getLogger(__name__)

#: Exponent bracket, and the Newton step size at which a candidate's
#: exponent counts as converged.
ALPHA_LO = 1.01
ALPHA_HI = 6.0
ALPHA_TOL = 1e-6

#: Minimum number of observations a candidate tail must keep.
MIN_TAIL = 10

#: Direct-summation horizon for the Hurwitz zeta; beyond it the
#: Euler-Maclaurin expansion with Bernoulli terms up to B8 is accurate to
#: ~1e-13 relative for the exponents used here.
_ZETA_HORIZON = 36.0

#: Largest inverse-CDF table before falling back to per-sample bisection.
_MAX_TABLE = 1 << 24


class DegenerateDataError(ValueError):
    """Raised when the data cannot identify a tail (all values equal)."""


def _em_tail(
    s: np.ndarray, a: np.ndarray, derivatives: bool = False
) -> list[np.ndarray]:
    """Euler-Maclaurin estimate of sum_{k>=0} (a+k)^-s for large a.

    Returns ``[value]``, or ``[value, d/ds, d2/ds2]`` with ``derivatives``.
    """
    inv = 1.0 / a
    a_pow = a ** (-s)
    head = a * a_pow / (s - 1.0)
    total = head + 0.5 * a_pow
    term = s * a_pow * inv
    bernoulli = []
    for step, denom in enumerate((12.0, -720.0, 30240.0, -1209600.0)):
        if step:
            term = term * (s + (2 * step - 1)) * (s + 2 * step) * inv * inv
        bernoulli.append(term / denom)
        total = total + bernoulli[-1]
    if not derivatives:
        return [total]

    # Every term is c(s) * a^-(s+j), so its first s-derivative is the term
    # times r = (log c)' - log a and its second the term times r^2 + (log c)''.
    # c is a / (s-1) for the head, constant for the half term, and
    # const * s (s+1) ... (s+2 step) for the Bernoulli terms.
    log_a = np.log(a)
    head_rate = -1.0 / (s - 1.0) - log_a
    first = head * head_rate - 0.5 * a_pow * log_a
    second = head * (head_rate**2 + 1.0 / (s - 1.0) ** 2) + 0.5 * a_pow * log_a**2
    recip = 1.0 / (s + np.arange(7.0).reshape((7,) + (1,) * np.ndim(s)))
    rates = np.cumsum(recip, axis=0)[::2] - log_a
    bends = -np.cumsum(recip * recip, axis=0)[::2]
    bernoulli = np.stack(bernoulli)
    first = first + (bernoulli * rates).sum(axis=0)
    second = second + (bernoulli * (rates * rates + bends)).sum(axis=0)
    return [total, first, second]


def _zeta_sums(
    s: np.ndarray, q: np.ndarray, derivatives: bool = False
) -> list[np.ndarray]:
    """Hurwitz zeta of broadcast float arrays, with its first two s-derivatives
    when ``derivatives`` is set (see :func:`_em_tail`).

    One direct sum up to a fixed horizon, every ``k^-s`` term also weighted
    by ``-log k`` and ``log^2 k`` for the derivatives, plus the
    Euler-Maclaurin tail beyond it.
    """
    horizon = max(_ZETA_HORIZON, 3.0 * float(s.max()))
    n_terms = np.maximum(0.0, np.ceil(horizon - q))
    sums = _em_tail(s, q + n_terms, derivatives)
    kmax = int(n_terms.max())
    if kmax > 0:
        k = np.arange(kmax, dtype=np.float64)
        base = q[..., None] + k
        powers = base ** (-s[..., None])
        powers *= k < n_terms[..., None]
        sums[0] = powers.sum(axis=-1) + sums[0]
        if derivatives:
            neg_logs = -np.log(base)
            for d in (1, 2):
                powers = powers * neg_logs
                sums[d] = sums[d] + powers.sum(axis=-1)
    return sums


def hurwitz_zeta(s, q):
    """Hurwitz zeta ``sum_{k>=0} (q+k)^-s``, elementwise over broadcast input.

    Direct summation up to a fixed horizon plus an Euler-Maclaurin tail;
    relative error is ~1e-13 for the exponent range used by the fitter and
    stays below 1e-10 for s up to about 16.

    Raises
    ------
    ValueError
        Unless ``s > 1`` and ``q > 0`` everywhere.
    """
    s_in = np.asarray(s, dtype=np.float64)
    q_in = np.asarray(q, dtype=np.float64)
    if np.any(s_in <= 1.0):
        raise ValueError("hurwitz_zeta requires s > 1")
    if np.any(q_in <= 0.0):
        raise ValueError("hurwitz_zeta requires q > 0")
    scalar = s_in.ndim == 0 and q_in.ndim == 0
    s_b, q_b = np.broadcast_arrays(np.atleast_1d(s_in), np.atleast_1d(q_in))
    result = _zeta_sums(s_b.astype(np.float64), q_b.astype(np.float64))[0]
    if scalar:
        return float(result[0])
    return result.reshape(np.broadcast_shapes(s_in.shape, q_in.shape))


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted discrete power-law tail.

    ``p_value`` is present only after :func:`bootstrap_pvalue`; it then
    carries the number of bootstrap replicates that entered the estimate and
    the seed that drove them.
    """

    alpha: float
    xmin: int
    ks: float
    n_tail: int
    p_value: float | None = None
    replicates: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if self.xmin < 1:
            raise ValueError(f"xmin must be >= 1, got {self.xmin}")
        if not 0.0 <= self.ks <= 1.0:
            raise ValueError(f"ks must lie in [0, 1], got {self.ks}")
        if self.n_tail < 1:
            raise ValueError(f"n_tail must be >= 1, got {self.n_tail}")
        if self.p_value is not None and not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must lie in [0, 1], got {self.p_value}")


@dataclass(frozen=True)
class LrtResult:
    """Normalized likelihood-ratio comparison against one alternative.

    ``log_likelihood_ratio`` is positive when the power law fits the tail
    better.  ``favored`` is ``indeterminate`` whenever the two-sided p-value
    exceeds 0.1, i.e. the sign of the ratio is not trustworthy.
    """

    alternative: str
    log_likelihood_ratio: float
    p_value: float
    favored: str


def _as_positive_ints(data) -> np.ndarray:
    if not hasattr(data, "__len__"):
        data = list(data)
    x = np.asarray(data)
    if x.size and not np.issubdtype(x.dtype, np.integer):
        if not np.issubdtype(x.dtype, np.number):
            raise ValueError("power-law fitting requires integer observations")
        rounded = np.rint(x)
        if not np.all(rounded == x):
            raise ValueError("power-law fitting requires integer observations")
        x = rounded
    x = x.astype(np.int64)
    if np.any(x < 1):
        raise ValueError("power-law fitting requires positive integers")
    return x


def _score(alphas, xmins, mean_logs):
    """Score of the tail log-likelihood per observation, and its slope.

    The log-likelihood ``-n log zeta(alpha, xmin) - alpha sum(log x)`` has
    derivative ``-n * g`` with ``g = zeta'/zeta + mean(log x)``.  g rises
    strictly with alpha (its slope is the variance of log k under the fitted
    law), so the likelihood is strictly concave and g has at most one root.
    """
    z, dz, d2z = _zeta_sums(alphas, xmins, derivatives=True)
    ratio = dz / z
    return ratio + mean_logs, d2z / z - ratio * ratio


def _mle_alphas(xmins, ntails, sumlogs):
    """Per-candidate MLE exponents in ``[ALPHA_LO, ALPHA_HI]``.

    A candidate whose score does not change sign over the bracket is pinned
    at the end where its likelihood peaks.  The others run safeguarded Newton
    steps on the score in lockstep, from the continuous-data MLE: a step that
    would leave the bracket of the root is replaced by bisection, and a
    candidate stops once its step is below ``ALPHA_TOL``.
    """
    m = xmins.size
    mean_logs = sumlogs / ntails
    start = 1.0 + ntails / (sumlogs - ntails * np.log(xmins - 0.5))
    alphas = np.clip(start, ALPHA_LO, ALPHA_HI)
    # One pass scores both bracket ends and the starting points.
    g, slope = _score(
        np.concatenate([np.full(m, ALPHA_LO), np.full(m, ALPHA_HI), alphas]),
        np.tile(xmins, 3),
        np.tile(mean_logs, 3),
    )
    at_lo = g[:m] >= 0.0
    at_hi = ~at_lo & (g[m : 2 * m] <= 0.0)
    alphas[at_lo] = ALPHA_LO
    alphas[at_hi] = ALPHA_HI
    lo = np.full(m, ALPHA_LO)
    hi = np.full(m, ALPHA_HI)
    active = np.flatnonzero(~(at_lo | at_hi))
    g, slope = g[2 * m :][active], slope[2 * m :][active]
    while active.size:
        current = alphas[active]
        below = g < 0.0
        lo[active] = np.where(below, current, lo[active])
        hi[active] = np.where(below, hi[active], current)
        step = current - g / slope
        inside = (step > lo[active]) & (step < hi[active])
        step = np.where(inside, step, 0.5 * (lo[active] + hi[active]))
        alphas[active] = step
        active = active[np.abs(step - current) >= ALPHA_TOL]
        if active.size:
            g, slope = _score(alphas[active], xmins[active], mean_logs[active])
    return alphas


def _zeta_at_integers(alphas, values):
    """``zeta(alphas[i], values[j])`` for integer values >= 1, shape (m, len).

    Values below the summation horizon read a reverse cumulative sum of
    ``k^-alpha`` over the integers up to it; values above use the
    Euler-Maclaurin expansion directly.
    """
    alphas = alphas[:, None]
    out = np.empty((alphas.shape[0], values.size))
    horizon = int(np.ceil(max(_ZETA_HORIZON, 3.0 * float(alphas.max()))))
    near = values < horizon
    far = ~near
    out[:, far] = _em_tail(alphas, values[far].astype(np.float64))[0]
    if np.any(near):
        first = int(values[near].min())
        k = np.arange(first, horizon, dtype=np.float64)
        suffix = np.cumsum((k ** -alphas)[:, ::-1], axis=1)[:, ::-1]
        suffix += _em_tail(alphas, np.float64(horizon))[0]
        out[:, near] = suffix[:, values[near] - first]
    return out


def _ks_distances(uniq, counts, cand, alphas, ntails):
    """KS distance between empirical and fitted tail CDFs per candidate.

    Between consecutive observed values u_j < u_{j+1} the empirical CDF is
    flat and the fitted one rises, so the supremum over the integers is
    attained at some u_j or u_{j+1} - 1.  Both sides are compared as
    survival functions there: the fitted ``P(X > x) =
    zeta(alpha, x+1) / zeta(alpha, xmin)`` against the fraction of the tail
    above u_j, which keeps the far tail free of cancellation.
    """
    m = cand.size
    above = counts[::-1].cumsum()[::-1]
    above = np.append(above[1:], 0) / ntails[:, None].astype(np.float64)
    # Each u_j + 1 directly follows u_j among the points.
    points = np.union1d(uniq, uniq + 1)
    at = np.searchsorted(points, uniq)
    z = _zeta_at_integers(alphas, points)
    survival = z / z[np.arange(m), at[cand]][:, None]
    # Distance at u_j, then at u_{j+1} - 1 (the largest value has no next).
    gap = np.abs(survival[:, at + 1] - above)
    gap[:, :-1] = np.maximum(gap[:, :-1], np.abs(survival[:, at[1:]] - above[:, :-1]))
    in_tail = np.arange(uniq.size) >= cand[:, None]
    return gap.max(axis=1, initial=0.0, where=in_tail)


def fit_power_law(data) -> PowerLawFit:
    """Fit a discrete power law, selecting xmin by minimal KS distance.

    Candidate xmins are the distinct data values except the largest, kept
    only while the tail retains at least ``MIN_TAIL`` observations.  KS ties
    resolve to the smallest xmin, making the result deterministic.

    Raises
    ------
    ValueError
        On fewer than 10 observations or non-positive/non-integer data.
    DegenerateDataError
        When all observations are equal.
    """
    x = _as_positive_ints(data)
    if x.size < 10:
        raise ValueError(f"too few observations: {x.size} < 10")
    uniq, counts = np.unique(x, return_counts=True)
    if uniq.size < 2:
        raise DegenerateDataError("degenerate data: all observations are equal")

    ntails = counts[::-1].cumsum()[::-1]
    sumlogs = (counts * np.log(uniq))[::-1].cumsum()[::-1]
    cand = np.flatnonzero(ntails[:-1] >= MIN_TAIL)
    if cand.size == 0:
        raise DegenerateDataError(
            f"no candidate xmin keeps {MIN_TAIL} tail observations"
        )

    alphas = _mle_alphas(
        uniq[cand].astype(np.float64), ntails[cand], sumlogs[cand]
    )
    distances = _ks_distances(uniq, counts, cand, alphas, ntails[cand])
    best = int(np.argmin(distances))
    return PowerLawFit(
        alpha=float(alphas[best]),
        xmin=int(uniq[cand[best]]),
        ks=float(distances[best]),
        n_tail=int(ntails[cand[best]]),
    )


def bootstrap_pvalue(
    fit: PowerLawFit, data, replicates: int = 1000, seed: int | None = None
) -> PowerLawFit:
    """Semi-parametric bootstrap goodness-of-fit p-value.

    Each replicate draws n points: with probability ``n_tail / n`` from the
    fitted power law, otherwise uniformly from the observed values below
    xmin.  The full fitting procedure (xmin re-selection included) runs on
    every replicate; the p-value is the fraction of replicate KS distances
    at least as large as the observed one.  Identical seed and inputs give a
    bit-identical p-value regardless of scheduling, because every replicate
    derives its generator from ``SeedSequence(seed).spawn``.

    Raises
    ------
    ValueError
        If ``replicates < 100`` or no seed is provided.
    RuntimeError
        If more than 10% of replicates are degenerate.
    """
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    if seed is None:
        raise ValueError("bootstrap_pvalue requires an explicit seed")
    x = _as_positive_ints(data)
    n = x.size
    below = x[x < fit.xmin]
    p_tail = fit.n_tail / n

    exceed = 0
    kept = 0
    discarded = 0
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.Generator(np.random.PCG64(child))
        k = int(rng.binomial(n, p_tail))
        parts = []
        if n - k > 0:
            parts.append(rng.choice(below, size=n - k, replace=True))
        if k > 0:
            parts.append(sample_discrete_powerlaw(fit.alpha, fit.xmin, k, rng))
        synthetic = parts[0] if len(parts) == 1 else np.concatenate(parts)
        try:
            replicate = fit_power_law(synthetic)
        except DegenerateDataError as exc:
            discarded += 1
            logger.warning("discarding degenerate bootstrap replicate: %s", exc)
            continue
        kept += 1
        if replicate.ks >= fit.ks:
            exceed += 1
    if discarded > 0.1 * replicates:
        raise RuntimeError(
            f"{discarded} of {replicates} bootstrap replicates were degenerate"
        )
    return replace(
        fit, p_value=exceed / kept, replicates=kept, seed=seed
    )


def _lognormal_tail_loglik(tail: np.ndarray, xmin: float) -> np.ndarray:
    """Per-point log-likelihood of the best discrete lognormal tail.

    The continuous lognormal is discretized by integrating its density over
    ``[x - 0.5, x + 0.5]`` and renormalizing by the mass above
    ``xmin - 0.5``; both parameters are then fitted numerically.  Masses of
    cells above the median, and the renormalizing mass, are differences of
    the survival function: there ``ndtr`` rounds to 1 and its differences
    would cancel to 0.  Each distinct value's mass is computed once.
    """
    logs = np.log(tail)
    values, inverse, counts = np.unique(tail, return_inverse=True, return_counts=True)
    upper_edges = np.log(values + 0.5)
    lower_edges = np.log(values - 0.5)
    trunc_edge = np.log(xmin - 0.5) if xmin > 0.5 else -np.inf

    def per_value(params):
        mu, log_sigma = params
        sigma = np.exp(log_sigma)
        upper = (upper_edges - mu) / sigma
        lower = (lower_edges - mu) / sigma
        mass = np.where(
            lower > 0.0, ndtr(-lower) - ndtr(-upper), ndtr(upper) - ndtr(lower)
        )
        surv = ndtr((mu - trunc_edge) / sigma)
        if surv <= 0.0 or np.any(mass <= 0.0):
            return None
        return np.log(mass) - np.log(surv)

    def objective(params):
        pv = per_value(params)
        if pv is None:
            return 1e12
        return -(counts * pv).sum()

    start = np.array([logs.mean(), np.log(logs.std() + 1e-3)])
    result = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000, "maxfev": 5000},
    )
    best = per_value(result.x)
    if best is None:
        best = per_value(start)
    if best is None:
        raise ValueError(
            "lognormal fit is infeasible: the discretised lognormal gives "
            "zero mass to some tail value"
        )
    return best[inverse]


def lrt(data, fit: PowerLawFit, alternative: str = "exponential") -> LrtResult:
    """Vuong-normalized log-likelihood ratio of power law vs an alternative.

    Supported alternatives: ``exponential`` (discrete, closed-form MLE) and
    ``lognormal`` (discretized, two-parameter numeric MLE).  Both are fitted
    to the same tail ``x >= xmin`` as the power law.

    Raises
    ------
    ValueError
        On an unknown alternative, a tail smaller than 10 observations, or
        a lognormal that gives some tail value zero discretised mass.
    """
    if alternative not in ("exponential", "lognormal"):
        raise ValueError(f"unknown alternative {alternative!r}")
    x = _as_positive_ints(data)
    tail = x[x >= fit.xmin].astype(np.float64)
    if tail.size < 10:
        raise ValueError(f"tail too small for comparison: {tail.size} < 10")
    xmin = float(fit.xmin)

    loglik_pl = -fit.alpha * np.log(tail) - np.log(hurwitz_zeta(fit.alpha, xmin))
    if alternative == "exponential":
        shifted = tail - xmin
        mean_shift = shifted.mean()
        if mean_shift == 0.0:
            raise ValueError("tail is constant; comparison is undefined")
        lam = np.log1p(1.0 / mean_shift)
        loglik_alt = np.log(-np.expm1(-lam)) - lam * shifted
    else:
        loglik_alt = _lognormal_tail_loglik(tail, xmin)

    diff = loglik_pl - loglik_alt
    ratio = float(diff.sum())
    spread = float(diff.std())
    if spread == 0.0:
        return LrtResult(alternative, ratio, 1.0, "indeterminate")
    zscore = ratio / (spread * np.sqrt(tail.size))
    p_value = float(erfc(abs(zscore) / np.sqrt(2.0)))
    if p_value > 0.1:
        favored = "indeterminate"
    elif ratio > 0:
        favored = "powerlaw"
    else:
        favored = alternative
    return LrtResult(alternative, ratio, p_value, favored)


def _invert_tail_sample(alpha: float, xmin: int, z: float, u: float) -> int:
    """Exact inverse CDF for a single uniform beyond the table horizon."""
    target = (1.0 - u) * z
    lo = xmin + _MAX_TABLE - 1
    hi = lo * 2
    while hurwitz_zeta(alpha, float(hi + 1)) > target:
        lo = hi
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if hurwitz_zeta(alpha, float(mid + 1)) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def sample_discrete_powerlaw(alpha: float, xmin: int, size: int, seed) -> np.ndarray:
    """Draw from the discrete power law by exact inverse-CDF lookup.

    ``seed`` may be an integer or a ``numpy.random.Generator``; equal seeds
    give identical output.  The CDF table over consecutive integers grows
    adaptively to cover every uniform draw; the (astronomically rare) draws
    beyond the table cap are inverted by bisection on the zeta function.

    Raises
    ------
    ValueError
        Unless ``alpha > 1``, ``xmin >= 1`` and ``size >= 1``.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    xmin = int(xmin)
    if xmin < 1:
        raise ValueError(f"xmin must be >= 1, got {xmin}")
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    u = rng.random(size)
    z = hurwitz_zeta(alpha, float(xmin))

    length = 1024
    while True:
        grid = np.arange(xmin, xmin + length, dtype=np.float64)
        cdf = np.cumsum(grid ** (-alpha) / z)
        if cdf[-1] >= u.max() or length >= _MAX_TABLE:
            break
        length *= 2
    draws = xmin + np.searchsorted(cdf, u, side="right")
    overflow = np.flatnonzero(draws >= xmin + length)
    for pos in overflow:  # pragma: no cover - ~1e-10 probability per draw
        draws[pos] = _invert_tail_sample(alpha, xmin, z, float(u[pos]))
    return draws.astype(np.int64)


def ccdf_rows(data, fit: PowerLawFit | None = None) -> list[dict]:
    """Empirical CCDF P(X >= x) at each distinct value, with model overlay.

    When a fit is given, rows at ``x >= xmin`` also carry the fitted tail
    CCDF scaled by the tail fraction ``n_tail / n`` so both curves are
    directly comparable on one plot.
    """
    x = _as_positive_ints(data)
    if x.size == 0:
        return []
    uniq, counts = np.unique(x, return_counts=True)
    cum_ge = counts[::-1].cumsum()[::-1]
    fitted: dict[int, float] = {}
    if fit is not None:
        sel = uniq >= fit.xmin
        if np.any(sel):
            z = hurwitz_zeta(fit.alpha, float(fit.xmin))
            scale = fit.n_tail / x.size
            values = hurwitz_zeta(fit.alpha, uniq[sel].astype(np.float64))
            for v, ccdf in zip(uniq[sel], np.atleast_1d(values) / z * scale):
                fitted[int(v)] = float(ccdf)
    return [
        {
            "x": int(v),
            "empirical_ccdf": float(c / x.size),
            "fitted_ccdf": fitted.get(int(v)),
        }
        for v, c in zip(uniq, cum_ge)
    ]
