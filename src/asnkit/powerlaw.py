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
with zeta and its first two alpha-derivatives from one summation; the sign
of the score at the start names the one bracket end that can pin it.  The
KS distance is evaluated only where the supremum can sit, at each observed
value and one below the next, from one zeta evaluation per observed value,
so a fit costs O(candidates x distinct values) however far the tail
reaches.  Goodness of fit comes from a semi-parametric bootstrap; model
comparison against exponential and lognormal alternatives uses a normalized
(Vuong-style) likelihood-ratio test.

The lognormal alternative is discretized over the cells [x - 1/2, x + 1/2]
and truncated below xmin - 1/2, and fitted in natural parameters a =
mu / sigma^2, b = 1 / (2 sigma^2) >= 0 by a few Newton steps with the
analytic gradient and Hessian, every mass in log space.  It is the maximum
over the closed family: b = 0 is the cell-integrated continuous power law
with exponent 1 - a, the limit of lognormals with mu -> -inf, and on some
tails the supremum lies there.

The layer's one domain is the fit bracket ``[ALPHA_LO, ALPHA_HI]`` = [1.01,
6]: every exponent it fits, samples from or compares lies in it, and
:class:`PowerLawFit` refuses any other.  One kernel fits many samples in
lockstep: their candidates share one Newton solve and one KS evaluation.
Every zeta value below the summation horizon is summed over a row of one
fixed width, and one at or past it is its tail expansion alone, so it
depends only on its own arguments, and a sample's fit does not depend on
the samples beside it.  ``fit_power_law`` is the one-sample case.

The bootstrap fits its replicates in batches of one size, fixed from the
observed sample before any is drawn (see :func:`_replicate_batches`).  A
batch takes one draw from a shared inverse-CDF table, read through a guide
table (see :class:`_Sampler`), and one sort; its results do not depend on
the batch size.  A replicate counts only by whether its KS distance is
``>=`` the observed one, so its KS scan stops once that is decided (see
:func:`_ks_distances`), and the p-value is the full scan's bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from math import comb, factorial
from typing import NamedTuple

import numpy as np
from scipy.special import erf, erfc, erfcx

__all__ = [
    "DegenerateDataError",
    "PowerLawFit",
    "LrtResult",
    "fit_power_law",
    "bootstrap_pvalue",
    "lrt",
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
#: ~1e-13 relative for every exponent in ``[ALPHA_LO, ALPHA_HI]``.
_ZETA_HORIZON = 36.0

#: The offsets k of the direct sum's terms ``(q+k)^-s`` (see :func:`_zeta_sums`).
_TERMS = np.arange(np.ceil(_ZETA_HORIZON))

#: Shifts j of the factors ``s + j`` of the Euler-Maclaurin terms (see
#: :func:`_em_tail`).
_EM_SHIFTS = np.arange(7.0)

#: Largest inverse-CDF table of the sampler (8 MB); draws beyond it are
#: inverted by bisection on the zeta function.
_MAX_TABLE = 1 << 20

#: Buckets of the sampler's guide table over [0, 1): a power of two, so a
#: uniform's bucket is exact (see :class:`_Sampler`).
_GUIDE = 1 << 14

#: Work budget of one lockstep batch of bootstrap fits, in Newton direct-sum
#: terms (see :func:`_replicate_batches`).
_BATCH_TERMS = 32_768

#: Cells per candidate in the first round of the bootstrap's KS scan (see
#: :func:`_ks_distances`).
_KS_FIRST_CELLS = 16

#: Coefficients ``(-1)^n (2n + j)! / n!`` (row n = 0..11, column j = 0..4) of
#: the asymptotic series in eps of ``int_0^inf u^j exp(-u - eps u^2) du``;
#: for eps below ``_SERIES_EPS`` its truncation error is under 1e-15 relative.
_SERIES = np.array(
    [[(-1) ** n * factorial(2 * n + j) / factorial(n) for j in range(5)]
     for n in range(12)]
)
_SERIES_EPS = 1e-3
_SERIES_POWERS = np.arange(12.0)[:, None]
_ORDERS = np.arange(5.0)[:, None]
#: ``comb(j, i)``, and the power ``j - i`` of the shift it multiplies (5, a
#: row of zeros, where i > j), for :func:`_shift_operator`.
_BINOMIAL = np.array([[comb(j, i) for i in range(5)] for j in range(5)], dtype=np.float64)
_LAGS = np.array([[j - i if i <= j else 5 for i in range(5)] for j in range(5)])

#: Newton steps a lognormal fit may take before it stops with a warning;
#: fits of the benchmark and test tails take at most 6.
_LOGNORMAL_STEPS = 50


class DegenerateDataError(ValueError):
    """Raised when the data cannot identify a tail (all values equal)."""


def _em_tail(
    s: np.ndarray, a: np.ndarray, derivatives: bool = False
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Euler-Maclaurin estimate of sum_{k>=0} (a+k)^-s for large a.

    Returns ``a^-s``, the first term of the sum, and ``[value]``, or
    ``[value, d/ds, d2/ds2]`` with ``derivatives``.
    """
    inv = 1.0 / a
    a_pow = a ** (-s)
    less = s - 1.0
    half = 0.5 * a_pow
    head = a * a_pow / less
    total = head + half
    term = s * a_pow * inv
    if derivatives:
        bernoulli = np.empty((4,) + np.shape(total))
    for step, denom in enumerate((12.0, -720.0, 30240.0, -1209600.0)):
        if step:
            term *= s + (2 * step - 1)
            term *= s + 2 * step
            term *= inv
            term *= inv
        part = term / denom
        total += part
        if derivatives:
            bernoulli[step] = part
    if not derivatives:
        return a_pow, [total]

    # Every term is c(s) * a^-(s+j), so its first s-derivative is the term
    # times r = (log c)' - log a and its second the term times r^2 + (log c)''.
    # c is a / (s-1) for the head, constant for the half term, and
    # const * s (s+1) ... (s+2 step) for the Bernoulli terms.
    log_a = np.log(a)
    head_rate = -1.0 / less - log_a
    first = head * head_rate - half * log_a
    second = head * (head_rate**2 + 1.0 / less**2) + half * log_a**2
    recip = s + _EM_SHIFTS.reshape((7,) + (1,) * np.ndim(s))
    np.divide(1.0, recip, out=recip)
    rates = np.cumsum(recip, axis=0)[::2]
    rates -= log_a
    bends = np.cumsum(np.square(recip, out=recip), axis=0)[::2]
    first += (bernoulli * rates).sum(axis=0)
    rates *= rates
    rates -= bends
    bernoulli *= rates
    second += bernoulli.sum(axis=0)
    return a_pow, [total, first, second]


def _zeta_sums(
    s: np.ndarray, q: np.ndarray, derivatives: bool = False
) -> list[np.ndarray]:
    """Hurwitz zeta ``sum_{k>=0} (q+k)^-s`` of equal-shape float arrays, s in
    ``[ALPHA_LO, ALPHA_HI]`` and q > 0, with its first two s-derivatives
    when ``derivatives`` is set (see :func:`_em_tail`).

    One direct sum of the terms ``(q+k)^-s`` below ``_ZETA_HORIZON``, each
    also weighted by ``-log(q+k)`` and ``log^2(q+k)`` for the derivatives,
    plus the Euler-Maclaurin tail beyond it.  Every direct sum is a row
    ``ceil(_ZETA_HORIZON)`` terms wide, the terms at or past the horizon
    masked to zero, so its rounding depends on its own (s, q) alone.  Only
    values with q below the horizon get a row: one at or past it has no
    terms and is its tail alone, as the row of zeros would leave it.
    """
    n_terms = np.maximum(0.0, np.ceil(_ZETA_HORIZON - q))
    _, sums = _em_tail(s, q + n_terms, derivatives)
    near = n_terms > 0.0
    n_terms = n_terms[near][:, None]
    base = q[near][:, None] + _TERMS
    powers = base ** -s[near][:, None]
    powers *= _TERMS < n_terms
    sums[0][near] += powers.sum(axis=-1)
    if derivatives:
        neg_logs = np.negative(np.log(base, out=base), out=base)
        for d in (1, 2):
            powers *= neg_logs
            sums[d][near] += powers.sum(axis=-1)
    return sums


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted discrete power-law tail.

    ``alpha`` lies in the fit bracket ``[ALPHA_LO, ALPHA_HI]``, the one
    domain of every zeta the layer evaluates.  ``p_value`` is present only
    after :func:`bootstrap_pvalue`; it then carries the number of bootstrap
    replicates that entered the estimate and the seed that drove them.
    """

    alpha: float
    xmin: int
    ks: float
    n_tail: int
    p_value: float | None = None
    replicates: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not ALPHA_LO <= self.alpha <= ALPHA_HI:
            raise ValueError(
                f"alpha must lie in [{ALPHA_LO}, {ALPHA_HI}], got {self.alpha}"
            )
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


def _score(sums, mean_logs):
    """Score of the tail log-likelihood per observation, and its slope, from
    the zeta sums ``(z, dz, d2z)`` of :func:`_zeta_sums` at the candidates.

    The log-likelihood ``-n log zeta(alpha, xmin) - alpha sum(log x)`` has
    derivative ``-n * g`` with ``g = zeta'/zeta + mean(log x)``.  g rises
    strictly with alpha (its slope is the variance of log k under the fitted
    law), so the likelihood is strictly concave and g has at most one root.
    """
    z, dz, d2z = sums
    ratio = dz / z
    return ratio + mean_logs, d2z / z - ratio * ratio


def _mle_alphas(xmins, ntails, sumlogs):
    """Per-candidate MLE exponents in ``[ALPHA_LO, ALPHA_HI]``.

    Every zeta sum depends only on its own candidate, so a candidate's
    exponent does not depend on the others solved with it.

    A candidate whose score does not change sign over the bracket is pinned
    at the end where its likelihood peaks.  The score rises with alpha, so
    the sign at the starting point, the continuous-data MLE, names the one
    end that can pin it.  The starting points and both bracket ends of
    every distinct xmin are scored in one :func:`_zeta_sums` call.  The
    others run safeguarded Newton steps on the score in lockstep from the
    start: a step that would leave the bracket of the root is replaced by
    bisection, and a candidate stops once its step is below ``ALPHA_TOL``.
    """
    m = xmins.size
    mean_logs = sumlogs / ntails
    start = 1.0 + ntails / (sumlogs - ntails * np.log(xmins - 0.5))
    alphas = np.clip(start, ALPHA_LO, ALPHA_HI)
    # zeta'/zeta at a bracket end depends on (end, xmin) alone: both ends are
    # scored once per distinct xmin, in the starting points' call.
    distinct, pair = np.unique(xmins, return_inverse=True)
    ends = np.repeat([ALPHA_LO, ALPHA_HI], distinct.size)
    sums = _zeta_sums(
        np.concatenate([alphas, ends]), np.concatenate([xmins, distinct, distinct]),
        derivatives=True,
    )
    g, slope = _score([d[:m] for d in sums], mean_logs)
    low_end, high_end = (sums[1][m:] / sums[0][m:]).reshape(2, -1)
    rising = g >= 0.0
    g_end = np.where(rising, low_end[pair], high_end[pair]) + mean_logs
    pinned = np.where(rising, g_end >= 0.0, g_end <= 0.0)
    alphas[pinned] = np.where(rising[pinned], ALPHA_LO, ALPHA_HI)
    active = np.flatnonzero(~pinned)
    g, slope = g[active], slope[active]
    lo = np.full(active.size, ALPHA_LO)
    hi = np.full(active.size, ALPHA_HI)
    while active.size:
        current = alphas[active]
        below = g < 0.0
        lo = np.where(below, current, lo)
        hi = np.where(below, hi, current)
        step = current - g / slope
        inside = (step > lo) & (step < hi)
        step = np.where(inside, step, 0.5 * (lo + hi))
        alphas[active] = step
        moving = np.abs(step - current) >= ALPHA_TOL
        active, lo, hi = active[moving], lo[moving], hi[moving]
        if active.size:
            g, slope = _score(
                _zeta_sums(alphas[active], xmins[active], derivatives=True),
                mean_logs[active],
            )
    return alphas


def _near_table(alphas):
    """``zeta(alpha, v)`` for v = 1 .. horizon, row i for ``alphas[i]``: a
    reverse cumulative sum of ``k^-alpha`` over the integers below the
    summation horizon, which ends in the Euler-Maclaurin value at it.  The
    sum runs along each row alone, so a row does not depend on the others.
    """
    horizon = int(np.ceil(_ZETA_HORIZON))
    k = np.arange(1, horizon, dtype=np.float64)
    column = alphas[:, None]
    _, (beyond,) = _em_tail(column, np.float64(horizon))
    suffix = np.cumsum((k**-column)[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([suffix + beyond, beyond], axis=1)


def _zeta_at_integers(alphas, which, values, table):
    """``zeta(alpha, v)`` and ``zeta(alpha, v + 1)`` with ``alpha =
    alphas[which[i]]`` and ``v = values[i]``, for integer values >= 1.

    Values below the summation horizon read both from ``table``, the
    :func:`_near_table` of ``alphas``.  Values above use the expansion at v
    and subtract its first term ``v^-alpha`` for v + 1, so either way each
    value costs one evaluation.  Every value is computed the same way
    whatever else is in the batch, because the reverse sum runs from the
    horizon down.
    """
    at = np.empty(values.size)
    after = np.empty(values.size)
    near = values < int(np.ceil(_ZETA_HORIZON))
    far = ~near
    first, (total,) = _em_tail(alphas[which[far]], values[far].astype(np.float64))
    at[far] = total
    after[far] = total - first
    rows, cols = which[near], values[near]
    at[near] = table[rows, cols - 1]
    after[near] = table[rows, cols]
    return at, after


def _ks_distances(uniq, ntails, cand, ends, alphas, threshold=None, cells=None):
    """KS distance between empirical and fitted tail CDFs per candidate.

    ``uniq`` and ``ntails`` are flat tables of distinct values and their
    tail counts, in which the slot after every sample's largest value holds
    0.  Candidate i has xmin ``uniq[cand[i]]``, and its tail runs to slot
    ``ends[i] - 1``; the candidates of one sample share their ``ends``.

    Between consecutive observed values u_j < u_{j+1} the empirical CDF is
    flat and the fitted one rises, so the supremum over the integers is
    attained at some u_j or u_{j+1} - 1.  Both sides are compared as
    survival functions there: the fitted ``P(X > x) =
    zeta(alpha, x+1) / zeta(alpha, xmin)`` against the fraction of the tail
    above u_j, which keeps the far tail free of cancellation.  Each
    candidate's cells (its tail values) are laid end to end, and its
    distance is their maximum.  Cell j needs zeta at u_j + 1 and at u_{j+1},
    which is the next cell's zeta at u_j, so one zeta evaluation per cell
    serves both; the candidate's normalization is its first cell's.  Values
    below the summation horizon are read from a :func:`_near_table`; a
    candidate's values are at least its xmin, so only the rows of
    candidates whose xmin lies below the horizon are built.

    With no ``threshold`` every cell is scanned in one round.  With one,
    the scan decides only whether each sample's least distance is ``>=
    threshold``, in at most two rounds: the first ``_KS_FIRST_CELLS`` cells
    of every candidate, then the rest of each candidate still live.  A
    candidate is settled once one of its gaps is ``>= threshold``.  A
    sample is decided below once one of its candidates has every cell
    scanned and every gap below the threshold; its other candidates are
    then dropped.  A gap is computed from the same floats in any round, so
    every decision is the full pass's ``>=``, ties included, and a
    bootstrap p-value is the full pass's bit for bit.  Each
    candidate's value is the largest gap scanned: its distance when it was
    scanned in full, a lower bound otherwise, and a sample's least value
    lies on the same side of the threshold as its least distance.
    ``cells``, when given, gains the cells scanned and the cells of a full
    pass.
    """
    lengths = ends - cand
    near = uniq[cand] < int(np.ceil(_ZETA_HORIZON))
    table = np.empty((cand.size, _TERMS.size))
    table[near] = _near_table(alphas[near])
    norm = np.empty(cand.size)
    tail_size = ntails[cand].astype(np.float64)
    best = np.zeros(cand.size)
    done = np.zeros(cand.size, dtype=np.int64)
    below = np.zeros(uniq.size, dtype=bool)  # samples decided below, at their ends
    if threshold is None:
        threshold, width = np.inf, int(lengths.max(initial=0))
    else:
        width = _KS_FIRST_CELLS
    live = np.arange(cand.size)
    scanned = 0
    while live.size:
        start, length = done[live], lengths[live]
        stop = np.minimum(width, length)
        # One value past a chunk gives its last cell's zeta at u_{j+1}.
        count = np.minimum(stop + 1, length) - start
        first = np.cumsum(count) - count
        owner = np.repeat(live, count)
        slot = np.repeat(cand[live] + start - first, count) + np.arange(owner.size)
        at, after = _zeta_at_integers(alphas, owner, uniq[slot], table)
        fresh = start == 0  # every candidate in the first round, none later
        norm[live[fresh]] = at[first[fresh]]
        above = ntails[slot + 1] / tail_size[owner]
        fitted = norm[owner]
        # Distance at u_j, then at u_{j+1} - 1 for all but a chunk's last value.
        gap = np.abs(after / fitted - above)
        inner = np.ones(owner.size, dtype=bool)
        inner[first + count - 1] = False
        inner = np.flatnonzero(inner)
        gap[inner] = np.maximum(
            gap[inner], np.abs(at[inner + 1] / fitted[inner] - above[inner])
        )
        best[live] = np.maximum(best[live], np.maximum.reduceat(gap, first))
        done[live] = stop
        scanned += int((stop - start).sum())
        settled = best[live] >= threshold
        below[ends[live[~settled & (stop == length)]]] = True
        live = live[~settled & ~below[ends[live]]]
        width = int(length.max())  # the rest of every candidate still live
    if cells is not None:
        cells[0] += scanned
        cells[1] += int(lengths.sum())
    return best


class _RowFits(NamedTuple):
    """Best fit per sample row; ``n_tail`` is 0 where all values are equal."""

    alpha: np.ndarray
    xmin: np.ndarray
    ks: np.ndarray
    n_tail: np.ndarray


def _fit_rows(rows: np.ndarray, threshold=None, cells=None) -> _RowFits:
    """Fit every row of ``rows``, a (B, n) array of sorted samples, in lockstep.

    Row r's distinct values fill row r of zero-padded (B, width) tables, so
    the reverse cumulative sums over a row start with exact zeros and give
    the values a fit of that row alone would.  The candidates of all rows
    then go through one Newton solve and one KS evaluation, and each row
    keeps its candidate of smallest KS distance (ties to the smallest xmin).

    With a ``threshold`` the KS scan stops once each row's comparison with
    it is decided (see :func:`_ks_distances`, which also fills ``cells``):
    ``ks`` is then ``>= threshold`` exactly where the row's KS distance is,
    but only a lower bound on it, and the other fields belong to the
    candidate of least bound.
    """
    b, n = rows.shape
    new = np.empty(rows.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=new[:, 1:])
    starts = np.flatnonzero(new)
    row = starts // n
    distinct = np.bincount(row, minlength=b)
    width = int(distinct.max()) + 1
    slot = row * width + np.arange(starts.size)
    slot -= np.repeat(np.cumsum(distinct) - distinct, distinct)
    counts = np.diff(starts, append=b * n)

    uniq = np.zeros(b * width, dtype=np.int64)
    uniq[slot] = rows.ravel()[starts]
    tally = np.zeros((b, width), dtype=np.int64)
    tally.ravel()[slot] = counts
    logs = np.zeros((b, width))
    logs.ravel()[slot] = counts * np.log(uniq[slot])
    ntails = tally[:, ::-1].cumsum(axis=1)[:, ::-1].ravel()
    sumlogs = logs[:, ::-1].cumsum(axis=1)[:, ::-1].ravel()

    # A candidate keeps MIN_TAIL observations and is not its row's largest,
    # so with n >= MIN_TAIL only a row of equal values has none.
    cand = np.flatnonzero((ntails[:-1] >= MIN_TAIL) & (ntails[1:] > 0))
    fits = _RowFits(
        np.full(b, np.nan), np.zeros(b, np.int64), np.full(b, np.nan),
        np.zeros(b, np.int64),
    )
    if cand.size == 0:
        return fits
    owner = cand // width
    alphas = _mle_alphas(uniq[cand].astype(np.float64), ntails[cand], sumlogs[cand])
    distances = _ks_distances(
        uniq, ntails, cand, owner * width + distinct[owner], alphas, threshold, cells
    )

    # Each row keeps its first candidate of least distance.
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))
    least = np.minimum.reduceat(distances, firsts)
    least = np.repeat(least, np.diff(firsts, append=cand.size))
    ties = np.flatnonzero(distances == least)
    best = ties[np.diff(owner[ties], prepend=-1) != 0]
    fitted = owner[best]
    fits.alpha[fitted] = alphas[best]
    fits.xmin[fitted] = uniq[cand[best]]
    fits.ks[fitted] = distances[best]
    fits.n_tail[fitted] = ntails[cand[best]]
    return fits


def fit_power_law(data) -> PowerLawFit:
    """Fit a discrete power law, selecting xmin by minimal KS distance.

    Candidate xmins are the distinct data values except the largest, kept
    only while the tail retains at least ``MIN_TAIL`` observations.  KS ties
    resolve to the smallest xmin, making the result deterministic.

    Raises
    ------
    ValueError
        On fewer than ``MIN_TAIL`` observations or non-positive/non-integer data.
    DegenerateDataError
        When all observations are equal.
    """
    x = _as_positive_ints(data)
    if x.size < MIN_TAIL:
        raise ValueError(f"too few observations: {x.size} < {MIN_TAIL}")
    fits = _fit_rows(np.sort(x)[None, :])
    if fits.n_tail[0] == 0:
        raise DegenerateDataError("degenerate data: all observations are equal")
    return PowerLawFit(
        alpha=float(fits.alpha[0]),
        xmin=int(fits.xmin[0]),
        ks=float(fits.ks[0]),
        n_tail=int(fits.n_tail[0]),
    )


def _replicate_batches(fit: PowerLawFit, x: np.ndarray, replicates: int, seed: int):
    """The bootstrap's synthetic samples, sorted, as (B, n) arrays.

    Replicate i draws from its own ``SeedSequence(seed).spawn`` child, in
    order, its tail size k, its n - k points resampled from below xmin and
    its k tail uniforms.  Every batch but the last holds B replicates, B
    fixed once from the observed sample's U distinct values: each replicate
    is charged a Newton step's direct sums, ``_TERMS.size`` terms for each
    of U candidates (one whose xmin lies at or past the horizon sums none),
    and B replicates fit in ``_BATCH_TERMS`` (B >= 1).  A batch whose
    replicates all scan every KS cell scans B U (U + 1) / 2 cells, about
    455 U, and one replicate's for U >= 910, where B is 1.  A batch's
    uniforms go through one draw of the shared sampler into each row's last
    k cells, and the batch is sorted once.
    """
    n = x.size
    below = x[x < fit.xmin]
    p_tail = fit.n_tail / n
    sampler = _Sampler(fit.alpha, fit.xmin)
    size = max(1, _BATCH_TERMS // (np.unique(x).size * _TERMS.size))
    children = np.random.SeedSequence(seed).spawn(replicates)
    for first in range(0, replicates, size):
        batch = children[first : first + size]
        rows = np.empty((len(batch), n), dtype=np.int64)
        uniforms = []
        for row, child in zip(rows, batch):
            rng = np.random.Generator(np.random.PCG64(child))
            k = int(rng.binomial(n, p_tail))
            # What rng.choice(below, n - k) draws, without its call overhead.
            row[: n - k] = below[rng.integers(0, below.size, size=n - k)]
            uniforms.append(rng.random(k))
        tails = np.array([u.size for u in uniforms])
        rows[np.arange(n) >= n - tails[:, None]] = sampler.draw(np.concatenate(uniforms))
        rows.sort(axis=1)
        yield rows


def bootstrap_pvalue(
    fit: PowerLawFit, data, replicates: int = 1000, seed: int | None = None
) -> PowerLawFit:
    """Semi-parametric bootstrap goodness-of-fit p-value.

    Each replicate draws n points: with probability ``n_tail / n`` from the
    fitted power law, otherwise uniformly from the observed values below
    xmin.  The full fitting procedure (xmin re-selection included) runs on
    every replicate; the p-value is the fraction of replicate KS distances
    at least as large as the observed one.  A replicate whose values are all
    equal is degenerate and discarded.

    Replicates are drawn in batches (see :func:`_replicate_batches`), and
    each batch is fitted in lockstep, through the kernel
    :func:`fit_power_law` runs on one sample.  Every replicate derives its
    generator from ``SeedSequence(seed).spawn``, and a replicate's fit does
    not depend on the others in its batch, so identical seed and inputs give
    a bit-identical p-value whatever the batch size.  The KS scan stops once
    each replicate's comparison with ``fit.ks`` is decided (see
    :func:`_ks_distances`).

    Raises
    ------
    ValueError
        If ``replicates < 100``, no seed is provided, the data hold fewer
        than ``MIN_TAIL`` observations, or ``fit`` is not a fit of ``data``
        (its ``n_tail`` is not the number of observations >= its xmin).
    RuntimeError
        If more than 10% of replicates are degenerate.
    """
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    if seed is None:
        raise ValueError("bootstrap_pvalue requires an explicit seed")
    x = _as_positive_ints(data)
    if x.size < MIN_TAIL:
        raise ValueError(f"too few observations: {x.size} < {MIN_TAIL}")
    tail = int(np.count_nonzero(x >= fit.xmin))
    if tail != fit.n_tail:
        raise ValueError(
            f"fit is not of this data: n_tail {fit.n_tail} at xmin {fit.xmin}, "
            f"but the data hold {tail} observations >= {fit.xmin}"
        )

    exceed = kept = batches = size = 0
    cells = [0, 0]  # KS cells scanned, and those of a full scan
    for rows in _replicate_batches(fit, x, replicates, seed):
        fits = _fit_rows(rows, fit.ks, cells)
        fitted = fits.n_tail > 0
        kept += int(np.count_nonzero(fitted))
        exceed += int(np.count_nonzero(fits.ks[fitted] >= fit.ks))
        batches += 1
        size = max(size, rows.shape[0])  # the first batch is the largest
    discarded = replicates - kept
    if discarded:
        logger.warning(
            "discarded %d of %d degenerate replicates", discarded, replicates
        )
    logger.debug(
        "bootstrap: %d replicates kept, %d discarded, %d batches of %d, "
        "%d of %d KS cells evaluated", kept, discarded, batches, size, *cells,
    )
    if discarded > 0.1 * replicates:
        raise RuntimeError(
            f"{discarded} of {replicates} bootstrap replicates were degenerate"
        )
    return replace(
        fit, p_value=exceed / kept, replicates=kept, seed=seed
    )


def _normal_excess(z, first, edge=None, width=None) -> np.ndarray:
    """Raw moments, rows j = 0..4, of Y = X - z for a standard normal X
    conditioned on z < X < z + width, given ``first = E[Y]`` and ``edge =
    phi(z + width) / P(z < X < z + width)`` (None for an infinite width).

    Integrating ``y^j (z + y) phi(z + y)`` by parts gives
    ``E[Y^(j+1)] = j E[Y^(j-1)] - z E[Y^j] - width^j edge``.
    """
    rows = np.empty((5,) + np.shape(first))
    rows[0] = 1.0
    rows[1] = first
    for j in (1, 2, 3):
        rows[j + 1] = j * rows[j - 1] - z * rows[j]
        if edge is not None:
            rows[j + 1] -= width**j * edge
    return rows


def _series_tail(k: np.ndarray, b: float):
    """:func:`_half_line` where ``eps = b / k^2`` is small and k < 0: with
    s = u / |k|, the integrals of ``u^j exp(-u - eps u^2)`` are series in
    eps, exact at b = 0."""
    rate = -k
    sums = _SERIES.T @ (b / (rate * rate)) ** _SERIES_POWERS
    return np.log(sums[0] / rate), sums / (sums[0] * rate**_ORDERS)


def _normal_tail(k: np.ndarray, b: float):
    """:func:`_half_line` for b > 0: with sigma = 1 / sqrt(2b) and z =
    -k sigma, the distance of s = 0 above the mode in standard deviations,
    the mass is ``sigma sqrt(pi/2) erfcx(z / sqrt 2)`` and s / sigma is the
    normal excess over z."""
    sigma = 1.0 / np.sqrt(2.0 * b)
    z = -sigma * k
    x = z / np.sqrt(2.0)
    log_erfcx = np.log(erfcx(x))
    deep = x < -26.0  # erfcx overflows; erfc(x) is 2 there
    if deep.any():
        log_erfcx[deep] = x[deep] ** 2 + np.log(erfc(x[deep]))
    first = np.sqrt(2.0 / np.pi) * np.exp(-log_erfcx) - z
    log_mass = np.log(sigma * np.sqrt(np.pi / 2.0)) + log_erfcx
    return log_mass, _normal_excess(z, first) * sigma**_ORDERS


def _half_line(k: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """``log int_0^inf exp(k s - b s^2) ds`` and the raw moments of s under
    that weight, rows j = 0..4, elementwise; needs b > 0 or k < 0.

    Far above the mode, where ``eps = b / k^2`` is below ``_SERIES_EPS``
    (always at b = 0), they come from :func:`_series_tail`; elsewhere from
    :func:`_normal_tail`.
    """
    series = (k < 0.0) & (k * k * _SERIES_EPS > b)
    log_mass = np.empty(k.shape)
    moments = np.empty((5,) + k.shape)
    for part, tail in ((series, _series_tail), (~series, _normal_tail)):
        if part.any():
            log_mass[part], moments[:, part] = tail(k[part], b)
    return log_mass, moments


def _shift_operator(c: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """The (5, 5, N) array that takes raw moments of s, rows j = 0..4 of a
    (5, N) array, to those of ``c + sign s`` by ``np.einsum("jin,in->jn")``:
    ``comb(j, i) c^(j-i) sign^i``, and 0 where i > j."""
    powers = np.zeros((6, c.size))
    powers[:5] = c ** _ORDERS
    return _BINOMIAL[:, :, None] * powers[_LAGS] * sign ** _ORDERS.T[:, :, None]


class _Cells(NamedTuple):
    """A tail's cells in t = log x: ``lower``, ``upper`` and ``width`` of
    [log(v - 1/2), log(v + 1/2)] per distinct value v, and ``trunc`` =
    log(xmin - 1/2); with the :func:`_shift_operator` arrays that take the
    moments of s to those of width + s, of t = lower + s and of t = upper - s,
    the last two with a last column for t = trunc + s (unused in the last)."""

    lower: np.ndarray
    upper: np.ndarray
    width: np.ndarray
    trunc: float
    widen: np.ndarray
    from_lower: np.ndarray
    from_upper: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, xmin: float) -> _Cells:
        lower, upper = np.log(values - 0.5), np.log(values + 0.5)
        trunc = float(np.log(xmin - 0.5))
        # The widths come from log1p: as differences of logs they would lose
        # most of their digits on large values.
        width = np.log1p(1.0 / (values - 0.5))
        return cls(
            lower, upper, width, trunc, _shift_operator(width),
            _shift_operator(np.append(lower, trunc)),
            _shift_operator(np.append(upper, trunc), -1.0),
        )


def _lognormal_cells(a: float, b: float, cells: _Cells):
    """Per-cell log-likelihood of the weight ``exp(a t - b t^2)`` on t = log x,
    over the cells and truncated to t > ``cells.trunc``, and the raw moments
    of t, rows j = 0..4, over each cell and, in a last column, over the
    truncated range.  Needs b > 0, or b = 0 and a < 0.

    Every mass is a log.  A cell on one side of the mode is the difference
    of two tails running away from it (below the mode, of t -> -t), taken
    through ``log(-expm1(.))`` of their log ratio; a cell that holds the mode
    is a difference of ``erf`` on either side of it.
    """
    lower, upper, width, trunc = cells[:4]
    m = lower.size
    mode = a / (2.0 * b) if b > 0.0 else -np.inf
    flip = np.append(upper <= mode, False)
    near = np.append(lower, trunc)  # the edge nearer the mode, oriented
    slope = a - 2.0 * b * near
    if flip.any():
        near[flip] = -upper[flip[:m]]
        slope[flip] = -a - 2.0 * b * near[flip]
    log_mass, excess = _half_line(np.concatenate([slope, slope[:m] - 2.0 * b * width]), b)
    log_near, log_far, log_trunc = log_mass[:m], log_mass[m + 1 :], log_mass[m]
    log_ratio = width * (slope[:m] - b * width) + log_far - log_near
    drop = -np.expm1(log_ratio)
    edge = np.where(flip[:m], upper, lower)
    per_value = (
        a * (edge - trunc) - b * (edge * edge - trunc * trunc)
        + log_near - log_trunc + np.log(drop)
    )
    local = excess[:, : m + 1]
    local[:, :m] -= np.exp(log_ratio) * np.einsum(
        "jin,in->jn", cells.widen, excess[:, m + 1 :])
    local[:, :m] /= drop
    holds = np.flatnonzero((lower < mode) & (mode < upper))
    if holds.size:
        sigma = 1.0 / np.sqrt(2.0 * b)
        lo, hi = (lower[holds] - mode) / sigma, (upper[holds] - mode) / sigma
        mass = 0.5 * (erf(hi / np.sqrt(2.0)) - erf(lo / np.sqrt(2.0)))
        per_value[holds] = (
            np.log(sigma * np.sqrt(2.0 * np.pi) * mass)
            + b * (mode - trunc) ** 2 - log_trunc
        )
        phi_lo, phi_hi = np.exp(-0.5 * np.stack([lo, hi]) ** 2) / np.sqrt(2.0 * np.pi)
        first = (phi_lo - phi_hi) / mass - lo
        normal = _normal_excess(lo, first, phi_hi / mass, hi - lo)
        local[:, holds] = normal * sigma**_ORDERS
    shift = cells.from_lower
    if flip.any():
        shift = np.where(flip, cells.from_upper, shift)
    return per_value, np.einsum("jin,in->jn", shift, local)


class _LognormalFit(NamedTuple):
    """Per-point log-likelihood of the best lognormal tail, at natural
    parameters ``a = mu / sigma^2`` and ``b = 1 / (2 sigma^2)``."""

    loglik: np.ndarray
    a: float
    b: float
    steps: int


def _gradient_hessian(moments: np.ndarray, weights: np.ndarray):
    """Gradient and Hessian in (a, b) of the log-likelihood whose pieces
    (cells, then the truncated range) have the raw moments of t in the
    columns of ``moments`` and enter it with ``weights``: a piece's log-mass
    has gradient (E[t], -E[t^2]) and Hessian the covariance of (t, -t^2)."""
    sums = moments @ weights
    # Weighted sums of E[t^i] E[t^j], i, j = 1, 2.
    cross = np.einsum("in,jn,n->ij", moments[1:3], moments[1:3], weights)
    grad = np.array([sums[1], -sums[2]])
    hess = np.array([[sums[2] - cross[0, 0], cross[0, 1] - sums[3]],
                     [cross[0, 1] - sums[3], sums[4] - cross[1, 1]]])
    return grad, hess


def _ascent_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The Newton step ``-hess^-1 grad`` of a 2 x 2 symmetric Hessian, with
    each negative curvature of ``-hess`` replaced by its magnitude, so the
    step always climbs."""
    (p, q), (_, r) = -hess
    det = p * r - q * q
    if p > 0.0 and det > 0.0:
        return np.array([r * grad[0] - q * grad[1], p * grad[1] - q * grad[0]]) / det
    curv, axes = np.linalg.eigh(-hess)
    return axes @ ((axes.T @ grad) / np.maximum(np.abs(curv), 1e-300))


def _lognormal_tail_loglik(tail: np.ndarray, xmin: float) -> _LognormalFit:
    """The discrete lognormal tail of greatest likelihood, over the closed family.

    The continuous lognormal is discretized by integrating its density over
    ``[x - 0.5, x + 0.5]`` and renormalizing by the mass above
    ``xmin - 0.5``.  In t = log x its weight is ``exp(a t - b t^2)``, and
    the log-likelihood's gradient and Hessian in (a, b) are sums of the
    first four moments of t over the cells and the truncated range.  The
    family is closed at b = 0, a < 0: the cell-integrated continuous power
    law ``((x - 1/2)^a - (x + 1/2)^a) / (xmin - 1/2)^a`` of exponent 1 - a,
    which a lognormal approaches as mu -> -inf with mu / sigma^2 fixed.

    Damped Newton steps climb from the power-law limit, with a negative
    curvature replaced by its magnitude.  They are projected onto b >= 0,
    and on b = 0 a step that would not raise b moves a alone.  The
    fit stops when the predicted gain of a step falls to 1e-14 of the
    log-likelihood, the order of its rounding.
    """
    values, inverse, counts = np.unique(tail, return_inverse=True, return_counts=True)
    cells = _Cells.of(values, xmin)
    weights = np.append(counts, -tail.size).astype(np.float64)

    def climb(a, b):
        per_value, moments = _lognormal_cells(a, b, cells)
        return (counts @ per_value, per_value) + _gradient_hessian(moments, weights)

    # The start is the power-law limit whose exponent fits t = log x as if
    # it were continuous: t - trunc is then exponential with rate -a.
    theta = np.array([-1.0 / (np.log(tail).mean() - cells.trunc), 0.0])
    point = climb(*theta)
    steps = 0
    while True:
        loglik, _, grad, hess = point
        step = _ascent_step(grad, hess)
        if theta[1] == 0.0 and step[1] <= 0.0:
            step = np.array([grad[0] / max(abs(hess[0, 0]), 1e-300), 0.0])
        if grad @ step <= 2e-14 * max(1.0, abs(loglik)):
            stop = None
            break
        if steps == _LOGNORMAL_STEPS:
            stop = "step cap reached"
            break
        scale = 1.0
        while scale > 1e-12:
            trial = theta + scale * step
            trial[1] = max(trial[1], 0.0)
            if trial[1] > 0.0 or trial[0] < 0.0:
                candidate = climb(*trial)
                if candidate[0] >= loglik:
                    break
            scale *= 0.5
        else:
            stop = "no step raises the likelihood"
            break
        theta, point = trial, candidate
        steps += 1
    a, b = map(float, theta)
    # On b = 0 a gradient into b < 0 is the boundary's, not a residual.
    norm = float(np.hypot(grad[0], grad[1] if b > 0.0 or grad[1] > 0.0 else 0.0))
    if stop:
        logger.warning(
            "lognormal fit: %s after %d Newton steps, |gradient| %.3g",
            stop, steps, norm,
        )
    elif b > 0.0:
        logger.debug(
            "lognormal fit: interior optimum mu %.6g, sigma %.6g after %d Newton "
            "steps, |gradient| %.3g", a / (2.0 * b), np.sqrt(0.5 / b), steps, norm,
        )
    else:
        logger.debug(
            "lognormal fit: power-law limit, exponent %.6g after %d Newton steps, "
            "|gradient| %.3g", 1.0 - a, steps, norm,
        )
    return _LognormalFit(point[1][inverse], a, b, steps)


def lrt(data, fit: PowerLawFit, alternative: str = "exponential") -> LrtResult:
    """Vuong-normalized log-likelihood ratio of power law vs an alternative.

    Supported alternatives: ``exponential`` (discrete, closed-form MLE) and
    ``lognormal`` (discretized, two-parameter MLE by Newton's method).  Both
    are fitted to the same tail ``x >= xmin`` as the power law.  The
    lognormal alternative is the maximum over the closed family: its
    boundary b = 1 / (2 sigma^2) = 0 is the cell-integrated continuous power
    law with exponent 1 - a, a = mu / sigma^2, which the lognormal approaches
    as mu -> -inf, and on some tails the supremum lies there.

    Raises
    ------
    ValueError
        On an unknown alternative, a tail smaller than ``MIN_TAIL``
        observations, or a tail of fewer than three distinct values, where
        the lognormal's sigma -> 0 limit would reproduce two neighbouring
        values' proportions exactly.
    """
    if alternative not in ("exponential", "lognormal"):
        raise ValueError(f"unknown alternative {alternative!r}")
    x = _as_positive_ints(data)
    tail = x[x >= fit.xmin].astype(np.float64)
    if tail.size < MIN_TAIL:
        raise ValueError(f"tail too small for comparison: {tail.size} < {MIN_TAIL}")
    distinct = np.unique(tail).size
    if distinct < 3:
        raise ValueError(
            f"tail has {distinct} distinct value(s); comparison needs at least 3"
        )
    xmin = float(fit.xmin)

    (z,) = _zeta_sums(np.array([fit.alpha]), np.array([xmin]))
    loglik_pl = -fit.alpha * np.log(tail) - np.log(z[0])
    if alternative == "exponential":
        shifted = tail - xmin
        lam = np.log1p(1.0 / shifted.mean())
        loglik_alt = np.log(-np.expm1(-lam)) - lam * shifted
    else:
        loglik_alt = _lognormal_tail_loglik(tail, xmin).loglik

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


def _invert_beyond(alpha: float, z: float, u: np.ndarray, lo: int) -> np.ndarray:
    """Exact inverse CDF for uniforms beyond the table, by bisection in lockstep.

    Returns, for every u, the smallest x in (``lo``, 2^62] with
    ``zeta(alpha, x + 1) <= (1 - u) z``, or 2^62 where there is none.
    """
    target = (1.0 - u) * z
    s = np.full(u.size, float(alpha))
    lo = np.full(u.size, lo, dtype=np.int64)
    hi = np.full(u.size, 1 << 62)
    while np.any(open_ := hi - lo > 1):
        mid = lo + (hi - lo) // 2
        done = _zeta_sums(s, mid + 1.0)[0] <= target
        hi = np.where(open_ & done, mid, hi)
        lo = np.where(open_ & ~done, mid, lo)
    return hi


class _Sampler:
    """Inverse-CDF draws from one discrete power law.

    The CDF table over consecutive integers from xmin starts at 1,024
    entries and doubles whenever a draw's uniforms reach past it, up to
    ``_MAX_TABLE``.  ``np.cumsum`` adds in order, so a longer table starts
    with the same values as a shorter one.  The table keeps only its rising
    prefix, up to the first index of its largest sum: past it the terms are
    lost in rounding, and the table grows no further.  A uniform at or past
    the last entry is inverted on the zeta function from there, so the
    draws do not depend on how far the table has grown or on which other
    uniforms share a draw.

    A guide table (Chen & Asau, AIIE Trans. 6, 1974) has one entry per
    bucket ``[j / _GUIDE, (j + 1) / _GUIDE)``.  A uniform's bucket is
    ``floor(u * _GUIDE)``, exact since ``_GUIDE`` is a power of two, and
    ``searchsorted`` is monotone, so where a bucket's two edges share an
    insertion point inside the table every uniform in it has that one: the
    guide holds the draw itself, xmin plus that insertion point.  It holds
    -1 for a bucket holding a CDF step or reaching past the table's last
    entry.  A draw reads every uniform's entry with one gather; only the
    -1s are searched, and only they can lie beyond the table.  Each draw is
    the integer a search of every uniform returns.  The guide is built by
    the first draw after the table last grew.
    """

    def __init__(self, alpha: float, xmin: int) -> None:
        self.alpha = alpha
        self.xmin = xmin
        self.z = float(_zeta_sums(np.array([alpha]), np.array([float(xmin)]))[0][0])
        self._grow(1024)

    def _grow(self, length: int) -> None:
        cdf = np.arange(self.xmin, self.xmin + length, dtype=np.float64)
        np.power(cdf, -self.alpha, out=cdf)
        cdf /= self.z
        np.cumsum(cdf, out=cdf)
        top = int(np.argmax(cdf)) + 1
        self.cdf = cdf[:top]
        self.can_grow = top == length < _MAX_TABLE
        self.guide = None

    def draw(self, u: np.ndarray) -> np.ndarray:
        while self.can_grow and self.cdf[-1] < u.max(initial=0.0):
            self._grow(2 * self.cdf.size)
        size = self.cdf.size
        if self.guide is None:
            grid = np.arange(_GUIDE + 1) / _GUIDE
            edges = np.searchsorted(self.cdf, grid, side="right")
            searched = (edges[1:] != edges[:-1]) | (edges[:-1] == size)
            self.guide = np.where(searched, -1, edges[:-1] + self.xmin)
        draws = self.guide[(u * _GUIDE).astype(np.intp)]
        search = np.flatnonzero(draws < 0)
        found = np.searchsorted(self.cdf, u[search], side="right")
        beyond = np.flatnonzero(found == size)
        found += self.xmin
        if beyond.size:
            found[beyond] = _invert_beyond(
                self.alpha, self.z, u[search[beyond]], self.xmin + size - 1)
        draws[search] = found
        return draws


def ccdf_rows(data, fit: PowerLawFit | None = None) -> list[dict]:
    """Empirical CCDF P(X >= x) at each distinct value, with model overlay.

    When a fit is given, rows at ``x >= xmin`` also carry the fitted tail
    CCDF scaled by the data's own share of observations at or above ``xmin``
    (``n_tail / n`` for a fit of the same data): the empirical CCDF at xmin.
    """
    x = _as_positive_ints(data)
    uniq, counts = np.unique(x, return_counts=True)
    cum_ge = counts[::-1].cumsum()[::-1]
    fitted: dict[int, float] = {}
    if fit is not None:
        sel = uniq >= fit.xmin
        if np.any(sel):
            # zeta at xmin, the normalization, then at each tail value.
            q = np.append(fit.xmin, uniq[sel]).astype(np.float64)
            (zetas,) = _zeta_sums(np.full(q.size, fit.alpha), q)
            scale = cum_ge[sel][0] / x.size
            for v, ccdf in zip(uniq[sel], zetas[1:] / zetas[0] * scale):
                fitted[int(v)] = float(ccdf)
    return [
        {
            "x": int(v),
            "empirical_ccdf": float(c / x.size),
            "fitted_ccdf": fitted.get(int(v)),
        }
        for v, c in zip(uniq, cum_ge)
    ]
