"""Discrete power-law fitting with threshold selection and bootstrap.

The tail model is P(X = x) = x**(-gamma) / zeta(gamma, x_min) for
integer x >= x_min.  Every observed degree value is a candidate
threshold; for each candidate the scaling exponent is estimated by the
discrete maximum-likelihood approximation

    gamma_hat = 1 + n_tail / sum(ln(x_i / (x_min - 1/2)))

and the candidate minimizing the Kolmogorov-Smirnov distance between
the empirical and fitted tail CDFs wins.  Plausibility is assessed by
a semi-parametric bootstrap: synthetic samples mix draws from the
fitted tail with resamples of the empirical body, each replica is
refitted from scratch (threshold selection included), and the p-value
is the fraction of replicas whose KS distance is at least the observed
one.  The model is ruled out when p < 0.10.

Refits dominate the bootstrap, so the threshold scan bounds and
prunes.  Tail sizes fall as the threshold rises, so the candidates
(thresholds keeping at least ``min_tail`` observations) are a prefix of
the unique values, and their exponents form one vector.  Each candidate
needs zeta(g, t + 1) for its norm, and the Hurwitz identity

    zeta(g, v + 1) = zeta(g, t + 1) - sum(x**(-g) for t < x <= v)

turns that one value into the fitted CDF at every tail value v within
``WIDTH`` of the threshold t: the running sums of a K x ``WIDTH`` grid
of powers cover all K candidates at once.  The largest deviation over
those values, each lowered by ``MARGIN`` for rounding (the first,
computed exactly, is not), is a lower bound on the candidate's KS
distance; values beyond the grid add nothing to it.  Candidates are
finished in ascending bound order, one exact ``zeta`` row each, until a
bound exceeds the least distance found; only the minimum is used, and
the candidates left cannot reach it.  Memory is O(K * WIDTH + U) for U
tail values.  A pinned ``x_min`` uses the same scan.  Each replica
makes exactly one ``fit_power_law`` call, looked up as this module's
global, so wrapping that name counts replicas.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import zeta

from .errors import AnalysisError, ValidationError
from .util import parallel_map, rng_for

DEFAULT_BOOTSTRAP_M = 2500
MIN_OBSERVATIONS = 50
MIN_TAIL = 25
# PowerLawSampler's CDF table stops at this survival probability or
# after this many values; draws beyond it bisect the survival function.
# The table is built as far as the draws reach, TABLE_BLOCK values first
# and then doubling.
TABLE_FLOOR = 1e-6
MAX_TABLE = 4_000_000
TABLE_BLOCK = 4096
INT64_MAX = int(np.iinfo(np.int64).max)
# fit_power_law bounds each threshold candidate's KS distance by its
# tail values within WIDTH of the threshold.  Those deviations come from
# power sums and are lowered by MARGIN, far above their rounding error
# (a few units in the last place of a CDF value).  Below about 1e-300
# scipy's zeta loses relative precision (3e-11 near 2e-307, percents
# among subnormals), so a norm under ZETA_FLOOR gives no bound.
WIDTH = 16
MARGIN = 1e-9
ZETA_FLOOR = 1e-290


@dataclass(frozen=True)
class TailFit:
    gamma: float
    x_min: int
    n_tail: int
    ks_statistic: float
    zeros_excluded: int = 0


@dataclass(frozen=True)
class FitResult:
    """Tail fit plus bootstrap spreads and plausibility p-value."""

    gamma: float
    gamma_spread: float
    x_min: int
    x_min_spread: float
    n_tail: int
    n_tail_spread: float
    ks_statistic: float
    p_value: float
    bootstrap_m: int
    zeros_excluded: int = 0


def _sorted_degrees(degrees) -> np.ndarray:
    """Sorted int64 degrees; raises unless all are non-negative integers."""
    xs = np.asarray(degrees).ravel()
    if xs.dtype.kind not in "biu":
        # NaN, infinities, fractions and values past int64 change in the cast
        with np.errstate(invalid="ignore"):
            ints = xs.astype(np.int64)
        if not np.array_equal(ints, xs):
            raise ValidationError("degrees must be non-negative integers")
        xs = ints
    xs = np.sort(xs.astype(np.int64, copy=False))
    if len(xs) and xs[0] < 0:
        raise ValidationError("degrees must be non-negative integers")
    return xs


def _clean_degrees(degrees) -> tuple[np.ndarray, int]:
    """The positive degrees, sorted, as int64, and the count of zeros."""
    xs = _sorted_degrees(degrees)
    zeros = int(np.searchsorted(xs, 1))
    return xs[zeros:], zeros


def fit_power_law(degrees, x_min: int | None = None,
                  min_tail: int = MIN_TAIL) -> TailFit:
    """Fit the discrete power-law tail, selecting x_min by minimum KS.

    Zero degrees are excluded before fitting (their count is reported
    on the result).  Candidate thresholds are the unique observed
    values whose tail holds at least ``min_tail`` observations (with
    none, the fit is undefined); pass ``x_min`` to pin the threshold
    instead.  Ties in KS go to the lowest threshold.
    """
    xs, zeros = _clean_degrees(degrees)
    n = len(xs)
    if n < MIN_OBSERVATIONS:
        raise AnalysisError(
            f"power-law fit needs >= {MIN_OBSERVATIONS} positive observations, got {n}"
        )
    if xs[0] == xs[-1]:
        raise AnalysisError("degenerate input: all degree values are equal")

    # xs is sorted: a value's run starts after every smaller observation
    below = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    uniq = xs[below]
    cum_counts = np.append(below[1:], n)                # count of xs <= uniq[j]
    tail_sizes = n - below                              # count of xs >= uniq[j]
    log_weighted = (cum_counts - below) * np.log(uniq)
    tail_logsums = log_weighted[::-1].cumsum()[::-1]    # sum of ln x over tail

    if x_min is not None:
        if not (x_min >= 1 and float(x_min).is_integer()):
            raise ValidationError("x_min must be a positive integer")
        first = int(np.searchsorted(uniq, x_min, side="left"))
        if first >= len(uniq):
            raise AnalysisError(f"no observations at or above x_min={x_min}")
        thresholds = np.array([x_min], dtype=np.int64)
    else:
        # tail sizes fall as the threshold rises: the candidates are a prefix
        first = 0
        thresholds = uniq[:int((tail_sizes >= min_tail).sum())]
        if not len(thresholds):
            raise AnalysisError(
                f"no threshold keeps min_tail={min_tail} observations in its "
                f"tail; the sample has {n} positive values"
            )

    # candidate j's tail holds the observations >= values[j]
    last = first + len(thresholds)
    values = uniq[first:]
    sizes = tail_sizes[first:last]
    logsums = tail_logsums[first:last]
    # a log-sum that rounds to 0 (or below) gives gamma = inf (or <= 1),
    # whose powers and zeta values the scan rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gammas = 1.0 + sizes / (logsums - sizes * np.log(thresholds - 0.5))
        ks = _ks_distances(values, cum_counts[first:], below[first:last], sizes,
                           gammas, thresholds)
    best = int(np.argmin(ks))                           # first minimum
    if not np.isfinite(ks[best]):
        raise AnalysisError("no usable power-law threshold candidate")
    return TailFit(float(gammas[best]), int(thresholds[best]), int(sizes[best]),
                   float(ks[best]), zeros_excluded=zeros)


def _ks_distances(values: np.ndarray, cum: np.ndarray, below: np.ndarray,
                  sizes: np.ndarray, gammas: np.ndarray,
                  thresholds: np.ndarray) -> np.ndarray:
    """KS distance of each candidate that can be the minimum, else inf.

    Candidate j fits ``gammas[j]`` on x >= ``thresholds[j]`` to its
    ``sizes[j]`` tail observations, ``cum[k] - below[j]`` of which are
    at most ``values[k]`` (k >= j).  Candidates are finished in
    ascending order of their ``_ks_bounds``, one ``zeta`` row each,
    until a bound exceeds the least distance found.  Pruned candidates
    score inf: their distance exceeds the minimum, so the first minimum
    is unchanged.
    """
    z_first = zeta(gammas, thresholds + 1.0)            # zeta(g, t + 1)
    if values[0] == thresholds[0]:
        # norm = zeta(g, t), with the threshold's own term split off;
        # the power stays a scalar per candidate, because numpy's array
        # power can differ from it in the last place.  gamma > 1 always
        # holds exactly; a rounded gamma <= 1 gets no norm (its zeta is
        # not finite either), as a Python float power would overflow.
        norms = z_first + np.array([
            float(t) ** -g if g > 1.0 else np.inf
            for t, g in zip(thresholds.tolist(), gammas.tolist())])
    else:       # a pinned x_min that is not observed
        norms = zeta(gammas, thresholds.astype(float))
    bounds = _ks_bounds(values, cum, below, sizes, gammas, thresholds,
                        z_first, norms)
    ks = np.full(len(gammas), np.inf)
    usable = np.flatnonzero(np.isfinite(norms) & (norms > 0) & (sizes >= 2))
    best = np.inf
    for j in usable[np.argsort(bounds[usable], kind="stable")].tolist():
        if bounds[j] > best:
            break
        fitted = 1.0 - zeta(gammas[j], values[j:] + 1.0) / norms[j]
        empirical = (cum[j:] - below[j]) / sizes[j]
        # np.max keeps a NaN deviation, which makes the candidate unusable
        dist = np.abs(empirical - fitted).max()
        if np.isfinite(dist):
            ks[j] = dist
            best = min(best, dist)
    return ks


def _ks_bounds(values: np.ndarray, cum: np.ndarray, below: np.ndarray,
               sizes: np.ndarray, gammas: np.ndarray, thresholds: np.ndarray,
               z_first: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """A lower bound on each candidate's KS distance, -inf where none.

    ``z_first`` holds zeta(g, t + 1) and ``norms`` zeta(g, t).  A tail
    value v with 0 < v - t <= ``WIDTH`` gets zeta(g, v + 1) as
    ``z_first`` minus the running sum of x**(-g) over t < x <= v, and
    its deviation, lowered by ``MARGIN``, enters the bound; the value at
    the threshold enters exactly.
    """
    k = len(gammas)
    sums = np.zeros((k, WIDTH + 1))                     # column d: t < x <= t + d
    sums[:, 1:] = (thresholds + 1.0)[:, None] + np.arange(WIDTH)
    sums[:, 1:] **= -gammas[:, None]
    np.cumsum(sums, axis=1, out=sums)
    # the tail values within WIDTH of t are among its first WIDTH + 1;
    # rows shorter than that repeat their last value
    head = np.minimum(np.arange(k)[:, None] + np.arange(WIDTH + 1),
                      len(values) - 1)
    gaps = values[head] - thresholds[:, None]
    near = np.minimum(gaps, WIDTH)
    z_near = z_first[:, None] - np.take_along_axis(sums, near, axis=1)
    deviation = np.abs((cum[head] - below[:, None]) / sizes[:, None]
                       - (1.0 - z_near / norms[:, None]))
    deviation[gaps > 0] -= MARGIN
    deviation[gaps > WIDTH] = -np.inf
    bounds = deviation.max(axis=1)
    # a bound that is not finite, or rests on a norm under ZETA_FLOOR, never prunes
    bounds[~np.isfinite(bounds) | ~(norms >= ZETA_FLOOR)] = -np.inf
    return bounds


# -- sampling from the fitted tail ------------------------------------------


class PowerLawSampler:
    """Inverse-CDF sampler for the discrete power law on x >= x_min.

    A CDF table covers the bulk; the far tail (beyond ``TABLE_FLOOR``
    survival probability) falls back to bisection on the zeta-based
    survival function.  The table grows only as far as the draws need
    it, with every entry from the same elementwise expression, so draws
    do not depend on how much of it was built.  A draw past the int64
    range raises ``AnalysisError``.
    """

    def __init__(self, gamma: float, x_min: int) -> None:
        if gamma <= 1.0:
            raise ValidationError("power-law exponent must exceed 1")
        if not (x_min >= 1 and float(x_min).is_integer()):
            raise ValidationError("x_min must be a positive integer")
        self.gamma = float(gamma)
        self.x_min = int(x_min)
        # the table spans x_min * TABLE_FLOOR ** (-1 / (gamma - 1)) values,
        # at most MAX_TABLE; near gamma = 1 the span overflows a float, so
        # it is compared with MAX_TABLE in log space first
        if math.log(TABLE_FLOOR) / (1.0 - self.gamma) < math.log(MAX_TABLE):
            span = TABLE_FLOOR ** (-1.0 / (self.gamma - 1.0))
            top = min(int(self.x_min * span) + 2, self.x_min + MAX_TABLE)
        else:
            top = self.x_min + MAX_TABLE
        self._top = min(top, INT64_MAX)
        self._norm = float(zeta(self.gamma, float(self.x_min)))
        self._cdf = np.empty(0)  # P(X <= x_min + i), ascending; see _extend

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(size)
        if size:
            self._extend(float(u.max()))
        idx = np.searchsorted(self._cdf, u, side="left")
        out = idx + self.x_min              # the table holds x_min, x_min + 1, ...
        for pos in np.flatnonzero(idx == len(self._cdf)):
            out[pos] = self._far_tail(u[pos])
        return out

    def _extend(self, u: float) -> None:
        """Build the table until its last value reaches ``u`` or it
        holds every value up to ``_top``."""
        full = self._top - self.x_min + 1
        built = len(self._cdf)
        while built < full and not (built and self._cdf[-1] >= u):
            values = (np.arange(built, min(max(2 * built, TABLE_BLOCK), full))
                      + self.x_min)
            survival = zeta(self.gamma, values + 1.0) / self._norm
            self._cdf = np.concatenate((self._cdf, 1.0 - survival))
            built = len(self._cdf)

    def _far_tail(self, u: float) -> int:
        lo = self._top
        hi = lo * 2
        # past the int64 range the bisection below ends at hi, which is refused
        while hi <= INT64_MAX and 1.0 - zeta(self.gamma, hi + 1.0) / self._norm < u:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if 1.0 - zeta(self.gamma, mid + 1.0) / self._norm >= u:
                hi = mid
            else:
                lo = mid
        if hi > INT64_MAX:
            raise AnalysisError(
                f"the fitted power-law tail (gamma={self.gamma:.6g}, "
                f"x_min={self.x_min}) reaches past the int64 range and "
                f"cannot be sampled")
        return hi


# -- goodness of fit ---------------------------------------------------------


def _gof_replica(replica: int, seed: int, n: int, p_tail: float,
                 body: np.ndarray, gamma: float, x_min: int,
                 min_tail: int, sampler: PowerLawSampler) -> tuple[float, ...]:
    rng = rng_for(seed, "gof-replica", replica)
    n_tail_draw = int(rng.binomial(n, p_tail))
    synthetic = np.empty(n, dtype=np.int64)
    if n_tail_draw:
        synthetic[:n_tail_draw] = sampler.draw(n_tail_draw, rng)
    if n - n_tail_draw:
        synthetic[n_tail_draw:] = body[rng.integers(0, len(body),
                                                    size=n - n_tail_draw)]
    try:
        refit = fit_power_law(synthetic, min_tail=min_tail)
    except AnalysisError:
        # a pathological replica counts as a poorer fit than any data
        return (float("inf"), gamma, float(x_min), 0.0)
    return (refit.ks_statistic, refit.gamma, float(refit.x_min),
            float(refit.n_tail))


def goodness_of_fit(degrees, fit: TailFit | None = None,
                    m: int = DEFAULT_BOOTSTRAP_M, seed: int = 0,
                    min_tail: int = MIN_TAIL, n_jobs: int = 1) -> FitResult:
    """Bootstrap plausibility test of a fitted power-law tail.

    Each of ``m`` replicas draws, per observation, from the fitted
    tail with probability n_tail/n and otherwise resamples the
    empirical body below x_min; replicas are refitted in full.
    Replica seeds are derived from ``seed`` independently of
    ``n_jobs``, so results do not depend on parallelism.
    """
    if m < 1:
        raise ValidationError("bootstrap count m must be >= 1")
    if m < DEFAULT_BOOTSTRAP_M:
        warnings.warn(
            f"bootstrap m={m} below {DEFAULT_BOOTSTRAP_M}: p-value resolution "
            f"is limited to {1.0 / m:.2g}",
            stacklevel=2,
        )
    xs, zeros = _clean_degrees(degrees)
    if fit is None:
        fit = fit_power_law(xs, min_tail=min_tail)
    n = len(xs)
    body = xs[xs < fit.x_min]
    p_tail = fit.n_tail / n
    sampler = PowerLawSampler(fit.gamma, fit.x_min)
    worker = partial(_gof_replica, seed=seed, n=n, p_tail=p_tail, body=body,
                     gamma=fit.gamma, x_min=fit.x_min, min_tail=min_tail,
                     sampler=sampler)
    rows = parallel_map(worker, list(range(m)), n_jobs=n_jobs)
    stats = np.array(rows, dtype=float)
    ks_values = stats[:, 0]
    p_value = float(np.mean(ks_values >= fit.ks_statistic))
    return FitResult(
        gamma=fit.gamma,
        gamma_spread=float(stats[:, 1].std()),
        x_min=fit.x_min,
        x_min_spread=float(stats[:, 2].std()),
        n_tail=fit.n_tail,
        n_tail_spread=float(stats[:, 3].std()),
        ks_statistic=fit.ks_statistic,
        p_value=p_value,
        bootstrap_m=m,
        zeros_excluded=zeros,
    )


def ccdf(degrees) -> list[tuple[int, float]]:
    """Complementary cumulative distribution: (k, fraction >= k).

    One point per unique observed value, ascending; the first point is
    the minimum degree with fraction 1.
    """
    xs = _sorted_degrees(degrees)
    if len(xs) == 0:
        raise AnalysisError("ccdf of an empty degree multiset is undefined")
    uniq, counts = np.unique(xs, return_counts=True)
    at_least = counts[::-1].cumsum()[::-1]
    n = len(xs)
    return [(int(k), float(c) / n) for k, c in zip(uniq, at_least)]
