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
the unique values, and their exponents form one vector.  One
elementwise ``zeta`` call scores every candidate's first ``PREFIX``
tail values, whose largest deviation is a lower bound on its KS
distance.  Candidates are finished in ascending bound order, one
``zeta`` call each, until a bound exceeds the least distance found;
only the minimum is used, and the candidates left cannot reach it.  Memory
is O(K * PREFIX + U) for K candidates and U tail values.  A pinned
``x_min`` and ``method='exact'`` use the same scan.  Each replica makes
exactly one ``fit_power_law`` call, looked up as this module's global,
so wrapping that name counts replicas.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from .errors import AnalysisError, ValidationError
from .util import parallel_map, rng_for

DEFAULT_BOOTSTRAP_M = 2500
MIN_OBSERVATIONS = 50
MIN_TAIL = 25
# PowerLawSampler's CDF table stops at this survival probability or
# after this many values; draws beyond it bisect the survival function
TABLE_FLOOR = 1e-6
MAX_TABLE = 4_000_000
# fit_power_law bounds each threshold candidate's KS distance by its
# first PREFIX tail values before finishing only those that can still win
PREFIX = 6


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


def _clean_degrees(degrees) -> tuple[np.ndarray, int]:
    xs = np.asarray(degrees, dtype=np.int64).ravel()
    if np.any(xs < 0):
        raise ValidationError("degrees must be non-negative integers")
    zeros = int((xs == 0).sum())
    return np.sort(xs[xs > 0]), zeros


def fit_power_law(degrees, x_min: int | None = None, min_tail: int = MIN_TAIL,
                  method: str = "approx") -> TailFit:
    """Fit the discrete power-law tail, selecting x_min by minimum KS.

    Zero degrees are excluded before fitting (their count is reported
    on the result).  Candidate thresholds are the unique observed
    values whose tail holds at least ``min_tail`` observations (with
    none, the fit is undefined); pass ``x_min`` to pin the threshold
    instead.  Ties in KS go to the lowest threshold.  ``method='exact'``
    maximizes the zeta-function likelihood numerically rather than
    using the closed-form approximation.
    """
    xs, zeros = _clean_degrees(degrees)
    n = len(xs)
    if n < MIN_OBSERVATIONS:
        raise AnalysisError(
            f"power-law fit needs >= {MIN_OBSERVATIONS} positive observations, got {n}"
        )
    if xs[0] == xs[-1]:
        raise AnalysisError("degenerate input: all degree values are equal")
    if method not in ("approx", "exact"):
        raise ValidationError(f"unknown fit method {method!r}")

    new_value = np.concatenate(([True], xs[1:] != xs[:-1]))  # xs is sorted
    starts = np.flatnonzero(new_value)
    uniq = xs[starts]
    counts = np.diff(starts, append=n)
    cum_counts = np.cumsum(counts)                      # count of xs <= uniq[j]
    below = cum_counts - counts                         # count of xs <  uniq[j]
    tail_sizes = n - below
    log_weighted = counts * np.log(uniq)
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
    if method == "exact":
        gammas = np.array([_exact_mle(s, int(t), int(x))
                           for s, t, x in zip(logsums, sizes, thresholds)])
    else:
        # a log-sum that rounds to 0 gives gamma = inf, which the scan rejects
        with np.errstate(divide="ignore"):
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
    at most ``values[k]`` (k >= j).  One ``zeta`` call scores every
    candidate's first ``PREFIX`` tail values; their largest deviation is
    a lower bound on its KS distance.  Candidates are then finished in
    ascending bound order, one ``zeta`` call each, until a bound exceeds
    the least distance found.  Pruned candidates score inf: their
    distance exceeds the minimum, so the first minimum is unchanged.
    """
    # the row of candidate j starts at its own tail value j; rows shorter
    # than PREFIX repeat their last value, which leaves the maximum alone
    head = np.minimum(np.arange(len(gammas))[:, None] + np.arange(PREFIX),
                      len(values) - 1)
    z_head = zeta(gammas[:, None], values[head] + 1.0)
    # norm = zeta(gamma, threshold), split off the first tail value when
    # it is the threshold; the power stays a scalar per candidate,
    # because numpy's array power can differ from it in the last place
    norms = np.array([
        z + float(t) ** -g if v == t else zeta(g, float(t))
        for z, t, g, v in zip(z_head[:, 0], thresholds, gammas, values)
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = 1.0 - z_head / norms[:, None]
        empirical = (cum[head] - below[:, None]) / sizes[:, None]
        bounds = np.abs(empirical - fitted).max(axis=1)  # NaN stays NaN
    ks = np.full(len(gammas), np.inf)
    usable = np.flatnonzero(np.isfinite(norms) & (norms > 0)
                            & np.isfinite(bounds) & (sizes >= 2))
    best = np.inf
    for j in usable[np.argsort(bounds[usable], kind="stable")]:
        if bounds[j] > best:
            break
        rest = slice(j + PREFIX, None)
        fitted = 1.0 - zeta(gammas[j], values[rest] + 1.0) / norms[j]
        empirical = (cum[rest] - below[j]) / sizes[j]
        # np.max keeps a NaN deviation, which makes the candidate unusable
        dist = np.abs(empirical - fitted).max(initial=bounds[j])
        if np.isfinite(dist):
            ks[j] = dist
            best = min(best, dist)
    return ks


def _exact_mle(tail_logsum: float, n_tail: int, x_min: int) -> float:
    def nll(gamma: float) -> float:
        z = zeta(gamma, float(x_min))
        if not np.isfinite(z) or z <= 0:
            return np.inf
        return n_tail * np.log(z) + gamma * tail_logsum

    res = minimize_scalar(nll, bounds=(1.0 + 1e-6, 25.0), method="bounded")
    return float(res.x)


# -- sampling from the fitted tail ------------------------------------------


class PowerLawSampler:
    """Inverse-CDF sampler for the discrete power law on x >= x_min.

    A CDF table covers the bulk; the far tail (beyond ``TABLE_FLOOR``
    survival probability) falls back to bisection on the zeta-based
    survival function.
    """

    def __init__(self, gamma: float, x_min: int) -> None:
        if gamma <= 1.0:
            raise ValidationError("power-law exponent must exceed 1")
        self.gamma = float(gamma)
        self.x_min = int(x_min)
        span = TABLE_FLOOR ** (-1.0 / (self.gamma - 1.0))
        top = min(int(self.x_min * span) + 2, self.x_min + MAX_TABLE)
        values = np.arange(self.x_min, top + 1, dtype=np.int64)
        self._norm = float(zeta(self.gamma, float(self.x_min)))
        survival = zeta(self.gamma, values + 1.0) / self._norm
        self._values = values
        self._cdf = 1.0 - survival          # P(X <= value), ascending
        self._cdf_top = float(self._cdf[-1])

    def draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="left")
        out = np.empty(size, dtype=np.int64)
        in_table = idx < len(self._values)
        out[in_table] = self._values[idx[in_table]]
        for pos in np.flatnonzero(~in_table):
            out[pos] = self._far_tail(u[pos])
        return out

    def _far_tail(self, u: float) -> int:
        lo = int(self._values[-1])
        hi = lo * 2
        while 1.0 - zeta(self.gamma, hi + 1.0) / self._norm < u:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if 1.0 - zeta(self.gamma, mid + 1.0) / self._norm >= u:
                hi = mid
            else:
                lo = mid
        return hi


def sample_power_law(gamma: float, x_min: int, size: int,
                     rng: np.random.Generator) -> np.ndarray:
    return PowerLawSampler(gamma, x_min).draw(size, rng)


# -- goodness of fit ---------------------------------------------------------


def _gof_replica(replica: int, seed: int, n: int, p_tail: float,
                 body: np.ndarray, gamma: float, x_min: int,
                 min_tail: int, sampler: PowerLawSampler) -> tuple[float, ...]:
    rng = rng_for(seed, "gof-replica", replica)
    n_tail_draw = int(rng.binomial(n, p_tail))
    parts = []
    if n_tail_draw:
        parts.append(sampler.draw(n_tail_draw, rng))
    if n - n_tail_draw:
        parts.append(body[rng.integers(0, len(body), size=n - n_tail_draw)])
    synthetic = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
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
    xs = np.asarray(degrees, dtype=np.int64).ravel()
    if len(xs) == 0:
        raise AnalysisError("ccdf of an empty degree multiset is undefined")
    uniq, counts = np.unique(xs, return_counts=True)
    at_least = counts[::-1].cumsum()[::-1]
    n = len(xs)
    return [(int(k), float(c) / n) for k, c in zip(uniq, at_least)]
