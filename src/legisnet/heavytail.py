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
tail values.  When the bounds prune nothing (many distinct values that
fit no power law), every candidate is finished: O(K * U) ``zeta``
values for K candidates.

The scan reads each sample as value runs, (value, count) pairs.  A
raw sample is one sample: its values become their distinct values and
counts on entry.  A block of samples, one per row, comes in that count
form alone, as rising values and their counts.  Zeros are counted off
the runs and dropped.  A zero-padded grid of row-reversed running sums
gives each tail's log-sum in the order a lone row adds it.  One bound
grid and one zeta(g, t + 1) call cover every candidate of every row.
Candidates are then finished in rounds, each one ``zeta`` call over the
next candidate of every row still open, so each row's fit equals its
fit alone bit for bit.  The bootstrap draws each replica from its own
random stream straight into runs: its tail draws from sorted uniforms,
so they come out rising (far-tail draws out of order are re-sorted),
and its body resample as counts of the body's distinct values.  It
refits the replicas in blocks of ``BLOCK_VALUES`` sample values: one
``fit_power_law`` call per block, looked up as this module's global, so
wrapping that name counts blocks.  A block holds one row per replica:
the body's distinct values and the tail's runs, 41-85 distinct values
on the benchmark corpora (generator seeds 11 and 97).  Its refit peaks
at 1.2-2.4 MB there (traced on the in- and out-degrees), most of it the
bound grid.  That grid costs about 1.2 kB per candidate, so a block of
distinct values peaks near 160 MB, as one fit of a sample of that many
distinct values does.

``zeta`` imports ``scipy.special`` inside the call, so the commands
that fit no power law do not load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import AnalysisError, ValidationError
from .util import parallel_map, rng_for


def zeta(*args, **kwargs):
    """The Hurwitz zeta function, ``scipy.special.zeta``."""
    from scipy import special

    return special.zeta(*args, **kwargs)


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
BLOCK_VALUES = 1 << 17  # sample values per bootstrap refit block


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


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array of the same shape.  Raises unless
    all are integers."""
    xs = np.asarray(values)
    if xs.dtype.kind not in "biu":
        # NaN, infinities, fractions and values past int64 change in the cast
        with np.errstate(invalid="ignore"):
            ints = xs.astype(np.int64)
        if not np.array_equal(ints, xs):
            raise ValidationError(f"{what} must be non-negative integers")
        xs = ints
    return xs.astype(np.int64, copy=False)


def _sorted_degrees(degrees) -> np.ndarray:
    """Degrees as int64, flattened and sorted.  Raises unless all are
    non-negative integers."""
    xs = np.sort(_integers(degrees, "degrees").ravel())
    if xs.size and xs[0] < 0:
        raise ValidationError("degrees must be non-negative integers")
    return xs


def _clean_degrees(degrees) -> tuple[np.ndarray, int]:
    """The positive degrees, sorted, as int64, and the count of zeros."""
    xs = _sorted_degrees(degrees)
    zeros = int(np.searchsorted(xs, 1))
    return xs[zeros:], zeros


def _runs(values: np.ndarray, row: np.ndarray) -> tuple:
    """The runs of equal ``values`` in one ``row``: (row, value, count)
    of each run."""
    starts = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    starts[1:] |= row[1:] != row[:-1]
    start = np.flatnonzero(starts)
    return row[start], values[start], np.diff(start, append=len(values))


def _count_runs(values, counts) -> tuple:
    """The value runs (rows, row, value, count) of the samples that hold
    ``counts[r, j]`` copies of ``values[r, j]``, one per row of a 2-D
    array (a 1-D array is one row): one entry per run, rows in order.
    The values of positive counts must rise along each row."""
    values = _integers(values, "degrees")
    counts = _integers(counts, "counts")
    if values.shape != counts.shape:
        raise ValidationError("counts must have the shape of the values")
    if values.ndim not in (1, 2):
        raise ValidationError("degrees and counts must be 1-D or 2-D")
    values, counts = np.atleast_2d(values, counts)
    if values.size and values.min() < 0:
        raise ValidationError("degrees must be non-negative integers")
    if counts.size and counts.min() < 0:
        raise ValidationError("counts must be non-negative integers")
    kept = np.flatnonzero(counts)
    row = kept // max(values.shape[1], 1)
    values = values.ravel()[kept]
    if ((values[1:] <= values[:-1]) & (row[1:] == row[:-1])).any():
        raise ValidationError("degrees with a positive count must rise "
                              "along each row")
    return len(counts), row, values, counts.ravel()[kept]


def fit_power_law(degrees, min_tail: int = MIN_TAIL, counts=None) -> TailFit:
    """Fit the discrete power-law tail, selecting x_min by minimum KS.

    Zero degrees are excluded before fitting (their count is reported
    on the result).  Candidate thresholds are the unique observed
    values whose tail holds at least ``min_tail`` observations (with
    none, the fit is undefined).  Ties in KS go to the lowest
    threshold.  To fit at an observed threshold ``t`` instead, keep
    that tail alone as the only candidate:
    ``fit_power_law(xs[xs >= t], min_tail=int((xs >= t).sum()))``
    gives the gamma, n_tail and KS of the fit at ``t`` whenever that
    tail holds at least ``MIN_OBSERVATIONS`` values and two distinct
    ones.

    Without ``counts``, ``degrees`` is one raw sample, in any order; an
    array of two or more dimensions raises ``ValidationError``.  With
    ``counts``, an array of the shape of ``degrees``, the sample holds
    ``counts[j]`` copies of ``degrees[j]``; the degrees of positive
    counts must rise, and a count of 0 adds nothing.  The fit equals
    that of the sample written out, bit for bit.

    A block of samples, fitted in one scan, is given in that count
    form alone: 2-D ``degrees`` and ``counts``, one sample per row, the
    sample of row r holding ``counts[r, j]`` copies of
    ``degrees[r, j]``.  Each field of the result is then an array with
    one entry per row, equal to that row's 1-D fit.  A row whose 1-D
    fit raises ``AnalysisError`` gets ``ks_statistic`` inf, ``gamma``
    NaN and ``x_min`` and ``n_tail`` 0 instead; ``ValidationError``
    still raises for the whole block.
    """
    if counts is None:
        if np.ndim(degrees) > 1:
            raise ValidationError(
                "raw degrees must be one 1-D sample; give a block of "
                "samples as values with counts")
        degrees, counts = np.unique(_sorted_degrees(degrees), return_counts=True)
    runs = _count_runs(degrees, counts)
    fit = _fit_runs(*runs, min_tail)
    if np.ndim(degrees) == 2:
        return fit
    if not np.isfinite(fit.ks_statistic[0]):
        raise AnalysisError(_unfit_reason(*runs[2:], min_tail))
    return TailFit(float(fit.gamma[0]), int(fit.x_min[0]), int(fit.n_tail[0]),
                   float(fit.ks_statistic[0]),
                   zeros_excluded=int(fit.zeros_excluded[0]))


def _unfit_reason(values: np.ndarray, counts: np.ndarray, min_tail: int) -> str:
    """Why the sample of ``counts[j]`` copies of each ``values[j]`` has
    no fit."""
    positive = values > 0
    n = int(counts[positive].sum())
    if n < MIN_OBSERVATIONS:
        return (f"power-law fit needs >= {MIN_OBSERVATIONS} positive "
                f"observations, got {n}")
    if np.count_nonzero(positive) == 1:
        return "degenerate input: all degree values are equal"
    if n < min_tail:
        return (f"no threshold keeps min_tail={min_tail} observations in its "
                f"tail; the sample has {n} positive values")
    return "no usable power-law threshold candidate"


def _fit_runs(rows: int, row: np.ndarray, uniq: np.ndarray,
              counts: np.ndarray, min_tail: int) -> TailFit:
    """Fit each of ``rows`` samples from its value runs, as
    ``fit_power_law`` describes for 2-D input: ``counts[i]`` copies of
    ``uniq[i]`` in row ``row[i]``, rows in order and values rising
    within each row.  Runs of zeros are counted and dropped."""
    zero = uniq == 0
    zeros = np.zeros(rows, dtype=np.int64)
    zeros[row[zero]] = counts[zero]
    row, uniq, counts = row[~zero], uniq[~zero], counts[~zero]
    runs = np.bincount(row, minlength=rows)
    row_stop = np.cumsum(runs)                          # past each row's last run
    total = np.concatenate(([0], np.cumsum(counts)))
    before = total[row_stop - runs]
    n = total[row_stop] - before                        # positive values per row
    fit = TailFit(np.full(rows, np.nan), np.zeros(rows, dtype=np.int64),
                  np.zeros(rows, dtype=np.int64), np.full(rows, np.inf),
                  zeros_excluded=zeros)
    ok = (n >= MIN_OBSERVATIONS) & (runs >= 2)          # not all values equal
    if not ok.any():
        return fit

    cum = total[1:] - before[row]                       # count of values <= uniq
    below = cum - counts                                # count of values < uniq
    tail_sizes = n[row] - below                         # count of values >= uniq
    # sum of ln x over each tail, added from the row's largest value down
    # as a lone row's reversed cumsum adds it: each row goes reversed
    # into a grid row, and the zeros padding its end add nothing before
    back = row_stop[row] - 1 - np.arange(len(uniq))
    grid = np.zeros((rows, runs.max()))
    grid[row, back] = counts * np.log(uniq)
    tail_logsums = np.cumsum(grid, axis=1)[row, back]

    # candidate c's tail is its row's runs cand[c] .. row_stop - 1; tail
    # sizes fall as the threshold rises, so the candidates are a prefix
    # of each row's runs
    cand = np.flatnonzero(ok[row] & (tail_sizes >= min_tail))
    if not len(cand):
        return fit
    thresholds = uniq[cand]
    row = row[cand]
    sizes = tail_sizes[cand]
    # a log-sum that rounds to 0 (or below) gives gamma = inf (or <= 1),
    # whose powers and zeta values the scan rejects
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gammas = 1.0 + sizes / (tail_logsums[cand]
                                - sizes * np.log(thresholds - 0.5))
        ks = _ks_distances(uniq, cum, cand, row_stop[row], below[cand], sizes,
                           gammas, thresholds, row)
    # a stable sort by (row, ks) puts each row's first minimum first
    order = np.lexsort((ks, row))
    best = order[np.flatnonzero(np.diff(row[order], prepend=-1))]
    best = best[np.isfinite(ks[best])]
    won = row[best]
    fit.gamma[won] = gammas[best]
    fit.x_min[won] = thresholds[best]
    fit.n_tail[won] = sizes[best]
    fit.ks_statistic[won] = ks[best]
    return fit


def _ks_distances(uniq: np.ndarray, cum: np.ndarray, start: np.ndarray,
                  stop: np.ndarray, below: np.ndarray, sizes: np.ndarray,
                  gammas: np.ndarray, thresholds: np.ndarray,
                  row: np.ndarray) -> np.ndarray:
    """KS distance of each candidate that can be its row's minimum, else inf.

    Candidate c fits ``gammas[c]`` on x >= ``thresholds[c]`` to the
    ``sizes[c]`` observations of its row's tail, whose values are
    ``uniq[start[c]:stop[c]]``, ``cum[k] - below[c]`` of them at most
    ``uniq[k]``.  Each row finishes its candidates in ascending order of
    their ``_ks_bounds``, until a bound exceeds the least distance found
    in the row; one round finishes the next candidate of every row left,
    with one ``zeta`` call.  Pruned candidates score inf: their distance
    exceeds the minimum, so the first minimum is unchanged.
    """
    z_first = zeta(gammas, thresholds + 1.0)            # zeta(g, t + 1)
    # norm = zeta(g, t), with the threshold's own term split off; the
    # power stays a scalar per candidate, because numpy's array
    # power can differ from it in the last place.  gamma > 1 always
    # holds exactly; a rounded gamma <= 1 gets no norm (its zeta is not
    # finite either), as a Python float power would overflow.
    norms = z_first + np.array([
        float(t) ** -g if g > 1.0 else np.inf
        for t, g in zip(thresholds.tolist(), gammas.tolist())])
    bounds = _ks_bounds(uniq, cum, start, stop, below, sizes, gammas,
                        thresholds, z_first, norms)
    ks = np.full(len(gammas), np.inf)
    usable = np.flatnonzero(np.isfinite(norms) & (norms > 0) & (sizes >= 2))
    # each row's usable candidates by ascending bound, ties by threshold
    order = usable[np.lexsort((bounds[usable], row[usable]))]
    at = np.flatnonzero(np.diff(row[order], prepend=-1))  # each row's next
    end = np.append(at[1:], len(order))
    best = np.full(len(at), np.inf)                     # each row's least distance
    while len(at):
        c = order[at]
        lengths = stop[c] - start[c]
        heads = np.cumsum(lengths) - lengths
        k = (np.arange(heads[-1] + lengths[-1])         # the tails' runs
             + np.repeat(start[c] - heads, lengths))
        fitted = 1.0 - (zeta(np.repeat(gammas[c], lengths), uniq[k] + 1.0)
                        / np.repeat(norms[c], lengths))
        empirical = ((cum[k] - np.repeat(below[c], lengths))
                     / np.repeat(sizes[c], lengths))
        # maximum keeps a NaN deviation, which makes the candidate unusable
        dist = np.maximum.reduceat(np.abs(empirical - fitted), heads)
        found = np.isfinite(dist)
        ks[c[found]] = dist[found]
        best[found] = np.minimum(best[found], dist[found])
        # a row stops after its last candidate or at a bound above its best
        at += 1
        go = at < end
        go[go] = bounds[order[at[go]]] <= best[go]
        at, end, best = at[go], end[go], best[go]
    return ks


def _ks_bounds(uniq: np.ndarray, cum: np.ndarray, start: np.ndarray,
               stop: np.ndarray, below: np.ndarray, sizes: np.ndarray,
               gammas: np.ndarray, thresholds: np.ndarray,
               z_first: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """A lower bound on each candidate's KS distance, -inf where none.

    The arguments are as in ``_ks_distances``; ``z_first`` holds
    zeta(g, t + 1) and ``norms`` zeta(g, t).  A tail value v with
    0 < v - t <= ``WIDTH`` gets zeta(g, v + 1) as ``z_first`` minus the
    running sum of x**(-g) over t < x <= v, and its deviation, lowered
    by ``MARGIN``, enters the bound; the value at the threshold enters
    exactly.
    """
    k = len(gammas)
    sums = np.zeros((k, WIDTH + 1))                     # column d: t < x <= t + d
    sums[:, 1:] = (thresholds + 1.0)[:, None] + np.arange(WIDTH)
    sums[:, 1:] **= -gammas[:, None]
    np.cumsum(sums, axis=1, out=sums)
    # the tail values within WIDTH of t are among its first WIDTH + 1;
    # tails shorter than that repeat their last value
    head = np.minimum(start[:, None] + np.arange(WIDTH + 1), stop[:, None] - 1)
    gaps = uniq[head] - thresholds[:, None]
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
    do not depend on how much of it was built.  The inverse CDF is
    monotone, so sorted uniforms give sorted table draws, and every
    far-tail draw exceeds them; the bisection compares rounded zeta
    values, so far-tail draws are not proven to keep the uniforms'
    order among themselves.  A draw past the int64 range raises
    ``AnalysisError``.
    """

    def __init__(self, gamma: float, x_min: int) -> None:
        if not gamma > 1.0:  # NaN included
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

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        """The inverse CDF at each uniform in ``u``: the least x with
        P(X <= x) >= u."""
        if len(u):
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


def _gof_draws(replicas: range, n: int, seed: int, p_tail: float,
               body_values: np.ndarray, body_counts: np.ndarray,
               sampler: PowerLawSampler) -> tuple[np.ndarray, np.ndarray]:
    """Draw a block of synthetic samples of ``n`` values, one per
    replica: a binomial share ``p_tail`` of each from the fitted tail,
    the rest resampled from the body, ``body_counts[j]`` copies of each
    ascending ``body_values[j]``.  Each sample is one row of (values,
    counts) as ``fit_power_law`` takes them: the body's values, then
    the tail's, then padding, with count 0 where none was drawn."""
    width = len(body_values)
    body_size = int(body_counts.sum())
    body_starts = np.cumsum(body_counts) - body_counts
    rows = len(replicas)
    resampled = np.zeros((rows, width), dtype=np.int64)
    uniforms = []
    for i, replica in enumerate(replicas):
        rng = rng_for(seed, "gof-replica", replica)
        n_tail_draw = int(rng.binomial(n, p_tail))
        u = rng.random(n_tail_draw) if n_tail_draw else np.empty(0)
        u.sort()
        uniforms.append(u)
        if n - n_tail_draw:
            picks = rng.integers(0, body_size, size=n - n_tail_draw)
            resampled[i] = np.add.reduceat(
                np.bincount(picks, minlength=body_size), body_starts)
    tail_sizes = [len(u) for u in uniforms]
    tail = sampler.quantiles(np.concatenate(uniforms))
    tail_row = np.repeat(np.arange(rows), tail_sizes)
    # ascending uniforms give ascending draws from the table, but the
    # far tail bisects rounded zeta values, which need not rise with u
    if ((tail[1:] < tail[:-1]) & (tail_row[1:] == tail_row[:-1])).any():
        tail = tail[np.lexsort((tail, tail_row))]
    run_row, run_values, run_counts = _runs(tail, tail_row)
    runs = np.bincount(run_row, minlength=rows)
    column = (width + np.arange(len(run_row))
              - np.repeat(np.cumsum(runs) - runs, runs))
    values = np.zeros((rows, width + runs.max()), dtype=np.int64)
    values[:, :width] = body_values
    values[run_row, column] = run_values
    counts = np.zeros(values.shape, dtype=np.int64)
    counts[:, :width] = resampled
    counts[run_row, column] = run_counts
    return values, counts


def _gof_block(replicas: range, n: int, seed: int, p_tail: float,
               body_values: np.ndarray, body_counts: np.ndarray,
               sampler: PowerLawSampler, min_tail: int) -> np.ndarray:
    """Draw and refit a block of replicas with one ``fit_power_law``
    call: one (ks, gamma, x_min, n_tail) row each, ks inf where the
    refit failed."""
    values, counts = _gof_draws(replicas, n, seed, p_tail, body_values,
                                body_counts, sampler)
    refit = fit_power_law(values, min_tail=min_tail, counts=counts)
    return np.column_stack((refit.ks_statistic, refit.gamma, refit.x_min,
                            refit.n_tail))


def goodness_of_fit(degrees, fit: TailFit | None = None,
                    m: int = DEFAULT_BOOTSTRAP_M, seed: int = 0,
                    min_tail: int = MIN_TAIL, n_jobs: int = 1) -> FitResult:
    """Bootstrap plausibility test of a fitted power-law tail.

    Each of ``m`` replicas draws, per observation, from the fitted
    tail with probability n_tail/n and otherwise resamples the
    empirical body below x_min; replicas are refitted in full, in
    blocks of ``BLOCK_VALUES`` sample values.  Replica seeds are
    derived from ``seed`` independently of ``n_jobs``, so results do
    not depend on parallelism.
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
    if not 0 < fit.n_tail <= n:
        raise ValidationError(
            f"fit.n_tail must be between 1 and the sample's {n} positive "
            f"values, got {fit.n_tail}")
    body_values, body_counts = np.unique(xs[xs < fit.x_min], return_counts=True)
    p_tail = fit.n_tail / n
    sampler = PowerLawSampler(fit.gamma, fit.x_min)
    per_block = max(1, BLOCK_VALUES // n)
    blocks = [range(lo, min(lo + per_block, m)) for lo in range(0, m, per_block)]
    worker = partial(_gof_block, n=n, seed=seed, p_tail=p_tail,
                     body_values=body_values, body_counts=body_counts,
                     sampler=sampler, min_tail=min_tail)
    stats = np.concatenate(parallel_map(worker, blocks, n_jobs=n_jobs))
    # a pathological replica counts as a poorer fit than any data
    stats[np.isinf(stats[:, 0]), 1:] = (fit.gamma, fit.x_min, 0.0)
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
