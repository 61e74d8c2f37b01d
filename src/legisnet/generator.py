"""Synthetic corpus generator for desk-scale experiments.

Documents are added year by year.  Each new document cites documents
that already exist (citations always point backward in time; the
reciprocal half of an amendment pair is the only forward edge).  The
number of edges is scheduled so that, after every year, the cumulative
edge count tracks ``citation_scale * N**densification_exponent`` where
N is the cumulative document count, which makes the generated series
obey a densification power law with the requested exponent.

Citation targets are drawn preferentially: with probability
``preferential_mixing`` a target is chosen proportionally to
(in-degree + 1), otherwise uniformly among existing documents.  Strong
mixing yields heavy-tailed in-degree distributions.

A seed fixes the corpus byte for byte, because the draws from the one
``numpy`` generator come in a fixed order.  Each year draws, as arrays
of one value per document, the sectors, the day offsets, the sunset
flags, the sunset spans and the citation propensities.  Each citation
then draws its target (per try, a mixing draw when
``preferential_mixing`` > 0 and an index; at most 200 tries, then one
index into the uncited remainder) and then its reference type.
Changing this order, or the number of draws, changes every generated
corpus: the benchmark's corpora and the digests that the tests record.
"""

from __future__ import annotations

import calendar
import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .graph import (
    RECIPROCAL_TYPES,
    SENTINEL_EXPIRY,
    LegislationGraph,
    RefType,
    Sector,
    reftype_code,
)

_SECTOR_CODES = tuple(sector.value for sector in Sector)
_SENTINEL_ORDINAL = SENTINEL_EXPIRY.toordinal()
# the backward half of an amendment pair is the amending act pointing at
# the act it amends, so a drawn AMENDED_BY is stored as AMENDMENT_TO
_STORED_TYPES = tuple(RefType.AMENDMENT_TO if kind is RefType.AMENDED_BY
                      else kind for kind in RefType)
# by drawn type index: the stored type code, and the code of the
# reciprocal edge stored with it (None: no reciprocal edge)
_STORED_CODES = tuple(reftype_code(kind) for kind in _STORED_TYPES)
_TWIN_CODES = tuple(reftype_code(RECIPROCAL_TYPES[kind])
                    if kind in RECIPROCAL_TYPES else None
                    for kind in _STORED_TYPES)

# Pareto shape of per-document citation appetite; smaller = heavier
# out-degree tail.
OUT_PROPENSITY_EXPONENT = 2.4


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters controlling synthetic corpus generation.

    ``docs_per_year`` is a single count applied to every year or one
    count per year.  ``citation_scale`` is the proportionality constant
    of the edge schedule (cumulative edges ~ scale * N**exponent).
    """

    years: tuple[int, int]
    docs_per_year: int | Sequence[int] = 100
    densification_exponent: float = 1.0
    preferential_mixing: float = 0.5
    sector_weights: Sequence[float] = (1.0, 1.0, 6.0, 1.0, 3.0, 2.0)
    reftype_weights: Sequence[float] = (1.0, 1.0, 2.0, 5.0, 0.5, 0.5)
    sunset_probability: float = 0.0
    sunset_horizon_years: int = 20
    seed: int = 0
    citation_scale: float = 1.0

    def year_range(self) -> range:
        start, end = self.years
        return range(start, end + 1)

    def schedule(self) -> list[int]:
        years = list(self.year_range())
        if isinstance(self.docs_per_year, int):
            return [self.docs_per_year] * len(years)
        counts = [int(c) for c in self.docs_per_year]
        if len(counts) != len(years):
            raise ConfigError(
                f"docs_per_year has {len(counts)} entries for {len(years)} years"
            )
        return counts

    def validate(self) -> None:
        """Reject a configuration ``generate`` cannot honour; draws nothing."""
        start, end = self.years
        if not date.min.year <= start <= end <= date.max.year:
            raise ConfigError(f"year range {self.years} is empty or leaves "
                              f"{date.min.year}..{date.max.year}")
        if any(c <= 0 for c in self.schedule()):
            raise ConfigError("docs_per_year entries must be positive")
        if not 1.0 <= self.densification_exponent <= 2.0:
            raise ConfigError("densification_exponent must lie in [1, 2]")
        if not 0.0 <= self.preferential_mixing <= 1.0:
            raise ConfigError("preferential_mixing must lie in [0, 1]")
        for name, weights in (("sector_weights", self.sector_weights),
                              ("reftype_weights", self.reftype_weights)):
            vals = list(weights)
            if len(vals) != 6:
                raise ConfigError(f"{name} must have exactly 6 entries")
            # NaN fails every comparison; an infinite weight or sum fails the last
            if not (all(w >= 0 for w in vals) and 0 < sum(vals) < math.inf):
                raise ConfigError(f"{name} must be finite, non-negative "
                                  "and not all zero")
        if not 0.0 <= self.sunset_probability <= 1.0:
            raise ConfigError("sunset_probability must lie in [0, 1]")
        if self.sunset_horizon_years < 1:
            raise ConfigError("sunset_horizon_years must be positive")
        # horizons are drawn as int64 whatever the probability
        top = int(np.iinfo(np.int64).max)
        if self.sunset_horizon_years > top:
            raise ConfigError(f"sunset_horizon_years must be at most {top}")
        if (self.sunset_probability > 0
                and end + self.sunset_horizon_years > date.max.year):
            raise ConfigError("sunset_horizon_years may carry expiry dates "
                              f"past {date.max}")
        # the last year's cumulative edge target is the largest
        if not (0 < self.citation_scale * sum(self.schedule())
                ** self.densification_exponent < math.inf):
            raise ConfigError("citation_scale must be positive, with a finite "
                              "edge target citation_scale * documents**exponent")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _add_years(day: date, count: int) -> date:
    try:
        return day.replace(year=day.year + count)
    except ValueError:  # Feb 29 in a non-leap target year
        return day.replace(year=day.year + count, day=28)


def _days_in_year(year: int) -> int:
    return 366 if calendar.isleap(year) else 365


def _cumulative(weights: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(weights), dtype=float)
    return np.cumsum(arr / arr.sum())


def generate(config: GeneratorConfig) -> LegislationGraph:
    """Generate a graph; byte-identical output for a fixed seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    sector_cum = _cumulative(config.sector_weights)
    reftype_cum = _cumulative(config.reftype_weights).tolist()
    schedule = config.schedule()
    total_docs = sum(schedule)

    ids: list[str] = []
    sector_codes: list[int] = []
    effect_ords: list[int] = []
    expiry_ords: list[int] = []
    edges: list[int] = []  # flat (source, target, type code) triples
    # preference pool: one entry per node plus one per received in-edge,
    # so uniform sampling over it is proportional to (in-degree + 1)
    pool: list[int] = []

    for year, n_year in zip(config.year_range(), schedule):
        n_before = len(ids)
        sectors = np.searchsorted(sector_cum, rng.random(n_year))
        day_offsets = np.sort(rng.integers(0, _days_in_year(year), size=n_year))
        sunset_flags = rng.random(n_year) < config.sunset_probability
        sunset_spans = rng.integers(1, config.sunset_horizon_years + 1, size=n_year)

        codes = [_SECTOR_CODES[i] for i in sectors.tolist()]
        effects = (date(year, 1, 1).toordinal() + day_offsets).tolist()
        expiries = [_SENTINEL_ORDINAL] * n_year
        for local in np.flatnonzero(sunset_flags).tolist():
            expiries[local] = _add_years(date.fromordinal(effects[local]),
                                         int(sunset_spans[local])).toordinal()
        ids += [f"{code}{year}X{n_before + local:05d}"
                for local, code in enumerate(codes)]
        sector_codes += codes
        effect_ords += effects
        expiry_ords += expiries

        target_total = int(round(config.citation_scale
                                 * (n_before + n_year) ** config.densification_exponent))
        budget = max(0, target_total - len(edges) // 3)
        budget = _emit_citations(
            rng, config, edges, pool,
            first_index=n_before, count=n_year, budget=budget,
            reftype_cum=reftype_cum,
        )
        if budget > 0:
            raise ConfigError(
                f"infeasible schedule: year {year} requests more citations "
                f"than there are available targets"
            )

    assert len(ids) == total_docs
    src, dst, kind = np.array(edges, dtype=np.int64).reshape(-1, 3).T
    return LegislationGraph(ids, sector_codes, effect_ords, expiry_ords,
                            src, dst, kind)


def _citation_propensities(rng: np.random.Generator, count: int) -> np.ndarray:
    """Heavy-tailed per-document citation appetite (Pareto weights).

    Real corpora mix sparse acts with omnibus documents citing hundreds
    of instruments; weighting the year's edge budget this way gives the
    out-degree distribution a realistic tail.
    """
    return (1.0 - rng.random(count)) ** (-1.0 / (OUT_PROPENSITY_EXPONENT - 1.0))


def _emit_citations(rng: np.random.Generator, config: GeneratorConfig,
                    edges: list[int], pool: list[int],
                    first_index: int, count: int, budget: int,
                    reftype_cum: list[float]) -> int:
    """Emit this year's citations; returns the unspent edge budget."""
    mixing = config.preferential_mixing
    mixed = mixing > 0
    random, integers = rng.random, rng.integers
    weights = _citation_propensities(rng, count)
    # numpy's pairwise sum: sum() or math.fsum can differ in the last bit
    weight_left = float(weights.sum())
    for offset, weight in enumerate(weights.tolist()):
        source = first_index + offset
        share = weight / weight_left if weight_left > 0 else 1.0
        weight_left -= weight
        if offset == count - 1:
            quota = budget  # last document absorbs rounding leftovers
        else:
            quota = min(budget, int(round(budget * share)))
        cited: set[int] = set()
        emitted = 0
        reciprocal_hits = 0
        while emitted < quota and len(cited) < source:
            for _ in range(200):
                if mixed and random() < mixing:
                    target = pool[integers(len(pool))]
                else:
                    target = int(integers(source))
                if target not in cited:
                    break
            else:
                target = _draw_uncited(rng, source, cited)
            cited.add(target)
            drawn = bisect_left(reftype_cum, random())
            edges += (source, target, _STORED_CODES[drawn])
            pool.append(target)  # target gained an in-edge
            emitted += 1
            twin = _TWIN_CODES[drawn]
            if twin is not None:
                edges += (target, source, twin)
                reciprocal_hits += 1
                emitted += 1
        budget = max(0, budget - emitted)
        pool += [source] * (1 + reciprocal_hits)
    return budget


def _draw_uncited(rng: np.random.Generator, source: int,
                  cited: set[int]) -> int:
    """Dense corner: nearly every existing document is already cited."""
    remaining = np.setdiff1d(np.arange(source), np.fromiter(cited, dtype=np.int64))
    return int(remaining[int(rng.integers(len(remaining)))])
