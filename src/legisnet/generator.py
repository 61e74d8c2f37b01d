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
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import date, timedelta
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

_SECTORS = tuple(Sector)
_REFTYPES = tuple(RefType)

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
    reftype_cum = _cumulative(config.reftype_weights)
    schedule = config.schedule()
    years = list(config.year_range())
    total_docs = sum(schedule)

    ids: list[str] = []
    sector_codes: list[int] = []
    effect_ords: list[int] = []
    expiry_ords: list[int] = []
    edges: list[tuple[int, int, int]] = []  # (source, target, type code)
    # preference pool: one entry per node plus one per received in-edge,
    # so uniform sampling over it is proportional to (in-degree + 1)
    pool: list[int] = []
    edges_emitted = 0

    for year, n_year in zip(years, schedule):
        n_before = len(ids)
        sectors = np.searchsorted(sector_cum, rng.random(n_year))
        day_offsets = np.sort(rng.integers(0, _days_in_year(year), size=n_year))
        sunset_flags = rng.random(n_year) < config.sunset_probability
        sunset_spans = rng.integers(1, config.sunset_horizon_years + 1, size=n_year)

        year_start = date(year, 1, 1)
        for local in range(n_year):
            effect = year_start + timedelta(days=int(day_offsets[local]))
            expiry = (_add_years(effect, int(sunset_spans[local]))
                      if sunset_flags[local] else SENTINEL_EXPIRY)
            sector = _SECTORS[int(sectors[local])]
            ids.append(f"{sector.value}{year}X{n_before + local:05d}")
            sector_codes.append(sector.value)
            effect_ords.append(effect.toordinal())
            expiry_ords.append(expiry.toordinal())

        target_total = int(round(config.citation_scale
                                 * (n_before + n_year) ** config.densification_exponent))
        budget = max(0, target_total - edges_emitted)
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
        edges_emitted = len(edges)

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
                    edges: list[tuple[int, int, int]], pool: list[int],
                    first_index: int, count: int, budget: int,
                    reftype_cum: np.ndarray) -> int:
    """Emit this year's citations; returns the unspent edge budget."""
    mixing = config.preferential_mixing
    weights = _citation_propensities(rng, count)
    weight_left = float(weights.sum())
    for offset in range(count):
        source = first_index + offset
        share = weights[offset] / weight_left if weight_left > 0 else 1.0
        weight_left -= float(weights[offset])
        if offset == count - 1:
            quota = budget  # last document absorbs rounding leftovers
        else:
            quota = min(budget, int(round(budget * share)))
        cited: set[int] = set()
        emitted = 0
        reciprocal_hits = 0
        while emitted < quota and len(cited) < source:
            target = _draw_target(rng, pool, source, cited, mixing)
            cited.add(target)
            kind = _REFTYPES[int(np.searchsorted(reftype_cum, rng.random()))]
            if kind is RefType.AMENDED_BY:
                # the backward half of an amendment pair is the amending
                # act pointing at the act it amends
                kind = RefType.AMENDMENT_TO
            edges.append((source, target, reftype_code(kind)))
            pool.append(target)  # target gained an in-edge
            emitted += 1
            reciprocal = RECIPROCAL_TYPES.get(kind)
            if reciprocal is not None:
                edges.append((target, source, reftype_code(reciprocal)))
                reciprocal_hits += 1
                emitted += 1
        budget = max(0, budget - emitted)
        pool.append(source)
        pool.extend([source] * reciprocal_hits)
    return budget


def _draw_target(rng: np.random.Generator, pool: list[int], source: int,
                 cited: set[int], mixing: float) -> int:
    for _ in range(200):
        if mixing > 0 and rng.random() < mixing:
            candidate = pool[int(rng.integers(len(pool)))]
        else:
            candidate = int(rng.integers(source))
        if candidate not in cited:
            return candidate
    # dense corner: nearly every existing document already cited
    remaining = np.setdiff1d(np.arange(source), np.fromiter(cited, dtype=np.int64))
    return int(remaining[int(rng.integers(len(remaining)))])
