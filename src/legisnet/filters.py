"""Sub-network extraction: sector filters, relation filters, snapshots.

All three operations are pure functions on an immutable graph and
return new graphs, so they compose in any order and are safe to call
concurrently.  The annual series returns node masks, not graphs.
"""

from __future__ import annotations

from datetime import date

import numpy as np

from .graph import LegislationGraph, RefType, Sector, reftype_code


def filter_sector(graph: LegislationGraph, sector: Sector) -> LegislationGraph:
    """Keep only documents of ``sector`` and edges joining two survivors."""
    mask = graph.sector_codes() == sector.value
    return graph.induced_subgraph(mask)


def filter_reftype(graph: LegislationGraph, kind: RefType) -> LegislationGraph:
    """Keep every document but only edges of ``kind``."""
    _, _, kinds = graph.edge_arrays()
    node_mask = np.ones(graph.node_count, dtype=bool)
    return graph.induced_subgraph(node_mask, kinds == reftype_code(kind))


def active_mask(graph: LegislationGraph, at: date) -> np.ndarray:
    """Boolean mask of documents whose validity interval contains ``at``."""
    effect, expiry = graph.date_ordinals()
    when = at.toordinal()
    return (effect <= when) & (when <= expiry)


def snapshot(graph: LegislationGraph, at: date) -> LegislationGraph:
    """Point-in-time view: documents in effect at ``at``.

    A document is kept iff effect <= at <= expiry (closed on both
    ends); an edge is kept iff both endpoints are kept.
    """
    return graph.induced_subgraph(active_mask(graph, at))


def annual_series(graph: LegislationGraph, years: tuple[int, int],
                  ) -> list[tuple[int, np.ndarray]]:
    """One active-document mask per December 31, ascending (none if inverted).

    A year is a mask over the parent's columns, with components on the
    sliced parent CSR; ``graph.induced_subgraph(mask)`` is its snapshot.
    """
    start, end = years
    return [(year, active_mask(graph, date(year, 12, 31)))
            for year in range(start, end + 1)]
