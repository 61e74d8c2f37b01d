"""Annual evolution series and densification power-law fitting.

The yearly series counts only active nodes and edges (point-in-time
snapshots at December 31).  A year is a node mask over the parent's
columns, with components on the sliced parent CSR; no graph is built
per year.  Densification regresses ln E on ln N by ordinary least
squares over the usable snapshots; the slope is the exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError
from .filters import annual_series
from .graph import LegislationGraph, RefType, Sector


@dataclass
class SnapshotStat:
    year: int
    n: int
    e: int
    per_sector: dict[int, int] = field(default_factory=dict)
    per_reftype: dict[str, int] = field(default_factory=dict)
    scc_fraction: float = 0.0
    gc_fraction: float = 0.0


@dataclass
class DensificationFit:
    slope: float
    intercept: float
    r_squared: float
    points_used: int
    points_excluded: int = 0


def snapshot_stat(year: int, graph: LegislationGraph,
                  mask: np.ndarray) -> SnapshotStat:
    """Counts and component fractions of the nodes in ``mask``."""
    n = int(mask.sum())
    src, dst, kinds = graph.edge_arrays()
    live = mask[src] & mask[dst]
    sectors = np.bincount(graph.sector_codes()[mask], minlength=len(Sector) + 1)
    per_sector = {sector.value: int(sectors[sector.value]) for sector in Sector}
    types = np.bincount(kinds[live], minlength=len(RefType))
    per_reftype = {kind.value: int(count) for kind, count in zip(RefType, types)}
    scc_fraction = gc_fraction = 0.0
    if n > 0:
        from scipy.sparse.csgraph import connected_components

        adj = graph.adjacency()[mask][:, mask]
        _, strong = connected_components(adj, directed=True, connection="strong")
        _, weak = connected_components(adj, directed=True, connection="weak")
        scc_fraction = int(np.bincount(strong).max()) / n
        gc_fraction = int(np.bincount(weak).max()) / n
    return SnapshotStat(year, n, int(live.sum()), per_sector, per_reftype,
                        scc_fraction, gc_fraction)


def evolution_series(graph: LegislationGraph,
                     years: tuple[int, int]) -> list[SnapshotStat]:
    """One SnapshotStat per year-end snapshot, ascending."""
    return [snapshot_stat(y, graph, m) for y, m in annual_series(graph, years)]


def densification_fit(series: list[SnapshotStat]) -> DensificationFit:
    """OLS fit of ln E against ln N over usable snapshots.

    Snapshots with N < 2 or E < 1 are excluded (their logs are useless
    or undefined); at least 3 usable points are required.
    """
    usable = [(s.n, s.e) for s in series if s.n >= 2 and s.e >= 1]
    excluded = len(series) - len(usable)
    if len(usable) < 3:
        raise AnalysisError(
            f"densification fit needs >= 3 usable snapshots, got {len(usable)}"
        )
    log_n = np.log([n for n, _ in usable])
    log_e = np.log([e for _, e in usable])
    if np.ptp(log_n) == 0:
        raise AnalysisError("densification fit undefined: ln N has no variance")
    slope, intercept = np.polyfit(log_n, log_e, 1)
    predicted = slope * log_n + intercept
    ss_res = float(np.sum((log_e - predicted) ** 2))
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    if ss_tot == 0:
        r_squared = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    return DensificationFit(float(slope), float(intercept), float(r_squared),
                            len(usable), excluded)
