"""Failure and attack tolerance: progressive node removal.

Each step deletes ceil(step_fraction * remaining) nodes together with
all their incident edges, then the largest weakly connected component
of what is left is measured.  Each strategy yields a removal rank for
one kernel: a uniform random permutation (failures) or highest total
degree first, ties by smallest document id (attacks), with the degrees
either frozen at the start or re-ranked after every step.  Random
curves are averaged pointwise over many repetitions, an attack curve
over its one rank.  The removal schedule depends only on the node
count, so curves from graphs of equal size share their removed-fraction
grid and compare pointwise.

Every curve (random, static or adaptive attack) is measured by one
reverse-percolation pass (Newman & Ziff, PRL 85, 4104, 2000) over a
spanning forest.  Nodes are relabelled by reverse removal rank, so the
last node removed is 0, and each projection pair is stored at (larger
label, smaller label) with weight 1 + larger label.  A pair survives a
boundary iff its larger label is below the number of nodes left, so the
CSR built by one argsort of the rows is already in Kruskal order
(Proc. AMS 7, 48, 1956): scipy's ``minimum_spanning_tree`` finds its
data presorted, and the forest's row pointer at n - b counts the forest
edges alive at boundary b.  By the cut property those edges join the
same nodes as every pair alive at b, so the union-find that adds them
back, last step first, walks at most n - 1 edges, every one a merge.
One pass costs O(m log m) for the row sort and the spanning forest
plus near-linear unions.  It holds one m-entry CSR (float64 weights,
int32 columns: 2.2 MB for 166,339 pairs on 50,000 nodes), the forest,
and the parent and size arrays: O(n + m) memory, with no per-step
subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import AnalysisError, ConfigError
from .graph import LegislationGraph
from .util import derive_seed, parallel_map, rng_for

MIN_NODES = 20


@dataclass(frozen=True)
class ResilienceConfig:
    strategy: str = "random"            # random | targeted_by_degree
    step_fraction: float = 0.05
    repetitions: int | None = None      # default: 1000 random, 1 targeted
    degree_mode: str = "static_initial"  # static_initial | adaptive_recompute
    seed: int = 0
    stop_at: float = 0.99

    def __post_init__(self) -> None:
        if self.strategy not in ("random", "targeted_by_degree"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.step_fraction < 1.0:
            raise ConfigError("step_fraction must be in (0, 1)")
        if self.repetitions is not None and self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.degree_mode not in ("static_initial", "adaptive_recompute"):
            raise ConfigError(f"unknown degree_mode {self.degree_mode!r}")
        if not 0.0 < self.stop_at <= 1.0:
            raise ConfigError("stop_at must be in (0, 1]")

    def effective_repetitions(self) -> int:
        """Curves ``simulate`` averages: an attack has one rank."""
        if self.strategy != "random":
            return 1
        return 1000 if self.repetitions is None else self.repetitions


@dataclass
class ResilienceCurve:
    """Giant-component share as removal progresses.

    Each point is (fraction removed of the original nodes, giant
    fraction of the remaining nodes, giant fraction of the original
    nodes); the first point is the intact graph.
    """

    points: list[tuple[float, float, float]]
    averaged_over: int
    strategy: str
    degree_mode: str | None = None

    def removed_fractions(self) -> list[float]:
        return [p[0] for p in self.points]

    def gc_of_original(self) -> list[float]:
        return [p[2] for p in self.points]

    def area_under_curve(self) -> float:
        """Trapezoidal area of gc-of-original vs removed fraction."""
        xs = np.array(self.removed_fractions())
        ys = np.array(self.gc_of_original())
        return float(np.trapezoid(ys, xs))


def removal_boundaries(n: int, step_fraction: float, stop_at: float) -> list[int]:
    """Cumulative removal counts after each step."""
    boundaries = []
    removed = 0
    while removed / n < stop_at:  # stop_at <= 1, so removed < n
        # 0 < f < 1 keeps fl(f * r) in (0, r], so each step is 1 to r nodes
        removed += math.ceil(step_fraction * (n - removed))
        boundaries.append(removed)
    return boundaries


def _curve_for_rank(rank: np.ndarray, pair_u: np.ndarray, pair_v: np.ndarray,
                    n: int, boundaries: list[int]) -> np.ndarray:
    """gc sizes for the intact graph plus every removal boundary.

    Newman-Ziff reverse percolation on a spanning forest: node x is
    removed at step ``rank[x]`` and relabelled ``n - 1 - rank[x]``, so
    a pair with larger label ``row`` survives a boundary b (b nodes
    removed) iff ``row < n - b``.  Stored at (row, smaller label) with
    weight ``1 + row``, the pairs are in Kruskal order, and the minimum
    spanning forest's first ``indptr[n - b]`` edges join the same nodes
    as every pair alive at b.  Walking the boundaries from the last to
    0 adds those edges, each a merge, to a union-find (union by size,
    path halving) whose largest component is the giant.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import minimum_spanning_tree

    label = (n - 1) - rank
    lu, lv = label[pair_u], label[pair_v]
    row = np.maximum(lu, lv)
    by_row = np.argsort(row)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    pairs = sparse.csr_matrix(
        (row[by_row] + 1.0, np.minimum(lu, lv)[by_row].astype(np.int32),
         indptr), shape=(n, n))
    forest = minimum_spanning_tree(pairs, overwrite=True)
    steps = [0] + boundaries
    live = forest.indptr[n - np.array(steps)].tolist()  # forest edges per step
    us = np.repeat(np.arange(n), np.diff(forest.indptr)).tolist()
    vs = forest.indices.tolist()
    parent = list(range(n))
    size = [1] * n
    giant = 1
    added = 0
    sizes = []
    for boundary, limit in zip(reversed(steps), reversed(live)):
        for u, v in zip(us[added:limit], vs[added:limit]):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if size[u] < size[v]:
                u, v = v, u
            parent[v] = u
            size[u] += size[v]
            if size[u] > giant:
                giant = size[u]
        added = limit
        sizes.append(giant if boundary < n else 0)
    return np.array(sizes[::-1], dtype=np.int64)


def _random_repetition(rep: int, seed: int, pair_u: np.ndarray,
                       pair_v: np.ndarray, n: int,
                       boundaries: list[int]) -> np.ndarray:
    order = rng_for(seed, "removal-rep", rep).permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return _curve_for_rank(rank, pair_u, pair_v, n, boundaries)


def _attack_rank(graph: LegislationGraph, boundaries: list[int],
                 adaptive: bool) -> np.ndarray:
    """Removal rank of a degree attack: highest total degree first, ties
    by smallest document id.  The adaptive attack re-ranks the nodes
    left at every boundary; the static one ranks every node once."""
    n = graph.node_count
    src, dst, _ = graph.edge_arrays()
    id_rank = graph.id_ranks()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    removed = 0
    for boundary in boundaries if adaptive else [n]:
        live_edges = alive[src] & alive[dst]
        degrees = (np.bincount(src[live_edges], minlength=n)
                   + np.bincount(dst[live_edges], minlength=n))
        candidates = np.flatnonzero(alive)
        order = candidates[np.lexsort((id_rank[candidates],
                                       -degrees[candidates]))]
        victims = order[:boundary - removed]
        rank[victims] = np.arange(removed, boundary)
        alive[victims] = False
        removed = boundary
    rank[alive] = np.arange(removed, n)
    return rank


def simulate(graph: LegislationGraph, config: ResilienceConfig,
             n_jobs: int = 1) -> ResilienceCurve:
    """Run the removal protocol; deterministic for a fixed seed.

    Each random repetition or the one attack yields a removal rank, the
    one kernel turns each rank into a curve of giant sizes, and the
    stack of curves is averaged pointwise.

    Run it on a point-in-time snapshot when only active legislation
    should be at stake; the simulation itself removes from whatever
    graph it is handed.
    """
    n = graph.node_count
    if n < MIN_NODES:
        raise AnalysisError(f"resilience needs >= {MIN_NODES} nodes, got {n}")
    pair_u, pair_v = graph.simple_projection()
    boundaries = removal_boundaries(n, config.step_fraction, config.stop_at)
    if config.strategy == "random":
        worker = partial(_random_repetition, seed=config.seed, pair_u=pair_u,
                         pair_v=pair_v, n=n, boundaries=boundaries)
        curves = parallel_map(worker, list(range(config.effective_repetitions())),
                              n_jobs=n_jobs)
    else:
        rank = _attack_rank(graph, boundaries,
                            config.degree_mode == "adaptive_recompute")
        curves = [_curve_for_rank(rank, pair_u, pair_v, n, boundaries)]
    sizes = np.stack(curves).mean(axis=0)

    removed_counts = [0] + boundaries
    points = []
    for removed, gc_size in zip(removed_counts, sizes):
        remaining = n - removed
        points.append((
            removed / n,
            gc_size / remaining if remaining else 0.0,
            gc_size / n,
        ))
    degree_mode = None if config.strategy == "random" else config.degree_mode
    return ResilienceCurve(points, len(curves), config.strategy, degree_mode)


def compare_with_null(graph: LegislationGraph, config: ResilienceConfig,
                      n_jobs: int = 1) -> tuple[ResilienceCurve, ResilienceCurve]:
    """Apply the identical protocol to the graph and its ``null_size`` null."""
    from .randmodels import erdos_renyi, null_size

    null = erdos_renyi(*null_size(graph),
                       seed=derive_seed(config.seed, "resilience-null"))
    own = simulate(graph, config, n_jobs=n_jobs)
    null_curve = simulate(
        null, replace(config, seed=derive_seed(config.seed, "null-protocol")),
        n_jobs=n_jobs,
    )
    return own, null_curve
