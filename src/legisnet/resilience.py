"""Failure and attack tolerance: progressive node removal.

Each step deletes ceil(step_fraction * remaining) nodes together with
all their incident edges, then the largest weakly connected component
of what is left is measured.  Nodes are chosen uniformly at random
(failures) or highest-degree-first (attacks); attack ordering either
freezes the initial degrees or re-ranks after every step.  Random
curves are averaged pointwise over many repetitions.  The removal
schedule depends only on the node count, so curves from graphs of
equal size share their removed-fraction grid and compare pointwise.

Every curve (random, static or adaptive attack) is measured by one
reverse-percolation pass (Newman & Ziff, PRL 85, 4104, 2000): the
projection's edges are sorted by the step at which they die and added
back, last step first, to a union-find over the nodes.  One pass costs
O(m log m) for the sort plus near-linear unions, and holds the node
ranks, the sorted edge lists and the parent and size arrays: O(n + m)
memory, with no per-step subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import AnalysisError, ConfigError
from .graph import LegislationGraph
from .util import derive_seed, parallel_map

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
        if self.repetitions is not None:
            return self.repetitions
        return 1000 if self.strategy == "random" else 1


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
    while removed / n < stop_at and removed < n:
        step = min(math.ceil(step_fraction * (n - removed)), n - removed)
        removed += step
        boundaries.append(removed)
    return boundaries


def _curve_for_order(order: np.ndarray, pair_u: np.ndarray, pair_v: np.ndarray,
                     n: int, boundaries: list[int]) -> np.ndarray:
    """gc sizes for the intact graph plus every removal boundary.

    Newman-Ziff reverse percolation: ``order[r]`` is the r-th node
    removed, and an edge survives a boundary b (b nodes removed) iff
    its key, the smaller removal rank of its ends, is >= b.  Walking
    the boundaries from the last to 0 adds edges in descending key
    order to a union-find (union by size, path halving) whose largest
    component is the giant.
    """
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    key = np.minimum(rank[pair_u], rank[pair_v])
    steps = [0] + boundaries
    by_key = np.argsort(key)
    live = len(key) - np.searchsorted(key[by_key], steps)  # edges per step
    us = pair_u[by_key[::-1]].tolist()
    vs = pair_v[by_key[::-1]].tolist()
    parent = list(range(n))
    size = [1] * n
    giant = 1
    added = 0
    sizes = []
    for boundary, limit in zip(reversed(steps), reversed(live.tolist())):
        for u, v in zip(us[added:limit], vs[added:limit]):
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                continue
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
    rng = np.random.default_rng(derive_seed(seed, "removal-rep", rep))
    order = rng.permutation(n)
    return _curve_for_order(order, pair_u, pair_v, n, boundaries)


def _static_attack_order(graph: LegislationGraph) -> np.ndarray:
    degrees = graph.degree_array("total")
    # highest degree first, ties by smallest document id
    return np.lexsort((graph.id_ranks(), -degrees))


def _adaptive_attack_curve(graph: LegislationGraph, pair_u: np.ndarray,
                           pair_v: np.ndarray,
                           boundaries: list[int]) -> np.ndarray:
    n = graph.node_count
    src, dst, _ = graph.edge_arrays()
    id_rank = graph.id_ranks()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)  # assembled removal order
    removed = 0
    for boundary in boundaries:
        step = boundary - removed
        live_edges = alive[src] & alive[dst]
        degrees = (np.bincount(src[live_edges], minlength=n)
                   + np.bincount(dst[live_edges], minlength=n))
        candidates = np.flatnonzero(alive)
        order = candidates[np.lexsort((id_rank[candidates],
                                       -degrees[candidates]))]
        victims = order[:step]
        rank[victims] = np.arange(removed, boundary)
        alive[victims] = False
        removed = boundary
    rank[alive] = np.arange(removed, n)
    return _curve_for_order(np.argsort(rank), pair_u, pair_v, n, boundaries)


def simulate(graph: LegislationGraph, config: ResilienceConfig,
             n_jobs: int = 1) -> ResilienceCurve:
    """Run the removal protocol; deterministic for a fixed seed.

    Run it on a point-in-time snapshot when only active legislation
    should be at stake; the simulation itself removes from whatever
    graph it is handed.
    """
    n = graph.node_count
    if n < MIN_NODES:
        raise AnalysisError(f"resilience needs >= {MIN_NODES} nodes, got {n}")
    proj = graph.simple_projection()
    pair_u, pair_v = proj.pair_u, proj.pair_v
    boundaries = removal_boundaries(n, config.step_fraction, config.stop_at)
    reps = config.effective_repetitions()

    if config.strategy == "random":
        worker = partial(_random_repetition, seed=config.seed, pair_u=pair_u,
                         pair_v=pair_v, n=n, boundaries=boundaries)
        curves = np.stack(parallel_map(worker, list(range(reps)), n_jobs=n_jobs))
        sizes = curves.mean(axis=0)
        averaged_over = reps
        degree_mode = None
    elif config.degree_mode == "static_initial":
        order = _static_attack_order(graph)
        sizes = _curve_for_order(order, pair_u, pair_v, n, boundaries).astype(float)
        averaged_over = 1
        degree_mode = config.degree_mode
    else:
        sizes = _adaptive_attack_curve(graph, pair_u, pair_v,
                                       boundaries).astype(float)
        averaged_over = 1
        degree_mode = config.degree_mode

    removed_counts = [0] + boundaries
    points = []
    for removed, gc_size in zip(removed_counts, sizes):
        remaining = n - removed
        points.append((
            removed / n,
            gc_size / remaining if remaining else 0.0,
            gc_size / n,
        ))
    return ResilienceCurve(points, averaged_over, config.strategy, degree_mode)


def compare_with_null(graph: LegislationGraph, config: ResilienceConfig,
                      n_jobs: int = 1) -> tuple[ResilienceCurve, ResilienceCurve]:
    """Apply the identical protocol to the graph and a size-matched null."""
    from .randmodels import erdos_renyi

    null = erdos_renyi(graph.node_count, graph.edge_count,
                       seed=derive_seed(config.seed, "resilience-null"))
    own = simulate(graph, config, n_jobs=n_jobs)
    null_curve = simulate(
        null, replace(config, seed=derive_seed(config.seed, "null-protocol")),
        n_jobs=n_jobs,
    )
    return own, null_curve
