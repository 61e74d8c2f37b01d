"""Structural metrics: degrees, inequality, clustering, paths, mixing.

Degree statistics and connected components read the typed directed
multigraph.  Clustering, path lengths, and assortativity are measured
on the simple undirected projection; path metrics are restricted to
the giant component.

Path lengths come from a bit-parallel multi-source BFS (Then et al.,
"The More the Merrier", VLDB 2015).  Sources traverse in chunks of at
most 512, packed 64 to a uint64 word, and the histogram grows one BFS
level at a time, so no distance matrix is ever built.  A chunk of w
words holds the visited, frontier and reached bit rows (3 * n * w * 8
bytes) plus the frontier words gathered over every stored edge
(nnz * w * 8 bytes): about 31 MB at 50,000 nodes and 332,000 stored
entries, where a 256 x n float64 distance block took 102 MB.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import AnalysisError, ConfigError, ValidationError
from .graph import LegislationGraph
from .util import rng_for

CHUNK_WORDS = 8  # uint64 words of sources per BFS chunk: 512 sources


@dataclass
class DegreeStats:
    n: int
    mean: float
    stddev: float
    max: int
    histogram: dict[int, int]


@dataclass
class LorenzGini:
    """Inequality summary of a degree distribution.

    ``lorenz_points`` runs from (0, 0) to (1, 1) over nodes sorted by
    ascending degree.  ``top1_share`` is the fraction of all links held
    by the top 1% highest-degree nodes; ``pareto80_node_fraction`` is
    the smallest fraction of highest-degree nodes holding >= 80% of
    links.  ``all_zero`` flags the degenerate every-degree-zero case,
    where the gini is defined as 0.
    """

    lorenz_points: list[tuple[float, float]]
    gini: float
    top1_share: float
    pareto80_node_fraction: float
    all_zero: bool = False


@dataclass
class ClusteringProfile:
    global_avg: float
    per_degree: dict[int, float]
    loglog_slope: float


@dataclass
class PathMetrics:
    average_path_length: float
    diameter: int
    distance_histogram: dict[int, int]
    restricted_to: str  # smallest document id inside the giant component
    mode: str = "exact"
    sources: int = 0
    diameter_is_lower_bound: bool = False
    directed: bool = False


@dataclass
class ComponentReport:
    giant_component_ids: frozenset[str]
    gc_fraction: float
    isolated_count: int

    @property
    def gc_size(self) -> int:
        return len(self.giant_component_ids)


# -- degree statistics -----------------------------------------------------


def degree_stats(graph: LegislationGraph, direction: str) -> DegreeStats:
    """Exact degree statistics over the typed multigraph."""
    if graph.node_count == 0:
        raise AnalysisError("degree statistics are undefined on an empty graph")
    if direction not in ("in", "out"):
        raise ValidationError(f"direction must be 'in' or 'out', got {direction!r}")
    degrees = graph.degree_array(direction)
    counts = np.bincount(degrees)
    histogram = {int(k): int(c) for k, c in enumerate(counts) if c > 0}
    return DegreeStats(
        n=int(graph.node_count),
        mean=float(degrees.mean()),
        stddev=float(degrees.std()),
        max=int(degrees.max()),
        histogram=histogram,
    )


def gini_sorted(values: np.ndarray) -> float:
    """Gini coefficient via the sorted-rank formula.

    G = (2 * sum_i i*x_(i)) / (n * sum x) - (n + 1) / n with 1-based
    ranks over ascending-sorted values.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    total = x.sum()
    if n == 0 or total == 0:
        return 0.0
    ranks = np.arange(1, n + 1, dtype=float)
    return float(2.0 * np.dot(ranks, x) / (n * total) - (n + 1) / n)


def lorenz_gini(graph: LegislationGraph, direction: str) -> LorenzGini:
    if graph.node_count == 0:
        raise AnalysisError("lorenz/gini are undefined on an empty graph")
    if direction not in ("in", "out"):
        raise ValidationError(f"direction must be 'in' or 'out', got {direction!r}")
    degrees = graph.degree_array(direction).astype(float)
    return lorenz_gini_from_degrees(degrees)


def lorenz_gini_from_degrees(degrees: np.ndarray) -> LorenzGini:
    n = len(degrees)
    ascending = np.sort(degrees)
    total = ascending.sum()
    all_zero = total == 0
    if all_zero:
        points = [(i / n, i / n) for i in range(n + 1)]
        return LorenzGini(points, 0.0, 0.0, 0.0, all_zero=True)
    cum = np.concatenate([[0.0], np.cumsum(ascending)]) / total
    xs = np.arange(n + 1) / n
    points = list(zip(xs.tolist(), cum.tolist()))
    descending = ascending[::-1]
    top_k = int(np.ceil(0.01 * n))
    top1_share = float(descending[:top_k].sum() / total)
    cum_desc = np.cumsum(descending)
    pareto_k = int(np.searchsorted(cum_desc, 0.8 * total) + 1)
    return LorenzGini(
        lorenz_points=points,
        gini=gini_sorted(degrees),
        top1_share=top1_share,
        pareto80_node_fraction=pareto_k / n,
    )


# -- clustering --------------------------------------------------------------


def local_clustering_from_pairs(n: int, pair_u: np.ndarray,
                                pair_v: np.ndarray) -> np.ndarray:
    """Local clustering coefficient per node of a simple undirected graph.

    ``pair_u``/``pair_v`` list each undirected edge once.  Nodes of
    degree < 2 get coefficient 0.
    """
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(pair_u.tolist(), pair_v.tolist()):
        neighbors[u].add(v)
        neighbors[v].add(u)
    wedge = np.zeros(n, dtype=np.int64)
    for u, v in zip(pair_u.tolist(), pair_v.tolist()):
        su, sv = neighbors[u], neighbors[v]
        if len(sv) < len(su):
            su, sv = sv, su
        common = len(su & sv)
        if common:
            wedge[u] += common
            wedge[v] += common
    degrees = np.fromiter((len(s) for s in neighbors), dtype=np.int64, count=n)
    local = np.zeros(n, dtype=float)
    eligible = degrees >= 2
    denom = degrees[eligible] * (degrees[eligible] - 1)
    local[eligible] = wedge[eligible] / denom
    return local


def clustering_profile_from_pairs(n: int, pair_u: np.ndarray, pair_v: np.ndarray,
                                  min_count: int = 5) -> ClusteringProfile:
    if n == 0:
        return ClusteringProfile(0.0, {}, float("nan"))
    local = local_clustering_from_pairs(n, pair_u, pair_v)
    degrees = np.zeros(n, dtype=np.int64)
    np.add.at(degrees, pair_u, 1)
    np.add.at(degrees, pair_v, 1)
    per_degree: dict[int, float] = {}
    counts: dict[int, int] = {}
    for k in np.unique(degrees):
        sel = degrees == k
        per_degree[int(k)] = float(local[sel].mean())
        counts[int(k)] = int(sel.sum())
    slope = _loglog_slope(per_degree, counts, min_count)
    return ClusteringProfile(float(local.mean()), per_degree, slope)


def _loglog_slope(per_degree: dict[int, float], counts: dict[int, int],
                  min_count: int) -> float:
    ks = [k for k, c in per_degree.items()
          if k >= 1 and c > 0 and counts[k] >= min_count]
    if len(ks) < 2:
        return float("nan")
    x = np.log(np.array(ks, dtype=float))
    y = np.log(np.array([per_degree[k] for k in ks]))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def clustering(graph: LegislationGraph, min_count: int = 5) -> ClusteringProfile:
    """Clustering profile of the simple undirected projection.

    The log-log slope regresses log C(k) on log k over degrees with at
    least ``min_count`` nodes and positive mean coefficient.
    """
    proj = graph.simple_projection()
    return clustering_profile_from_pairs(proj.n, proj.pair_u, proj.pair_v,
                                         min_count=min_count)


# -- components --------------------------------------------------------------


def weak_component_labels(graph: LegislationGraph) -> tuple[int, np.ndarray]:
    if graph.node_count == 0:
        return 0, np.empty(0, dtype=np.int32)
    return connected_components(graph.adjacency(), directed=True,
                                connection="weak")


def largest_label(labels: np.ndarray, id_rank: np.ndarray) -> int:
    """Label of the largest component; size ties go to the component
    holding the smallest document id (``id_rank`` from ``id_ranks()``)."""
    sizes = np.bincount(labels)
    tied = np.flatnonzero(sizes[labels] == sizes.max())
    return int(labels[tied[np.argmin(id_rank[tied])]])


def giant_component_mask(graph: LegislationGraph) -> np.ndarray:
    """Mask of the largest weakly connected component (ties: smallest id)."""
    if graph.node_count == 0:
        return np.zeros(0, dtype=bool)
    _, labels = weak_component_labels(graph)
    return labels == largest_label(labels, graph.id_ranks())


def components(graph: LegislationGraph) -> ComponentReport:
    """Largest weakly connected component and isolated-node count."""
    if not graph.sealed:
        raise ValidationError("components requires a sealed graph")
    n = graph.node_count
    if n == 0:
        return ComponentReport(frozenset(), 0.0, 0)
    mask = giant_component_mask(graph)
    ids = frozenset(doc_id for doc_id, keep in zip(graph.ids, mask) if keep)
    isolated = int((graph.degree_array("total") == 0).sum())
    return ComponentReport(ids, len(ids) / n, isolated)


# -- path metrics ------------------------------------------------------------


def distance_histogram(csr: csr_matrix, source_indices: np.ndarray) -> dict[int, int]:
    """Counts of finite shortest-path lengths from the given sources.

    Ordered pairs (source, target) with target != source; unreachable
    pairs are skipped.  Distances follow stored entries ``csr[u, v]``
    as edges u -> v.  Source j of a chunk owns bit j of every node's
    row of words; each BFS level ORs the frontier rows of a node's
    in-neighbours, masks out visited bits and counts the new ones.
    """
    sources = np.asarray(source_indices, dtype=np.int64)
    n = csr.shape[0]
    incoming = csr.T.tocsr()  # row v lists every u with an edge u -> v
    rows = np.flatnonzero(np.diff(incoming.indptr))
    if len(rows) == 0:
        return {}
    starts = incoming.indptr[rows]
    hist = [0]
    for start in range(0, len(sources), 64 * CHUNK_WORDS):
        chunk = sources[start:start + 64 * CHUNK_WORDS]
        bit = np.arange(len(chunk))
        visited = np.zeros((n, -(-len(chunk) // 64)), dtype=np.uint64)
        np.bitwise_or.at(visited, (chunk, bit // 64),
                         np.uint64(1) << (bit % 64).astype(np.uint64))
        frontier = visited.copy()
        for level in itertools.count(1):
            reached = np.zeros_like(visited)
            reached[rows] = np.bitwise_or.reduceat(
                frontier[incoming.indices], starts, axis=0)
            frontier = reached & ~visited
            found = int(np.bitwise_count(frontier).sum())
            if not found:
                break
            if level == len(hist):
                hist.append(0)
            hist[level] += found
            visited |= frontier
    return {d: c for d, c in enumerate(hist) if c > 0}


def path_stats_from_csr(csr: csr_matrix, ids: tuple[str, ...] | None,
                        mode: str = "exact", sources: int = 1000,
                        seed: int = 0) -> PathMetrics:
    """Shortest-path statistics of a (symmetric or directed) CSR graph.

    ``exact`` runs a breadth-first search from every node; ``sampled``
    from ``sources`` uniformly chosen distinct nodes, in which case the
    diameter is a lower bound.
    """
    if mode == "sampled" and sources < 1:
        raise ConfigError(f"sampled paths need >= 1 source, got {sources}")
    n = csr.shape[0]
    if n < 2:
        raise AnalysisError("path metrics require a component with >= 2 nodes")
    if mode == "exact":
        chosen = np.arange(n)
    elif mode == "sampled":
        k = min(sources, n)
        rng = rng_for(seed, "path-sources")
        chosen = np.sort(rng.choice(n, size=k, replace=False))
        if k == n:
            mode = "exact"
    else:
        raise ValidationError(f"unknown path mode {mode!r}")
    hist = distance_histogram(csr, chosen)
    if not hist:
        raise AnalysisError("no finite node pairs; cannot average path length")
    total_pairs = sum(hist.values())
    total_length = sum(d * c for d, c in hist.items())
    smallest_id = min(ids) if ids else ""
    return PathMetrics(
        average_path_length=total_length / total_pairs,
        diameter=max(hist),
        distance_histogram=hist,
        restricted_to=smallest_id,
        mode=mode,
        sources=len(chosen),
        diameter_is_lower_bound=(mode == "sampled"),
    )


def path_metrics(graph: LegislationGraph, mode: str = "exact",
                 sources: int = 1000, seed: int = 0,
                 directed: bool = False) -> PathMetrics:
    """Path-length statistics on the giant component of the projection.

    With ``directed=True`` distances follow edge orientation on the
    same node set (the weak giant component) and average over ordered
    reachable pairs.
    """
    if not graph.sealed:
        raise ValidationError("path metrics require a sealed graph")
    mask = giant_component_mask(graph)
    if int(mask.sum()) < 2:
        raise AnalysisError("giant component has fewer than 2 nodes")
    if directed:
        sub = graph.adjacency()[mask][:, mask]
    else:
        proj = graph.simple_projection()
        sub = proj.csr()[mask][:, mask]
    gc_ids = tuple(doc_id for doc_id, keep in zip(graph.ids, mask) if keep)
    result = path_stats_from_csr(sub, gc_ids, mode=mode, sources=sources,
                                 seed=seed)
    result.directed = directed
    return result


# -- assortativity -----------------------------------------------------------


def assortativity(graph: LegislationGraph, criterion: str = "degree") -> float:
    """Mixing coefficient across projection edges.

    ``degree``: Pearson correlation of endpoint degrees, each
    undirected edge contributing both orientations.  ``sector``:
    attribute mixing coefficient r = (sum_i e_ii - sum_i a_i b_i) /
    (1 - sum_i a_i b_i) over the 6x6 sector mixing matrix.
    """
    proj = graph.simple_projection()
    if proj.edge_count < 2:
        raise AnalysisError("assortativity requires at least 2 projection edges")
    if criterion == "degree":
        deg = proj.degree_array().astype(float)
        du, dv = deg[proj.pair_u], deg[proj.pair_v]
        x = np.concatenate([du, dv])
        y = np.concatenate([dv, du])
        sx, sy = x.std(), y.std()
        if sx == 0 or sy == 0:
            raise AnalysisError("degree assortativity undefined: zero variance")
        return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    if criterion == "sector":
        codes = graph.sector_codes() - 1
        e = np.zeros((6, 6), dtype=float)
        np.add.at(e, (codes[proj.pair_u], codes[proj.pair_v]), 0.5)
        np.add.at(e, (codes[proj.pair_v], codes[proj.pair_u]), 0.5)
        e /= proj.edge_count
        a = e.sum(axis=1)
        b = e.sum(axis=0)
        ab = float(np.dot(a, b))
        if abs(1.0 - ab) < 1e-15:
            return 1.0  # every edge inside a single sector
        return float((np.trace(e) - ab) / (1.0 - ab))
    raise ValidationError(f"unknown assortativity criterion {criterion!r}")
