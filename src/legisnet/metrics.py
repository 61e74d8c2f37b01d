"""Structural metrics: degrees, inequality, clustering, paths, mixing.

Degree statistics and connected components read the typed directed
multigraph.  Clustering, path lengths, and assortativity are measured
on the simple undirected projection, the ``(pair_u, pair_v)`` columns
of ``LegislationGraph.simple_projection``.  Path metrics are restricted
to the giant component: ``giant_projection`` masks the pairs to it and
renumbers them once, and ``symmetric_csr`` turns them into the CSR the
BFS walks.  Directed path lengths slice the graph's adjacency instead.

Path lengths come from a bit-parallel multi-source BFS (Then et al.,
"The More the Merrier", VLDB 2015).  Sources traverse in chunks of at
most 512, packed 64 to a uint64 word, and the histogram grows one BFS
level at a time, so no distance matrix is ever built.  A chunk of w
words holds the visited, frontier and reached bit rows (3 * n * w * 8
bytes) plus the frontier words gathered over every stored edge
(nnz * w * 8 bytes): about 31 MB at 50,000 nodes and 332,000 stored
entries, where a 256 x n float64 distance block took 102 MB.

Local clustering counts triangles by forward listing (Schank and
Wagner, WEA 2005; Chiba and Nishizeki, SIAM J. Comput. 14, 210, 1985).
Each projection pair is oriented from the lower to the higher
(degree, index) rank, so every triangle shows up exactly once, as a
wedge a -> x, a -> y at its lowest-ranked corner a, and no node keeps
more than sqrt(2m) out-edges.  The oriented edges are sorted as codes
a * n + b, which makes each node's out-edges one sorted row.  A wedge
closes when the code of (x, y), oriented by the same rank, is found
among them by ``searchsorted``; one ``bincount`` per corner gives each
node's triangle count t, and its coefficient is the quotient of the
integers 2t and d(d - 1).  Wedges are listed in chunks of at most
``WEDGE_CHUNK``, and an edge with more wedges than that (at most
sqrt(2m)) forms a chunk alone.  A chunk peaks at about 55 bytes per
wedge, 14 MB at the 2^18 budget, on top of about 60 bytes per edge: the
whole call peaks at 24 MB on the criterion-11 projection (166,339
pairs, 316,554 oriented wedges).

scipy is imported inside the two functions that call it, not with this
module: ``giant_component_mask`` loads ``scipy.sparse.csgraph`` and
``symmetric_csr`` loads ``scipy.sparse``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AnalysisError, ConfigError, ValidationError
from .graph import LegislationGraph
from .util import rng_for

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

CHUNK_WORDS = 8  # uint64 words of sources per BFS chunk: 512 sources
WEDGE_CHUNK = 1 << 18  # oriented wedges listed per clustering chunk
# least number of nodes a degree needs to enter the C(k) log-log slope
MIN_DEGREE_COUNT = 5


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
    gc_size: int
    gc_fraction: float
    isolated_count: int


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

    ``pair_u``/``pair_v`` list each undirected edge once, with u < v.
    Nodes of degree < 2 get coefficient 0.  Triangles come from forward
    listing over the edges oriented by (degree, index) rank; see the
    module docstring.
    """
    degrees = np.bincount(pair_u, minlength=n) + np.bincount(pair_v, minlength=n)
    flip = degrees[pair_u] > degrees[pair_v]
    codes = np.sort(np.where(flip, pair_v * n + pair_u, pair_u * n + pair_v))
    tail, head = np.divmod(codes, n)
    row_end = np.cumsum(np.bincount(tail, minlength=n))
    edge = np.arange(len(codes))
    # wedges whose first leg is oriented edge i: the later edges of its row
    wedges = row_end[tail] - edge - 1
    ends = np.cumsum(wedges)
    triangles = np.zeros(n, dtype=np.int64)
    start = 0
    while start < len(codes):
        listed = ends[start - 1] if start else 0
        # as many edges as the budget holds; an edge over it goes alone
        stop = max(int(np.searchsorted(ends, listed + WEDGE_CHUNK, side="right")),
                   start + 1)
        legs, count = edge[start:stop], wedges[start:stop]
        first = np.repeat(legs, count)
        # wedge j of edge i pairs it with edge i + 1 + j of the same row
        begins = ends[start:stop] - count - listed
        second = (np.arange(ends[stop - 1] - listed)
                  + np.repeat(legs + 1 - begins, count))
        x, y = head[first], head[second]  # x < y: each row is sorted
        closing = np.where(degrees[x] > degrees[y], y * n + x, x * n + y)
        found = np.minimum(np.searchsorted(codes, closing), len(codes) - 1)
        closed = codes[found] == closing
        for corner in (tail[first[closed]], x[closed], y[closed]):
            triangles += np.bincount(corner, minlength=n)
        start = stop
    local = np.zeros(n, dtype=float)
    eligible = degrees >= 2
    denom = degrees[eligible] * (degrees[eligible] - 1)
    local[eligible] = 2 * triangles[eligible] / denom
    return local


def clustering_profile_from_pairs(n: int, pair_u: np.ndarray,
                                  pair_v: np.ndarray) -> ClusteringProfile:
    if n == 0:
        return ClusteringProfile(0.0, {}, float("nan"))
    local = local_clustering_from_pairs(n, pair_u, pair_v)
    degrees = np.bincount(pair_u, minlength=n) + np.bincount(pair_v, minlength=n)
    # one slice per distinct degree, holding its nodes in index order
    by_degree = np.argsort(degrees, kind="stable")
    ranked, local_ranked = degrees[by_degree], local[by_degree]
    starts = np.flatnonzero(np.diff(ranked, prepend=-1)).tolist()
    per_degree: dict[int, float] = {}
    counts: dict[int, int] = {}
    for start, stop in zip(starts, starts[1:] + [n]):
        k = int(ranked[start])
        per_degree[k] = float(local_ranked[start:stop].mean())
        counts[k] = stop - start
    slope = _loglog_slope(per_degree, counts)
    return ClusteringProfile(float(local.mean()), per_degree, slope)


def _loglog_slope(per_degree: dict[int, float], counts: dict[int, int]) -> float:
    ks = [k for k, c in per_degree.items()
          if k >= 1 and c > 0 and counts[k] >= MIN_DEGREE_COUNT]
    if len(ks) < 2:
        return float("nan")
    x = np.log(np.array(ks, dtype=float))
    y = np.log(np.array([per_degree[k] for k in ks]))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def clustering(graph: LegislationGraph) -> ClusteringProfile:
    """Clustering profile of the simple undirected projection.

    The log-log slope regresses log C(k) on log k over degrees with at
    least ``MIN_DEGREE_COUNT`` nodes and positive mean coefficient.
    """
    return clustering_profile_from_pairs(graph.node_count,
                                         *graph.simple_projection())


# -- components --------------------------------------------------------------


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
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency(), directed=True,
                                     connection="weak")
    return labels == largest_label(labels, graph.id_ranks())


def giant_projection(graph: LegislationGraph,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mask, pair_u, pair_v)``: the giant component's mask and its
    projection pairs, renumbered to positions among the masked nodes.

    The pairs keep the projection's ascending order and u < v.  A pair
    never crosses components, so testing one end selects it.
    """
    mask = giant_component_mask(graph)
    pair_u, pair_v = graph.simple_projection()
    keep = mask[pair_u]
    new_index = np.cumsum(mask) - 1
    return mask, new_index[pair_u[keep]], new_index[pair_v[keep]]


def components(graph: LegislationGraph) -> ComponentReport:
    """Largest weakly connected component and isolated-node count."""
    n = graph.node_count
    if n == 0:
        return ComponentReport(0, 0.0, 0)
    gc_size = int(giant_component_mask(graph).sum())
    isolated = int((graph.degree_array("total") == 0).sum())
    return ComponentReport(gc_size, gc_size / n, isolated)


# -- path metrics ------------------------------------------------------------


def symmetric_csr(n: int, pair_u: np.ndarray, pair_v: np.ndarray) -> csr_matrix:
    """Boolean CSR adjacency of the undirected graph on ``n`` nodes whose
    edges are the unique pairs ``(pair_u, pair_v)``."""
    from scipy.sparse import csr_matrix

    rows = np.concatenate([pair_u, pair_v])
    cols = np.concatenate([pair_v, pair_u])
    data = np.ones(len(rows), dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(n, n), dtype=np.int8)


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


def path_stats_from_csr(csr: csr_matrix, restricted_to: str,
                        mode: str = "exact", sources: int = 1000,
                        seed: int = 0) -> PathMetrics:
    """Shortest-path statistics of a (symmetric or directed) CSR graph.

    ``exact`` runs a breadth-first search from every node; ``sampled``
    from ``sources`` uniformly chosen distinct nodes, in which case the
    diameter is a lower bound.  ``restricted_to`` names the node set
    in the report (the smallest id of the giant component).
    """
    if sources < 1:
        raise ConfigError(f"path statistics need >= 1 source, got {sources}")
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
    return PathMetrics(
        average_path_length=total_length / total_pairs,
        diameter=max(hist),
        distance_histogram=hist,
        restricted_to=restricted_to,
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
    mask, pair_u, pair_v = giant_projection(graph)
    n_gc = int(mask.sum())
    if n_gc < 2:
        raise AnalysisError("giant component has fewer than 2 nodes")
    if directed:
        sub = graph.adjacency()[mask][:, mask]
    else:
        sub = symmetric_csr(n_gc, pair_u, pair_v)
    smallest_id = min(itertools.compress(graph.ids, mask.tolist()))
    result = path_stats_from_csr(sub, smallest_id, mode=mode, sources=sources,
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
    pair_u, pair_v = graph.simple_projection()
    if len(pair_u) < 2:
        raise AnalysisError("assortativity requires at least 2 projection edges")
    if criterion == "degree":
        n = graph.node_count
        deg = (np.bincount(pair_u, minlength=n)
               + np.bincount(pair_v, minlength=n)).astype(float)
        du, dv = deg[pair_u], deg[pair_v]
        x = np.concatenate([du, dv])
        y = np.concatenate([dv, du])
        sx, sy = x.std(), y.std()
        if sx == 0 or sy == 0:
            raise AnalysisError("degree assortativity undefined: zero variance")
        return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    if criterion == "sector":
        codes = graph.sector_codes() - 1
        e = np.zeros((6, 6), dtype=float)
        np.add.at(e, (codes[pair_u], codes[pair_v]), 0.5)
        np.add.at(e, (codes[pair_v], codes[pair_u]), 0.5)
        e /= len(pair_u)
        a = e.sum(axis=1)
        b = e.sum(axis=0)
        ab = float(np.dot(a, b))
        if abs(1.0 - ab) < 1e-15:
            return 1.0  # every edge inside a single sector
        return float((np.trace(e) - ab) / (1.0 - ab))
    raise ValidationError(f"unknown assortativity criterion {criterion!r}")
