"""Uniform random (Erdos-Renyi) null models and small-world comparison.

A network counts as small-world when its giant component has an
average shortest path comparable to a size-matched uniform random
graph while its clustering coefficient exceeds the random one by an
order of magnitude; both reference values are measured on generated
null replicas rather than taken from closed-form approximations (the
approximations are reported alongside for orientation).

A null's edges are one numpy ``Generator.choice`` draw of m distinct
codes from the n(n-1) ordered node pairs, in under 160 bytes per edge.

The network and every null are measured through one path,
``_gc_path_clustering``, on what ``metrics`` computes once per graph
and keeps in its cache: the giant component's mask, the projection's
local clustering coefficients and ``path_metrics``.  C is the mean of the
local coefficients over the giant component's nodes.  A node's
coefficient depends only on its neighbours, all of which lie in its
component, so the masked values are the very floats that clustering
the giant component alone gives (the same integers 2t and d(d - 1)
divided), in the same order, and their mean is the same float.  L is
the undirected ``path_metrics`` of the giant component, so in
``report-all`` the network's C and L come from the structure stage's
pass, with its sources.  A null is dropped, caches and all, once
measured.  No null is skipped: the network's giant component has at
least 10 nodes, so a null gets at least 9 edges and its giant
component at least 2 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from functools import partial

import numpy as np

from .errors import AnalysisError, ConfigError
from .graph import (
    SENTINEL_EXPIRY,
    LegislationGraph,
    RefType,
    Sector,
    reftype_code,
)
# clustering_profile_from_pairs and path_stats_from_csr go unused here;
# bench/spans.py patches them until ROADMAP item 2 lands
from .metrics import (  # noqa: F401
    clustering_profile_from_pairs,
    giant_projection,
    local_clustering,
    path_metrics,
    path_stats_from_csr,
)
from .util import derive_seed, parallel_map

_ER_EFFECT = date(1951, 1, 1)
# giant components up to this size get exact path lengths in auto mode
EXACT_BELOW = 2000


@dataclass
class SmallWorldReport:
    l_net: float
    c_net: float
    l_rand: float
    c_rand: float
    small_world_verdict: bool
    rand_replicas: int
    length_factor: float = 1.5
    clustering_factor: float = 10.0
    skipped_replicas: int = 0  # no null can be skipped; kept for the reports
    l_approx: float = float("nan")   # ln n / ln <k> on the giant component
    c_approx: float = float("nan")   # <k> / n on the giant component
    gc_size: int = 0


def erdos_renyi(n: int, m: int, seed: int = 0) -> LegislationGraph:
    """Directed uniform random graph: exactly m distinct edges, no loops.

    Nodes are placeholder documents (sector 3, effect 1951-01-01,
    sentinel expiry); all edges carry the citation reference type.
    Code c < n(n-1) is the edge from c // (n-1) to its c % (n-1)-th other
    node. numpy draws m codes by Floyd's algorithm, or by a partial
    shuffle of all codes (8·n(n-1) bytes) once m > n(n-1)/20.
    """
    if n < 0 or m < 0:
        raise ConfigError("node and edge counts must be non-negative")
    if m > n * (n - 1):
        raise AnalysisError(
            f"cannot place {m} distinct directed edges on {n} nodes "
            f"(max {n * (n - 1)})"
        )
    codes = np.random.default_rng(seed).choice(n * (n - 1), size=m,
                                               replace=False, shuffle=False)
    src, rem = np.divmod(codes, n - 1)
    dst = rem + (rem >= src)
    kind = np.full(len(src), reftype_code(RefType.INSTRUMENTS_CITED),
                   dtype=np.int8)
    return LegislationGraph(
        tuple(f"ER{i:07d}" for i in range(n)),
        np.full(n, Sector.LEGISLATION.value),
        np.full(n, _ER_EFFECT.toordinal()),
        np.full(n, SENTINEL_EXPIRY.toordinal()),
        src, dst, kind,
    )


def _gc_path_clustering(graph: LegislationGraph, path_mode: str,
                        path_sources: int, path_seed: int,
                        ) -> tuple[int, int, float, float]:
    """(gc size, gc projection edges, C, L) of a giant component of at
    least 2 nodes."""
    mask, pair_u, _ = giant_projection(graph)
    n_gc = int(mask.sum())
    c_value = float(local_clustering(graph)[mask].mean())
    mode = path_mode
    if mode == "auto":
        mode = "exact" if n_gc <= EXACT_BELOW else "sampled"
    stats = path_metrics(graph, mode=mode, sources=path_sources, seed=path_seed)
    return n_gc, len(pair_u), c_value, stats.average_path_length


def _null_measure(replica: int, n: int, m: int, seed: int, path_mode: str,
                  path_sources: int) -> tuple[float, float]:
    null = erdos_renyi(n, m, seed=derive_seed(seed, "er-null", replica))
    _, _, c_value, l_value = _gc_path_clustering(
        null, path_mode, path_sources,
        derive_seed(seed, "er-null-path", replica))
    return c_value, l_value


def small_world_compare(graph: LegislationGraph, replicas: int = 10,
                        seed: int = 0, length_factor: float = 1.5,
                        clustering_factor: float = 10.0,
                        path_mode: str = "auto", path_sources: int = 1000,
                        n_jobs: int = 1) -> SmallWorldReport:
    """Compare clustering and path length against size-matched nulls.

    Verdict: L_net <= length_factor * L_rand and
    C_net >= clustering_factor * C_rand, with the reference values
    averaged over ``replicas`` uniform random graphs carrying the same
    node and typed-edge counts as ``graph``.
    """
    if replicas < 1:
        raise ConfigError("at least one null replica is required")
    for name, factor in (("length_factor", length_factor),
                         ("clustering_factor", clustering_factor)):
        if not (math.isfinite(factor) and factor > 0):
            raise ConfigError(f"{name} must be finite and > 0, got {factor}")
    if giant_projection(graph)[0].sum() < 10:
        raise AnalysisError("giant component must have >= 10 nodes")
    # the structure stage's sources, so a report states one sampled L_net
    n_gc, gc_edges, c_net, l_net = _gc_path_clustering(
        graph, path_mode, path_sources, seed)

    worker = partial(_null_measure, n=graph.node_count, m=graph.edge_count,
                     seed=seed, path_mode=path_mode, path_sources=path_sources)
    rows = parallel_map(worker, list(range(replicas)), n_jobs=n_jobs)
    c_rand = float(np.mean([row[0] for row in rows]))
    l_rand = float(np.mean([row[1] for row in rows]))

    mean_degree = 2.0 * gc_edges / n_gc
    l_approx = (math.log(n_gc) / math.log(mean_degree)
                if mean_degree > 1.0 else float("nan"))
    verdict = (l_net <= length_factor * l_rand
               and c_net >= clustering_factor * c_rand)
    return SmallWorldReport(
        l_net=l_net, c_net=c_net, l_rand=l_rand, c_rand=c_rand,
        small_world_verdict=bool(verdict), rand_replicas=replicas,
        length_factor=length_factor, clustering_factor=clustering_factor,
        l_approx=l_approx, c_approx=mean_degree / n_gc, gc_size=n_gc,
    )
