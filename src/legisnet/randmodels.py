"""Uniform random (Erdos-Renyi) null models and small-world comparison.

A network counts as small-world when its giant component has an
average shortest path comparable to a size-matched uniform random
graph while its clustering coefficient exceeds the random one by an
order of magnitude; both reference values are measured on generated
null replicas rather than taken from closed-form approximations (the
approximations are reported alongside for orientation).

A null is G(n, m) of the graph's ``null_size``: its node count and the
pair count of the projection that C, L and resilience read.  Its edges
are one numpy ``Generator.choice`` draw of m distinct codes from the
n(n-1)/2 node pairs, in under 160 bytes per edge.

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
pass, with its sources, and the nulls in the network's path mode.  A
null is dropped, caches and all, once measured.  No null is skipped:
the network's giant component has at least 10 nodes, so a null gets at
least 9 edges and its giant component at least 2 nodes.
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
# the small-world verdict's lines on L and C (see small_world_compare)
LENGTH_FACTOR = 1.5
CLUSTERING_FACTOR = 10.0


@dataclass
class SmallWorldReport:
    l_net: float
    c_net: float
    l_rand: float
    c_rand: float
    small_world_verdict: bool
    rand_replicas: int
    length_factor: float = LENGTH_FACTOR
    clustering_factor: float = CLUSTERING_FACTOR
    l_approx: float = float("nan")   # ln n / ln <k> on the giant component
    c_approx: float = float("nan")   # <k> / n on the giant component
    gc_size: int = 0


def erdos_renyi(n: int, m: int, seed: int = 0) -> LegislationGraph:
    """Uniform random graph G(n, m): m distinct node pairs, one directed
    edge each, so the projection has exactly m pairs.

    Nodes are placeholder documents (sector 3, effect 1951-01-01,
    sentinel expiry); all edges carry the citation reference type.
    Code c < n(n-1)/2 is the edge x -> (x + c // n + 1) mod n, x = c % n,
    one code per pair; unlike edges all pointing up the index order,
    these can close directed cycles.  numpy draws m codes by Floyd's
    algorithm, or by a partial shuffle of all codes (4·n(n-1) bytes)
    once m > n(n-1)/40.
    """
    pairs = n * (n - 1) // 2
    if n < 0 or not 0 <= m <= pairs:
        raise ConfigError(f"G(n, m) needs n >= 0 and 0 <= m <= n(n-1)/2, "
                          f"got n={n}, m={m}")
    codes = np.random.default_rng(seed).choice(pairs, size=m, replace=False,
                                               shuffle=False)
    reach, src = np.divmod(codes, n)
    dst = (src + reach + 1) % n
    kind = np.full(len(src), reftype_code(RefType.INSTRUMENTS_CITED),
                   dtype=np.int8)
    return LegislationGraph(
        tuple(f"ER{i:07d}" for i in range(n)),
        np.full(n, Sector.LEGISLATION.value),
        np.full(n, _ER_EFFECT.toordinal()),
        np.full(n, SENTINEL_EXPIRY.toordinal()),
        src, dst, kind,
    )


def null_size(graph: LegislationGraph) -> tuple[int, int]:
    """(node count, projection pair count): the G(n, m) of its nulls."""
    return graph.node_count, len(graph.simple_projection()[0])


def _gc_path_clustering(graph: LegislationGraph, path_mode: str,
                        path_sources: int, path_seed: int,
                        ) -> tuple[float, float]:
    """(C, L) of a giant component of at least 2 nodes."""
    mask = giant_projection(graph)[0]
    c_value = float(local_clustering(graph)[mask].mean())
    stats = path_metrics(graph, mode=path_mode, sources=path_sources,
                         seed=path_seed)
    return c_value, stats.average_path_length


def _null_measure(replica: int, size: tuple[int, int], seed: int,
                  path_mode: str, path_sources: int) -> tuple[float, float]:
    null = erdos_renyi(*size, seed=derive_seed(seed, "er-null", replica))
    return _gc_path_clustering(null, path_mode, path_sources,
                               derive_seed(seed, "er-null-path", replica))


def small_world_compare(graph: LegislationGraph, replicas: int = 10,
                        seed: int = 0, path_mode: str = "auto",
                        path_sources: int = 1000,
                        n_jobs: int = 1) -> SmallWorldReport:
    """Compare clustering and path length against size-matched nulls.

    Verdict: L_net <= LENGTH_FACTOR * L_rand and
    C_net >= CLUSTERING_FACTOR * C_rand, with the reference values
    averaged over ``replicas`` nulls of ``null_size``, each measured in
    the network's path mode (``auto``: exact up to ``EXACT_BELOW`` giant
    nodes).  The report states both lines, so other lines can be applied
    to its values without a rerun.
    """
    if replicas < 1:
        raise ConfigError("at least one null replica is required")
    mask, gc_pairs, _ = giant_projection(graph)
    n_gc = int(mask.sum())
    if n_gc < 10:
        raise AnalysisError("giant component must have >= 10 nodes")
    if path_mode == "auto":
        path_mode = "exact" if n_gc <= EXACT_BELOW else "sampled"
    # the structure stage's sources, so a report states one sampled L_net
    c_net, l_net = _gc_path_clustering(graph, path_mode, path_sources, seed)

    worker = partial(_null_measure, size=null_size(graph), seed=seed,
                     path_mode=path_mode, path_sources=path_sources)
    rows = parallel_map(worker, list(range(replicas)), n_jobs=n_jobs)
    c_rand = float(np.mean([row[0] for row in rows]))
    l_rand = float(np.mean([row[1] for row in rows]))

    mean_degree = 2.0 * len(gc_pairs) / n_gc
    l_approx = (math.log(n_gc) / math.log(mean_degree)
                if mean_degree > 1.0 else float("nan"))
    verdict = (l_net <= LENGTH_FACTOR * l_rand
               and c_net >= CLUSTERING_FACTOR * c_rand)
    return SmallWorldReport(
        l_net=l_net, c_net=c_net, l_rand=l_rand, c_rand=c_rand,
        small_world_verdict=bool(verdict), rand_replicas=replicas,
        l_approx=l_approx, c_approx=mean_degree / n_gc, gc_size=n_gc,
    )
