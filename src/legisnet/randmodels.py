"""Uniform random (Erdos-Renyi) null models and small-world comparison.

A network counts as small-world when its giant component has an
average shortest path comparable to a size-matched uniform random
graph while its clustering coefficient exceeds the random one by an
order of magnitude; both reference values are measured on generated
null replicas rather than taken from closed-form approximations (the
approximations are reported alongside for orientation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from functools import partial

import numpy as np
from scipy import sparse

from .errors import AnalysisError, ConfigError
from .graph import (
    SENTINEL_EXPIRY,
    LegislationGraph,
    RefType,
    Sector,
    reftype_code,
)
from .metrics import (
    clustering_profile_from_pairs,
    giant_component_mask,
    path_stats_from_csr,
)
from .util import derive_seed, parallel_map

_ER_EFFECT = date(1951, 1, 1)
_PERMUTATION_LIMIT = 2_000_000


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
    skipped_replicas: int = 0
    l_approx: float = float("nan")   # ln n / ln <k> on the giant component
    c_approx: float = float("nan")   # <k> / n on the giant component
    gc_size: int = 0


def _sample_edge_codes(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct codes in [0, n*(n-1)), uniform without replacement."""
    total = n * (n - 1)
    if total <= _PERMUTATION_LIMIT:
        return np.sort(rng.permutation(total)[:m])
    chosen: set[int] = set()
    while len(chosen) < m:
        need = m - len(chosen)
        draw = rng.integers(0, total, size=2 * need + 16)
        for code in draw.tolist():
            chosen.add(code)
            if len(chosen) == m:
                break
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=m))


def erdos_renyi(n: int, m: int, seed: int = 0) -> LegislationGraph:
    """Directed uniform random graph: exactly m distinct edges, no loops.

    Nodes are placeholder documents (sector 3, effect 1951-01-01,
    sentinel expiry); all edges carry the citation reference type.
    """
    if n < 0 or m < 0:
        raise ConfigError("node and edge counts must be non-negative")
    if m > n * (n - 1):
        raise ConfigError(
            f"cannot place {m} distinct directed edges on {n} nodes "
            f"(max {n * (n - 1)})"
        )
    rng = np.random.default_rng(seed)
    if m:
        codes = _sample_edge_codes(n, m, rng)
        src = codes // (n - 1)
        rem = codes % (n - 1)
        dst = rem + (rem >= src)
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    kind = np.full(len(src), reftype_code(RefType.INSTRUMENTS_CITED),
                   dtype=np.int8)
    return LegislationGraph.from_columns(
        tuple(f"ER{i:07d}" for i in range(n)),
        np.full(n, Sector.LEGISLATION.value),
        np.full(n, _ER_EFFECT.toordinal()),
        np.full(n, SENTINEL_EXPIRY.toordinal()),
        src, dst, kind,
    )


def _gc_path_clustering(graph: LegislationGraph, path_mode: str,
                        path_sources: int, path_seed: int,
                        exact_below: int) -> tuple[int, int, float, float] | None:
    """(gc size, gc projection edges, C, L) of the giant component.

    Returns None when the giant component is too small to measure.
    """
    mask = giant_component_mask(graph)
    n_gc = int(mask.sum())
    if n_gc < 2:
        return None
    sub = graph.simple_projection().csr()[mask][:, mask]
    upper = sparse.triu(sub, k=1).tocoo()
    pair_u = upper.row.astype(np.int64)
    pair_v = upper.col.astype(np.int64)
    c_value = clustering_profile_from_pairs(n_gc, pair_u, pair_v).global_avg
    mode = path_mode
    if mode == "auto":
        mode = "exact" if n_gc <= exact_below else "sampled"
    stats = path_stats_from_csr(sub, None, mode=mode, sources=path_sources,
                                seed=path_seed)
    return n_gc, len(pair_u), c_value, stats.average_path_length


def _null_measure(replica: int, n: int, m: int, seed: int, path_mode: str,
                  path_sources: int, exact_below: int,
                  ) -> tuple[float, float] | None:
    null = erdos_renyi(n, m, seed=derive_seed(seed, "er-null", replica))
    measured = _gc_path_clustering(null, path_mode, path_sources,
                                   derive_seed(seed, "er-null-path", replica),
                                   exact_below)
    if measured is None:
        return None
    _, _, c_value, l_value = measured
    return c_value, l_value


def small_world_compare(graph: LegislationGraph, replicas: int = 10,
                        seed: int = 0, length_factor: float = 1.5,
                        clustering_factor: float = 10.0,
                        path_mode: str = "auto", path_sources: int = 1000,
                        exact_below: int = 2000,
                        n_jobs: int = 1) -> SmallWorldReport:
    """Compare clustering and path length against size-matched nulls.

    Verdict: L_net <= length_factor * L_rand and
    C_net >= clustering_factor * C_rand, with the reference values
    averaged over ``replicas`` uniform random graphs carrying the same
    node and typed-edge counts as ``graph``.
    """
    if replicas < 1:
        raise ConfigError("at least one null replica is required")
    measured = _gc_path_clustering(graph, path_mode, path_sources,
                                   derive_seed(seed, "net-path"), exact_below)
    if measured is None or measured[0] < 10:
        raise AnalysisError("giant component must have >= 10 nodes")
    n_gc, gc_edges, c_net, l_net = measured

    worker = partial(_null_measure, n=graph.node_count, m=graph.edge_count,
                     seed=seed, path_mode=path_mode, path_sources=path_sources,
                     exact_below=exact_below)
    rows = parallel_map(worker, list(range(replicas)), n_jobs=n_jobs)
    usable = [row for row in rows if row is not None]
    skipped = replicas - len(usable)
    if not usable:
        raise AnalysisError("every null replica had a degenerate giant component")
    c_rand = float(np.mean([row[0] for row in usable]))
    l_rand = float(np.mean([row[1] for row in usable]))

    mean_degree = 2.0 * gc_edges / n_gc if n_gc else 0.0
    l_approx = (math.log(n_gc) / math.log(mean_degree)
                if mean_degree > 1.0 else float("nan"))
    verdict = (l_net <= length_factor * l_rand
               and c_net >= clustering_factor * c_rand)
    return SmallWorldReport(
        l_net=l_net, c_net=c_net, l_rand=l_rand, c_rand=c_rand,
        small_world_verdict=bool(verdict), rand_replicas=len(usable),
        length_factor=length_factor, clustering_factor=clustering_factor,
        skipped_replicas=skipped, l_approx=l_approx,
        c_approx=mean_degree / n_gc if n_gc else float("nan"),
        gc_size=n_gc,
    )
