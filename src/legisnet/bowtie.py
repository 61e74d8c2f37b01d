"""Macro-structure decomposition of the directed graph (bow-tie model).

The node set is partitioned into six classes relative to the largest
strongly connected component (the core): IN (reaches the core), OUT
(reachable from the core), TUBES (on an IN-to-OUT passage that avoids
the core), TENDRILS (touched by IN going forward or OUT going
backward, but not both), and DISCONNECTED (everything else, including
nodes outside the core's weakly connected component).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import AnalysisError
from .graph import LegislationGraph
from .metrics import largest_label

COMPONENT_NAMES = ("core", "in", "out", "tubes", "tendrils", "disconnected")


@dataclass
class BowTieDecomposition:
    core: frozenset[str]
    in_set: frozenset[str]
    out_set: frozenset[str]
    tubes: frozenset[str]
    tendrils: frozenset[str]
    disconnected: frozenset[str]
    fractions: dict[str, float]

    def sets(self) -> dict[str, frozenset[str]]:
        return {
            "core": self.core,
            "in": self.in_set,
            "out": self.out_set,
            "tubes": self.tubes,
            "tendrils": self.tendrils,
            "disconnected": self.disconnected,
        }

    def sizes(self) -> dict[str, int]:
        return {name: len(ids) for name, ids in self.sets().items()}


def _reach(step_matrix: csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """Nodes reachable from ``seeds`` (inclusive) by repeated expansion.

    ``step_matrix @ frontier`` must light up the next frontier; pass
    the transposed adjacency to walk edges forward, the adjacency
    itself to walk them backward.
    """
    visited = seeds.copy()
    frontier = seeds
    while frontier.any():
        hit = step_matrix.dot(frontier.astype(np.float32)) != 0
        frontier = hit & ~visited
        visited |= frontier
    return visited


def decompose(graph: LegislationGraph) -> BowTieDecomposition:
    """Partition a non-empty graph into bow-tie components."""
    n = graph.node_count
    if n == 0:
        raise AnalysisError("bow-tie decomposition is undefined on an empty graph")
    adj = graph.adjacency()
    adj_t = adj.T
    _, scc_labels = connected_components(adj, directed=True, connection="strong")
    core = scc_labels == largest_label(scc_labels, graph.id_ranks())

    reached_from_core = _reach(adj_t, core)
    reaching_core = _reach(adj, core)
    out_set = reached_from_core & ~core
    in_set = reaching_core & ~core

    _, weak_labels = connected_components(adj, directed=True, connection="weak")
    weak = weak_labels == weak_labels[int(np.flatnonzero(core)[0])]
    remaining = weak & ~core & ~in_set & ~out_set
    from_in = _reach(adj_t, in_set) & remaining
    to_out = _reach(adj, out_set) & remaining
    tubes = from_in & to_out
    tendrils = from_in ^ to_out
    disconnected = ~weak | (remaining & ~from_in & ~to_out)

    ids = np.array(graph.ids, dtype=object)
    sets = {
        "core": core,
        "in": in_set,
        "out": out_set,
        "tubes": tubes,
        "tendrils": tendrils,
        "disconnected": disconnected,
    }
    fractions = {name: float(mask.sum()) / n for name, mask in sets.items()}
    return BowTieDecomposition(
        core=frozenset(ids[core]),
        in_set=frozenset(ids[in_set]),
        out_set=frozenset(ids[out_set]),
        tubes=frozenset(ids[tubes]),
        tendrils=frozenset(ids[tendrils]),
        disconnected=frozenset(ids[disconnected]),
        fractions=fractions,
    )
