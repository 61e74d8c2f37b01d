"""Macro-structure decomposition of the directed graph (bow-tie model).

Every node gets one of six classes relative to the largest strongly
connected component (the core): IN (reaches the core), OUT (reachable
from the core), TUBES (on an IN-to-OUT passage that avoids the core),
TENDRILS (touched by IN going forward or OUT going backward, but not
both), and DISCONNECTED (everything else, including nodes outside the
core's weakly connected component).

The result is one label per node, an index into ``COMPONENT_NAMES``.
No weak-component pass is needed: IN and OUT touch the core, and a node
that IN reaches or that reaches OUT is joined to them by that path, so
every node of another weak component stays untouched by the searches
and takes the default label, DISCONNECTED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AnalysisError
from .graph import LegislationGraph
from .metrics import largest_label

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

COMPONENT_NAMES = ("core", "in", "out", "tubes", "tendrils", "disconnected")


@dataclass
class BowTieDecomposition:
    """``labels[i]`` indexes ``COMPONENT_NAMES`` with node i's class."""

    labels: np.ndarray

    def sizes(self) -> dict[str, int]:
        counts = np.bincount(self.labels, minlength=len(COMPONENT_NAMES))
        return dict(zip(COMPONENT_NAMES, counts.tolist()))

    @property
    def fractions(self) -> dict[str, float]:
        n = len(self.labels)
        return {name: size / n for name, size in self.sizes().items()}


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
    """Label every node of a non-empty graph with its bow-tie class."""
    if graph.node_count == 0:
        raise AnalysisError("bow-tie decomposition is undefined on an empty graph")
    from scipy.sparse.csgraph import connected_components

    adj = graph.adjacency()
    adj_t = adj.T
    _, scc_labels = connected_components(adj, directed=True, connection="strong")
    core = scc_labels == largest_label(scc_labels, graph.id_ranks())
    in_set = _reach(adj, core) & ~core
    out_set = _reach(adj_t, core) & ~core
    # the searches from IN and OUT cross core, IN and OUT nodes too; the
    # first matching condition labels a node, so those keep their class
    from_in = _reach(adj_t, in_set)
    to_out = _reach(adj, out_set)
    conditions = [core, in_set, out_set, from_in & to_out, from_in | to_out]
    labels = np.select(conditions, range(len(conditions)),
                       default=COMPONENT_NAMES.index("disconnected"))
    return BowTieDecomposition(labels.astype(np.int8))
