"""In-memory model of a legislation corpus as a typed, temporal multigraph.

Nodes are legal documents carrying a sector classification and an
effect/expiry validity interval.  Edges are typed directed references
between documents.  Multiple edges of different types may connect the
same ordered pair of documents; the triple (source, target, type) is
unique.

The graph is stored as columns.  Node columns hold the id, the sector
code and the effect/expiry date ordinals, in input order; edge columns
hold the source index, the target index and the type code of the
distinct (source, target, type) triples in ascending order, so they
depend only on the node order and the edge set.  Dates are
proleptic-Gregorian ordinals and types are ``reftype_code`` values.

A graph is immutable from construction, so every analysis operation is
a read-only, concurrency-safe query.  The constructor takes the seven
columns, turns them into numpy arrays and sorts the distinct triples.
Builders (ingest, the generator, random nulls) and derived views
(filters, snapshots) pass their columns to it directly.

What a graph computes once lives in its one cache, a dict filled by
the ``per_graph`` memo, so it lives and dies with the graph: here the
boolean CSR adjacency of the directed structure (types merged), the
simple undirected projection and the id ranks; in ``metrics`` the
giant component's projection, the local clustering coefficients and
the giant component's path statistics.  ``per_graph`` makes every
cached array read-only, so no caller can change what a later query
reads.  The projection is not a second graph object; it is two pair
columns ``(pair_u, pair_v)`` with u < v, one pair per node pair joined
by a typed edge in either direction, over the same node indices.

``scipy.sparse`` is imported by ``adjacency`` on its first build, not
with this module, so commands that never build a CSR (generate, ingest,
filter) load no scipy.
"""

from __future__ import annotations

from datetime import date
from enum import Enum
from functools import wraps
from itertools import compress
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from scipy import sparse

# Documents adopted without an explicit sunset clause are modelled as
# expiring at the end of year 9999; the sentinel is an ordinary
# comparable date, never special-cased.
SENTINEL_EXPIRY = date(9999, 12, 31)


class Sector(Enum):
    """Top-level classification of a legal document (stable codes 1-6)."""

    TREATIES = 1
    INTERNATIONAL_AGREEMENTS = 2
    LEGISLATION = 3
    COMPLEMENTARY_LEGISLATION = 4
    PREPARATORY_ACTS = 5
    JURISPRUDENCE = 6


class RefType(Enum):
    """Semantic label of a cross-reference between two documents."""

    AMENDED_BY = "amended_by"
    AMENDMENT_TO = "amendment_to"
    LEGAL_BASIS = "legal_basis"
    INSTRUMENTS_CITED = "instruments_cited"
    AFFECTED_BY_CASE = "affected_by_case"
    OTHER = "other"


# Amendment relations are stored as two directed edges, one per
# orientation; this maps each onto its reciprocal type.
RECIPROCAL_TYPES = {
    RefType.AMENDMENT_TO: RefType.AMENDED_BY,
    RefType.AMENDED_BY: RefType.AMENDMENT_TO,
}

_REFTYPE_CODE = {kind: i for i, kind in enumerate(RefType)}


def reftype_code(kind: RefType) -> int:
    """Stable small-integer code for a reference type."""
    return _REFTYPE_CODE[kind]


def per_graph(build):
    """Memo: ``build(graph, *args)`` is computed on the first call and
    kept in the graph's cache under ``(build, *args)``.

    Arguments are positional only, so a result has one key.  Its
    arrays, those of a tuple or a CSR included, are made read-only.
    """
    @wraps(build)
    def once(graph: LegislationGraph, *args):
        key = (build, *args)
        if key not in graph._cache:
            result = graph._cache[key] = build(graph, *args)
            for part in result if isinstance(result, tuple) else (result,):
                for array in ((part.data, part.indices, part.indptr)
                              if hasattr(part, "indptr") else (part,)):
                    if isinstance(array, np.ndarray):
                        array.flags.writeable = False
        return graph._cache[key]
    return once


class LegislationGraph:
    """Typed temporal directed multigraph over legal documents.

    Immutable once built.  The node columns are the id, the sector code
    and the effect and expiry ordinals; the edge columns are the source
    index, the target index and the type code.  The constructor turns
    them into arrays and stores the distinct (source, target, type)
    triples in ascending order, whatever the order and repetition of
    the rows it is given.  Nothing is validated: callers check outside
    input before building the columns.
    """

    def __init__(self, ids: Sequence[str], sector, effect, expiry,
                 src, dst, kind) -> None:
        self._ids = tuple(ids)
        self._sector = np.asarray(sector, dtype=np.int8)
        self._effect = np.asarray(effect, dtype=np.int64)
        self._expiry = np.asarray(expiry, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        kind = np.asarray(kind, dtype=np.int8)
        codes = np.sort((src * len(self._ids) + dst) * len(RefType) + kind)
        codes = codes[np.diff(codes, prepend=-1) != 0]
        pairs, kind = np.divmod(codes, len(RefType))
        self._src, self._dst = np.divmod(pairs, len(self._ids))
        self._kind = kind.astype(np.int8)
        self._cache: dict = {}

    # -- queries -------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return len(self._src)

    # -- topology ------------------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @per_graph
    def id_ranks(self) -> np.ndarray:
        """Position of every node's id in ascending id order."""
        order = sorted(range(self.node_count), key=self._ids.__getitem__)
        rank = np.empty(self.node_count, dtype=np.int64)
        rank[order] = np.arange(self.node_count)
        return rank

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source index, target index, type code) arrays, one row per edge."""
        return self._src, self._dst, self._kind

    def degree_array(self, direction: str) -> np.ndarray:
        """Typed-multigraph degree of every node, in id-index order."""
        n = self.node_count
        if direction == "in":
            return np.bincount(self._dst, minlength=n)
        if direction == "out":
            return np.bincount(self._src, minlength=n)
        if direction == "total":
            return (np.bincount(self._dst, minlength=n)
                    + np.bincount(self._src, minlength=n))
        raise ValidationError(f"unknown degree direction {direction!r}")

    def sector_codes(self) -> np.ndarray:
        """Sector code of every node, in id-index order."""
        return self._sector

    def date_ordinals(self) -> tuple[np.ndarray, np.ndarray]:
        """(effect, expiry) as proleptic-Gregorian ordinals per node."""
        return self._effect, self._expiry

    @per_graph
    def adjacency(self) -> sparse.csr_matrix:
        """Boolean CSR adjacency of the directed structure (types merged)."""
        from scipy import sparse

        n = self.node_count
        data = np.ones(len(self._src), dtype=np.int8)
        mat = sparse.csr_matrix(
            (data, (self._src, self._dst)), shape=(n, n), dtype=np.int8
        )
        mat.data[:] = 1  # collapse parallel typed edges
        return mat

    @per_graph
    def simple_projection(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges of the simple undirected projection as ``(pair_u, pair_v)``.

        One pair per node pair joined by a typed edge in either
        direction, with u < v, in ascending (u, v) order.
        """
        n = self.node_count
        lo = np.minimum(self._src, self._dst)
        hi = np.maximum(self._src, self._dst)
        codes = np.sort(lo * n + hi)
        codes = codes[np.diff(codes, prepend=-1) != 0]
        return codes // n, codes % n

    def induced_subgraph(self, node_mask: np.ndarray,
                         edge_mask: np.ndarray | None = None) -> "LegislationGraph":
        """Subgraph on the masked nodes (and optionally edges).

        Edges are kept iff both endpoints survive and, when given,
        ``edge_mask`` is true for them.
        """
        node_mask = np.asarray(node_mask, dtype=bool)
        if node_mask.shape != (self.node_count,):
            raise ValidationError("node mask length must equal node count")
        keep = node_mask[self._src] & node_mask[self._dst]
        if edge_mask is not None:
            keep &= np.asarray(edge_mask, dtype=bool)
        new_index = np.cumsum(node_mask) - 1
        return LegislationGraph(
            tuple(compress(self._ids, node_mask.tolist())),
            self._sector[node_mask], self._effect[node_mask],
            self._expiry[node_mask],
            new_index[self._src[keep]], new_index[self._dst[keep]],
            self._kind[keep],
        )
