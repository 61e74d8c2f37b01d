"""In-memory model of a legislation corpus as a typed, temporal multigraph.

Nodes are legal documents carrying a sector classification and an
effect/expiry validity interval.  Edges are typed directed references
between documents.  Multiple edges of different types may connect the
same ordered pair of documents; the triple (source, target, type) is
unique.

The graph is stored as columns.  Node columns hold the id, the sector
code and the effect/expiry date ordinals, in insertion order; edge
columns hold the source index, the target index and the type code,
ordered by source, then insertion.  ``document()``, ``documents()`` and
``references()`` build ``LegalDocument`` and ``Reference`` objects from
the columns on demand.

The graph has a two-phase life cycle: a single-writer construction
phase (``add_document`` / ``add_reference``) followed by ``seal()``,
which turns the columns into numpy arrays and drops duplicate triples.
After sealing the graph is immutable and every analysis operation is a
read-only, concurrency-safe query.  Bulk builders (ingest, the
generator, random nulls) and derived views (filters, snapshots) pass
their columns to ``from_columns``, which seals them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from .errors import ValidationError

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

_REFTYPE_ORDER = tuple(RefType)
_REFTYPE_CODE = {kind: i for i, kind in enumerate(_REFTYPE_ORDER)}


def reftype_code(kind: RefType) -> int:
    """Stable small-integer code for a reference type."""
    return _REFTYPE_CODE[kind]


def reftype_from_code(code: int) -> RefType:
    return _REFTYPE_ORDER[code]


@dataclass(frozen=True)
class LegalDocument:
    """A node: one legal document with its validity interval."""

    id: str
    sector: Sector
    date_of_effect: date
    date_of_expiry: date = SENTINEL_EXPIRY

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("document id must be a non-empty string")
        if self.date_of_effect > self.date_of_expiry:
            raise ValidationError(
                f"document {self.id!r}: date_of_effect {self.date_of_effect} "
                f"is after date_of_expiry {self.date_of_expiry}"
            )

    def active_at(self, when: date) -> bool:
        """True when ``when`` falls inside the closed validity interval."""
        return self.date_of_effect <= when <= self.date_of_expiry


@dataclass(frozen=True)
class Reference:
    """A typed directed edge from one document to another."""

    source: str
    target: str
    kind: RefType

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValidationError("reference endpoints must be non-empty ids")
        if self.source == self.target:
            raise ValidationError(
                f"self-reference on {self.source!r} is excluded from the model"
            )


class LegislationGraph:
    """Typed temporal directed multigraph over legal documents.

    Nodes and edges are stored as columns in insertion order.  Mutations
    are accepted only before :meth:`seal`, which turns the columns into
    numpy arrays; every sealed graph is built by that one step.
    """

    def __init__(self) -> None:
        # node columns: id, sector code, effect and expiry ordinals
        self._ids: list[str] | tuple[str, ...] = []
        self._sector: list[int] | np.ndarray = []
        self._effect: list[int] | np.ndarray = []
        self._expiry: list[int] | np.ndarray = []
        # edge columns: source index, target index, type code
        self._src: list[int] | np.ndarray = []
        self._dst: list[int] | np.ndarray = []
        self._kind: list[int] | np.ndarray = []
        self._index: dict[str, int] | None = {}  # id -> node index
        # (src, dst, kind) triples added so far, so add_reference can
        # report duplicates; dropped at seal time
        self._triples: set[tuple[int, int, int]] | None = set()
        self._sealed = False
        self._csr_out: sparse.csr_matrix | None = None
        self._csr_in: sparse.csr_matrix | None = None
        self._projection: SimpleProjection | None = None
        self._id_rank: np.ndarray | None = None

    @classmethod
    def from_columns(cls, ids: Sequence[str], sector, effect, expiry,
                     src, dst, kind) -> "LegislationGraph":
        """Sealed graph from trusted columns; duplicate triples dropped.

        Node columns are the id, the sector code and the effect and
        expiry ordinals; edge columns are the source index, the target
        index and the type code.  Nothing is validated: callers check
        outside input before building the columns.
        """
        graph = cls()
        graph._ids, graph._sector = ids, sector
        graph._effect, graph._expiry = effect, expiry
        graph._src, graph._dst, graph._kind = src, dst, kind
        graph._index = None
        return graph.seal()

    # -- construction phase -------------------------------------------------

    def add_document(self, doc: LegalDocument) -> None:
        self._require_unsealed()
        if doc.id in self._index:
            raise ValidationError(f"duplicate document id {doc.id!r}")
        self._index[doc.id] = len(self._ids)
        self._ids.append(doc.id)
        self._sector.append(doc.sector.value)
        self._effect.append(doc.date_of_effect.toordinal())
        self._expiry.append(doc.date_of_expiry.toordinal())

    def add_reference(self, ref: Reference) -> bool:
        """Store a typed edge; duplicate triples are dropped silently.

        Returns True when the edge was new, False when deduplicated.
        """
        self._require_unsealed()
        for endpoint in (ref.source, ref.target):
            if endpoint not in self._index:
                raise ValidationError(
                    f"reference {ref.source!r} -> {ref.target!r}: "
                    f"unknown document {endpoint!r}"
                )
        triple = (self._index[ref.source], self._index[ref.target],
                  _REFTYPE_CODE[ref.kind])
        if triple in self._triples:
            return False
        self._triples.add(triple)
        self._src.append(triple[0])
        self._dst.append(triple[1])
        self._kind.append(triple[2])
        return True

    def seal(self) -> "LegislationGraph":
        """Freeze the columns into arrays.

        Duplicate (source, target, type) triples keep their first
        occurrence, and edges are ordered by source index, then by
        insertion order.
        """
        if self._sealed:
            return self
        self._sealed = True
        self._triples = None
        self._ids = tuple(self._ids)
        self._sector = np.asarray(self._sector, dtype=np.int8)
        self._effect = np.asarray(self._effect, dtype=np.int64)
        self._expiry = np.asarray(self._expiry, dtype=np.int64)
        src = np.asarray(self._src, dtype=np.int64)
        dst = np.asarray(self._dst, dtype=np.int64)
        kind = np.asarray(self._kind, dtype=np.int8)
        order = np.argsort(src, kind="stable")
        codes = ((src[order] * len(self._ids) + dst[order]) * len(_REFTYPE_ORDER)
                 + kind[order])
        _, first = np.unique(codes, return_index=True)
        keep = order[np.sort(first)]
        self._src, self._dst, self._kind = src[keep], dst[keep], kind[keep]
        return self

    def _require_unsealed(self) -> None:
        if self._sealed:
            raise ValidationError("graph is sealed; mutation is not allowed")

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise ValidationError("graph must be sealed before analysis")

    def _lookup(self) -> dict[str, int]:
        if self._index is None:
            self._index = {doc_id: i for i, doc_id in enumerate(self._ids)}
        return self._index

    def _position(self, doc_id: str) -> int:
        try:
            return self._lookup()[doc_id]
        except KeyError:
            raise ValidationError(f"unknown document id {doc_id!r}") from None

    # -- queries -------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        return len(self._src)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._lookup()

    def document(self, doc_id: str) -> LegalDocument:
        """The document ``doc_id``, built from the node columns."""
        i = self._position(doc_id)
        return LegalDocument(doc_id, Sector(int(self._sector[i])),
                             date.fromordinal(int(self._effect[i])),
                             date.fromordinal(int(self._expiry[i])))

    def documents(self) -> Iterator[LegalDocument]:
        """Documents in insertion order, built from the node columns."""
        return map(self.document, self._ids)

    def references(self) -> Iterator[Reference]:
        """References in edge order (sealed: by source, then insertion)."""
        ids = self._ids
        src, dst, kind = (np.asarray(col).tolist()
                          for col in (self._src, self._dst, self._kind))
        for s, d, k in zip(src, dst, kind):
            yield Reference(ids[s], ids[d], _REFTYPE_ORDER[k])

    def degree(self, doc_id: str, direction: str = "total",
               scope: str = "typed") -> int:
        """Degree of a node on the typed multigraph or its projection.

        ``direction`` is one of ``in``/``out``/``total``; ``scope`` is
        ``typed`` (all parallel typed edges count) or ``projection``
        (neighbour count on the simple undirected projection, where
        direction is ignored).
        """
        i = self._position(doc_id)
        if scope == "projection":
            self._require_sealed()
            return self.simple_projection().degree(i)
        if scope != "typed":
            raise ValidationError(f"unknown degree scope {scope!r}")
        ins = int(np.count_nonzero(np.asarray(self._dst) == i))
        outs = int(np.count_nonzero(np.asarray(self._src) == i))
        counts = {"in": ins, "out": outs, "total": ins + outs}
        if direction not in counts:
            raise ValidationError(f"unknown degree direction {direction!r}")
        return counts[direction]

    # -- sealed topology -----------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        self._require_sealed()
        return self._ids

    def index_of(self, doc_id: str) -> int:
        self._require_sealed()
        return self._position(doc_id)

    def id_ranks(self) -> np.ndarray:
        """Position of every node's id in ascending id order."""
        self._require_sealed()
        if self._id_rank is None:
            order = sorted(range(self.node_count), key=self._ids.__getitem__)
            rank = np.empty(self.node_count, dtype=np.int64)
            rank[order] = np.arange(self.node_count)
            self._id_rank = rank
        return self._id_rank

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source index, target index, type code) arrays, one row per edge."""
        self._require_sealed()
        return self._src, self._dst, self._kind

    def degree_array(self, direction: str) -> np.ndarray:
        """Typed-multigraph degree of every node, in id-index order."""
        self._require_sealed()
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
        self._require_sealed()
        return self._sector

    def date_ordinals(self) -> tuple[np.ndarray, np.ndarray]:
        """(effect, expiry) as proleptic-Gregorian ordinals per node."""
        self._require_sealed()
        return self._effect, self._expiry

    def adjacency(self, transpose: bool = False) -> sparse.csr_matrix:
        """Boolean CSR adjacency of the directed structure (types merged)."""
        self._require_sealed()
        if self._csr_out is None:
            n = self.node_count
            data = np.ones(len(self._src), dtype=np.int8)
            mat = sparse.csr_matrix(
                (data, (self._src, self._dst)), shape=(n, n), dtype=np.int8
            )
            mat.data[:] = 1  # collapse parallel typed edges
            self._csr_out = mat
            self._csr_in = mat.T.tocsr()
        return self._csr_in if transpose else self._csr_out

    def simple_projection(self) -> "SimpleProjection":
        """Undirected simple projection (any edge, either direction)."""
        self._require_sealed()
        if self._projection is None:
            self._projection = SimpleProjection._build(self)
        return self._projection

    def induced_subgraph(self, node_mask: np.ndarray,
                         edge_mask: np.ndarray | None = None) -> "LegislationGraph":
        """Sealed subgraph on the masked nodes (and optionally edges).

        Edges are kept iff both endpoints survive and, when given,
        ``edge_mask`` is true for them.
        """
        self._require_sealed()
        node_mask = np.asarray(node_mask, dtype=bool)
        if node_mask.shape != (self.node_count,):
            raise ValidationError("node mask length must equal node count")
        keep = node_mask[self._src] & node_mask[self._dst]
        if edge_mask is not None:
            keep &= np.asarray(edge_mask, dtype=bool)
        new_index = np.cumsum(node_mask) - 1
        return LegislationGraph.from_columns(
            tuple(compress(self._ids, node_mask.tolist())),
            self._sector[node_mask], self._effect[node_mask],
            self._expiry[node_mask],
            new_index[self._src[keep]], new_index[self._dst[keep]],
            self._kind[keep],
        )


class SimpleProjection:
    """Undirected simple graph derived from a sealed LegislationGraph.

    Same node set; one undirected edge between u and v iff at least one
    typed reference exists between them in either direction.
    """

    def __init__(self, ids: tuple[str, ...], n: int,
                 pair_u: np.ndarray, pair_v: np.ndarray) -> None:
        self.ids = ids
        self.n = n
        self.pair_u = pair_u  # unique undirected pairs, u < v
        self.pair_v = pair_v
        self._csr: sparse.csr_matrix | None = None

    @classmethod
    def _build(cls, graph: LegislationGraph) -> "SimpleProjection":
        src, dst, _ = graph.edge_arrays()
        n = graph.node_count
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        codes = np.unique(lo * n + hi)
        return cls(graph.ids, n, codes // n, codes % n)

    @property
    def edge_count(self) -> int:
        return len(self.pair_u)

    def csr(self) -> sparse.csr_matrix:
        """Symmetric boolean CSR adjacency."""
        if self._csr is None:
            rows = np.concatenate([self.pair_u, self.pair_v])
            cols = np.concatenate([self.pair_v, self.pair_u])
            data = np.ones(len(rows), dtype=np.int8)
            self._csr = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self.n, self.n), dtype=np.int8
            )
        return self._csr

    def degree(self, node_index: int) -> int:
        csr = self.csr()
        return int(csr.indptr[node_index + 1] - csr.indptr[node_index])

    def degree_array(self) -> np.ndarray:
        return np.diff(self.csr().indptr)


def build_graph(documents: Iterable[LegalDocument],
                references: Iterable[Reference]) -> LegislationGraph:
    """Assemble and seal a graph in one step (duplicate edges deduped)."""
    g = LegislationGraph()
    for doc in documents:
        g.add_document(doc)
    for ref in references:
        g.add_reference(ref)
    return g.seal()
