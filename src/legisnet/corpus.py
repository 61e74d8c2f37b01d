"""Corpus serialization: a line-delimited JSON record format plus ingest.

One document per line, UTF-8:

    {"id": "370L0220", "sector": 3, "date_of_effect": "1970-03-20",
     "date_of_expiry": "1989-07-17",
     "references": [{"target": "383L0351", "type": "amended_by"}]}

``date_of_expiry`` is omitted for documents without a sunset clause and
maps to the 9999-12-31 sentinel.  Amendment references are reciprocal:
ingesting either orientation materializes both directed edges, and
duplicates are deduplicated, so a corpus may carry one or both sides.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from datetime import date
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import CorpusError, ValidationError
from .graph import (
    RECIPROCAL_TYPES,
    SENTINEL_EXPIRY,
    LegislationGraph,
    RefType,
    Sector,
    reftype_code,
    reftype_from_code,
)

_TYPE_TOKENS = {kind.value: kind for kind in RefType}
# rank of each type code in token order, the export's secondary sort key
_TOKEN_RANK = np.argsort(np.argsort([kind.value for kind in RefType]))


@dataclass(frozen=True)
class RecordReference:
    target: str
    kind: RefType


@dataclass(frozen=True)
class DocumentRecord:
    """One corpus line: a document plus its outgoing references."""

    id: str
    sector: int
    date_of_effect: date
    date_of_expiry: date | None = None  # None -> sentinel
    references: tuple[RecordReference, ...] = ()


@dataclass
class IngestReport:
    """Counts accumulated while building a graph from a record stream."""

    nodes: int = 0
    edges: int = 0
    stubs: int = 0
    deduplicated: int = 0
    per_type_counts: dict[str, int] = field(default_factory=dict)
    stub_ids: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "stubs": self.stubs,
            "deduplicated": self.deduplicated,
            "per_type_counts": dict(self.per_type_counts),
        }


def _parse_date(raw: object, line_no: int, fieldname: str) -> date:
    if not isinstance(raw, str):
        raise CorpusError(f"line {line_no}: {fieldname} must be an ISO date string")
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise CorpusError(f"line {line_no}: bad {fieldname} {raw!r}: {exc}") from None


def parse_record(line: str, line_no: int = 0) -> DocumentRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"line {line_no}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: record must be a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"line {line_no}: missing or empty id")
    sector = obj.get("sector")
    if not isinstance(sector, int) or isinstance(sector, bool) or not 1 <= sector <= 6:
        raise CorpusError(f"line {line_no}: sector must be an integer in 1..6")
    effect = _parse_date(obj.get("date_of_effect"), line_no, "date_of_effect")
    expiry_raw = obj.get("date_of_expiry")
    expiry = None
    if expiry_raw is not None:
        expiry = _parse_date(expiry_raw, line_no, "date_of_expiry")
    items = obj.get("references", [])
    if not isinstance(items, list):
        raise CorpusError(f"line {line_no}: references must be a list")
    refs = []
    for item in items:
        if not isinstance(item, dict):
            raise CorpusError(f"line {line_no}: reference entries must be objects")
        target = item.get("target")
        if not isinstance(target, str) or not target:
            raise CorpusError(f"line {line_no}: reference missing target id")
        token = item.get("type")
        kind = _TYPE_TOKENS.get(token) if isinstance(token, str) else None
        if kind is None:
            raise CorpusError(
                f"line {line_no}: unknown reference type {token!r}; "
                f"expected one of {sorted(_TYPE_TOKENS)}"
            )
        refs.append(RecordReference(target, kind))
    return DocumentRecord(doc_id, sector, effect, expiry, tuple(refs))


def read_records(stream: IO[str] | Iterable[str]) -> Iterator[DocumentRecord]:
    """Parse a JSONL stream, skipping blank lines."""
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        yield parse_record(line, line_no)


def record_to_json(record: DocumentRecord) -> str:
    obj: dict = {
        "id": record.id,
        "sector": record.sector,
        "date_of_effect": record.date_of_effect.isoformat(),
    }
    if record.date_of_expiry is not None and record.date_of_expiry != SENTINEL_EXPIRY:
        obj["date_of_expiry"] = record.date_of_expiry.isoformat()
    obj["references"] = [
        {"target": ref.target, "type": ref.kind.value} for ref in record.references
    ]
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def write_records(records: Iterable[DocumentRecord], stream: IO[str]) -> None:
    for record in records:
        stream.write(record_to_json(record))
        stream.write("\n")


def ingest(records: Iterable[DocumentRecord | str],
           mode: str = "strict") -> tuple[LegislationGraph, IngestReport]:
    """Build a sealed graph from records.

    ``mode`` is ``strict`` (references to unknown ids abort) or
    ``lenient`` (unknown targets become stub documents: sector 3,
    effect date copied from the referencing document, sentinel expiry).
    Reciprocal amendment edges are materialized in both modes.
    """
    if mode not in ("strict", "lenient"):
        raise CorpusError(f"unknown ingest mode {mode!r}")
    materialized = [parse_record(item) if isinstance(item, str) else item
                    for item in records]

    ids: list[str] = []
    sector: list[int] = []
    effect: list[int] = []
    expiry: list[int] = []
    index: dict[str, int] = {}
    for rec in materialized:
        if rec.id in index:
            raise ValidationError(f"duplicate document id {rec.id!r}")
        until = (rec.date_of_expiry if rec.date_of_expiry is not None
                 else SENTINEL_EXPIRY)
        if rec.date_of_effect > until:
            raise ValidationError(
                f"document {rec.id!r}: date_of_effect {rec.date_of_effect} "
                f"is after date_of_expiry {until}"
            )
        index[rec.id] = len(ids)
        ids.append(rec.id)
        sector.append(rec.sector)
        effect.append(rec.date_of_effect.toordinal())
        expiry.append(until.toordinal())

    src: list[int] = []
    dst: list[int] = []
    kind: list[int] = []
    stub_ids: list[str] = []
    for i, rec in enumerate(materialized):
        for ref in rec.references:
            j = index.get(ref.target)
            if j is None:
                if mode == "strict":
                    raise CorpusError(
                        f"document {rec.id!r} references unknown id {ref.target!r}"
                    )
                j = index[ref.target] = len(ids)
                ids.append(ref.target)
                sector.append(Sector.LEGISLATION.value)
                effect.append(effect[i])
                expiry.append(SENTINEL_EXPIRY.toordinal())
                stub_ids.append(ref.target)
            if j == i:
                raise ValidationError(
                    f"self-reference on {rec.id!r} is excluded from the model"
                )
            src.append(i)
            dst.append(j)
            kind.append(reftype_code(ref.kind))
            reciprocal = RECIPROCAL_TYPES.get(ref.kind)
            if reciprocal is not None:
                src.append(j)
                dst.append(i)
                kind.append(reftype_code(reciprocal))

    graph = LegislationGraph.from_columns(ids, sector, effect, expiry,
                                          src, dst, kind)
    counts = np.bincount(graph.edge_arrays()[2], minlength=len(RefType))
    report = IngestReport(
        nodes=graph.node_count,
        edges=graph.edge_count,
        stubs=len(stub_ids),
        deduplicated=len(src) - graph.edge_count,
        per_type_counts={k.value: int(c) for k, c in zip(RefType, counts)},
        stub_ids=tuple(stub_ids),
    )
    return graph, report


def export(graph: LegislationGraph) -> Iterator[DocumentRecord]:
    """Emit one record per document, in insertion order.

    References are sorted by (target, type) so repeated
    ingest/export cycles are byte-stable; ``ingest(export(g))``
    reproduces the node and typed-edge sets of ``g`` exactly.
    """
    if not graph.sealed:
        raise CorpusError("export requires a sealed graph")
    ids = graph.ids
    src, dst, kind = graph.edge_arrays()
    order = np.lexsort((_TOKEN_RANK[kind], graph.id_ranks()[dst], src))
    targets = [ids[d] for d in dst[order].tolist()]
    kinds = [reftype_from_code(k) for k in kind[order].tolist()]
    ends = np.cumsum(np.bincount(src, minlength=len(ids))).tolist()
    effect, expiry = ([date.fromordinal(day) for day in col.tolist()]
                      for col in graph.date_ordinals())
    rows = zip(ids, graph.sector_codes().tolist(), effect, expiry, ends)
    start = 0
    for doc_id, sector, since, until, end in rows:
        refs = tuple(map(RecordReference, targets[start:end], kinds[start:end]))
        yield DocumentRecord(doc_id, sector, since, until, refs)
        start = end


def export_text(graph: LegislationGraph) -> str:
    buffer = io.StringIO()
    write_records(export(graph), buffer)
    return buffer.getvalue()
