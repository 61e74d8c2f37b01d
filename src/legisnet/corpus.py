"""Corpus serialization: a line-delimited JSON record format plus ingest.

One document per line, UTF-8:

    {"id": "370L0220", "sector": 3, "date_of_effect": "1970-03-20",
     "date_of_expiry": "1989-07-17",
     "references": [{"target": "383L0351", "type": "amended_by"}]}

Dates are ``YYYY-MM-DD``.  ``date_of_expiry`` is omitted for documents
without a sunset clause and maps to the 9999-12-31 sentinel.  Amendment
references are reciprocal: ingesting either orientation materializes
both directed edges, and duplicates are deduplicated, so a corpus may
carry one or both sides.

In memory a record is a plain row, ``(id, sector, effect, expiry,
targets, kinds)``: the two dates as proleptic-Gregorian ordinals (the
sentinel's when the expiry is omitted), the referenced ids, and their
reference type codes (``graph.reftype_code``).  ``read_records`` parses
lines into rows, ``ingest`` builds a graph's columns from rows,
``export`` reads rows off a graph's columns and ``write_records`` turns
rows back into lines.

A line counts as blank only when it holds nothing but JSON's four
whitespace characters (space, tab, ``\n``, ``\r``); any other line must
decode as JSON.  ``_decode`` hands each line straight to the C scanner
of ``json`` (``JSONDecoder().scan_once``) and keeps its value when the
value ends the line, up to trailing JSON whitespace.  Every other line
(leading whitespace, a BOM, extra data, invalid JSON, too deep a
nesting) goes to ``json.loads``, which returns the same value or raises
the same error, so values and messages are those of ``json.loads``.
Skipping the Python layers of ``json.loads`` (type and BOM checks,
``decode``, two whitespace matches, ``raw_decode``) took decoding the
10,000 lines of the bench's corpus-ops corpus from 47 to 37 ms (best
of 7, Python 3.11.7 on a 2-vCPU VM).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from datetime import date
from itertools import chain
from json.encoder import encode_basestring_ascii
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
)

Row = tuple[str, int, int, int, list[str], list[int]]

_TYPE_CODES = {kind.value: reftype_code(kind) for kind in RefType}
# rank of each type code in token order, the export's secondary sort key
_TOKEN_RANK = np.argsort(np.argsort([kind.value for kind in RefType]))
# code of each type's reciprocal; a type without one maps to itself
_RECIPROCAL = np.array([reftype_code(RECIPROCAL_TYPES.get(kind, kind))
                        for kind in RefType], dtype=np.int8)
_SENTINEL = SENTINEL_EXPIRY.toordinal()
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_JSON_SPACE = " \t\n\r"  # the only whitespace JSON allows between tokens
_SCAN = json.JSONDecoder().scan_once


@dataclass
class IngestReport:
    """Counts accumulated while building a graph from a record stream."""

    nodes: int = 0
    edges: int = 0
    stubs: int = 0
    deduplicated: int = 0
    per_type_counts: dict[str, int] = field(default_factory=dict)


def parse_date(raw: str) -> date:
    """The date ``raw`` spells as ``YYYY-MM-DD``; ValueError otherwise.

    ``date.fromisoformat`` alone also takes other ISO 8601 forms, such
    as ``20001231`` and ``2000-W52-1``, on some Python versions.
    """
    if not _ISO_DATE.fullmatch(raw):
        raise ValueError("expected YYYY-MM-DD")
    return date.fromisoformat(raw)


def _new_day(days: dict[str, int], raw: object, line_no: int,
             fieldname: str) -> int:
    """Ordinal of a date string missing from ``days``, which it joins."""
    if not isinstance(raw, str):
        raise CorpusError(f"line {line_no}: {fieldname} must be an ISO date string")
    try:
        day = days[raw] = parse_date(raw).toordinal()
    except ValueError as exc:
        raise CorpusError(f"line {line_no}: bad {fieldname} {raw!r}: {exc}") from None
    return day


def _decode(line: str) -> object:
    """``json.loads(line)``, with one call into the C scanner when it can.

    Called with fewer Python frames above it, the scanner nests two
    levels deeper before RecursionError than ``json.loads`` (996 against
    994 at the default limit); that limit already shifts with the
    caller's own stack depth.
    """
    try:
        obj, end = _SCAN(line, 0)
        if not line[end:].strip(_JSON_SPACE):  # the value ends the line
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass  # json.loads raises the error with its own message
    return json.loads(line)


def read_records(stream: IO[str] | Iterable[str]) -> Iterator[Row]:
    """Parse a JSONL stream into rows, skipping blank lines."""
    days: dict[str, int] = {}  # each distinct date string is checked once
    for line_no, line in enumerate(stream, start=1):
        if not line.strip(_JSON_SPACE):
            continue
        try:
            obj = _decode(line)
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"line {line_no}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"line {line_no}: record must be a JSON object")
        doc_id = obj.get("id")
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusError(f"line {line_no}: missing or empty id")
        sector = obj.get("sector")
        if type(sector) is not int or not 1 <= sector <= 6:
            raise CorpusError(f"line {line_no}: sector must be an integer in 1..6")
        raw = obj.get("date_of_effect")
        try:
            effect = days[raw]
        except (KeyError, TypeError):
            effect = _new_day(days, raw, line_no, "date_of_effect")
        raw = obj.get("date_of_expiry")
        try:
            expiry = _SENTINEL if raw is None else days[raw]
        except (KeyError, TypeError):
            expiry = _new_day(days, raw, line_no, "date_of_expiry")
        items = obj.get("references", [])
        if not isinstance(items, list):
            raise CorpusError(f"line {line_no}: references must be a list")
        targets = []
        kinds = []
        for item in items:
            if not isinstance(item, dict):
                raise CorpusError(f"line {line_no}: reference entries must be objects")
            target = item.get("target")
            if not isinstance(target, str) or not target:
                raise CorpusError(f"line {line_no}: reference missing target id")
            token = item.get("type")
            code = _TYPE_CODES.get(token) if isinstance(token, str) else None
            if code is None:
                raise CorpusError(
                    f"line {line_no}: unknown reference type {token!r}; "
                    f"expected one of {sorted(_TYPE_CODES)}"
                )
            targets.append(target)
            kinds.append(code)
        yield doc_id, sector, effect, expiry, targets, kinds


def write_records(records: Iterable[Row], stream: IO[str]) -> None:
    """Write rows as JSONL lines, formatting each distinct date once.

    Ids go through ``encode_basestring_ascii``, which is what
    ``json.dumps`` of a str returns, so every line equals ``json.dumps``
    of the record's dict with compact separators.
    """
    quote = encode_basestring_ascii
    day = functools.cache(lambda ordinal: f'"{date.fromordinal(ordinal)}"')
    tail = [f',"type":"{kind.value}"}}' for kind in RefType]  # by type code
    for doc_id, sector, effect, expiry, targets, kinds in records:
        until = "" if expiry == _SENTINEL else f',"date_of_expiry":{day(expiry)}'
        refs = ",".join([f'{{"target":{quote(target)}{tail[kind]}'
                         for target, kind in zip(targets, kinds)])
        stream.write(f'{{"id":{quote(doc_id)},"sector":{sector},'
                     f'"date_of_effect":{day(effect)}{until},'
                     f'"references":[{refs}]}}\n')


def ingest(records: Iterable[Row],
           mode: str = "strict") -> tuple[LegislationGraph, IngestReport]:
    """Build a graph from rows.

    ``mode`` is ``strict`` (references to unknown ids abort) or
    ``lenient`` (unknown targets become stub documents: sector 3,
    effect date copied from the referencing document, sentinel expiry).
    Reciprocal amendment edges are materialized in both modes.
    """
    if mode not in ("strict", "lenient"):
        raise CorpusError(f"unknown ingest mode {mode!r}")
    columns = list(zip(*records)) or [()] * 6
    ids, sector, effect, expiry = (list(col) for col in columns[:4])
    index: dict[str, int] = {}
    for doc_id, since, until in zip(ids, effect, expiry):
        if doc_id in index:
            raise ValidationError(f"duplicate document id {doc_id!r}")
        if since > until:
            raise ValidationError(
                f"document {doc_id!r}: date_of_effect {date.fromordinal(since)} "
                f"is after date_of_expiry {date.fromordinal(until)}"
            )
        index[doc_id] = len(index)

    targets = list(chain.from_iterable(columns[4]))
    src = np.repeat(np.arange(len(ids)), [len(refs) for refs in columns[4]])
    dst = np.array([index.get(target, -1) for target in targets], dtype=np.int64)
    kind = np.fromiter(chain.from_iterable(columns[5]), dtype=np.int8,
                       count=len(targets))
    # the first faulty reference in input order names the error
    faults = np.flatnonzero((src == dst) | ((dst < 0) & (mode == "strict")))
    if len(faults):
        at = faults[0]
        if dst[at] < 0:
            raise CorpusError(f"document {ids[src[at]]!r} references unknown "
                              f"id {targets[at]!r}")
        raise ValidationError(f"self-reference on {ids[src[at]]!r} "
                              "is excluded from the model")
    first_stub = len(ids)
    for at in np.flatnonzero(dst < 0).tolist():
        target = targets[at]
        if target not in index:
            index[target] = len(ids)
            ids.append(target)
            sector.append(Sector.LEGISLATION.value)
            effect.append(effect[src[at]])
            expiry.append(_SENTINEL)
        dst[at] = index[target]

    twin = _RECIPROCAL[kind] != kind
    src, dst, kind = (np.concatenate([src, dst[twin]]),
                      np.concatenate([dst, src[twin]]),
                      np.concatenate([kind, _RECIPROCAL[kind[twin]]]))

    graph = LegislationGraph(ids, sector, effect, expiry, src, dst, kind)
    counts = np.bincount(graph.edge_arrays()[2], minlength=len(RefType))
    report = IngestReport(
        nodes=graph.node_count,
        edges=graph.edge_count,
        stubs=len(ids) - first_stub,
        deduplicated=len(src) - graph.edge_count,
        per_type_counts={k.value: int(c) for k, c in zip(RefType, counts)},
    )
    return graph, report


def export(graph: LegislationGraph) -> Iterator[Row]:
    """Emit one row per document, in insertion order.

    References are sorted by (target, type) so repeated
    ingest/export cycles are byte-stable; ``ingest(export(g))``
    reproduces the seven columns of ``g`` exactly, edge order included.
    """
    ids = graph.ids
    src, dst, kind = graph.edge_arrays()
    order = np.lexsort((_TOKEN_RANK[kind], graph.id_ranks()[dst], src))
    targets = [ids[d] for d in dst[order].tolist()]
    kinds = kind[order].tolist()
    ends = np.cumsum(np.bincount(src, minlength=len(ids))).tolist()
    effect, expiry = (col.tolist() for col in graph.date_ordinals())
    rows = zip(ids, graph.sector_codes().tolist(), effect, expiry, ends)
    start = 0
    for doc_id, sector, since, until, end in rows:
        yield doc_id, sector, since, until, targets[start:end], kinds[start:end]
        start = end

