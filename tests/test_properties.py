"""Property tests over small generated corpora.

Corpora have unsorted ids, duplicate reference triples, one- and
two-sided amendment pairs, and dangling targets (ingested leniently).
Every derived graph is checked against a recount from the parent's
``documents()`` and ``references()``.
"""

from __future__ import annotations

import json
from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from legisnet import (
    RECIPROCAL_TYPES,
    RefType,
    Sector,
    export_text,
    filter_reftype,
    filter_sector,
    ingest,
    read_records,
    snapshot,
)

DANGLING = ("~1", "~2")  # never drawn as document ids
START = date(1950, 1, 1)


@st.composite
def corpora(draw) -> list[dict]:
    ids = draw(st.lists(st.text("abcxyz019", min_size=1, max_size=3),
                        min_size=1, max_size=8, unique=True))
    records = []
    for doc_id in ids:
        effect = START + timedelta(days=draw(st.integers(0, 3650)))
        record = {"id": doc_id, "sector": draw(st.integers(1, 6)),
                  "date_of_effect": effect.isoformat()}
        if draw(st.booleans()):
            expiry = effect + timedelta(days=draw(st.integers(0, 3650)))
            record["date_of_expiry"] = expiry.isoformat()
        targets = [t for t in ids + list(DANGLING) if t != doc_id]
        record["references"] = draw(st.lists(
            st.fixed_dictionaries({
                "target": st.sampled_from(targets),
                "type": st.sampled_from([k.value for k in RefType]),
            }), max_size=6))
        records.append(record)
    by_id = {record["id"]: record for record in records}
    for record in records:
        for ref in list(record["references"]):
            reciprocal = RECIPROCAL_TYPES.get(RefType(ref["type"]))
            if (reciprocal is not None and ref["target"] in by_id
                    and draw(st.booleans())):
                by_id[ref["target"]]["references"].append(
                    {"target": record["id"], "type": reciprocal.value})
    return records


def lines(records: list[dict]) -> list[str]:
    return [json.dumps(record) for record in records]


def triples(graph) -> list[tuple]:
    return [(r.source, r.target, r.kind) for r in graph.references()]


@settings(max_examples=80, deadline=None)
@given(corpora())
def test_export_ingest_export_is_byte_stable(records):
    graph, _ = ingest(read_records(lines(records)), mode="lenient")
    text = export_text(graph)
    again, _ = ingest(read_records(text.splitlines()))
    assert list(again.documents()) == list(graph.documents())
    assert set(triples(again)) == set(triples(graph))
    assert export_text(again) == text


@settings(max_examples=80, deadline=None)
@given(corpora(), st.integers(0, 7300), st.sampled_from(list(Sector)),
       st.sampled_from(list(RefType)))
def test_views_equal_recount(records, day, sector, kind):
    graph, _ = ingest(read_records(lines(records)), mode="lenient")
    docs = list(graph.documents())
    at = START + timedelta(days=day)
    views = (
        (snapshot(graph, at), lambda d: d.active_at(at), lambda r: True),
        (filter_sector(graph, sector), lambda d: d.sector is sector,
         lambda r: True),
        (filter_reftype(graph, kind), lambda d: True, lambda r: r[2] is kind),
    )
    for view, keep_doc, keep_edge in views:
        kept = [d for d in docs if keep_doc(d)]
        ids = {d.id for d in kept}
        expected = [t for t in triples(graph)
                    if t[0] in ids and t[1] in ids and keep_edge(t)]
        assert list(view.documents()) == kept
        assert triples(view) == expected
        assert (view.node_count, view.edge_count) == (len(kept), len(expected))


@settings(max_examples=80, deadline=None)
@given(corpora())
def test_ingest_report_counts(records):
    graph, report = ingest(read_records(lines(records)), mode="lenient")
    offered = []
    for record in records:
        for ref in record["references"]:
            kind = RefType(ref["type"])
            offered.append((record["id"], ref["target"], kind))
            if kind in RECIPROCAL_TYPES:
                offered.append((ref["target"], record["id"],
                                RECIPROCAL_TYPES[kind]))
    assert set(triples(graph)) == set(offered)
    assert report.edges == graph.edge_count == len(set(offered))
    assert sum(report.per_type_counts.values()) == report.edges
    assert report.deduplicated == len(offered) - report.edges
    assert report.nodes == len(records) + report.stubs
