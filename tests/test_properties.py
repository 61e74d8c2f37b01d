"""Property tests over small generated corpora and graphs.

Corpora have unsorted ids, duplicate reference triples, one- and
two-sided amendment pairs, and dangling targets (ingested leniently).
Every derived graph is checked against a recount from the parent's
``documents()`` and ``references()``.  Drawn digraphs check that the
bow-tie classes partition the nodes and that resilience curves only
fall.  The two traversal kernels are checked against the algorithms
they replaced: scipy ``dijkstra`` for the BFS distance histogram and a
per-boundary ``connected_components`` recount for resilience curves.
"""

from __future__ import annotations

import json
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from legisnet import (
    RECIPROCAL_TYPES,
    LegalDocument,
    Reference,
    RefType,
    ResilienceConfig,
    Sector,
    build_graph,
    decompose,
    export_text,
    filter_reftype,
    filter_sector,
    ingest,
    read_records,
    simulate,
    snapshot,
)
from legisnet.metrics import distance_histogram
from legisnet.resilience import _curve_for_order, removal_boundaries

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


def digraph(n: int, pairs):
    names = [f"d{i:02d}" for i in range(n)]
    return build_graph(
        (LegalDocument(name, Sector.LEGISLATION, START) for name in names),
        (Reference(names[u], names[v], RefType.OTHER) for u, v in pairs))


def extra_pairs(n: int, max_size: int):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda p: p[0] != p[1]), max_size=max_size)


@st.composite
def bowtie_digraphs(draw):
    """A drawn bow-tie anatomy plus a few random extra edges.

    Each IN node points into the core cycle, the core points at each OUT
    node, a tube runs from an IN node to an OUT node, and a tendril
    hangs off an IN node or leads into an OUT node.  Extra edges may
    move nodes between classes; the partition must hold either way.
    """
    sizes = [draw(st.integers(1, 5))] + [draw(st.integers(0, 5))
                                         for _ in range(5)]
    bounds = np.cumsum([0] + sizes)
    core, ins, outs, tubes, tendrils, _ = (
        list(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    n = int(bounds[-1])

    def pick(nodes):
        return draw(st.sampled_from(nodes))

    pairs = list(zip(core, core[1:] + core[:1]))
    pairs += [(i, pick(core)) for i in ins] + [(pick(core), o) for o in outs]
    if ins and outs:
        for t in tubes:
            pairs += [(pick(ins), t), (t, pick(outs))]
    for t in tendrils if ins or outs else ():
        from_in = ins and (not outs or draw(st.booleans()))
        pairs.append((pick(ins), t) if from_in else (t, pick(outs)))
    pairs += draw(extra_pairs(n, max_size=3))
    return digraph(n, [(u, v) for u, v in pairs if u != v])


@st.composite
def random_digraphs(draw, min_nodes: int):
    n = draw(st.integers(min_nodes, min_nodes + 30))
    return digraph(n, draw(extra_pairs(n, max_size=3 * n)))


@settings(max_examples=80, deadline=None)
@given(bowtie_digraphs())
def test_bowtie_classes_partition_the_nodes(graph):
    classes = list(decompose(graph).sets().values())
    assert len(classes) == 6
    assert sum(len(c) for c in classes) == graph.node_count
    assert set().union(*classes) == set(graph.ids)


@settings(max_examples=40, deadline=None)
@given(random_digraphs(min_nodes=20),
       st.sampled_from(["random", "targeted_by_degree"]),
       st.sampled_from([0.05, 0.2, 0.5]), st.integers(0, 100))
def test_resilience_curve_only_falls(graph, strategy, step, seed):
    config = ResilienceConfig(strategy=strategy, step_fraction=step,
                              repetitions=3, seed=seed)
    curve = simulate(graph, config)
    gc = curve.gc_of_original()
    assert all(later <= earlier for earlier, later in zip(gc, gc[1:]))
    assert all(0.0 <= value <= 1.0 for point in curve.points for value in point)


def dijkstra_histogram(csr, sources) -> dict[int, int]:
    """Oracle: counts of finite nonzero unweighted dijkstra distances."""
    if len(sources) == 0:
        return {}
    dist = dijkstra(csr, directed=True, unweighted=True, indices=sources)
    finite = dist[np.isfinite(dist) & (dist > 0)].astype(np.int64)
    lengths, counts = np.unique(finite, return_counts=True)
    return dict(zip(lengths.tolist(), counts.tolist()))


@st.composite
def bfs_cases(draw):
    """A sparse digraph (duplicate edges, isolated and unreachable nodes)
    and sources whose count crosses the 64-bit word and 512-source chunk
    boundaries; sources repeat when they outnumber the nodes."""
    n = draw(st.integers(1, 30) | st.integers(500, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 2 * n))
    rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
    csr = sparse.csr_matrix((np.ones(m), (rows, cols)), shape=(n, n))
    count = draw(st.sampled_from([0, 1, 63, 64, 65, 511, 512, 513, 1100])
                 | st.integers(0, 1100))
    sources = rng.choice(n, size=count, replace=count > n)
    return csr, sources


@settings(max_examples=60, deadline=None)
@given(bfs_cases(), st.booleans())
def test_bfs_histogram_equals_dijkstra(case, directed):
    csr, sources = case
    if not directed:
        csr = (csr + csr.T).tocsr()
    assert distance_histogram(csr, sources) == dijkstra_histogram(csr, sources)


def recount_curve(order, pair_u, pair_v, n, boundaries) -> list[int]:
    """Oracle: giant size among the nodes left at each boundary, by
    connected_components on the surviving subgraph."""
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    sizes = []
    for boundary in [0] + boundaries:
        alive = rank >= boundary
        if not alive.any():
            sizes.append(0)
            continue
        keep = alive[pair_u] & alive[pair_v]
        adj = sparse.csr_matrix(
            (np.ones(int(keep.sum())), (pair_u[keep], pair_v[keep])),
            shape=(n, n))
        _, labels = connected_components(adj, directed=False)
        sizes.append(int(np.bincount(labels[alive]).max()))
    return sizes


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
           st.just(n), st.permutations(range(n)),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=3 * n))),
       st.sampled_from([0.05, 0.2, 0.5]), st.sampled_from([0.5, 0.99, 1.0]))
def test_union_find_curve_equals_recount(drawn, step, stop_at):
    n, order, drawn_pairs = drawn
    pairs = sorted({(min(p), max(p)) for p in drawn_pairs if p[0] != p[1]})
    pair_u = np.array([u for u, _ in pairs], dtype=np.int64)
    pair_v = np.array([v for _, v in pairs], dtype=np.int64)
    order = np.array(order, dtype=np.int64)
    boundaries = removal_boundaries(n, step, stop_at)
    curve = _curve_for_order(order, pair_u, pair_v, n, boundaries)
    assert curve.tolist() == recount_curve(order, pair_u, pair_v, n, boundaries)
