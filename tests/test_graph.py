from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from legisnet import (
    SENTINEL_EXPIRY,
    LegalDocument,
    Reference,
    RefType,
    Sector,
    ValidationError,
    build_graph,
)

from conftest import doc, quick_graph, random_digraph


class TestDocuments:
    def test_build_document(self):
        g = build_graph([LegalDocument("370L0220", Sector.LEGISLATION,
                                       date(1970, 3, 20), SENTINEL_EXPIRY)], [])
        assert "370L0220" in g
        assert g.node_count == 1
        assert g.document("370L0220").date_of_effect == date(1970, 3, 20)

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValidationError,
                           match="^duplicate document id 'A'$"):
            build_graph([doc("A"), doc("A")], [])

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValidationError):
            LegalDocument("A", Sector.LEGISLATION, date(1990, 1, 1),
                          date(1980, 1, 1))

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError):
            LegalDocument("", Sector.LEGISLATION, date(1990, 1, 1))

    def test_sentinel_is_plain_comparable_date(self):
        d = doc("A", effect=date(1970, 1, 1))
        assert d.date_of_expiry == date(9999, 12, 31)
        assert d.active_at(date(5000, 6, 1))


class TestReferences:
    def test_amendment_pair_is_two_edges(self, amendment_chain_graph):
        assert amendment_chain_graph.edge_count == 4
        assert amendment_chain_graph.node_count == 3

    def test_duplicate_triple_deduplicated(self):
        g = build_graph([doc("A"), doc("B")],
                        [Reference("A", "B", RefType.LEGAL_BASIS),
                         Reference("A", "B", RefType.LEGAL_BASIS)])
        assert g.edge_count == 1

    def test_same_pair_different_type_kept(self):
        g = build_graph([doc("A"), doc("B")],
                        [Reference("A", "B", RefType.LEGAL_BASIS),
                         Reference("A", "B", RefType.INSTRUMENTS_CITED)])
        assert g.edge_count == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Reference("A", "A", RefType.INSTRUMENTS_CITED)

    def test_missing_endpoint_named(self):
        with pytest.raises(ValidationError, match="unknown document 'B'$"):
            build_graph([doc("A")], [Reference("A", "B", RefType.OTHER)])


class TestDegree:
    def test_star_in_degree(self):
        edges = [(f"s{i}", "hub") for i in range(5)]
        g = quick_graph(edges)
        hub = g.index_of("hub")
        assert g.degree_array("in")[hub] == 5
        assert g.degree_array("out")[hub] == 0
        assert g.degree_array("total")[hub] == 5

    def test_parallel_types_typed_vs_projection(self):
        # one neighbour, three typed edges: typed total 3, projection 1
        g = build_graph([doc("A"), doc("B")],
                        [Reference("A", "B", kind)
                         for kind in (RefType.LEGAL_BASIS,
                                      RefType.INSTRUMENTS_CITED,
                                      RefType.OTHER)])
        projected = g.simple_projection().degree_array()
        assert g.degree_array("total")[g.index_of("A")] == 3
        assert projected[g.index_of("A")] == 1
        assert projected[g.index_of("B")] == 1

    def test_isolated_node(self):
        g = build_graph([doc("A")], [])
        assert g.degree_array("total")[g.index_of("A")] == 0

    def test_unknown_id(self):
        g = build_graph([doc("A")], [])
        with pytest.raises(ValidationError):
            g.index_of("nope")


class TestProjection:
    def test_empty_graph(self):
        g = build_graph([], [])
        assert g.simple_projection().edge_count == 0

    def test_two_directions_collapse(self):
        g = build_graph([doc("A"), doc("B")],
                        [Reference("A", "B", RefType.LEGAL_BASIS),
                         Reference("B", "A", RefType.INSTRUMENTS_CITED)])
        assert g.simple_projection().edge_count == 1

    def test_multilayer_collapse_hand_count(self):
        # 5 docs, 6 typed edges; collapsing parallel/antiparallel pairs
        # leaves exactly the 3 distinct undirected pairs counted by hand
        g = build_graph(
            [doc(name) for name in "ABCDE"],
            [Reference("A", "B", RefType.LEGAL_BASIS),
             Reference("B", "A", RefType.INSTRUMENTS_CITED),
             Reference("A", "B", RefType.INSTRUMENTS_CITED),
             Reference("C", "D", RefType.LEGAL_BASIS),
             Reference("D", "E", RefType.INSTRUMENTS_CITED),
             Reference("E", "D", RefType.AMENDED_BY)],
        )
        assert g.edge_count == 6
        assert g.simple_projection().edge_count == 3


class TestInvariants:
    def test_degree_sums_equal_edge_count(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_digraph(rng, n=int(rng.integers(2, 40)),
                               edges_per_node=2.0)
            assert g.degree_array("in").sum() == g.edge_count
            assert g.degree_array("out").sum() == g.edge_count

    def test_duplicate_multiset_ingestion_identical(self):
        refs = [("A", "B", RefType.LEGAL_BASIS),
                ("A", "B", RefType.LEGAL_BASIS),
                ("B", "C", RefType.OTHER),
                ("B", "C", RefType.OTHER),
                ("B", "C", RefType.OTHER)]
        docs = [doc(x) for x in "ABC"]
        g_dup = build_graph(docs, (Reference(*r) for r in refs))
        g_set = build_graph([doc(x) for x in "ABC"],
                            (Reference(*r) for r in set(refs)))
        assert ({(r.source, r.target, r.kind) for r in g_dup.references()}
                == {(r.source, r.target, r.kind) for r in g_set.references()})
        assert g_dup.edge_count == g_set.edge_count == 2

    def test_projection_monotone_under_edge_removal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_digraph(rng, 15, 2.5)
            full = g.simple_projection().edge_count
            refs = list(g.references())
            drop = int(rng.integers(len(refs)))
            smaller = build_graph(
                list(g.documents()),
                (r for i, r in enumerate(refs) if i != drop),
            )
            assert smaller.simple_projection().edge_count <= full
