from __future__ import annotations

import gc
import weakref
from datetime import date

import numpy as np
import pytest

from legisnet import SENTINEL_EXPIRY, RefType, Sector, metrics

from conftest import edge_triples, make_graph, node_rows, random_digraph


def pair_count(graph) -> int:
    """Number of edges of the simple undirected projection."""
    pair_u, pair_v = graph.simple_projection()
    assert len(pair_u) == len(pair_v)
    return len(pair_u)


class TestDocuments:
    def test_build_document(self):
        g = make_graph(nodes=[("370L0220", Sector.LEGISLATION,
                               date(1970, 3, 20), SENTINEL_EXPIRY)])
        assert g.ids == ("370L0220",)
        assert g.node_count == 1
        assert node_rows(g) == [("370L0220", Sector.LEGISLATION,
                                 date(1970, 3, 20), SENTINEL_EXPIRY)]


class TestReferences:
    def test_amendment_pair_is_two_edges(self, amendment_chain_graph):
        assert amendment_chain_graph.edge_count == 4
        assert amendment_chain_graph.node_count == 3

    def test_duplicate_triple_deduplicated(self):
        g = make_graph([("A", "B", RefType.LEGAL_BASIS),
                        ("A", "B", RefType.LEGAL_BASIS)])
        assert g.edge_count == 1

    def test_same_pair_different_type_kept(self):
        g = make_graph([("A", "B", RefType.LEGAL_BASIS),
                        ("A", "B", RefType.INSTRUMENTS_CITED)])
        assert g.edge_count == 2


class TestDegree:
    def test_star_in_degree(self):
        edges = [(f"s{i}", "hub") for i in range(5)]
        g = make_graph(edges)
        hub = g.ids.index("hub")
        assert g.degree_array("in")[hub] == 5
        assert g.degree_array("out")[hub] == 0
        assert g.degree_array("total")[hub] == 5

    def test_parallel_types_typed_vs_projection(self):
        # one neighbour, three typed edges: typed total 3, projection 1
        g = make_graph([("A", "B", kind)
                        for kind in (RefType.LEGAL_BASIS,
                                     RefType.INSTRUMENTS_CITED,
                                     RefType.OTHER)])
        projected = np.bincount(np.concatenate(g.simple_projection()),
                                minlength=g.node_count)
        assert g.degree_array("total")[g.ids.index("A")] == 3
        assert projected[g.ids.index("A")] == 1
        assert projected[g.ids.index("B")] == 1

    def test_isolated_node(self):
        g = make_graph(nodes=["A"])
        assert g.degree_array("total")[g.ids.index("A")] == 0


class TestProjection:
    def test_empty_graph(self):
        g = make_graph()
        assert pair_count(g) == 0

    def test_two_directions_collapse(self):
        g = make_graph([("A", "B", RefType.LEGAL_BASIS),
                        ("B", "A", RefType.INSTRUMENTS_CITED)])
        assert pair_count(g) == 1

    def test_multilayer_collapse_hand_count(self):
        # 5 docs, 6 typed edges; collapsing parallel/antiparallel pairs
        # leaves exactly the 3 distinct undirected pairs counted by hand
        g = make_graph(
            [("A", "B", RefType.LEGAL_BASIS),
             ("B", "A", RefType.INSTRUMENTS_CITED),
             ("A", "B", RefType.INSTRUMENTS_CITED),
             ("C", "D", RefType.LEGAL_BASIS),
             ("D", "E", RefType.INSTRUMENTS_CITED),
             ("E", "D", RefType.AMENDED_BY)],
        )
        assert g.edge_count == 6
        assert pair_count(g) == 3


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
        g_dup = make_graph(refs)
        g_set = make_graph(set(refs))
        assert set(edge_triples(g_dup)) == set(edge_triples(g_set))
        assert g_dup.edge_count == g_set.edge_count == 2

    def test_projection_monotone_under_edge_removal(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_digraph(rng, 15, 2.5)
            full = pair_count(g)
            refs = edge_triples(g)
            drop = int(rng.integers(len(refs)))
            smaller = make_graph(
                [r for i, r in enumerate(refs) if i != drop], g.ids)
            assert pair_count(smaller) <= full


def filled(graph):
    """``graph`` after everything it computes once has been built."""
    graph.adjacency()
    graph.id_ranks()
    metrics.giant_projection(graph)
    metrics.local_clustering(graph)
    metrics.path_metrics(graph, mode="sampled", sources=5, seed=1)
    return graph


def cached_objects(graph) -> list:
    """Every result in the graph's cache, tuples opened one level."""
    return [item for value in graph._cache.values()
            for item in (value if isinstance(value, tuple) else (value,))]


class TestCache:
    def test_one_cache_holds_every_result(self):
        graph = filled(random_digraph(np.random.default_rng(3), 30, 2.0))
        # adjacency, ranks, projection, giant projection, clustering, paths
        assert len(graph._cache) == 6
        with pytest.raises(TypeError):  # keywords would give a second key
            metrics._giant_path_stats(graph, mode="sampled", sources=5,
                                      seed=1, directed=False)

    def test_cached_results_are_freed_with_their_graph(self):
        graph = filled(random_digraph(np.random.default_rng(3), 30, 2.0))
        refs = [weakref.ref(obj) for obj in [graph, *cached_objects(graph)]]
        del graph
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_equal_graphs_share_no_cached_object(self):
        first, second = (
            filled(random_digraph(np.random.default_rng(3), 30, 2.0))
            for _ in range(2))
        assert first._cache.keys() == second._cache.keys()
        for a in cached_objects(first):
            for b in cached_objects(second):
                assert a is not b
                if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                    assert not np.shares_memory(a, b)
