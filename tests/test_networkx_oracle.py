"""Projection metrics against networkx on random directed graphs."""

from __future__ import annotations

import numpy as np
import pytest

from legisnet import (
    Sector,
    assortativity,
    build_graph,
    clustering,
    components,
    path_metrics,
)

from conftest import doc, random_digraph

nx = pytest.importorskip("networkx")


def projection(graph):
    """networkx copy of the simple undirected projection, with sectors."""
    undirected = nx.Graph()
    undirected.add_nodes_from((d.id, {"sector": d.sector})
                              for d in graph.documents())
    undirected.add_edges_from((r.source, r.target) for r in graph.references())
    return undirected


def random_graphs(seed: int, count: int = 8):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_digraph(rng, int(rng.integers(10, 80)),
                             float(rng.uniform(1.0, 3.0)))


def test_global_clustering():
    for g in random_graphs(5):
        assert clustering(g).global_avg == pytest.approx(
            nx.average_clustering(projection(g)), abs=1e-12)


def test_exact_average_path_length_on_giant_component():
    for g in random_graphs(6):
        undirected = projection(g)
        giant = max(nx.connected_components(undirected), key=len)
        assert components(g).giant_component_ids == giant
        expected = nx.average_shortest_path_length(undirected.subgraph(giant))
        assert path_metrics(g, mode="exact").average_path_length == (
            pytest.approx(expected, abs=1e-12))


def test_degree_assortativity():
    for g in random_graphs(7):
        assert assortativity(g, "degree") == pytest.approx(
            nx.degree_assortativity_coefficient(projection(g)), abs=1e-9)


def test_sector_assortativity():
    rng = np.random.default_rng(8)
    for g in random_graphs(8):
        sectors = [Sector(int(s)) for s in rng.integers(1, 7, g.node_count)]
        g = build_graph(map(doc, g.ids, sectors), g.references())
        assert assortativity(g, "sector") == pytest.approx(
            nx.attribute_assortativity_coefficient(projection(g), "sector"),
            abs=1e-9)
