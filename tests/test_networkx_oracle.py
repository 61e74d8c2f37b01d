"""Graph metrics against networkx on random and generated directed graphs."""

from __future__ import annotations

from datetime import date
from itertools import compress

import numpy as np
import pytest

from legisnet import (
    GeneratorConfig,
    RefType,
    Sector,
    assortativity,
    clustering,
    components,
    evolution_series,
    filter_reftype,
    generate,
    path_metrics,
)
from legisnet.metrics import giant_projection

from conftest import edge_triples, make_graph, node_rows, random_digraph
from test_filters import brute_force_snapshot

nx = pytest.importorskip("networkx")


def projection(graph):
    """networkx copy of the simple undirected projection, with sectors."""
    undirected = nx.Graph()
    undirected.add_nodes_from((doc_id, {"sector": sector})
                              for doc_id, sector, _, _ in node_rows(graph))
    undirected.add_edges_from((u, v) for u, v, _ in edge_triples(graph))
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
        assert set(compress(g.ids, giant_projection(g)[0])) == giant
        assert components(g).gc_size == len(giant)
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
        g = make_graph(edge_triples(g), list(zip(g.ids, sectors)))
        assert assortativity(g, "sector") == pytest.approx(
            nx.attribute_assortativity_coefficient(projection(g), "sector"),
            abs=1e-9)


@pytest.mark.parametrize("network", ["LN", "ICN"])
def test_evolution_component_fractions(network):
    g = generate(GeneratorConfig(years=(1980, 1992), docs_per_year=25,
                                 sunset_probability=0.5,
                                 sunset_horizon_years=3, seed=12))
    if network == "ICN":
        g = filter_reftype(g, RefType.INSTRUMENTS_CITED)
    actives = []
    for stat in evolution_series(g, (1979, 1998)):
        active, edges = brute_force_snapshot(g, date(stat.year, 12, 31))
        actives.append(active)
        year_graph = nx.DiGraph()
        year_graph.add_nodes_from(active)
        year_graph.add_edges_from((s, t) for s, t, _ in edges)
        n = len(active)
        strong = max(map(len, nx.strongly_connected_components(year_graph)),
                     default=0)
        weak = max(map(len, nx.weakly_connected_components(year_graph)),
                   default=0)
        assert stat.n == n
        assert stat.scc_fraction == (strong / n if n else 0.0)
        assert stat.gc_fraction == (weak / n if n else 0.0)
    # documents leave mid-series, so some year drops a document
    assert any(before - after for before, after in zip(actives, actives[1:]))
