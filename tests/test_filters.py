from __future__ import annotations

from datetime import date

import numpy as np

from legisnet import (
    GeneratorConfig,
    RefType,
    Sector,
    annual_series,
    filter_reftype,
    filter_sector,
    generate,
    snapshot,
)

from conftest import edge_triples, make_graph, node_rows


def edge_set(graph):
    return set(edge_triples(graph))


def id_set(graph):
    return set(graph.ids)


def brute_force_snapshot(graph, at):
    """Independent oracle: per-node interval check, then edge filter."""
    active = {doc_id for doc_id, _, effect, expiry in node_rows(graph)
              if effect <= at <= expiry}
    edges = {(u, v, kind) for u, v, kind in edge_triples(graph)
             if u in active and v in active}
    return active, edges


class TestSectorFilter:
    def test_mixed_graph_hand_count(self):
        g = make_graph(
            [("a3", "b3", RefType.INSTRUMENTS_CITED),
             ("a3", "c1", RefType.LEGAL_BASIS),
             ("d5", "b3", RefType.OTHER)],
            [("a3", Sector.LEGISLATION), ("b3", Sector.LEGISLATION),
             ("c1", Sector.TREATIES), ("d5", Sector.PREPARATORY_ACTS)],
        )
        rn = filter_sector(g, Sector.LEGISLATION)
        assert id_set(rn) == {"a3", "b3"}
        assert rn.edge_count == 1

    def test_absent_sector_empty(self):
        g = make_graph(nodes=[("a", Sector.LEGISLATION)])
        out = filter_sector(g, Sector.INTERNATIONAL_AGREEMENTS)
        assert out.node_count == 0 and out.edge_count == 0

    def test_full_network_sector_3(self):
        g = generate(GeneratorConfig(years=(1990, 1995), docs_per_year=30,
                                     seed=2))
        rn = filter_sector(g, Sector.LEGISLATION)
        assert (rn.sector_codes() == Sector.LEGISLATION.value).all()
        survivors = id_set(rn)
        assert edge_set(rn) == {
            e for e in edge_set(g)
            if e[0] in survivors and e[1] in survivors
        }


class TestReftypeFilter:
    def test_keeps_all_nodes(self, amendment_chain_graph):
        icn = filter_reftype(amendment_chain_graph, RefType.INSTRUMENTS_CITED)
        assert icn.node_count == amendment_chain_graph.node_count
        assert icn.edge_count == 0

    def test_identity_when_all_match(self):
        g = make_graph([("a", "b", RefType.LEGAL_BASIS)])
        lbn = filter_reftype(g, RefType.LEGAL_BASIS)
        assert edge_set(lbn) == edge_set(g)
        assert id_set(lbn) == id_set(g)

    def test_fig1_legal_basis_empty(self, amendment_chain_graph):
        lbn = filter_reftype(amendment_chain_graph, RefType.LEGAL_BASIS)
        assert lbn.node_count == 3 and lbn.edge_count == 0


class TestSnapshot:
    def test_interval_membership(self):
        g = make_graph(nodes=[("A", Sector.LEGISLATION, date(1970, 3, 20),
                               date(1989, 7, 17))])
        assert id_set(snapshot(g, date(1980, 1, 1))) == {"A"}
        assert id_set(snapshot(g, date(1990, 1, 1))) == set()
        # closed on both ends
        assert id_set(snapshot(g, date(1970, 3, 20))) == {"A"}
        assert id_set(snapshot(g, date(1989, 7, 17))) == {"A"}

    def test_before_all_effects_empty(self, amendment_chain_graph):
        s = snapshot(amendment_chain_graph, date(1950, 1, 1))
        assert s.node_count == 0 and s.edge_count == 0

    def test_matches_brute_force_oracle(self):
        g = generate(GeneratorConfig(years=(1995, 2000), docs_per_year=20,
                                     sunset_probability=0.5,
                                     sunset_horizon_years=3, seed=17))
        for when in (date(1996, 6, 1), date(2000, 12, 31), date(2005, 1, 1)):
            s = snapshot(g, when)
            active, edges = brute_force_snapshot(g, when)
            assert id_set(s) == active
            assert edge_set(s) == edges

    def test_idempotent(self):
        g = generate(GeneratorConfig(years=(1995, 1999), docs_per_year=15,
                                     sunset_probability=0.4, seed=3))
        when = date(1998, 12, 31)
        once = snapshot(g, when)
        twice = snapshot(once, when)
        assert id_set(once) == id_set(twice)
        assert edge_set(once) == edge_set(twice)

    def test_sentinel_documents_stay_forever(self):
        g = generate(GeneratorConfig(years=(1990, 1992), docs_per_year=10,
                                     sunset_probability=0.0, seed=5))
        early = id_set(snapshot(g, date(1992, 12, 31)))
        later = id_set(snapshot(g, date(3000, 1, 1)))
        assert early <= later


class TestAnnualSeries:
    def test_years_before_corpus_are_empty(self, amendment_chain_graph):
        series = annual_series(amendment_chain_graph, (1951, 1953))
        assert [year for year, _ in series] == [1951, 1952, 1953]
        assert all(amendment_chain_graph.induced_subgraph(mask).node_count == 0
                   for _, mask in series)

    def test_single_year_equals_snapshot(self, amendment_chain_graph):
        ((year, mask),) = annual_series(amendment_chain_graph, (1985, 1985))
        sub = amendment_chain_graph.induced_subgraph(mask)
        direct = snapshot(amendment_chain_graph, date(1985, 12, 31))
        assert year == 1985
        assert id_set(sub) == id_set(direct)
        assert edge_set(sub) == edge_set(direct)

    def test_inverted_range_empty(self, amendment_chain_graph):
        assert annual_series(amendment_chain_graph, (1990, 1980)) == []

    def test_non_decreasing_without_sunsets(self):
        g = generate(GeneratorConfig(years=(1980, 1990), docs_per_year=12,
                                     sunset_probability=0.0, seed=21))
        counts = [g.induced_subgraph(mask).node_count
                  for _, mask in annual_series(g, (1980, 1990))]
        assert counts == sorted(counts)

    def test_matches_oracle_each_year(self):
        g = generate(GeneratorConfig(years=(1985, 1990), docs_per_year=10,
                                     sunset_probability=0.6,
                                     sunset_horizon_years=2, seed=30))
        for year, mask in annual_series(g, (1985, 1995)):
            sub = g.induced_subgraph(mask)
            active, edges = brute_force_snapshot(g, date(year, 12, 31))
            assert id_set(sub) == active
            assert edge_set(sub) == edges


class TestComposition:
    def test_sector_and_reftype_commute(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            g = generate(GeneratorConfig(
                years=(1990, 1990 + int(rng.integers(2, 6))),
                docs_per_year=int(rng.integers(8, 25)), seed=trial + 50))
            a = filter_reftype(filter_sector(g, Sector.LEGISLATION),
                               RefType.INSTRUMENTS_CITED)
            b = filter_sector(filter_reftype(g, RefType.INSTRUMENTS_CITED),
                              Sector.LEGISLATION)
            assert id_set(a) == id_set(b)
            assert edge_set(a) == edge_set(b)

    def test_filtered_graphs_keep_invariants(self):
        g = generate(GeneratorConfig(years=(1990, 1995), docs_per_year=20,
                                     seed=9))
        for sub in (filter_sector(g, Sector.LEGISLATION),
                    filter_reftype(g, RefType.LEGAL_BASIS),
                    snapshot(g, date(1993, 12, 31))):
            assert sub.degree_array("in").sum() == sub.edge_count
            assert sub.degree_array("out").sum() == sub.edge_count
            for col in sub.edge_arrays()[:2]:
                assert ((0 <= col) & (col < sub.node_count)).all()
