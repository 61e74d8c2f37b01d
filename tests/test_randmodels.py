from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from legisnet import (
    AnalysisError,
    ConfigError,
    GeneratorConfig,
    RefType,
    Sector,
    erdos_renyi,
    generate,
    small_world_compare,
)

from conftest import make_graph, node_rows


def edge_pairs(graph):
    src, dst, _ = graph.edge_arrays()
    return set(zip(src.tolist(), dst.tolist()))


class TestErdosRenyi:
    @pytest.mark.parametrize("n", [0, 1, 2, 10])
    def test_no_edges(self, n):
        g = erdos_renyi(n, 0, seed=1)
        assert g.node_count == n and g.edge_count == 0
        assert (g.degree_array("total") == 0).all()

    def test_saturation_complete(self):
        g = erdos_renyi(10, 90, seed=1)
        assert g.edge_count == 90
        pairs = edge_pairs(g)
        assert len(pairs) == 90
        assert all(u != v for u, v in pairs)

    def test_exact_edge_count_and_no_duplicates(self):
        g = erdos_renyi(500, 2_000, seed=3)
        assert g.edge_count == 2_000
        assert len(edge_pairs(g)) == 2_000

    def test_deterministic(self):
        a = erdos_renyi(100, 400, seed=9)
        b = erdos_renyi(100, 400, seed=9)
        assert edge_pairs(a) == edge_pairs(b)

    def test_infeasible(self):
        # a valid corpus can carry more typed edges than n(n-1) pairs, so
        # this ends the analysis; a negative count is a bad configuration
        with pytest.raises(AnalysisError, match=r"^cannot place 91 distinct "
                           r"directed edges on 10 nodes \(max 90\)$"):
            erdos_renyi(10, 91)
        for n, m in ((-1, 0), (10, -1)):
            with pytest.raises(ConfigError, match="must be non-negative"):
                erdos_renyi(n, m)

    def test_placeholder_documents(self):
        g = erdos_renyi(3, 2, seed=0)
        for _, sector, _, expiry in node_rows(g):
            assert sector is Sector.LEGISLATION
            assert expiry.year == 9999

    def test_degree_distribution_poissonian(self):
        n, m = 10_000, 40_000
        g = erdos_renyi(n, m, seed=5)
        total = g.degree_array("total")
        assert total.mean() == pytest.approx(8.0, abs=0.1)
        top = 18
        observed = np.array([(total == k).sum() for k in range(top)]
                            + [(total >= top).sum()], dtype=float)
        pmf = np.array([poisson.pmf(k, 8.0) for k in range(top)]
                       + [poisson.sf(top - 1, 8.0)])
        expected = pmf * n
        expected *= observed.sum() / expected.sum()
        assert chisquare(observed, expected).pvalue > 0.01

    def test_edge_presence_uniform_small_n(self):
        # n=4, m=3: each of the 12 ordered pairs should appear with
        # frequency m/total = 1/4 across seeds
        hits = {}
        trials = 3000
        for seed in range(trials):
            for pair in edge_pairs(erdos_renyi(4, 3, seed=seed)):
                hits[pair] = hits.get(pair, 0) + 1
        assert len(hits) == 12
        for pair, count in hits.items():
            assert count / trials == pytest.approx(0.25, abs=0.04), pair


class TestSmallWorldCompare:
    def test_er_input_not_small_world(self):
        false_count = 0
        for seed in range(5):
            g = erdos_renyi(2_000, 8_000, seed=seed + 40)
            report = small_world_compare(g, replicas=3, seed=seed)
            false_count += not report.small_world_verdict
            assert report.rand_replicas == 3
        assert false_count == 5

    def test_preferential_corpus_is_small_world(self):
        g = generate(GeneratorConfig(years=(1951, 2000), docs_per_year=200,
                                     densification_exponent=1.2,
                                     preferential_mixing=0.8, seed=4))
        report = small_world_compare(g, replicas=3, seed=0, path_sources=400)
        assert report.small_world_verdict
        assert report.c_net >= 10 * report.c_rand
        assert report.l_net <= 1.5 * report.l_rand

    def test_matched_null_counts(self):
        g = generate(GeneratorConfig(years=(1980, 1989), docs_per_year=30,
                                     seed=1))
        # the nulls must carry the graph's node and typed-edge counts
        null = erdos_renyi(g.node_count, g.edge_count, seed=0)
        assert null.node_count == g.node_count
        assert null.edge_count == g.edge_count

    def test_clique_saturated_case_not_small_world(self):
        names = [f"q{i:02d}" for i in range(20)]
        g = make_graph([(a, b, RefType.OTHER) for a in names for b in names
                        if a != b])
        report = small_world_compare(g, replicas=2, seed=0)
        # the matched null is forced equally complete: no clustering excess
        assert not report.small_world_verdict
        assert report.c_net == pytest.approx(report.c_rand)

    def test_small_gc_rejected(self):
        g = erdos_renyi(8, 10, seed=2)
        with pytest.raises(AnalysisError):
            small_world_compare(g, replicas=2, seed=0)

    def test_replicas_validated(self):
        g = erdos_renyi(100, 300, seed=2)
        with pytest.raises(ConfigError):
            small_world_compare(g, replicas=0)

    @pytest.mark.parametrize("factors", [
        {"length_factor": float("nan")},
        {"length_factor": 0.0},
        {"clustering_factor": -1.0},
        {"clustering_factor": float("inf")},
    ])
    def test_factors_validated(self, factors):
        g = erdos_renyi(100, 300, seed=2)
        with pytest.raises(ConfigError, match="must be finite and > 0"):
            small_world_compare(g, replicas=1, **factors)

    def test_deterministic_across_parallelism(self):
        g = erdos_renyi(300, 900, seed=7)
        a = small_world_compare(g, replicas=4, seed=5, n_jobs=1)
        b = small_world_compare(g, replicas=4, seed=5, n_jobs=2)
        assert a == b
