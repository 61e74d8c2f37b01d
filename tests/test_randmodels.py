from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chisquare, poisson

from legisnet import (
    AnalysisError,
    ConfigError,
    GeneratorConfig,
    RefType,
    ResilienceConfig,
    Sector,
    compare_with_null,
    erdos_renyi,
    generate,
    small_world_compare,
)
from legisnet import randmodels
from legisnet.graph import reftype_code
from legisnet.metrics import giant_projection
from legisnet.randmodels import CLUSTERING_FACTOR, LENGTH_FACTOR

from conftest import make_graph, node_rows


def edge_pairs(graph):
    src, dst, _ = graph.edge_arrays()
    return set(zip(src.tolist(), dst.tolist()))


def projection_pairs(graph):
    return set(zip(*(side.tolist() for side in graph.simple_projection())))


class TestErdosRenyi:
    @pytest.mark.parametrize("n", [0, 1, 2, 10])
    def test_no_edges(self, n):
        g = erdos_renyi(n, 0, seed=1)
        assert g.node_count == n and g.edge_count == 0
        assert (g.degree_array("total") == 0).all()

    def test_saturation_complete(self):
        g = erdos_renyi(10, 45, seed=1)
        assert g.edge_count == 45
        assert len(projection_pairs(g)) == 45
        assert all(u != v for u, v in edge_pairs(g))

    # numpy draws sparse codes by Floyd's algorithm and shuffles the
    # code range once m > n(n-1)/40 (with more than 10,000 codes)
    @pytest.mark.parametrize("n, m", [
        (500, 2_000), (200, 3_000), (60, 1_770), (2, 1)],
        ids=["floyd", "shuffle", "complete", "two-nodes"])
    def test_exact_edge_count_and_no_duplicates(self, n, m):
        g = erdos_renyi(n, m, seed=3)
        src, dst, kind = g.edge_arrays()
        assert g.edge_count == m
        assert len(projection_pairs(g)) == m
        assert not (src == dst).any()
        assert src.max() < n and dst.max() < n
        assert (kind == reftype_code(RefType.INSTRUMENTS_CITED)).all()

    def test_deterministic(self):
        a = erdos_renyi(100, 400, seed=9)
        b = erdos_renyi(100, 400, seed=9)
        assert edge_pairs(a) == edge_pairs(b)

    def test_infeasible(self):
        # no graph's projection has more than n(n-1)/2 pairs, so a larger
        # m, like a negative count, is a bad configuration
        for n, m in ((10, 46), (-1, 0), (10, -1)):
            with pytest.raises(ConfigError, match=(
                    r"^G\(n, m\) needs n >= 0 and 0 <= m <= n\(n-1\)/2, "
                    rf"got n={n}, m={m}$")):
                erdos_renyi(n, m)
        assert erdos_renyi(10, 45).edge_count == 45

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
        # n=4, m=3: each of the 6 node pairs should appear with
        # frequency m/total = 1/2 across seeds
        hits = {}
        trials = 3000
        for seed in range(trials):
            for pair in projection_pairs(erdos_renyi(4, 3, seed=seed)):
                hits[pair] = hits.get(pair, 0) + 1
        assert len(hits) == 6
        for pair, count in hits.items():
            assert count / trials == pytest.approx(0.5, abs=0.04), pair


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

    def test_matched_null_counts(self, monkeypatch):
        g = generate(GeneratorConfig(years=(1980, 1989), docs_per_year=30,
                                     seed=1))
        pairs = len(g.simple_projection()[0])
        assert pairs < g.edge_count  # amendment twins share a pair
        sizes = []

        def recorded(n, m, seed=0):
            sizes.append((n, m))
            return draw(n, m, seed=seed)

        draw = randmodels.erdos_renyi
        monkeypatch.setattr(randmodels, "erdos_renyi", recorded)
        small_world_compare(g, replicas=2, seed=0)
        compare_with_null(g, ResilienceConfig(repetitions=2))
        # every null carries the graph's node and projection pair counts
        assert sizes == [(g.node_count, pairs)] * 3

    def test_auto_path_mode_follows_the_network(self, monkeypatch):
        # a 20-node circulant of 100 pairs beside 40 isolated nodes: its
        # nulls spread the 100 pairs over 60 nodes, whose giant component
        # is larger than the network's
        ring = [f"c{i:02d}" for i in range(20)]
        g = make_graph([(ring[i], ring[(i + j) % 20]) for i in range(20)
                        for j in range(1, 6)],
                       ring + [f"z{i:02d}" for i in range(40)])
        calls = []

        def recorded(graph, mode, **kwargs):
            calls.append((int(giant_projection(graph)[0].sum()), mode))
            return measure(graph, mode, **kwargs)

        measure = randmodels.path_metrics
        monkeypatch.setattr(randmodels, "path_metrics", recorded)
        monkeypatch.setattr(randmodels, "EXACT_BELOW", 40)
        small_world_compare(g, replicas=3, seed=0, path_mode="auto")
        gc_sizes = [size for size, _ in calls]
        assert gc_sizes[0] == 20 and min(gc_sizes[1:]) > 40
        # the network's giant component is below the line, so every null
        # is measured exactly too
        assert [mode for _, mode in calls] == ["exact"] * 4

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

    @pytest.mark.parametrize("name", ["length_factor", "clustering_factor"])
    def test_factor_parameters_removed(self, name):
        g = erdos_renyi(100, 300, seed=2)
        with pytest.raises(TypeError, match=name):
            small_world_compare(g, replicas=1, **{name: 2.0})

    def test_report_states_the_module_lines(self):
        report = small_world_compare(erdos_renyi(300, 900, seed=7),
                                     replicas=2, seed=0)
        assert (LENGTH_FACTOR, CLUSTERING_FACTOR) == (1.5, 10.0)
        assert report.length_factor == LENGTH_FACTOR
        assert report.clustering_factor == CLUSTERING_FACTOR

    def test_verdict_reads_the_module_lines(self, monkeypatch):
        g = erdos_renyi(300, 900, seed=7)
        assert not small_world_compare(g, replicas=2, seed=0).small_world_verdict
        # each line, moved alone, flips the verdict of the same graph and seed
        monkeypatch.setattr(randmodels, "CLUSTERING_FACTOR", 0.0)
        assert small_world_compare(g, replicas=2, seed=0).small_world_verdict
        monkeypatch.setattr(randmodels, "LENGTH_FACTOR", 0.0)
        assert not small_world_compare(g, replicas=2, seed=0).small_world_verdict

    def test_deterministic_across_parallelism(self):
        g = erdos_renyi(300, 900, seed=7)
        a = small_world_compare(g, replicas=4, seed=5, n_jobs=1)
        b = small_world_compare(g, replicas=4, seed=5, n_jobs=2)
        assert a == b
