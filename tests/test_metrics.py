from __future__ import annotations

import itertools
from datetime import date

import numpy as np
import pytest

from legisnet import (
    AnalysisError,
    GeneratorConfig,
    RefType,
    Sector,
    assortativity,
    clustering,
    components,
    decompose,
    degree_stats,
    generate,
    gini_sorted,
    lorenz_gini,
    path_metrics,
)
from legisnet.metrics import giant_projection, lorenz_gini_from_degrees

from conftest import bowtie_sets, make_graph, random_digraph


# -- oracles ------------------------------------------------------------------


def gini_double_sum(values):
    """O(n^2) definition: sum |xi - xj| / (2 n^2 mean)."""
    x = np.asarray(values, dtype=float)
    if x.sum() == 0:
        return 0.0
    diffs = np.abs(x[:, None] - x[None, :]).sum()
    return float(diffs / (2 * len(x) ** 2 * x.mean()))


def undirected_pairs(graph):
    src, dst, _ = graph.edge_arrays()
    n = graph.node_count
    codes = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    return list(zip((codes // n).tolist(), (codes % n).tolist()))


def local_clustering_bruteforce(graph):
    """O(n^3)-style oracle: enumerate neighbour pairs per node."""
    n = graph.node_count
    neigh = [set() for _ in range(n)]
    for u, v in undirected_pairs(graph):
        neigh[u].add(v)
        neigh[v].add(u)
    out = np.zeros(n)
    for v in range(n):
        k = len(neigh[v])
        if k < 2:
            continue
        links = sum(1 for a, b in itertools.combinations(sorted(neigh[v]), 2)
                    if b in neigh[a])
        out[v] = 2.0 * links / (k * (k - 1))
    return out


def floyd_warshall_oracle(graph):
    """Dense all-pairs distances on the undirected projection."""
    n = graph.node_count
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in undirected_pairs(graph):
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def union_find_components(graph):
    n = graph.node_count
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in undirected_pairs(graph):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    sizes = {}
    for v in range(n):
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return max(sizes.values()) if sizes else 0


def pearson(xs, ys):
    x, y = np.asarray(xs, float), np.asarray(ys, float)
    return float(((x - x.mean()) * (y - y.mean())).mean() / (x.std() * y.std()))


def path_graph(k):
    return make_graph([(f"p{i}", f"p{i + 1}") for i in range(k - 1)])


def star_graph(leaves):
    return make_graph([("hub", f"leaf{i:02d}") for i in range(leaves)])


def complete_graph(k):
    names = [f"k{i}" for i in range(k)]
    return make_graph([(a, b) for a in names for b in names if a < b])


# -- degree stats -------------------------------------------------------------


class TestDegreeStats:
    def test_three_cycle(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
        s = degree_stats(g, "in")
        assert (s.mean, s.stddev, s.max) == (1.0, 0.0, 1)
        assert s.histogram == {1: 3}

    def test_star_hub(self):
        g = star_graph(9)  # 10 nodes, hub receives nothing, leaves 1 each
        s = degree_stats(g, "in")
        assert s.n == 10
        assert s.max == 1
        out = degree_stats(g, "out")
        assert out.max == 9 and out.mean == 0.9

    def test_incoming_star(self):
        g = make_graph([(f"s{i}", "hub") for i in range(9)])
        s = degree_stats(g, "in")
        assert s.max == 9 and s.mean == 0.9

    def test_histogram_sums_to_n(self):
        rng = np.random.default_rng(0)
        g = random_digraph(rng, 40, 2.0)
        for direction in ("in", "out"):
            s = degree_stats(g, direction)
            assert sum(s.histogram.values()) == s.n

    def test_empty_graph_error(self):
        g = make_graph()
        with pytest.raises(AnalysisError):
            degree_stats(g, "in")

    def test_preferential_sigma_dominates_mean(self):
        g = generate(GeneratorConfig(years=(1901, 2000), docs_per_year=100,
                                     densification_exponent=1.2,
                                     preferential_mixing=1.0, seed=12))
        s = degree_stats(g, "in")
        assert s.stddev > 3 * s.mean


# -- lorenz / gini ------------------------------------------------------------


class TestLorenzGini:
    def test_regular_graph_zero(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
        lg = lorenz_gini(g, "in")
        assert lg.gini == 0.0
        for x, y in lg.lorenz_points:
            assert y == pytest.approx(x)

    def test_frozen_value_0075(self):
        assert gini_sorted([0, 0, 0, 10]) == pytest.approx(0.75, abs=1e-12)
        assert gini_double_sum([0, 0, 0, 10]) == pytest.approx(0.75)

    def test_sorted_equals_double_sum(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 400))
            degrees = rng.integers(0, 50, size=n)
            assert gini_sorted(degrees) == pytest.approx(
                gini_double_sum(degrees), abs=1e-9)

    def test_all_zero_flagged(self):
        lg = lorenz_gini_from_degrees(np.zeros(5))
        assert lg.gini == 0.0 and lg.all_zero

    def test_lorenz_convex_nondecreasing(self):
        rng = np.random.default_rng(5)
        degrees = rng.integers(0, 30, size=100)
        lg = lorenz_gini_from_degrees(degrees.astype(float))
        ys = [y for _, y in lg.lorenz_points]
        assert lg.lorenz_points[0] == (0.0, 0.0)
        assert lg.lorenz_points[-1][1] == pytest.approx(1.0)
        diffs = np.diff(ys)
        assert (diffs >= -1e-12).all()
        assert (np.diff(diffs) >= -1e-12).all()  # convex

    def test_gini_zero_iff_equal(self):
        assert gini_sorted([4, 4, 4, 4]) == pytest.approx(0.0, abs=1e-12)
        assert gini_sorted([4, 4, 4, 5]) > 0

    def test_top_shares(self):
        degrees = np.array([10] + [0] * 99, dtype=float)
        lg = lorenz_gini_from_degrees(degrees)
        assert lg.top1_share == pytest.approx(1.0)
        assert lg.pareto80_node_fraction == pytest.approx(0.01)


# -- clustering ----------------------------------------------------------------


class TestClustering:
    def test_triangle(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "a")])
        prof = clustering(g)
        assert prof.global_avg == pytest.approx(1.0)
        assert prof.per_degree[2] == pytest.approx(1.0)

    def test_three_node_path(self):
        g = path_graph(3)
        assert clustering(g).global_avg == 0.0

    def test_tree_is_zero(self):
        g = make_graph([("r", "a"), ("r", "b"), ("a", "c"), ("a", "d")])
        assert clustering(g).global_avg == 0.0

    def test_clique_is_one(self):
        g = complete_graph(6)
        assert clustering(g).global_avg == pytest.approx(1.0)

    def test_matches_bruteforce_on_random_graphs(self):
        from legisnet.metrics import local_clustering_from_pairs
        rng = np.random.default_rng(77)
        for _ in range(8):
            g = random_digraph(rng, int(rng.integers(10, 100)), 2.5)
            mine = local_clustering_from_pairs(g.node_count,
                                               *g.simple_projection())
            oracle = local_clustering_bruteforce(g)
            assert np.allclose(mine, oracle)

    def test_slope_negative_on_hierarchical_graph(self):
        g = generate(GeneratorConfig(years=(1951, 2000), docs_per_year=100,
                                     densification_exponent=1.2,
                                     preferential_mixing=0.9, seed=3))
        prof = clustering(g)
        assert prof.loglog_slope < 0


# -- path metrics ---------------------------------------------------------------


class TestPathMetrics:
    def test_five_node_path(self):
        pm = path_metrics(path_graph(5))
        assert pm.diameter == 4
        assert pm.average_path_length == pytest.approx(2.0)
        assert sum(pm.distance_histogram.values()) == 20  # ordered pairs

    def test_complete_k4(self):
        pm = path_metrics(complete_graph(4))
        assert pm.diameter == 1
        assert pm.average_path_length == pytest.approx(1.0)

    def test_star_s10(self):
        pm = path_metrics(star_graph(9))  # 10 nodes
        assert pm.diameter == 2
        assert pm.average_path_length == pytest.approx(1.8)
        assert pm.distance_histogram == {1: 18, 2: 72}

    def test_exact_matches_floyd_warshall(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            g = random_digraph(rng, int(rng.integers(8, 90)), 2.0)
            comp = components(g)
            if comp.gc_size < 2:
                continue
            pm = path_metrics(g)
            dist = floyd_warshall_oracle(g)
            gc = np.flatnonzero(giant_projection(g)[0])
            sub = dist[np.ix_(gc, gc)]
            finite = sub[np.isfinite(sub) & (sub > 0)]
            assert pm.diameter == int(finite.max())
            assert pm.average_path_length == pytest.approx(finite.mean())
            hist = {int(d): int(c) for d, c in
                    zip(*np.unique(finite, return_counts=True))}
            assert pm.distance_histogram == hist

    def test_restricted_to_giant_component(self):
        g = make_graph([("a", "b"), ("b", "c"), ("x", "y")])
        pm = path_metrics(g)
        assert pm.restricted_to == "a"
        assert sum(pm.distance_histogram.values()) == 6

    def test_sampled_mode_flags_lower_bound(self):
        g = generate(GeneratorConfig(years=(1990, 1999), docs_per_year=30,
                                     seed=2))
        pm = path_metrics(g, mode="sampled", sources=20, seed=1)
        assert pm.diameter_is_lower_bound
        assert pm.sources == 20
        exact = path_metrics(g)
        assert pm.diameter <= exact.diameter

    def test_tiny_component_error(self):
        g = make_graph(nodes=["A", "B"])
        with pytest.raises(AnalysisError):
            path_metrics(g)

    def test_directed_option(self):
        g = make_graph([("a", "b"), ("b", "c")])
        pm = path_metrics(g, directed=True)
        # ordered reachable pairs only: a->b, a->c, b->c
        assert pm.distance_histogram == {1: 2, 2: 1}
        assert pm.directed


# -- components -------------------------------------------------------------------


class TestComponents:
    def test_two_triangles_and_isolated(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "a"),
                        ("x", "y"), ("y", "z"), ("z", "x")],
                       [*"abcxyz", "isolated"])
        rep = components(g)
        assert rep.gc_fraction == pytest.approx(3 / 7)
        assert rep.isolated_count == 1

    def test_connected_graph(self):
        g = path_graph(6)
        assert components(g).gc_fraction == 1.0

    def test_direction_ignored(self):
        g = make_graph([("a", "b"), ("c", "b")])
        assert components(g).gc_fraction == 1.0

    def test_empty_graph(self):
        rep = components(make_graph())
        assert rep.gc_fraction == 0.0 and rep.gc_size == 0

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_digraph(rng, int(rng.integers(5, 200)), 1.5)
            assert components(g).gc_size == union_find_components(g)

    def test_size_tie_goes_to_smallest_id(self):
        # two equal 2-cycles; the one inserted first holds the larger ids
        g = make_graph(
            [(u, v, RefType.OTHER)
             for u, v in (("z1", "z2"), ("z2", "z1"), ("a1", "a2"), ("a2", "a1"))],
            ["z1", "z2", "a1", "a2"],
        )
        giant = giant_projection(g)[0]
        assert set(itertools.compress(g.ids, giant)) == {"a1", "a2"}
        assert bowtie_sets(g, decompose(g))["core"] == {"a1", "a2"}


# -- assortativity -----------------------------------------------------------------


class TestAssortativity:
    def test_same_sector_edges_give_one(self):
        g = make_graph([("a", "b", RefType.OTHER), ("b", "c", RefType.OTHER)],
                       [(x, Sector.TREATIES) for x in "abc"])
        assert assortativity(g, "sector") == pytest.approx(1.0, abs=1e-9)

    def test_star_degree_minus_one(self):
        g = star_graph(8)
        assert assortativity(g, "degree") == pytest.approx(-1.0, abs=1e-9)

    def test_degree_matches_pearson_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            g = random_digraph(rng, int(rng.integers(6, 60)), 2.0)
            pairs = undirected_pairs(g)
            if len(pairs) < 2:
                continue
            deg = np.zeros(g.node_count)
            for u, v in pairs:
                deg[u] += 1
                deg[v] += 1
            xs = [deg[u] for u, v in pairs] + [deg[v] for u, v in pairs]
            ys = [deg[v] for u, v in pairs] + [deg[u] for u, v in pairs]
            if np.std(xs) == 0:
                continue
            assert assortativity(g, "degree") == pytest.approx(pearson(xs, ys))

    def test_sector_permutation_invariance(self):
        rng = np.random.default_rng(8)
        sectors = list(Sector)
        for trial in range(5):
            n = int(rng.integers(8, 40))
            assign = rng.integers(0, 6, size=n)
            perm = rng.permutation(6)
            pairs = {(int(a), int(b)) for a, b in
                     rng.integers(0, n, size=(3 * n, 2)) if a != b}
            docs_a = [(f"n{i:03d}", sectors[assign[i]]) for i in range(n)]
            docs_b = [(f"n{i:03d}", sectors[perm[assign[i]]])
                      for i in range(n)]
            refs = [(f"n{u:03d}", f"n{v:03d}", RefType.OTHER)
                    for u, v in sorted(pairs)]
            g_a = make_graph(refs, docs_a)
            g_b = make_graph(refs, docs_b)
            assert assortativity(g_a, "sector") == pytest.approx(
                assortativity(g_b, "sector"), abs=1e-12)

    def test_zero_variance_error(self):
        g = make_graph([("a", "b"), ("c", "d")])  # all degrees equal
        with pytest.raises(AnalysisError):
            assortativity(g, "degree")

    def test_heterogeneous_cliques_positive(self):
        edges = []
        for size, prefix in ((4, "a"), (7, "b"), (10, "c")):
            names = [f"{prefix}{i}" for i in range(size)]
            edges += [(x, y) for x in names for y in names if x < y]
        g = make_graph(edges)
        value = assortativity(g, "degree")
        pairs = undirected_pairs(g)
        deg = np.zeros(g.node_count)
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        xs = [deg[u] for u, v in pairs] + [deg[v] for u, v in pairs]
        ys = [deg[v] for u, v in pairs] + [deg[u] for u, v in pairs]
        assert value == pytest.approx(pearson(xs, ys))
        assert value == pytest.approx(1.0)  # same-degree endpoints everywhere

    def test_too_few_edges(self):
        g = make_graph([("a", "b")])
        with pytest.raises(AnalysisError):
            assortativity(g, "degree")
