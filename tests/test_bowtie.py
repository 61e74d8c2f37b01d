from __future__ import annotations

import time

import numpy as np
import pytest

from legisnet import (
    AnalysisError,
    LegislationGraph,
    Reference,
    RefType,
    build_graph,
    decompose,
)

from conftest import doc, quick_graph


# -- oracle: dense transitive closure -----------------------------------------


def bowtie_bruteforce(n, edges, ids):
    """Classify nodes via an O(n^3) reachability closure."""
    reach = np.eye(n, dtype=bool)
    for u, v in edges:
        reach[u, v] = True
    while True:
        nxt = reach | (reach.astype(np.int16) @ reach.astype(np.int16) > 0)
        if (nxt == reach).all():
            break
        reach = nxt

    mutual = reach & reach.T
    scc_of = [frozenset(np.flatnonzero(mutual[v]).tolist()) for v in range(n)]
    sccs = sorted(set(scc_of),
                  key=lambda s: (-len(s), min(ids[i] for i in s)))
    core = sccs[0]
    core_mask = np.zeros(n, bool)
    core_mask[list(core)] = True

    reaches_core = reach[:, core_mask].any(axis=1) & ~core_mask
    reached_from_core = reach[core_mask, :].any(axis=0) & ~core_mask

    undirected = np.eye(n, dtype=bool)
    for u, v in edges:
        undirected[u, v] = undirected[v, u] = True
    closure = undirected
    while True:
        nxt = closure | (closure.astype(np.int16) @ closure.astype(np.int16) > 0)
        if (nxt == closure).all():
            break
        closure = nxt
    weak = closure[next(iter(core))]

    in_set = reaches_core
    out_set = reached_from_core
    remaining = weak & ~core_mask & ~in_set & ~out_set
    from_in = np.zeros(n, bool)
    if in_set.any():
        from_in = reach[in_set, :].any(axis=0)
    to_out = np.zeros(n, bool)
    if out_set.any():
        to_out = reach[:, out_set].any(axis=1)
    tubes = remaining & from_in & to_out
    tendrils = remaining & (from_in ^ to_out)
    disconnected = ~weak | (remaining & ~from_in & ~to_out)

    def names(mask):
        return frozenset(ids[i] for i in np.flatnonzero(mask))

    return {
        "core": names(core_mask),
        "in": names(in_set),
        "out": names(out_set),
        "tubes": names(tubes),
        "tendrils": names(tendrils),
        "disconnected": names(disconnected),
    }


def oracle_for_graph(graph):
    src, dst, _ = graph.edge_arrays()
    edges = list(zip(src.tolist(), dst.tolist()))
    return bowtie_bruteforce(graph.node_count, edges, graph.ids)


def random_digraph_for_bowtie(rng, n, density):
    m = max(1, int(density * n))
    g = LegislationGraph()
    for i in range(n):
        g.add_document(doc(f"n{i:04d}"))
    seen = set()
    while len(seen) < m:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        g.add_reference(Reference(f"n{u:04d}", f"n{v:04d}",
                                  RefType.INSTRUMENTS_CITED))
    return g.seal()


# -- hand-derived examples -----------------------------------------------------


class TestHandExamples:
    def test_cycle_with_in_and_out(self):
        g = quick_graph([("a", "b"), ("b", "c"), ("c", "a"),
                         ("d", "a"), ("c", "e")])
        bt = decompose(g)
        assert bt.core == {"a", "b", "c"}
        assert bt.in_set == {"d"}
        assert bt.out_set == {"e"}
        assert not bt.tubes and not bt.tendrils and not bt.disconnected

    def test_seven_node_full_anatomy(self):
        # core {a,b}; d -> IN; e -> OUT; f: tube d->f->e; g: tendril; h: isolated
        g = quick_graph([("a", "b"), ("b", "a"), ("d", "a"), ("b", "e"),
                         ("d", "f"), ("f", "e"), ("d", "g")], n_extra=1)
        bt = decompose(g)
        assert bt.core == {"a", "b"}
        assert bt.in_set == {"d"}
        assert bt.out_set == {"e"}
        assert bt.tubes == {"f"}
        assert bt.tendrils == {"g"}
        assert bt.disconnected == {"z-iso0"}
        assert bt == _check_against_oracle(g, bt)

    def test_all_singleton_sccs_tie_break(self):
        g = build_graph([doc("x"), doc("m"), doc("a")], [])
        bt = decompose(g)
        assert bt.core == {"a"}  # smallest id among size-1 ties
        assert bt.disconnected == {"x", "m"}

    def test_chain(self):
        g = quick_graph([("c", "b"), ("b", "a")])
        bt = decompose(g)
        # singleton SCC tie broken by smallest id: core {a}
        assert bt.core == {"a"}
        assert bt.in_set == {"b", "c"}
        assert not bt.out_set

    def test_empty_graph_error(self):
        with pytest.raises(AnalysisError):
            decompose(build_graph([], []))

    def test_fractions_partition(self, amendment_chain_graph):
        bt = decompose(amendment_chain_graph)
        assert sum(bt.fractions.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(bt.sizes().values()) == amendment_chain_graph.node_count


def _check_against_oracle(graph, bt):
    oracle = oracle_for_graph(graph)
    assert bt.sets() == oracle
    return bt


class TestOracleEquivalence:
    def test_random_digraphs_match_bruteforce(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            n = int(rng.integers(2, 60))
            g = random_digraph_for_bowtie(rng, n, float(rng.uniform(0.5, 3.0)))
            bt = decompose(g)
            assert bt.sets() == oracle_for_graph(g), f"trial {trial}"

    def test_partition_property(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            g = random_digraph_for_bowtie(rng, int(rng.integers(2, 80)), 1.5)
            bt = decompose(g)
            sets = list(bt.sets().values())
            union = set().union(*sets)
            assert len(union) == g.node_count
            assert sum(len(s) for s in sets) == g.node_count

    def test_edge_reversal_swaps_in_out(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_digraph_for_bowtie(rng, int(rng.integers(4, 50)), 1.8)
            reversed_g = build_graph(
                list(g.documents()),
                (Reference(r.target, r.source, r.kind) for r in g.references()),
            )
            bt = decompose(g)
            rbt = decompose(reversed_g)
            assert rbt.core == bt.core
            assert rbt.in_set == bt.out_set
            assert rbt.out_set == bt.in_set
            assert rbt.tubes == bt.tubes
            assert rbt.tendrils == bt.tendrils
            assert rbt.disconnected == bt.disconnected


def test_million_edge_graph_decomposes_fast():
    from legisnet import erdos_renyi
    g = erdos_renyi(200_000, 1_000_000, seed=3)
    start = time.perf_counter()
    bt = decompose(g)
    elapsed = time.perf_counter() - start
    assert sum(bt.sizes().values()) == 200_000
    assert elapsed < 60  # linear-time components, not minutes

