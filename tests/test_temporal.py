from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from scipy import stats

from legisnet import (
    AnalysisError,
    GeneratorConfig,
    RefType,
    Sector,
    densification_fit,
    evolution_series,
    generate,
)
from legisnet.temporal import SnapshotStat

from conftest import edge_triples, make_graph, node_rows


def stat(year, n, e):
    return SnapshotStat(year=year, n=n, e=e)


class TestEvolutionSeries:
    def test_first_document_appears(self, amendment_chain_graph):
        stats = evolution_series(amendment_chain_graph, (1969, 1971))
        assert [s.n for s in stats] == [0, 1, 1]
        assert stats[1].per_sector[3] == 1

    def test_year_before_everything(self, amendment_chain_graph):
        stats = evolution_series(amendment_chain_graph, (1950, 1950))
        assert stats[0].n == 0 and stats[0].e == 0
        assert stats[0].scc_fraction == 0.0

    def test_counts_match_recount_oracle(self):
        g = generate(GeneratorConfig(years=(1990, 1999), docs_per_year=15,
                                     sunset_probability=0.4,
                                     sunset_horizon_years=3, seed=23))
        for s in evolution_series(g, (1990, 2003)):
            at = date(s.year, 12, 31)
            active = [(doc_id, sector)
                      for doc_id, sector, effect, expiry in node_rows(g)
                      if effect <= at <= expiry]
            ids = {doc_id for doc_id, _ in active}
            edges = [(u, v, kind) for u, v, kind in edge_triples(g)
                     if u in ids and v in ids]
            assert s.n == len(active)
            assert s.e == len(edges)
            per_sector = {sec.value: 0 for sec in Sector}
            for _, sector in active:
                per_sector[sector.value] += 1
            assert s.per_sector == per_sector
            per_type = {k.value: 0 for k in RefType}
            for _, _, kind in edges:
                per_type[kind.value] += 1
            assert s.per_reftype == per_type
            assert sum(s.per_sector.values()) == s.n
            assert sum(s.per_reftype.values()) == s.e

    def test_repeated_invocation_identical(self, amendment_chain_graph):
        a = evolution_series(amendment_chain_graph, (1970, 1990))
        b = evolution_series(amendment_chain_graph, (1970, 1990))
        assert a == b

    def test_single_node_snapshot(self):
        g = make_graph(nodes=[("A", Sector.LEGISLATION, date(1970, 1, 1))])
        [s] = evolution_series(g, (1970, 1970))
        assert (s.scc_fraction, s.gc_fraction) == (1.0, 1.0)

    def test_empty_snapshot(self):
        g = make_graph(nodes=[("A", Sector.LEGISLATION, date(1970, 1, 1))])
        [s] = evolution_series(g, (1950, 1950))
        assert (s.scc_fraction, s.gc_fraction) == (0.0, 0.0)

    def test_amendments_grow_the_core(self):
        g = generate(GeneratorConfig(
            years=(1951, 2000), docs_per_year=40,
            densification_exponent=1.15, preferential_mixing=0.7,
            reftype_weights=(1, 1, 1, 2, 0.5, 0.5), seed=77))
        series = evolution_series(g, (1951, 2000))
        rho = stats.spearmanr([s.year for s in series],
                              [s.scc_fraction for s in series]).statistic
        assert rho > 0


class TestDensificationFit:
    def test_exact_power_series(self):
        # N = k^5 makes N^1.2 = k^6 exactly representable
        series = [stat(2000 + i, k ** 5, k ** 6)
                  for i, k in enumerate((2, 3, 4, 5, 6))]
        fit = densification_fit(series)
        assert fit.slope == pytest.approx(1.2, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_linear_growth(self):
        series = [stat(2000 + i, n, 3 * n) for i, n in
                  enumerate((10, 50, 200, 1000))]
        fit = densification_fit(series)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_slope_invariant_under_edge_rescaling(self):
        rng = np.random.default_rng(2)
        ns = np.sort(rng.integers(10, 10_000, size=12))
        es = (ns.astype(float) ** 1.4 * rng.uniform(0.9, 1.1, size=12)).astype(int)
        base = [stat(2000 + i, int(n), int(e)) for i, (n, e) in
                enumerate(zip(ns, es))]
        scaled = [stat(s.year, s.n, s.e * 7) for s in base]
        fit_a = densification_fit(base)
        fit_b = densification_fit(scaled)
        assert fit_a.slope == pytest.approx(fit_b.slope, abs=1e-12)
        assert fit_b.intercept > fit_a.intercept

    def test_zero_residuals_on_exact_input(self):
        series = [stat(2000 + i, k ** 5, 2 * k ** 6)
                  for i, k in enumerate((2, 3, 4, 5))]
        fit = densification_fit(series)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_excludes_unusable_points(self):
        series = [stat(1999, 0, 0), stat(2000, 1, 0), stat(2001, 5, 0)]
        series += [stat(2002 + i, n, 3 * n) for i, n in
                   enumerate((10, 100, 1000))]
        fit = densification_fit(series)
        assert fit.points_used == 3
        assert fit.points_excluded == 3
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            densification_fit([stat(2000, 10, 30), stat(2001, 20, 60)])

    def test_zero_variance(self):
        series = [stat(2000 + i, 50, 100 + i) for i in range(5)]
        with pytest.raises(AnalysisError):
            densification_fit(series)

    def test_generator_roundtrip_slope(self):
        g = generate(GeneratorConfig(years=(1951, 2000), docs_per_year=100,
                                     densification_exponent=1.15, seed=0))
        stats = evolution_series(g, (1951, 2000))
        fit = densification_fit(stats)
        assert 1.10 <= fit.slope <= 1.20
        assert fit.r_squared > 0.98

    def test_generator_constant_degree_slope_one(self):
        g = generate(GeneratorConfig(years=(1951, 2000), docs_per_year=100,
                                     densification_exponent=1.0,
                                     citation_scale=3.0, seed=1))
        fit = densification_fit(evolution_series(g, (1951, 2000)))
        assert fit.slope == pytest.approx(1.0, abs=0.05)
