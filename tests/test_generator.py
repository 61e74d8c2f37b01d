from __future__ import annotations

import pytest

from legisnet import (
    SENTINEL_EXPIRY,
    ConfigError,
    GeneratorConfig,
    RefType,
    Sector,
    generate,
)

from conftest import edge_triples, export_text, node_rows

AMENDMENT_KINDS = {RefType.AMENDMENT_TO, RefType.AMENDED_BY}


def test_deterministic_per_seed():
    cfg = GeneratorConfig(years=(1970, 1979), docs_per_year=30,
                          densification_exponent=1.1, sunset_probability=0.2,
                          seed=42)
    assert export_text(generate(cfg)) == export_text(generate(cfg))


def test_different_seed_differs():
    cfg_a = GeneratorConfig(years=(1970, 1974), docs_per_year=20, seed=1)
    cfg_b = GeneratorConfig(years=(1970, 1974), docs_per_year=20, seed=2)
    assert export_text(generate(cfg_a)) != export_text(generate(cfg_b))


def test_schedule_sum_and_yearly_counts():
    cfg = GeneratorConfig(years=(1990, 1994), docs_per_year=(5, 10, 15, 20, 25),
                          seed=0)
    g = generate(cfg)
    assert g.node_count == 75
    per_year = {}
    for _, _, effect, _ in node_rows(g):
        per_year[effect.year] = per_year.get(effect.year, 0) + 1
    assert per_year == {1990: 5, 1991: 10, 1992: 15, 1993: 20, 1994: 25}


def test_citations_point_backward():
    g = generate(GeneratorConfig(years=(1980, 1989), docs_per_year=40,
                                 densification_exponent=1.2, seed=5))
    effect = {doc_id: since for doc_id, _, since, _ in node_rows(g)}
    pairs = set()
    for source, target, kind in edge_triples(g):
        if kind in AMENDMENT_KINDS:
            pairs.add(frozenset((source, target)))
        else:
            assert effect[source] >= effect[target]
    for pair in pairs:
        a, b = sorted(pair, key=effect.get)
        # the amendment pair always contains the backward orientation b -> a
        kinds = {kind for source, target, kind in edge_triples(g)
                 if {source, target} == {a, b}}
        assert kinds == AMENDMENT_KINDS


def test_edge_budget_tracks_power_schedule():
    cfg = GeneratorConfig(years=(1951, 1990), docs_per_year=25,
                          densification_exponent=1.3, seed=8)
    g = generate(cfg)
    n = g.node_count
    assert abs(g.edge_count - n ** 1.3) <= 0.02 * n ** 1.3


def test_zero_weight_sectors_never_drawn():
    cfg = GeneratorConfig(years=(1990, 1995), docs_per_year=40,
                          sector_weights=(0, 0, 1, 0, 0, 1), seed=4)
    sectors = {row[1] for row in node_rows(generate(cfg))}
    assert sectors <= {Sector.LEGISLATION, Sector.JURISPRUDENCE}


def test_zero_weight_reftypes_never_drawn():
    cfg = GeneratorConfig(years=(1990, 1995), docs_per_year=40,
                          reftype_weights=(0, 0, 1, 0, 0, 0), seed=4)
    kinds = {kind for _, _, kind in edge_triples(generate(cfg))}
    assert kinds == {RefType.LEGAL_BASIS}


def test_sunset_horizon_respected():
    cfg = GeneratorConfig(years=(1990, 1994), docs_per_year=30,
                          sunset_probability=1.0, sunset_horizon_years=7,
                          seed=6)
    for _, _, effect, expiry in node_rows(generate(cfg)):
        span = expiry.year - effect.year
        assert 1 <= span <= 7


def test_no_sunset_means_sentinel():
    cfg = GeneratorConfig(years=(1990, 1992), docs_per_year=10,
                          sunset_probability=0.0, seed=6)
    assert all(row[3] == SENTINEL_EXPIRY for row in node_rows(generate(cfg)))


def test_pure_preferential_in_degree_is_power_law_plausible():
    from legisnet import fit_power_law, goodness_of_fit
    g = generate(GeneratorConfig(years=(1951, 2000), docs_per_year=200,
                                 densification_exponent=1.15,
                                 preferential_mixing=1.0, seed=19))
    assert g.node_count == 10_000
    degrees = g.degree_array("in")
    result = goodness_of_fit(degrees, fit_power_law(degrees), m=100, seed=1,
                             n_jobs=2)
    assert result.p_value > 0.10


def test_preferential_mixing_skews_in_degree():
    base = dict(years=(1951, 1990), docs_per_year=50,
                densification_exponent=1.1, seed=13)
    flat = generate(GeneratorConfig(preferential_mixing=0.0, **base))
    skew = generate(GeneratorConfig(preferential_mixing=1.0, **base))
    assert skew.degree_array("in").max() > 2 * flat.degree_array("in").max()


class TestConfigValidation:
    def test_empty_year_range(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(years=(1990, 1980)))

    def test_exponent_out_of_range(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(years=(1990, 1991),
                                     densification_exponent=2.5))

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(years=(1990, 1991),
                                     sector_weights=(1, 2, 3)))
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(years=(1990, 1991),
                                     reftype_weights=(0, 0, 0, 0, 0, 0)))

    def test_schedule_length_mismatch(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(years=(1990, 1992),
                                     docs_per_year=(5, 5)))

    def test_infeasible_first_year(self):
        # 2 docs can host at most 1 citation event, far below the budget
        with pytest.raises(ConfigError, match="infeasible"):
            generate(GeneratorConfig(years=(1990, 1990), docs_per_year=2,
                                     densification_exponent=2.0,
                                     citation_scale=10.0))

    @pytest.mark.parametrize("settings", [
        {"citation_scale": float("nan")},
        {"citation_scale": float("inf")},
        {"sector_weights": (float("nan"), 1, 1, 1, 1, 1)},
        {"reftype_weights": (1, 1, 1, 1, 1, float("inf"))},
        {"years": (0, 1)},
        {"years": (9999, 10000)},
        {"sunset_probability": 1.0, "sunset_horizon_years": 100_000},
        {"years": (9998, 9999), "sunset_probability": 1.0},
        {"seed": -1},
        {"citation_scale": 1e308},
    ])
    def test_rejects_what_generate_cannot_honour(self, settings):
        config = GeneratorConfig(**{"years": (1990, 1991), **settings})
        with pytest.raises(ConfigError):
            config.validate()

    def test_last_calendar_year_generates(self):
        g = generate(GeneratorConfig(years=(9999, 9999), docs_per_year=5))
        assert {effect.year for _, _, effect, _ in node_rows(g)} == {9999}

    def test_mixing_out_of_range(self):
        with pytest.raises(ConfigError):
            generate(GeneratorConfig(years=(1990, 1991),
                                     preferential_mixing=1.5))
