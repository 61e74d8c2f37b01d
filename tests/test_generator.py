from __future__ import annotations

import hashlib
from unittest.mock import patch

import numpy as np
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

# numpy's bounded-integer and float draws are fixed only within one
# numpy version, as in test_tooling's RECORDED_WITH
GENERATED_WITH = "2.4.6"
_SMALL = dict(years=(1951, 1970), docs_per_year=30, densification_exponent=1.2,
              seed=3)
# sha256 of export_text(generate(config)); each config reaches a branch
# of the generator that the tooling corpus does not pin
GENERATED_DIGESTS = {
    "mixing-0": (
        GeneratorConfig(**_SMALL, preferential_mixing=0.0),
        "4fa8dab6f55ae01d7d5d63c440cd7b7821b3dc7e16f76d9a179949d4b70a0fd8"),
    "mixing-1": (
        GeneratorConfig(**_SMALL, preferential_mixing=1.0),
        "26bb7fe03673f16fa9e4ca8b44a6a2619ee202a60b4801ffbbf455e2db51b2af"),
    # three leap years, every document sunsets within three years
    "sunset-leap": (
        GeneratorConfig(years=(1992, 2000), docs_per_year=100,
                        sunset_probability=1.0, sunset_horizon_years=3,
                        seed=0),
        "ad81de125befd28e4eb84e8b9b94b5aa59d7ad089f4edf79f4a8a803fd309969"),
    "per-year": (
        GeneratorConfig(years=(1990, 1994), docs_per_year=(5, 40, 15, 60, 25),
                        densification_exponent=1.3, sunset_probability=0.3,
                        seed=7),
        "6e0347caa14121e237252d254a1fdf4c829c83a8b721d317b6f9282d821e2054"),
    # amended_by (stored as an amendment pair), instruments_cited, other
    "zero-reftypes": (
        GeneratorConfig(years=(1980, 1989), docs_per_year=40,
                        reftype_weights=(1, 0, 0, 2, 0, 1), seed=5),
        "a1da1c5579cc4a4dc57ffda1e61dcb0910f14170b5bcc00b58b2da43751ba9a8"),
    # so dense that some sources exhaust 200 tries at drawing a new target
    "dense-corner": (
        GeneratorConfig(years=(2000, 2004), docs_per_year=12,
                        densification_exponent=1.7, preferential_mixing=1.0,
                        seed=2),
        "e5874df3b60429b1be60e9982081e04c8999e1814ed5fcf6511530995a515695"),
    # ... while up to three documents are still uncited
    "dense-remainder": (
        GeneratorConfig(years=(2000, 2004), docs_per_year=20,
                        densification_exponent=1.5, preferential_mixing=1.0,
                        seed=2),
        "e79351517192e5ed44ceb16114e671bece7af9490134a9479a02c19a2ee8571a"),
}


def test_deterministic_per_seed():
    cfg = GeneratorConfig(years=(1970, 1979), docs_per_year=30,
                          densification_exponent=1.1, sunset_probability=0.2,
                          seed=42)
    assert export_text(generate(cfg)) == export_text(generate(cfg))


@pytest.mark.skipif(np.__version__ != GENERATED_WITH,
                    reason=f"digests recorded with numpy {GENERATED_WITH}")
@pytest.mark.parametrize("name", sorted(GENERATED_DIGESTS))
def test_generated_corpus_digest_stays_the_same(name):
    config, digest = GENERATED_DIGESTS[name]
    text = export_text(generate(config))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sunset_of_a_leap_day_falls_back_to_feb_28():
    config, _ = GENERATED_DIGESTS["sunset-leap"]
    leap_days = [(effect, expiry) for _, _, effect, expiry
                 in node_rows(generate(config))
                 if (effect.month, effect.day) == (2, 29)]
    assert leap_days
    for effect, expiry in leap_days:
        assert (expiry.month, expiry.day) == (2, 28)
        assert 1 <= expiry.year - effect.year <= 3


@pytest.mark.parametrize("name, widest", [("dense-corner", 1),
                                           ("dense-remainder", 3)])
def test_dense_corner_draws_from_the_uncited_remainder(name, widest):
    config, _ = GENERATED_DIGESTS[name]
    remainders = []

    def uncited(everyone, cited):
        remainders.append(setdiff1d(everyone, cited))
        return remainders[-1]

    setdiff1d = np.setdiff1d
    with patch.object(np, "setdiff1d", uncited):
        generate(config)
    assert max(map(len, remainders)) == widest


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
    with pytest.warns(UserWarning, match="resolution"):
        result = goodness_of_fit(degrees, fit_power_law(degrees), m=100,
                                 seed=1)
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
