from __future__ import annotations

import numpy as np
import pytest

from legisnet import (
    AnalysisError,
    ConfigError,
    GeneratorConfig,
    ResilienceConfig,
    compare_with_null,
    erdos_renyi,
    generate,
    simulate,
)
from legisnet.resilience import removal_boundaries

from conftest import make_graph


def star(n_leaves):
    return make_graph([("hub", f"leaf{i:03d}") for i in range(n_leaves)])


class TestConfig:
    def test_strategy_validation(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(strategy="betweenness")

    def test_step_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(step_fraction=0.0)
        with pytest.raises(ConfigError):
            ResilienceConfig(step_fraction=1.0)

    def test_default_repetitions(self):
        assert ResilienceConfig(strategy="random").effective_repetitions() == 1000
        assert ResilienceConfig(
            strategy="targeted_by_degree").effective_repetitions() == 1

    @pytest.mark.parametrize("strategy,reps", [
        ("random", 3), ("targeted_by_degree", None),
        ("targeted_by_degree", 50)])
    def test_effective_repetitions_count_the_averaged_curves(self, strategy,
                                                             reps):
        config = ResilienceConfig(strategy=strategy, repetitions=reps)
        assert (simulate(star(30), config).averaged_over
                == config.effective_repetitions())

    def test_stop_at_bounds(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(stop_at=0.0)


class TestSchedule:
    def test_boundaries_reach_ceiling(self):
        bounds = removal_boundaries(100, 0.05, 0.99)
        assert bounds[0] == 5  # ceil(0.05 * 100)
        assert bounds[-1] >= 99
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_progress_on_small_graphs(self):
        bounds = removal_boundaries(21, 0.05, 0.99)
        # ceil guarantees at least one removal per step
        assert bounds[0] == 2
        assert bounds[-1] >= 21 * 0.99 - 1


class TestSimulate:
    def test_initial_point_is_intact_graph(self):
        g = star(99)
        config = ResilienceConfig(strategy="random", repetitions=3, seed=1)
        curve = simulate(g, config)
        frac, gc_rem, gc_orig = curve.points[0]
        assert frac == 0.0
        assert gc_rem == pytest.approx(1.0)
        assert gc_orig == pytest.approx(1.0)

    def test_star_targeted_first_step_removes_hub(self):
        g = star(99)  # 100 nodes
        config = ResilienceConfig(strategy="targeted_by_degree",
                                  step_fraction=0.01, seed=0)
        curve = simulate(g, config)
        frac, gc_rem, gc_orig = curve.points[1]
        assert frac == pytest.approx(0.01)
        assert gc_rem == pytest.approx(1 / 99)
        assert gc_orig == pytest.approx(1 / 100)

    def test_conservation_and_monotone_fractions(self):
        g = generate(GeneratorConfig(years=(1990, 1999), docs_per_year=30,
                                     seed=3))
        config = ResilienceConfig(strategy="random", repetitions=5, seed=2)
        curve = simulate(g, config)
        fractions = curve.removed_fractions()
        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert all(0.0 <= p[1] <= 1.0 and 0.0 <= p[2] <= 1.0
                   for p in curve.points)
        n = g.node_count
        for frac in fractions:
            removed = round(frac * n)
            assert 0 <= removed <= n

    def test_targeted_static_gc_original_nonincreasing(self):
        g = generate(GeneratorConfig(years=(1990, 1999), docs_per_year=40,
                                     densification_exponent=1.2, seed=4))
        config = ResilienceConfig(strategy="targeted_by_degree", seed=0)
        values = simulate(g, config).gc_of_original()
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_deterministic_and_parallel_identical(self):
        g = generate(GeneratorConfig(years=(1990, 1995), docs_per_year=25,
                                     seed=5))
        config = ResilienceConfig(strategy="random", repetitions=8, seed=11)
        a = simulate(g, config, n_jobs=1)
        b = simulate(g, config, n_jobs=2)
        c = simulate(g, config, n_jobs=1)
        assert a == b == c

    def test_adaptive_mode_runs(self):
        g = generate(GeneratorConfig(years=(1990, 1995), docs_per_year=25,
                                     densification_exponent=1.2, seed=6))
        config = ResilienceConfig(strategy="targeted_by_degree",
                                  degree_mode="adaptive_recompute", seed=0)
        curve = simulate(g, config)
        assert curve.degree_mode == "adaptive_recompute"
        assert curve.points[0][2] >= curve.points[-1][2]

    def test_adaptive_at_least_as_damaging_early(self):
        g = generate(GeneratorConfig(years=(1990, 1999), docs_per_year=50,
                                     densification_exponent=1.2,
                                     preferential_mixing=0.9, seed=7))
        static = simulate(g, ResilienceConfig(strategy="targeted_by_degree",
                                              seed=0))
        adaptive = simulate(g, ResilienceConfig(
            strategy="targeted_by_degree",
            degree_mode="adaptive_recompute", seed=0))
        # at the first boundary both remove the same top-degree set
        assert adaptive.points[1][2] == pytest.approx(static.points[1][2])

    def test_averaging_shrinks_variance(self):
        g = erdos_renyi(150, 450, seed=1)
        checkpoints = (2, 6, 10)

        def spread(reps):
            values = {c: [] for c in checkpoints}
            for seed in range(12):
                curve = simulate(g, ResilienceConfig(
                    strategy="random", repetitions=reps, seed=seed))
                for c in checkpoints:
                    values[c].append(curve.points[c][2])
            return [np.var(values[c]) for c in checkpoints]

        few = spread(1)
        many = spread(25)
        # variance of the mean should scale roughly like 1/repetitions
        assert sum(many) < sum(few) / 5

    def test_too_small_graph(self):
        g = star(5)
        with pytest.raises(AnalysisError):
            simulate(g, ResilienceConfig(strategy="random", repetitions=1))


class TestCompareWithNull:
    def test_er_vs_own_null_indistinguishable(self):
        g = erdos_renyi(2_000, 8_000, seed=3)
        config = ResilienceConfig(strategy="random", repetitions=30, seed=5)
        own, null = compare_with_null(g, config)
        assert own.removed_fractions() == null.removed_fractions()
        gaps = [abs(a - b) for a, b in
                zip(own.gc_of_original(), null.gc_of_original())]
        assert max(gaps) < 0.05

    def test_null_is_size_matched(self):
        g = generate(GeneratorConfig(years=(1990, 1999), docs_per_year=30,
                                     seed=8))
        config = ResilienceConfig(strategy="random", repetitions=2, seed=0)
        own, null = compare_with_null(g, config)
        assert len(own.points) == len(null.points)

    def test_area_under_curve_sane(self):
        g = erdos_renyi(200, 800, seed=9)
        curve = simulate(g, ResilienceConfig(strategy="random",
                                             repetitions=5, seed=1))
        assert 0.0 < curve.area_under_curve() < 1.0
