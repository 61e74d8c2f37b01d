from __future__ import annotations

import tracemalloc
import warnings
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from scipy.special import zeta
from scipy.stats import chisquare

from legisnet import (
    AnalysisError,
    FitResult,
    ValidationError,
    ccdf,
    fit_power_law,
    goodness_of_fit,
)
from legisnet import heavytail
from legisnet.heavytail import (DEFAULT_BOOTSTRAP_M, MAX_TABLE,
                                SEQUENTIAL_HITS, PowerLawSampler, TailFit,
                                _sequential_p_value)

from conftest import count_form


def draw_pl_table(gamma, x_min, size, rng):
    """Independent generation oracle: explicit probability table.

    Normalization by plain summation over a support long enough that
    the truncated mass is ~1e-7, nothing shared with the fitter.
    """
    cutoff = int(x_min * 1e7 ** (1.0 / (gamma - 1.0))) + 1
    xs = np.arange(x_min, cutoff, dtype=float)
    p = xs ** -gamma
    p /= p.sum()
    return rng.choice(xs.astype(np.int64), size=size, p=p)


def quantile_matched_sample(gamma, x_min, n):
    """Deterministic sample whose counts match the exact CDF quantiles."""
    top = int(x_min * (2.0 * n) ** (1.0 / (gamma - 1.0))) + 2
    xs = np.arange(x_min, top, dtype=float)
    norm = zeta(gamma, float(x_min))
    cdf = 1.0 - zeta(gamma, xs + 1.0) / norm
    cum = np.round(n * cdf).astype(np.int64)
    counts = np.diff(np.concatenate([[0], cum]))
    return np.repeat(xs.astype(np.int64), counts)


class TestCcdf:
    def test_small_example(self):
        assert ccdf([1, 1, 2]) == [(1, pytest.approx(1.0)),
                                   (2, pytest.approx(1 / 3))]

    def test_single_repeated_value(self):
        assert ccdf([7, 7, 7]) == [(7, pytest.approx(1.0))]

    def test_empty_error(self):
        with pytest.raises(AnalysisError):
            ccdf([])

    @pytest.mark.parametrize("bad, message", [
        ([1.0, np.nan], "non-negative integers"),
        ([1.5, 2.7, 3], "non-negative integers"),
        ([2, np.inf], "non-negative integers"),
        ([-1, 2], "non-negative integers"),
        ([-1.0, 2.0], "non-negative integers"),
        ([[1, 2], [3, 4]], "one 1-D sample"),
    ], ids=[f"bad{i}" for i in range(6)])
    def test_non_integral_or_negative_rejected(self, bad, message):
        # rejected before any cast, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=f"^degrees must be {message}$"):
                ccdf(np.array(bad))

    def test_integral_floats_and_zeros_kept(self):
        assert ccdf(np.array([0.0, 0.0, 3.0])) == ccdf([0, 0, 3]) == [
            (0, 1.0), (3, pytest.approx(1 / 3))]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            data = rng.integers(0, 20, size=int(rng.integers(1, 200)))
            points = ccdf(data)
            for k, frac in points:
                assert frac == pytest.approx((data >= k).mean())
            fracs = [f for _, f in points]
            assert all(a > b for a, b in zip(fracs, fracs[1:]))
            assert fracs[0] == pytest.approx(1.0)


class TestFit:
    def test_recovers_known_exponent(self):
        gammas, x_mins = [], []
        for seed in range(10):
            data = draw_pl_table(2.5, 5, 10_000, np.random.default_rng(seed))
            fit = fit_power_law(data)
            gammas.append(fit.gamma)
            x_mins.append(fit.x_min)
            assert 0.0 <= fit.ks_statistic <= 1.0
            assert fit.n_tail <= len(data)
        assert all(2.4 <= g <= 2.6 for g in gammas)
        # threshold recovery is noisier than the exponent
        assert sum(2 <= x <= 8 for x in x_mins) >= 8

    def test_mle_on_exact_probability_table(self):
        sample = quantile_matched_sample(2.5, 10, 100_000)
        # the whole sample is the one tail that keeps min_tail values
        fit = fit_power_law(sample, min_tail=len(sample))
        assert fit.x_min == 10
        assert fit.gamma == pytest.approx(2.5, abs=0.01)

    def test_scale_consistency_at_chosen_threshold(self):
        rng = np.random.default_rng(5)
        data = draw_pl_table(2.3, 4, 8_000, rng)
        fit = fit_power_law(data)
        truncated = data[data >= fit.x_min]
        refit = fit_power_law(truncated, min_tail=len(truncated))
        assert refit.x_min == fit.x_min
        assert refit.gamma == pytest.approx(fit.gamma, abs=1e-9)

    def test_zeros_excluded_and_counted(self):
        rng = np.random.default_rng(8)
        data = draw_pl_table(2.5, 5, 5_000, rng)
        padded = np.concatenate([data, np.zeros(321, dtype=np.int64)])
        fit = fit_power_law(padded)
        assert fit.zeros_excluded == 321
        assert fit.gamma == pytest.approx(fit_power_law(data).gamma)

    def test_too_few_observations(self):
        with pytest.raises(AnalysisError):
            fit_power_law(np.arange(1, 40))

    def test_degenerate_all_equal(self):
        with pytest.raises(AnalysisError):
            fit_power_law(np.full(100, 7))

    def test_negative_rejected(self):
        message = "^degrees must be non-negative integers$"
        with pytest.raises(ValidationError, match=message):
            fit_power_law(np.array([-1] * 100))
        # one negative row refuses the whole block
        data = np.random.default_rng(3).zipf(2.5, (2, 400))
        values, counts = count_form([data[0], -data[1]])
        with pytest.raises(ValidationError, match=message):
            fit_power_law(values, counts=counts)

    def test_block_rows_equal_single_fits(self):
        rng = np.random.default_rng(9)
        rows = [draw_pl_table(2.5, 5, 600, rng),
                np.concatenate([rng.zipf(2.2, 500), np.zeros(100, np.int64)]),
                np.full(600, 7),                            # degenerate
                np.concatenate([np.arange(1, 41), np.zeros(560, np.int64)]),
                np.zeros(600, np.int64)]
        values, counts = count_form(rows)
        block = fit_power_law(values, counts=counts)
        for r, row in enumerate(rows):
            assert block.zeros_excluded[r] == (row == 0).sum()
            try:
                single = fit_power_law(row)
            except AnalysisError:
                assert (block.ks_statistic[r], block.x_min[r],
                        block.n_tail[r]) == (np.inf, 0, 0)
                assert np.isnan(block.gamma[r])
                continue
            assert TailFit(float(block.gamma[r]), int(block.x_min[r]),
                           int(block.n_tail[r]), float(block.ks_statistic[r]),
                           int(block.zeros_excluded[r])) == single
        assert np.isfinite(block.ks_statistic).tolist() == [True, True, False,
                                                            False, False]

    def test_non_integral_degrees_rejected(self):
        data = np.random.default_rng(3).zipf(2.5, 2000)
        message = "^degrees must be non-negative integers$"
        for bad in (data + 0.7, np.append(data, np.nan), np.append(data, np.inf),
                    np.append(data, 1e19)):
            # rejected before any cast, so no RuntimeWarning either
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=message):
                    fit_power_law(bad)
            with pytest.raises(ValidationError, match=message):
                goodness_of_fit(bad, m=DEFAULT_BOOTSTRAP_M)
        assert fit_power_law(data.astype(float)) == fit_power_law(data)
        assert fit_power_law(data.tolist()) == fit_power_law(data)


class TestSampler:
    def test_matches_theoretical_pmf(self):
        rng = np.random.default_rng(0)
        draws = PowerLawSampler(2.5, 5).quantiles(rng.random(200_000))
        norm = zeta(2.5, 5.0)
        top = 60
        observed = np.array(
            [(draws == k).sum() for k in range(5, top)]
            + [(draws >= top).sum()], dtype=float)
        expected = np.array(
            [k ** -2.5 / norm for k in range(5, top)]
            + [float(zeta(2.5, float(top))) / norm])
        expected *= observed.sum() / expected.sum()
        assert chisquare(observed, expected).pvalue > 0.01

    def test_respects_lower_bound(self):
        rng = np.random.default_rng(1)
        draws = PowerLawSampler(2.1, 34).quantiles(rng.random(10_000))
        assert draws.min() >= 34

    def test_rejects_flat_exponent(self):
        for gamma in (1.0, float("nan")):
            with pytest.raises(ValidationError,
                               match="^power-law exponent must exceed 1$"):
                PowerLawSampler(gamma, 5)

    def test_rejects_x_min_below_one_or_fractional(self):
        rng = np.random.default_rng(1)
        for x_min in (0, -3, 2.5):
            with pytest.raises(ValidationError,
                               match="^x_min must be a positive integer$"):
                PowerLawSampler(2.5, x_min)
        assert PowerLawSampler(2.5, 3.0).quantiles(rng.random(4)).min() >= 3

    def test_near_one_exponent_caps_the_table(self):
        # the table span TABLE_FLOOR ** (-1 / 0.019) overflows a float;
        # building it waits for a draw, so the constructor evaluates the
        # norm alone
        with patch.object(heavytail, "zeta", wraps=heavytail.zeta) as counted:
            sampler = PowerLawSampler(1.019, 2)
        assert counted.call_count == 1
        assert sampler._top == 2 + MAX_TABLE
        assert len(sampler._cdf) == 0
        sampler._extend(1.0)  # no table value reaches 1
        assert len(sampler._cdf) == MAX_TABLE + 1

    # (seed, size) of each draw in turn; near gamma = 1 the first draws of
    # one value use a part of the table, the later ones all of it and the
    # bisection past it, where most draws leave the int64 range
    @pytest.mark.parametrize("gamma, x_min, draws", [
        (1.019, 2, [(3, 1), (11, 1), (2, 1), (1, 1), (0, 1), (5, 40)]),
        (1.5, 1, [(0, 1), (1, 10), (2, 0), (3, 100), (4, 2_000)]),
        (2.7, 8, [(0, 1), (1, 10), (2, 100), (3, 5_000), (4, 200_000)]),
    ])
    def test_draws_equal_an_eagerly_built_table(self, gamma, x_min, draws):
        lazy = PowerLawSampler(gamma, x_min)
        eager = PowerLawSampler(gamma, x_min)
        values = np.arange(eager._top - x_min + 1) + x_min
        eager._cdf = 1.0 - zeta(gamma, values + 1.0) / eager._norm

        def outcome(sampler, size, seed):
            try:
                u = np.random.default_rng(seed).random(size)
                return sampler.quantiles(u).tolist()
            except AnalysisError as exc:  # past int64 near gamma = 1
                return str(exc)

        for seed, size in draws:
            assert outcome(lazy, size, seed) == outcome(eager, size, seed)
        assert 0 < len(lazy._cdf) <= len(eager._cdf)
        assert np.array_equal(lazy._cdf, eager._cdf[:len(lazy._cdf)])


class TestGoodnessOfFit:
    def test_p_value_granularity_and_range(self):
        # stopped at the SEQUENTIAL_HITS-th hit, p = hits / L exactly; at
        # the cap of m < SEQUENTIAL_HITS replicas, p * (m + 1) is a count
        rng = np.random.default_rng(2)
        data = draw_pl_table(2.5, 5, 2_000, rng)
        with pytest.warns(UserWarning, match="resolution"):
            res = goodness_of_fit(data, m=40, seed=0)
        assert 0.0 < res.p_value <= 1.0
        assert res.bootstrap_m == 40
        assert SEQUENTIAL_HITS <= res.bootstrap_replicas < res.bootstrap_m
        assert res.p_value == SEQUENTIAL_HITS / res.bootstrap_replicas
        m = SEQUENTIAL_HITS - 1
        with pytest.warns(UserWarning, match="resolution"):
            capped = goodness_of_fit(data, m=m, seed=0)
        assert capped.bootstrap_replicas == capped.bootstrap_m == m
        assert 0.0 < capped.p_value <= 1.0
        assert capped.p_value * (m + 1) == pytest.approx(
            round(capped.p_value * (m + 1)), abs=1e-12)

    def test_true_model_not_ruled_out(self):
        rng = np.random.default_rng(11)
        data = draw_pl_table(2.5, 5, 10_000, rng)
        with pytest.warns(UserWarning, match="resolution"):
            res = goodness_of_fit(data, m=100, seed=3)
        assert res.p_value > 0.10

    def test_geometric_data_ruled_out(self):
        # frozen rejection case: an exponential-family tail whose refit
        # escape is caught by the bootstrap at this sample size
        geo = np.random.default_rng(200).geometric(0.125, size=10_000)
        with pytest.warns(UserWarning, match="resolution"):
            res = goodness_of_fit(geo, m=100, seed=0)
        assert res.p_value < 0.10

    def test_seeded_runs_identical(self):
        rng = np.random.default_rng(4)
        data = draw_pl_table(2.4, 6, 3_000, rng)
        fit = fit_power_law(data)
        with pytest.warns(UserWarning, match="resolution"):
            one = goodness_of_fit(data, fit, m=30, seed=9)
        with pytest.warns(UserWarning, match="resolution"):
            again = goodness_of_fit(data, fit, m=30, seed=9)
        assert one == again

    def test_spreads_are_populated(self):
        rng = np.random.default_rng(6)
        data = draw_pl_table(2.5, 5, 4_000, rng)
        with pytest.warns(UserWarning, match="resolution"):
            res = goodness_of_fit(data, m=25, seed=1)
        assert res.gamma_spread > 0
        assert res.n_tail_spread >= 0

    def test_invalid_m(self):
        rng = np.random.default_rng(7)
        data = draw_pl_table(2.5, 5, 1_000, rng)
        with pytest.raises(ValidationError):
            goodness_of_fit(data, m=0)

    @pytest.mark.parametrize("fit, shape", [(TailFit(2.5, 3, 1_001, 0.1), -1),
                                            (TailFit(2.5, 3, 0, 0.1), -1),
                                            (TailFit(float("nan"), 3, 100, 0.1), -1),
                                            (TailFit(2.5, 5, 100, 0.1), (2, -1))],
                             ids=[f"fit{i}" for i in range(4)])
    def test_fit_that_does_not_match_the_sample_rejected(self, fit, shape):
        # a tail larger than the sample, an empty tail, a NaN exponent; a
        # sample of two rows is refused, not flattened
        data = np.append(draw_pl_table(2.5, 5, 1_000, np.random.default_rng(7)),
                         [0, 0])
        with pytest.raises(ValidationError):
            goodness_of_fit(data.reshape(shape), fit, m=DEFAULT_BOOTSTRAP_M)

    def test_tail_past_int64_cannot_be_sampled(self):
        data = np.random.default_rng(21).zipf(2.5, 2_000)
        message = "^the fitted power-law tail .* past the int64 range"
        with pytest.warns(UserWarning, match="resolution"), \
                pytest.raises(AnalysisError, match=message):
            goodness_of_fit(data, TailFit(1.02, 2, 500, 0.05), m=2)
        wide = [1] * 60 + [2**62] * 60
        fit = fit_power_law(wide)
        with pytest.warns(UserWarning, match="resolution"), \
                pytest.raises(AnalysisError, match=message):
            goodness_of_fit(wide, fit, m=2)

    def test_seeded_bootstrap_is_pinned(self):
        # exact values of a seeded run; a change in the last place of any
        # refit's gamma or KS distance moves the spreads or the p-value
        data = np.random.default_rng(21).zipf(2.5, 2_000)
        with pytest.warns(UserWarning, match="resolution"):
            res = goodness_of_fit(data, m=200, seed=4)
        assert res == FitResult(
            gamma=2.367226489647588, gamma_spread=0.0892753678757116,
            x_min=2, x_min_spread=0.6269139656235516, n_tail=521,
            n_tail_spread=106.73502458383062, ks_statistic=0.03751494102623065,
            p_value=10 / 33, bootstrap_m=200, bootstrap_replicas=33,
            failed_refits=0, zeros_excluded=0)


def sequential_case():
    """A sample whose seed-3 bootstrap stops at replica 21, with the
    ``goodness_of_fit`` keyword arguments that give it."""
    data = draw_pl_table(2.5, 5, 1_000, np.random.default_rng(3))
    return data, {"fit": fit_power_law(data), "m": 100, "seed": 3}


def recorded_bootstrap(data, marked=(), **kwargs):
    """``goodness_of_fit(data, **kwargs)``, its ``fit_power_law`` global
    wrapped as the benchmark's tracer wraps it, and the replica rows
    (ks, gamma, x_min, n_tail) of every block refitted, in order.  The
    replicas in ``marked`` get the row of a failed refit."""
    blocks = []

    def recorded(degrees, counts=None, **kw):
        refit = fit(degrees, counts=counts, **kw)
        lo = sum(len(b) for b in blocks)
        for r in range(lo, lo + len(counts)):
            if r in marked:
                refit.ks_statistic[r - lo] = np.inf
                refit.gamma[r - lo] = np.nan
                refit.x_min[r - lo] = refit.n_tail[r - lo] = 0
        blocks.append(np.column_stack((refit.ks_statistic, refit.gamma,
                                       refit.x_min, refit.n_tail)))
        return refit

    fit = heavytail.fit_power_law
    with warnings.catch_warnings(), \
            patch.object(heavytail, "fit_power_law", recorded):
        warnings.simplefilter("ignore", UserWarning)
        result = goodness_of_fit(data, **kwargs)
    return result, blocks


class TestSequentialBootstrap:
    """Besag & Clifford's sequential p-value: refits stop after the block
    that holds the SEQUENTIAL_HITS-th hit, and the result reads the first
    L replicas alone."""

    @pytest.mark.parametrize("ks, hits, expected", [
        # the 3rd hit (>= 0.5) is replica 5: p = 3/5
        ([0.1, 0.5, 0.2, 0.7, 0.5, 0.9, 0.6], 3, (3 / 5, 5)),
        # 2 hits among all 6 replicas: the cap, p = 3/7
        ([0.1, 0.5, 0.2, 0.1, 0.4, 0.9], 3, (3 / 7, 6)),
        # no hit at the cap: p = 1/(m + 1)
        ([0.1, 0.2, 0.3], 2, (1 / 4, 3)),
        # the first h replicas are all hits: L = h, p = 1
        ([0.5, 0.6, 0.8, 0.1], 3, (1.0, 3)),
        # a failed refit (inf) is a hit
        ([0.1, np.inf, 0.2, np.inf, 0.3], 2, (2 / 4, 4)),
        # the h-th hit on the last replica stops there: p = h/m
        ([0.1, 0.5, 0.2, 0.5], 2, (2 / 4, 4)),
    ], ids=["stop", "cap", "no-hit", "L=h", "inf-hit", "hit-at-cap"])
    def test_p_value_oracle(self, ks, hits, expected):
        assert _sequential_p_value(np.array(ks), 0.5, hits) == expected

    def test_stopped_run_reads_its_first_replicas(self):
        data, kwargs = sequential_case()
        result, blocks = recorded_bootstrap(data, **kwargs)
        stats = np.concatenate(blocks)[:result.bootstrap_replicas]
        hits = stats[:, 0] >= result.ks_statistic
        assert result.bootstrap_replicas == 21
        assert hits.sum() == SEQUENTIAL_HITS and hits[-1]
        assert result.p_value == SEQUENTIAL_HITS / 21
        assert result.gamma_spread == float(stats[:, 1].std())
        assert result.n_tail_spread == float(stats[:, 3].std())
        assert result.failed_refits == 0

    @pytest.mark.parametrize("per_block", [4, 5])
    def test_serial_path_refits_no_block_past_the_hit(self, per_block):
        # replica 21 lies inside a block of 4 or 5, so the last block
        # refitted is cut and no later block is refitted
        data, kwargs = sequential_case()
        with patch.object(heavytail, "BLOCK_VALUES", per_block * len(data)):
            result, blocks = recorded_bootstrap(data, **kwargs)
        assert result.bootstrap_replicas % per_block
        assert len(blocks) == -(-result.bootstrap_replicas // per_block)
        assert all(len(b) == per_block for b in blocks)

    def test_block_sizes_change_no_result(self):
        # the hit at replica 21 falls inside the sixth block of 4 and the
        # fifth of 5, and inside the one default block
        data, kwargs = sequential_case()
        results = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for per_block in (4, 5):
                with patch.object(heavytail, "BLOCK_VALUES",
                                  per_block * len(data)):
                    results.append(goodness_of_fit(data, **kwargs))
            results.append(goodness_of_fit(data, **kwargs))
        assert results[0].bootstrap_replicas == 21
        assert all(r == results[0] for r in results)

    def test_capped_run_extends_the_stopped_run(self):
        data, kwargs = sequential_case()
        stopped, stopped_blocks = recorded_bootstrap(data, **kwargs)
        with patch.object(heavytail, "SEQUENTIAL_HITS", kwargs["m"] + 1):
            capped, capped_blocks = recorded_bootstrap(data, **kwargs)
        assert capped.bootstrap_replicas == capped.bootstrap_m == kwargs["m"]
        used = stopped.bootstrap_replicas
        stats = np.concatenate(capped_blocks)
        np.testing.assert_array_equal(stats[:used],
                                      np.concatenate(stopped_blocks)[:used])
        hits = int((stats[:, 0] >= capped.ks_statistic).sum())
        assert capped.p_value == (hits + 1) / (kwargs["m"] + 1)

    def test_cap_costs_nothing_until_it_is_reached(self):
        # the stop at replica 21 lies in the first block, so a cap of
        # 10**7 refits that block alone and holds nothing for the blocks
        # it never reaches: the default cap's result, time and memory
        data, kwargs = sequential_case()
        runs = []
        for m in (DEFAULT_BOOTSTRAP_M, 10**7):
            tracemalloc.start()
            try:
                result = goodness_of_fit(data, **{**kwargs, "m": m})
                runs.append((result, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
        (default, default_peak), (capped, capped_peak) = runs
        assert default.bootstrap_replicas == 21
        assert capped == replace(default, bootstrap_m=10**7)
        assert abs(capped_peak - default_peak) < 2**20

    def test_failed_refits_are_counted_as_hits(self):
        data, kwargs = sequential_case()
        plain, blocks = recorded_bootstrap(data, **kwargs)
        natural = np.flatnonzero(np.concatenate(blocks)[:, 0]
                                 >= plain.ks_statistic)
        misses = np.setdiff1d(np.arange(plain.bootstrap_replicas), natural)
        marked = {int(misses[0]), int(misses[2]), 60}
        result, _ = recorded_bootstrap(data, marked=marked, **kwargs)
        hits = np.union1d(natural, sorted(marked))
        used = int(hits[SEQUENTIAL_HITS - 1]) + 1
        assert used < plain.bootstrap_replicas
        assert result.bootstrap_replicas == used
        assert result.p_value == SEQUENTIAL_HITS / used
        assert result.failed_refits == 2
        # the first SEQUENTIAL_HITS replicas all fail: L = h, p = 1
        every, _ = recorded_bootstrap(data, marked=set(range(SEQUENTIAL_HITS)),
                                      **kwargs)
        assert every.bootstrap_replicas == SEQUENTIAL_HITS
        assert every.failed_refits == SEQUENTIAL_HITS
        assert every.p_value == 1.0
        assert every.gamma_spread == every.x_min_spread == 0.0
