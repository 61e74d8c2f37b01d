from __future__ import annotations

import warnings
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
from legisnet.heavytail import (DEFAULT_BOOTSTRAP_M, MAX_TABLE, PowerLawSampler,
                                TailFit)

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

    @pytest.mark.parametrize("bad", [[1.0, np.nan], [1.5, 2.7, 3], [2, np.inf],
                                     [-1, 2], [-1.0, 2.0]])
    def test_non_integral_or_negative_rejected(self, bad):
        # rejected before any cast, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match="^degrees must be non-negative integers$"):
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
        rng = np.random.default_rng(2)
        data = draw_pl_table(2.5, 5, 2_000, rng)
        with pytest.warns(UserWarning, match="resolution"):
            res = goodness_of_fit(data, m=40, seed=0)
        assert 0.0 <= res.p_value <= 1.0
        assert (res.p_value * 40) == pytest.approx(round(res.p_value * 40))
        assert res.bootstrap_m == 40

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

    def test_deterministic_and_parallel_identical(self):
        rng = np.random.default_rng(4)
        data = draw_pl_table(2.4, 6, 3_000, rng)
        fit = fit_power_law(data)
        with pytest.warns(UserWarning, match="resolution"):
            one = goodness_of_fit(data, fit, m=30, seed=9, n_jobs=1)
        with pytest.warns(UserWarning, match="resolution"):
            two = goodness_of_fit(data, fit, m=30, seed=9, n_jobs=2)
        with pytest.warns(UserWarning, match="resolution"):
            again = goodness_of_fit(data, fit, m=30, seed=9, n_jobs=1)
        assert one == two == again

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

    @pytest.mark.parametrize("fit", [TailFit(2.5, 3, 1_001, 0.1),
                                     TailFit(2.5, 3, 0, 0.1),
                                     TailFit(float("nan"), 3, 100, 0.1)])
    def test_fit_that_does_not_match_the_sample_rejected(self, fit):
        # a tail larger than the sample, an empty tail, a NaN exponent
        data = np.append(draw_pl_table(2.5, 5, 1_000, np.random.default_rng(7)),
                         [0, 0])
        with pytest.raises(ValidationError):
            goodness_of_fit(data, fit, m=DEFAULT_BOOTSTRAP_M)

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
            gamma=2.367226489647588, gamma_spread=0.09694383687646584,
            x_min=2, x_min_spread=1.0148768398185073, n_tail=521,
            n_tail_spread=128.01280785530798, ks_statistic=0.03751494102623065,
            p_value=0.205, bootstrap_m=200, zeros_excluded=0)
