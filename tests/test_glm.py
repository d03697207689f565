import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from shadowipw import glm
from shadowipw.glm import (GlmError, chi_square_sf, design_matrix,
                           fit_glm, likelihood_ratio_test)
from shadowipw.simulate import default_config, generate


class TestChiSquareSf:
    def test_at_zero_is_one(self):
        for df in (1, 2, 5, 10):
            assert chi_square_sf(0.0, df) == pytest.approx(1.0)

    def test_standard_quantile_values(self):
        # classical upper-tail table entries
        assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=5e-4)
        assert chi_square_sf(6.635, 1) == pytest.approx(0.0100, abs=2e-4)
        assert chi_square_sf(5.991, 2) == pytest.approx(0.0500, abs=5e-4)

    def test_deep_tail_underflows_cleanly(self):
        assert chi_square_sf(1e6, 1) < 1e-300

    def test_df_one_matches_erfc_oracle(self):
        for x in (0.1, 0.5, 1.0, 3.0, 8.0, 20.0):
            assert chi_square_sf(x, 1) == pytest.approx(
                math.erfc(math.sqrt(x / 2.0)), abs=1e-10)

    @given(st.floats(min_value=1e-3, max_value=60.0))
    @settings(max_examples=100, deadline=None)
    def test_df_two_closed_form(self, x):
        assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2.0),
                                                    abs=1e-12)

    @given(st.floats(min_value=0.5, max_value=30.0),
           st.floats(min_value=0.05, max_value=5.0),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_x(self, x, step, df):
        # away from the float-saturated extremes the tail is strictly monotone
        assert chi_square_sf(x + step, df) < chi_square_sf(x, df)

    def test_rejects_negative_statistic(self):
        with pytest.raises(GlmError):
            chi_square_sf(-1.0, 1)

    @pytest.mark.parametrize("df", [0, -2, 1.5])
    def test_rejects_df_that_is_not_a_positive_integer(self, df):
        with pytest.raises(GlmError, match="positive integer"):
            chi_square_sf(1.0, df)

    def test_matches_scipy_incomplete_gamma(self):
        special = pytest.importorskip("scipy.special")
        for df in range(1, 11):
            for x in np.concatenate([[0.0], np.logspace(-3, 2.5, 56),
                                     [np.inf]]):
                assert chi_square_sf(float(x), df) == pytest.approx(
                    special.gammaincc(df / 2.0, x / 2.0), rel=1e-12, abs=0)


class TestExpit:
    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(-700.0, 700.0, 200_001)
        np.testing.assert_allclose(glm.expit(x), special.expit(x),
                                   rtol=1e-15, atol=0)

    def test_saturates_without_warning(self):
        # the simulator calls expit on unclipped linear predictors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = glm.expit(np.array([-1000.0, 1000.0]))
        assert out.tolist() == [0.0, 1.0]


class TestLogisticFit:
    def test_constant_response_flags_separation(self):
        y = np.ones(50)
        fit = fit_glm(y, design_matrix(50))
        assert fit.separated and not fit.converged

    def test_perfectly_separated_regressor_flagged(self):
        x = np.linspace(-1, 1, 100)
        y = (x > 0).astype(float)
        fit = fit_glm(y, design_matrix(100, x))
        assert fit.separated and not fit.converged
        assert math.isfinite(fit.log_likelihood)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(42)
        n = 100_000
        x = rng.normal(size=n)
        y = (rng.uniform(size=n) < expit(0.5 + 1.0 * x)).astype(float)
        fit = fit_glm(y, design_matrix(n, x))
        assert fit.converged
        assert fit.coefficients == pytest.approx([0.5, 1.0], abs=0.05)

    def test_score_residual_below_tolerance_at_convergence(self):
        rng = np.random.default_rng(7)
        n = 5000
        x = rng.normal(size=n)
        y = (rng.uniform(size=n) < expit(0.3 - 0.8 * x)).astype(float)
        X = design_matrix(n, x)
        fit = fit_glm(y, X)
        assert fit.converged
        score = X.T @ (y - expit(X @ fit.coefficients))
        assert np.max(np.abs(score)) < 1e-8

    def test_matches_scipy_optimizer_oracle(self):
        from scipy.optimize import minimize
        rng = np.random.default_rng(3)
        n = 2000
        X = design_matrix(n, rng.normal(size=n), rng.normal(size=n))
        y = (rng.uniform(size=n) < expit(X @ np.array([0.2, -0.5, 1.0]))).astype(float)
        fit = fit_glm(y, X)

        def nll(beta):
            eta = X @ beta
            return -(y @ eta - np.logaddexp(0, eta).sum())

        res = minimize(nll, np.zeros(3), method="BFGS", options={"gtol": 1e-10})
        assert fit.coefficients == pytest.approx(res.x, abs=1e-5)

    def test_rank_deficient_design_reported(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        y = (rng.uniform(size=300) < expit(x)).astype(float)
        fit = fit_glm(y, design_matrix(300, x, x))   # duplicated column
        assert fit.rank_deficient

    def test_rejects_missing_values(self):
        y = np.array([0.0, 1.0, np.nan])
        with pytest.raises(GlmError):
            fit_glm(y, design_matrix(3))

    def test_needs_more_rows_than_coefficients(self):
        with pytest.raises(GlmError):
            fit_glm(np.array([0.0, 1.0]), design_matrix(2, [1.0, 2.0]))

    def test_rejects_malformed_start(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        X = design_matrix(4, [0.5, 1.0, -1.0, 2.0])
        for start in ([0.0], [0.0, 0.0, 0.0], [0.0, np.nan]):
            with pytest.raises(GlmError, match="start"):
                fit_glm(y, X, start=start)

    def test_one_log_likelihood_per_iteration(self, monkeypatch):
        # the accepted candidate's log-likelihood is carried forward: a fit
        # whose full Newton steps are all kept evaluates it once at the
        # start and once per iteration
        calls = []
        original = glm._logistic_ll

        def counting(y, eta):
            calls.append(1)
            return original(y, eta)

        monkeypatch.setattr(glm, "_logistic_ll", counting)
        rng = np.random.default_rng(11)
        n = 5000
        X = design_matrix(n, rng.normal(size=n), rng.normal(size=n))
        y = (rng.uniform(size=n) < expit(X @ np.array([0.3, 0.8, -0.6]))
             ).astype(float)
        fit = fit_glm(y, X)
        assert fit.converged and fit.iterations >= 3
        assert len(calls) == fit.iterations + 1

    @pytest.mark.parametrize("seed, parent_ll", [(0, -38781.151851634815),
                                                 (17, -38384.73995507248)])
    def test_converges_at_hundred_thousand_rows(self, seed, parent_ll):
        # near the optimum a real improvement is smaller than the rounding
        # error of a 10^5-term sum; an absolute acceptance bound rejected
        # it and ran all 50 iterations without converging. parent_ll is
        # the log-likelihood that non-converged fit reported.
        ds = generate(replace(default_config(), n=100_000, seed=seed,
                              scenario="base"))
        X = design_matrix(ds.n_rows,
                          *(ds.column(c) for c in ("W2", "W3", "W4")))
        fit = fit_glm(ds.column("A"), X)
        assert fit.converged and not fit.separated
        assert fit.iterations <= 10
        assert fit.log_likelihood == pytest.approx(parent_ll, rel=1e-9)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=40, max_value=400),
           st.sampled_from(["regular", "separated", "constant",
                            "rank_deficient"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_warm_start_matches_cold_start(self, p, n, design, seed):
        # the warm start _lrt uses, the nested fit's coefficients with a
        # zero appended, must not change what the fit reports
        rng = np.random.default_rng(seed)
        X = design_matrix(n, *rng.normal(size=(p - 1, n)))
        if design == "rank_deficient" and p > 1:
            X[:, -1] = X[:, rng.integers(p - 1)]
        beta = rng.uniform(-1.0, 1.0, size=p)
        y = (rng.uniform(size=n) < expit(X @ beta)).astype(float)
        if design == "separated":
            y = (X[:, -1] > 0).astype(float)
        elif design == "constant":
            y = np.full(n, float(rng.integers(2)))
        if p > 1:
            start = np.append(fit_glm(y, X[:, :-1]).coefficients, 0.0)
        else:
            start = rng.uniform(-2.0, 2.0, size=1)
        cold = fit_glm(y, X)
        warm = fit_glm(y, X, start=start)
        assert warm.log_likelihood == pytest.approx(cold.log_likelihood,
                                                    rel=1e-9)
        assert (warm.converged, warm.separated, warm.rank_deficient) == \
            (cold.converged, cold.separated, cold.rank_deficient)


class TestLikelihoodRatioTest:
    @staticmethod
    def _nested_fits(n=4000, seed=1, effect=0.0):
        rng = np.random.default_rng(seed)
        x1 = rng.normal(size=n)
        x2 = rng.normal(size=n)
        y = (rng.uniform(size=n) < expit(0.4 * x1 + effect * x2)).astype(float)
        null_fit = fit_glm(y, design_matrix(n, x1))
        full_fit = fit_glm(y, design_matrix(n, x1, x2))
        return null_fit, full_fit

    def test_identical_designs_give_unit_p_value(self):
        null_fit, _ = self._nested_fits()
        result = likelihood_ratio_test(null_fit, null_fit, alpha=0.05)
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_zero_statistic_any_df_gives_unit_p_value(self):
        assert chi_square_sf(0.0, 3) == 1.0

    def test_nested_statistic_nonnegative(self):
        for seed in range(5):
            null_fit, full_fit = self._nested_fits(seed=seed)
            result = likelihood_ratio_test(null_fit, full_fit, 0.05)
            assert result.statistic >= 0.0
            assert result.df == 1
            assert result.p_value == pytest.approx(
                chi_square_sf(result.statistic, 1))

    def test_detects_strong_effect(self):
        null_fit, full_fit = self._nested_fits(effect=0.8)
        result = likelihood_ratio_test(null_fit, full_fit, 0.05)
        assert not result.independent

    def test_mismatched_n_rejected(self):
        a, _ = self._nested_fits(n=100)
        b, _ = self._nested_fits(n=200)
        with pytest.raises(GlmError, match="sample sizes"):
            likelihood_ratio_test(a, b, 0.05)

    def test_null_rejection_rate_is_calibrated(self):
        # correctly specified null: adding an independent regressor
        from scipy.stats import binom
        rng = np.random.default_rng(2024)
        reps, n, alpha = 2000, 500, 0.05
        rejections = 0
        for _ in range(reps):
            x = rng.normal(size=n)
            z = rng.normal(size=n)
            y = (rng.uniform(size=n) < expit(0.5 * x)).astype(float)
            res = likelihood_ratio_test(
                fit_glm(y, design_matrix(n, x)),
                fit_glm(y, design_matrix(n, x, z)), alpha)
            rejections += not res.independent
        lo = binom.ppf(0.005, reps, alpha)
        hi = binom.ppf(0.995, reps, alpha)
        assert lo <= rejections <= hi
