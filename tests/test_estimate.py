import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from shadowipw.data import DataError, Dataset, RoleMap
from shadowipw.estimate import (METHOD_IGNORE_MISSINGNESS,
                                METHOD_WRONG_ADJUSTMENT,
                                baseline_ignore_missingness,
                                baseline_wrong_adjustment, clip,
                                fit_and_weight, fit_treatment_propensity,
                                ipw_ace)
from shadowipw.glm import GlmFit, design_matrix, fit_glm
from shadowipw.shadow import ShadowPropensityModel
from shadowipw.simulate import default_config, generate

from oracles import DiscreteModel

WIDE_CLIP = (1e-6, 1.0 - 1e-12)
CORRECT_SET = ("W2", "W3", "W4")
PINNED_ESTIMATES = {
    "ignore_missingness": {
        "mean_treated": 0.9440628088123747, "mean_control": 0.760287613547093,
        "ace": 0.18377519526528174, "n": 10000, "n_observed": 6143,
        "clipped_fraction": 0.08595148950024419,
        "method": "ignore_missingness"},
    "wrong_adjustment": {
        "mean_treated": 0.9985771419572962,
        "mean_control": 0.43460984690750903, "ace": 0.5639672950497872,
        "n": 10000, "n_observed": 6143,
        "clipped_fraction": 0.02034836399153508, "method": "wrong_adjustment"},
    "full": {
        "mean_treated": 0.7455072144231862, "mean_control": 0.5224358791200093,
        "ace": 0.2230713353031769, "n": 10000, "n_observed": 6143,
        "clipped_fraction": 0.07707960279993488, "method": "full"},
}


def oracle_treatment_fit(n, *coefficients):
    coef = np.asarray(coefficients, dtype=float)
    return GlmFit(coef, 0.0, True, 0, n)


def balanced_no_missingness_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    a = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
    y = rng.normal(1.0 + 0.5 * a, 1.0)
    columns = {"A": a, "Y": y, "R": np.ones(n), "I": rng.normal(size=n),
               "W1": rng.normal(size=n), "W2": rng.normal(size=n)}
    return Dataset(columns, RoleMap("A", "Y", "R", "I", ("W1", "W2")))


class TestClip:
    def test_interior_untouched(self):
        assert clip(0.5) == 0.5

    def test_low_boundary(self):
        assert clip(0.001) == 0.01

    def test_high_boundary(self):
        assert clip(0.9999) == 0.99

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            clip(0.5, 0.9, 0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.01, 0.4), st.floats(0.6, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_result_always_inside_bounds(self, p, lo, hi):
        assert lo <= clip(p, lo, hi) <= hi


class TestTreatmentPropensity:
    def test_independent_treatment_has_null_coefficients(self):
        rng = np.random.default_rng(0)
        n = 20000
        columns = {"A": (rng.uniform(size=n) < 0.5).astype(float),
                   "Y": rng.normal(size=n), "R": np.ones(n),
                   "I": rng.normal(size=n), "W1": rng.normal(size=n),
                   "W2": rng.normal(size=n)}
        ds = Dataset(columns, RoleMap("A", "Y", "R", "I", ("W1", "W2")))
        fit = fit_treatment_propensity(ds, ("W1", "W2"))
        assert np.all(np.abs(fit.coefficients[1:]) < 0.05)

    def test_projection_is_stable_across_draws(self):
        # with a covariate omitted, the fit targets a projection; two large
        # independent draws must agree on it
        fits = []
        for seed in (1, 2):
            ds = generate(default_config(n=100_000, seed=seed))
            fits.append(fit_treatment_propensity(
                ds, ("W2", "W3", "W4")).coefficients)
        assert fits[0] == pytest.approx(fits[1], abs=0.1)

    def test_matches_direct_optimizer(self):
        from scipy.optimize import minimize
        ds = generate(default_config(n=20000, seed=3))
        Z = ("W2", "W3", "W4")
        fit = fit_treatment_propensity(ds, Z)
        X = design_matrix(ds.n_rows, *(ds.column(z) for z in Z))
        a = ds.column("A")

        def nll(beta):
            eta = X @ beta
            return -(a @ eta - np.logaddexp(0, eta).sum())

        res = minimize(nll, np.zeros(4), method="BFGS",
                       options={"gtol": 1e-10})
        assert fit.coefficients == pytest.approx(res.x, abs=1e-4)

    def test_constant_treatment_flags_separation(self):
        ds = balanced_no_missingness_dataset()
        cols = {n: ds.column(n) for n in ds.names}
        cols["A"] = np.ones(ds.n_rows)
        ds_all_treated = Dataset(cols, ds.roles)
        fit = fit_treatment_propensity(ds_all_treated, ("W1",))
        assert fit.separated and not fit.converged


class TestIpwAce:
    def test_constant_weights_reduce_to_arm_means(self):
        # balanced arms, oracle treatment probability one half, unit
        # response propensity: the estimate is the plain mean difference
        ds = balanced_no_missingness_dataset()
        trivial = ShadowPropensityModel.trivial(())
        treat = oracle_treatment_fit(ds.n_rows, 0.0)   # expit(0) = 0.5
        est = ipw_ace(ds, (), trivial, treat, clip_bounds=WIDE_CLIP)
        a, y = ds.column("A"), ds.column("Y")
        expected = y[a == 1.0].mean() - y[a == 0.0].mean()
        assert est.ace == pytest.approx(expected, rel=1e-9)
        assert est.method == "full"

    def test_exact_discrete_equivalence(self):
        # the weighting functional, the covariate-adjustment functional,
        # and the brute-force interventional mean agree exactly
        rng = np.random.default_rng(2024)
        for _ in range(50):
            m = DiscreteModel.random(rng)
            for arm in (0, 1):
                eq_weight = m.weighting_functional(arm)
                eq_adjust = m.adjustment_functional(arm)
                brute = m.interventional_mean(arm)
                assert abs(eq_weight - eq_adjust) < 1e-10
                assert abs(eq_adjust - brute) < 1e-10

    def test_unobserved_rows_contribute_nothing(self):
        ds = generate(default_config(n=4000, seed=6))
        Z = ("W2", "W3", "W4")
        from shadowipw.shadow import solve_propensity
        model = solve_propensity(ds, Z)
        treat = fit_treatment_propensity(ds, Z)
        est = ipw_ace(ds, Z, model, treat)
        # recompute from scratch using only observed rows
        obs = ds.column("R") == 1.0
        manual = {}
        from shadowipw.shadow import or_propensity
        Zm = np.column_stack([ds.column(z) for z in Z])
        p_r = clip(or_propensity(np.nan_to_num(ds.column("Y"))[obs],
                                 Zm[obs], model))
        X = design_matrix(ds.n_rows, *(ds.column(z) for z in Z))
        p1 = treat.predict_proba(X)[obs]
        y, a = np.nan_to_num(ds.column("Y"))[obs], ds.column("A")[obs]
        for arm in (1, 0):
            p_arm = clip(p1 if arm == 1 else 1.0 - p1)
            manual[arm] = float(np.sum(np.where(a == arm,
                                                y / (p_r * p_arm),
                                                0.0)) / ds.n_rows)
        assert est.mean_treated == pytest.approx(manual[1], rel=1e-12)
        assert est.mean_control == pytest.approx(manual[0], rel=1e-12)

    def test_outcome_scaling_is_linear(self):
        # with an outcome-independent response model the weights are fixed,
        # so scaling the outcome scales the estimate
        ds = balanced_no_missingness_dataset(seed=5)
        model = ShadowPropensityModel(beta=np.array([0.4, -0.2]), gamma=0.0,
                                      y_ref=0.0, adjustment=("W1", "W2"),
                                      residual_norm=0.0, converged=True,
                                      iterations=0)
        treat = fit_treatment_propensity(ds, ("W1", "W2"))
        est = ipw_ace(ds, ("W1", "W2"), model, treat)
        scaled_cols = {n: ds.column(n) for n in ds.names}
        scaled_cols["Y"] = 3.0 * ds.column("Y")
        scaled = Dataset(scaled_cols, ds.roles)
        est3 = ipw_ace(scaled, ("W1", "W2"), model, treat)
        assert est3.ace == pytest.approx(3.0 * est.ace, rel=1e-12)

    def test_clipped_fraction_zero_implies_bound_invariance(self):
        rng = np.random.default_rng(8)
        n = 1000
        z = rng.normal(size=n) * 0.2
        a = (rng.uniform(size=n) < expit(0.3 * z)).astype(float)
        y_full = (rng.uniform(size=n) < expit(0.4 * a)).astype(float)
        r = (rng.uniform(size=n) < expit(0.5 + 0.2 * z)).astype(float)
        columns = {"A": a, "Y": np.where(r == 1.0, y_full, np.nan), "R": r,
                   "I": rng.normal(size=n), "Z1": z}
        ds = Dataset(columns, RoleMap("A", "Y", "R", "I", ("Z1",)))
        model = ShadowPropensityModel(beta=np.array([0.2]), gamma=-0.3,
                                      y_ref=0.0, adjustment=("Z1",),
                                      residual_norm=0.0, converged=True,
                                      iterations=0)
        treat = fit_treatment_propensity(ds, ("Z1",))
        est_default = ipw_ace(ds, ("Z1",), model, treat)
        est_wide = ipw_ace(ds, ("Z1",), model, treat, clip_bounds=(0.001, 0.999))
        assert est_default.clipped_fraction == 0.0
        assert est_default.ace == est_wide.ace

    def test_horvitz_thompson_unbiased_with_oracle_weights(self):
        # oracle propensities plugged in: the average over replications of
        # each arm mean stays within three standard errors of the truth
        rng = np.random.default_rng(77)
        m = DiscreteModel(pz=0.4, f=[0.35, 0.7], g=[[0.3, 0.5], [0.55, 0.8]],
                          h=[[0.6, 0.75], [0.45, 0.85]])
        reps, n = 500, 10000
        means = {0: [], 1: []}
        for _ in range(reps):
            z, a, y, r = m.sample(rng, n)
            p_r = m.h[y, z]
            for arm in (1, 0):
                p_arm = m.f[z] if arm == 1 else 1.0 - m.f[z]
                term = np.where((a == arm) & (r == 1), y / (p_r * p_arm), 0.0)
                means[arm].append(term.mean())
        for arm in (1, 0):
            truth = m.interventional_mean(arm)
            avg = np.mean(means[arm])
            se = np.std(means[arm]) / np.sqrt(reps)
            assert abs(avg - truth) < 3.0 * se

    def test_fully_observed_data_is_treatment_only_ipw(self):
        # the degenerate response model's p = 1 enters unclipped
        ds = generate(default_config(n=20000, seed=3))
        cols = {n: ds.column(n) for n in ds.names}
        cols["Y"], cols["R"] = cols["Y_complete"], np.ones(ds.n_rows)
        full = Dataset(cols, ds.roles, ds.oracle_names)
        with pytest.warns(UserWarning, match="all outcomes observed"):
            model, treat, est = fit_and_weight(full, CORRECT_SET)
        assert model.degenerate
        X = design_matrix(full.n_rows, *(full.column(z) for z in CORRECT_SET))
        p1 = treat.predict_proba(X)
        a, y = full.column("A"), full.column("Y")
        p_treated, p_control = clip(p1), clip(1.0 - p1)
        expected = np.mean(a * y / p_treated) - \
            np.mean((1.0 - a) * y / p_control)
        assert est.ace == pytest.approx(expected, rel=1e-12)
        n_clipped = np.sum((p_treated != p1) & (a == 1.0)) + \
            np.sum((p_control != 1.0 - p1) & (a == 0.0))
        assert est.clipped_fraction == n_clipped / (2 * full.n_rows)

    def test_mismatched_adjustment_rejected(self):
        ds = balanced_no_missingness_dataset()
        trivial = ShadowPropensityModel.trivial(("W1",))
        treat = oracle_treatment_fit(ds.n_rows, 0.0, 0.0)
        with pytest.raises(ValueError, match="does not match"):
            ipw_ace(ds, ("W2",), trivial, treat)


class TestBaselines:
    def test_complete_case_equals_full_method_without_missingness(self):
        ds = balanced_no_missingness_dataset(seed=9)
        Z = ("W1", "W2")
        trivial = ShadowPropensityModel.trivial(Z)
        treat = fit_treatment_propensity(ds, Z)
        full = ipw_ace(ds, Z, trivial, treat, clip_bounds=WIDE_CLIP)
        base = baseline_ignore_missingness(ds, Z, clip_bounds=WIDE_CLIP)
        assert base.ace == pytest.approx(full.ace, rel=1e-9)
        assert base.method == METHOD_IGNORE_MISSINGNESS

    def test_randomized_no_missingness_empty_set_is_mean_difference(self):
        ds = balanced_no_missingness_dataset(seed=10)
        est = baseline_ignore_missingness(ds, ())
        a, y = ds.column("A"), ds.column("Y")
        expected = y[a == 1.0].mean() - y[a == 0.0].mean()
        # intercept-only propensity equals the arm share exactly
        assert est.ace == pytest.approx(expected, rel=1e-9)

    def test_wrong_adjustment_is_strongly_biased_on_the_dgp(self):
        from shadowipw.simulate import true_ace
        ds = generate(default_config(n=10000, seed=13))
        truth = true_ace(default_config(), n_oracle=200_000)
        est = baseline_wrong_adjustment(ds)
        assert est.method == METHOD_WRONG_ADJUSTMENT
        assert abs(est.ace - truth) > 0.15

    def test_wrong_adjustment_matches_full_when_w4_is_inert(self):
        # remove every W4 edge: {W2, W3} becomes a valid adjustment set and
        # the deliberately wrong baseline coincides with the full pipeline
        cfg = default_config(n=20000, seed=14,
                             sigma=((1.2, 0, 0, 0), (0, 1, 0.4, 0),
                                    (0, 0.4, 1, 0), (0, 0, 0, 1)),
                             coef_a=(0.52, 2.0, 2.0, 2.0, 0.0),
                             coef_y=(3.0, 2.0, 2.0, 0.0),
                             coef_r_ref=(1.0, 1.0, 0.0, 0.5))
        ds = generate(cfg)
        from shadowipw.shadow import solve_propensity
        Z = ("W2", "W3")
        model = solve_propensity(ds, Z)
        treat = fit_treatment_propensity(ds, Z)
        full = ipw_ace(ds, Z, model, treat)
        wrong = baseline_wrong_adjustment(ds)
        assert wrong.ace == pytest.approx(full.ace, rel=1e-12)

    def test_estimates_are_pinned(self):
        # seed 3, n=10^4: what the three estimators gave before they shared
        # fit_and_weight; folding the complete-case baseline into ipw_ace
        # would move it, because it fits the treatment on respondents only
        ds = generate(default_config(n=10000, seed=3))
        estimates = (baseline_ignore_missingness(ds, CORRECT_SET),
                     baseline_wrong_adjustment(ds),
                     fit_and_weight(ds, CORRECT_SET)[2])
        for est in estimates:
            got, want = est.to_dict(), PINNED_ESTIMATES[est.method]
            assert {k: got[k] for k in ("n", "n_observed", "method")} == \
                {k: want[k] for k in ("n", "n_observed", "method")}
            for key in ("mean_treated", "mean_control", "ace",
                        "clipped_fraction"):
                assert got[key] == pytest.approx(want[key], rel=1e-12)

    def test_serialization(self):
        ds = balanced_no_missingness_dataset()
        est = baseline_ignore_missingness(ds, ("W1",))
        d = est.to_dict()
        assert d["ace"] == pytest.approx(d["mean_treated"] - d["mean_control"])


class TestLibraryRules:
    """Each entry point that takes clip bounds or an adjustment set refuses
    a bad one with the command line's message."""

    @pytest.mark.parametrize("lo, hi", [
        (0, 0.99), (0.01, 1), (0.9, 0.1), (float("nan"), 0.99),
        ("0.01", 0.99), (True, 0.99), (0.01, None)], ids=repr)
    def test_clip_bounds_refused(self, base_ds_small, lo, hi):
        ds = base_ds_small
        message = re.escape("clip bounds must satisfy 0 < lo < hi < 1, "
                            f"got ({lo}, {hi})")
        for call in (lambda: clip(0.5, lo, hi),
                     lambda: fit_and_weight(ds, CORRECT_SET,
                                            clip_bounds=(lo, hi)),
                     lambda: baseline_ignore_missingness(ds, CORRECT_SET,
                                                         (lo, hi)),
                     lambda: baseline_wrong_adjustment(ds,
                                                       clip_bounds=(lo, hi))):
            with pytest.raises(ValueError, match=message):
                call()

    def test_numpy_clip_bounds_accepted(self, base_ds_small):
        bounds = (np.float32(0.01), np.float64(0.99))
        assert clip(0.001, *bounds) == np.float32(0.01)
        est = fit_and_weight(base_ds_small, CORRECT_SET,
                             clip_bounds=bounds)[2]
        assert np.isfinite(est.ace)

    @pytest.mark.parametrize("Z, message", [
        (("A",), "adjustment column 'A' is not a covariate"),
        (("Y",), "adjustment column 'Y' is not a covariate"),
        (("W2", "I"), "adjustment column 'I' is not a covariate"),
        (("W9",), "adjustment column 'W9' is not a covariate"),
        (("W2", "W2"), "adjustment column 'W2' appears more than once"),
    ])
    def test_adjustment_set_refused(self, base_ds_small, Z, message):
        ds = base_ds_small
        model = ShadowPropensityModel.trivial(Z)
        treat = oracle_treatment_fit(ds.n_rows, *np.zeros(len(Z) + 1))
        for call in (lambda: fit_treatment_propensity(ds, Z),
                     lambda: ipw_ace(ds, Z, model, treat),
                     lambda: fit_and_weight(ds, Z),
                     lambda: baseline_ignore_missingness(ds, Z),
                     lambda: baseline_wrong_adjustment(ds, Z)):
            with pytest.raises(DataError, match=re.escape(message)):
                call()
