import math
import warnings
from dataclasses import replace
from unittest import mock

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

    def test_duplicated_column_gets_the_minimum_norm_solution(self):
        # the minimum-norm optimum splits the single column's coefficient
        # evenly over its two copies
        rng = np.random.default_rng(9)
        n = 300
        x = rng.normal(size=n)
        y = (rng.uniform(size=n) < expit(0.3 + x)).astype(float)
        single = fit_glm(y, design_matrix(n, x))
        fit = fit_glm(y, design_matrix(n, x, x))
        assert fit.rank_deficient and fit.converged and not fit.separated
        assert fit.coefficients[1] == pytest.approx(fit.coefficients[2],
                                                    rel=1e-9)
        assert fit.coefficients == pytest.approx(
            [single.coefficients[0], *(single.coefficients[1] / 2,) * 2],
            rel=1e-7)
        assert fit.log_likelihood == pytest.approx(single.log_likelihood,
                                                   rel=1e-12)

    @pytest.mark.parametrize("case", ["separated", "separated_x1000",
                                      "constant_one", "constant_zero"])
    def test_degenerate_fit_flags(self, case):
        # (converged, separated, rank_deficient) as the kernel gave them when
        # it evaluated two exps per iteration; a duplicated column is pinned
        # by test_duplicated_column_gets_the_minimum_norm_solution
        n = 300
        x = np.random.default_rng(0).normal(size=n)
        y = (x > 0).astype(float)
        X = design_matrix(n, x)
        if case == "separated_x1000":
            # on x*1000 the coefficient norm stays below SEPARATION_NORM
            # for all MAX_ITER iterations, so separation goes unflagged;
            # the fit still does not converge
            X = design_matrix(n, x * 1000)
        elif case == "constant_one":
            y = np.ones(n)
        elif case == "constant_zero":
            y = np.zeros(n)
        want = {"separated": (False, True, False),
                "separated_x1000": (False, False, False),
                "constant_one": (False, True, False),
                "constant_zero": (False, True, False)}[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_glm(y, X)
        assert (fit.converged, fit.separated, fit.rank_deficient) == want
        assert math.isfinite(fit.log_likelihood)
        assert fit.log_likelihood <= 0.0

    def test_rejects_missing_values(self):
        y = np.array([0.0, 1.0, np.nan])
        with pytest.raises(GlmError):
            fit_glm(y, design_matrix(3))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_infinite_values(self, value):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        x = np.array([0.5, 1.0, -1.0, 2.0])
        with pytest.raises(GlmError, match="finite"):
            fit_glm(np.where(y == 1.0, value, y), design_matrix(4, x))
        x[2] = value
        with pytest.raises(GlmError, match="finite"):
            fit_glm(y, design_matrix(4, x))

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
        # start and once per iteration, whether or not its score and gram
        # run in blocks. The blocked fit calls the kernel itself, as
        # fit_glm would first fit a pilot of every PILOT_STRIDE-th row
        calls = []
        original = glm._evaluate

        def counting(beta, Xs, colmax):
            calls.append(1)
            return original(beta, Xs, colmax)

        monkeypatch.setattr(glm, "_evaluate", counting)
        rng = np.random.default_rng(11)
        n = 5000
        X = design_matrix(n, rng.normal(size=n), rng.normal(size=n))
        y = (rng.uniform(size=n) < expit(X @ np.array([0.3, 0.8, -0.6]))
             ).astype(float)
        for block_rows in (glm.BLOCK_ROWS, 1000):
            monkeypatch.setattr(glm, "BLOCK_ROWS", block_rows)
            calls.clear()
            fit = fit_glm(y, X) if n <= block_rows else zero_start_fit(y, X)
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


def block_case(case, n=5003):
    """A design and response of n rows for comparing a blocked fit with a
    one-block fit, and a warm start (None for a cold fit)."""
    rng = np.random.default_rng(21)
    x1, x2 = rng.normal(size=(2, n))
    X = design_matrix(n, x1, x2)
    y = (rng.uniform(size=n) < expit(0.4 + 0.9 * x1 - 0.7 * x2)
         ).astype(float)
    start = None
    if case == "separated_x1000":
        X, y = design_matrix(n, x1 * 1000), (x1 > 0).astype(float)
    elif case == "duplicated":
        X = design_matrix(n, x1, x1)
    elif case == "constant":
        y = np.ones(n)
    elif case == "warm":
        start = np.append(fit_glm(y, X[:, :-1]).coefficients, 0.0)
    return y, X, start


class TestBlockedFit:
    """A fit over more than BLOCK_ROWS rows sums the score and gram over
    blocks of rows; it must take the one-block fit's path: the same
    iterations and flags, and coefficients and log-likelihood equal but
    for the last digits."""

    @pytest.mark.parametrize("case", ["regular", "separated_x1000",
                                      "duplicated", "constant", "warm"])
    def test_blocked_fit_matches_one_block(self, monkeypatch, case):
        # the blocked fit calls the kernel, which fit_glm would start from
        # a pilot fit when given no start
        y, X, start = block_case(case)
        assert y.size <= glm.BLOCK_ROWS
        whole = fit_glm(y, X, start=start)
        monkeypatch.setattr(glm, "BLOCK_ROWS", 1000)
        blocked = glm._fit_logistic(y, np.ascontiguousarray(X.T), start)
        flags = {"regular": (True, False, False),
                 "separated_x1000": (False, False, False),
                 "duplicated": (True, False, True),
                 "constant": (False, True, False),
                 "warm": (True, False, False)}[case]

        def summary(fit):
            return (fit.converged, fit.separated, fit.rank_deficient)

        assert summary(whole) == flags
        assert summary(blocked) == flags
        assert blocked.iterations == whole.iterations
        assert blocked.coefficients == pytest.approx(whole.coefficients,
                                                     rel=1e-12)
        assert blocked.log_likelihood == pytest.approx(whole.log_likelihood,
                                                       rel=1e-12)

    @pytest.mark.parametrize("n, blocks", [(1000, []),
                                           (1001, [500, 501])])
    def test_blocks_split_rows_evenly(self, monkeypatch, n, blocks):
        # n == BLOCK_ROWS runs on whole arrays, one row more in two blocks
        monkeypatch.setattr(glm, "BLOCK_ROWS", 1000)
        seen = {}
        for name in ("_score_rows", "_gram_rows"):
            original = getattr(glm, name)

            def spy(*args, _name=name, _original=original):
                # each function's last argument is an array over its rows
                seen.setdefault(_name, []).append(args[-1].size)
                return _original(*args)

            monkeypatch.setattr(glm, name, spy)
        y, X, _ = block_case("regular", n)
        assert fit_glm(y, X).converged
        assert set(seen) == ({"_score_rows", "_gram_rows"} if blocks
                             else set())
        for name, rows in seen.items():
            assert rows == blocks * (len(rows) // len(blocks)), name


def reference_fit(y, X, start=None):
    """fit_glm as its kernel read before the sign-folded design, statement
    for statement: the linear predictor eta is clipped to [-500, 500] and
    the weights floored at 1e-10 on every pass, and -s*eta and the residual
    s*r are formed from s = 2y-1 on every pass. A fit over more than
    glm.BLOCK_ROWS rows sums its score and gram over the same equal blocks
    of rows. Returns what a GlmFit reports, the coefficients as bytes."""
    Xt = np.ascontiguousarray(X.T)
    fit = _reference_logistic(y, Xt, start)
    if start is not None and not fit[2]:
        fit = _reference_logistic(y, Xt, None)
    return fit


def _reference_logistic(y, Xt, start):
    n = y.size
    s = 2.0 * y - 1.0
    neg_s = -s

    def evaluate(beta):
        eta = beta @ Xt
        np.maximum(eta, -500.0, out=eta)
        np.minimum(eta, 500.0, out=eta)
        e = np.exp(neg_s * eta)
        return eta, e, -float(np.sum(np.log1p(e)))

    def summed(rows):
        if n <= glm.BLOCK_ROWS:
            return rows(slice(None))
        k = -(-n // glm.BLOCK_ROWS)
        total = 0.0
        for i in range(k):
            total = total + rows(slice(i * n // k, (i + 1) * n // k))
        return total

    beta = np.zeros(Xt.shape[0]) if start is None else start
    eta, e, ll = evaluate(beta)
    rank_deficient = False
    separated = y.min() == y.max()
    converged = False
    iterations = 0
    for iterations in range(1, glm.MAX_ITER + 1):
        q = 1.0 / (1.0 + e)
        r = e * q
        resid = s * r
        score = summed(lambda b: Xt[:, b] @ resid[b])
        if iterations > 1 and np.max(np.abs(score)) < glm.TOL:
            converged = True
            iterations -= 1
            break
        w = np.maximum(r * q, 1e-10)
        gram = summed(lambda b: (Xt[:, b] * w[b]) @ Xt[:, b].T)
        if iterations == 1:
            eig = np.linalg.eigvalsh(gram)
            rank_deficient = bool(
                eig[0] <= eig[-1] * y.size * np.finfo(float).eps)
        if not rank_deficient:
            try:
                step = np.linalg.solve(gram, score)
            except np.linalg.LinAlgError:
                rank_deficient = True
        if rank_deficient:
            sw = np.sqrt(w)
            z = eta + resid / w
            step = np.linalg.lstsq((Xt * sw).T, z * sw, rcond=None)[0] - beta
        floor = ll - 1e-12 * max(1.0, abs(ll))
        for _ in range(20):
            cand = beta + step
            eta_cand, e_cand, ll_cand = evaluate(cand)
            if ll_cand >= floor:
                break
            step = step / 2.0
        else:
            iterations -= 1
            break
        beta, eta, e, ll = cand, eta_cand, e_cand, ll_cand
        if np.linalg.norm(beta) > glm.SEPARATION_NORM:
            separated = True
            break
    if separated:
        converged = False
    return (beta.tobytes(), ll.hex(), bool(converged), iterations,
            bool(separated), rank_deficient)


def fit_bytes(fit):
    return (fit.coefficients.tobytes(), fit.log_likelihood.hex(),
            fit.converged, fit.iterations, fit.separated,
            fit.rank_deficient)


def guard_case(case, n, p, scale, rng):
    """A design, a response and a coefficient vector that draws y, for the
    byte-for-byte comparison with reference_fit."""
    X = design_matrix(n, *(scale * rng.normal(size=(p - 1, n))))
    beta = rng.uniform(-1.0, 1.0, size=p) / scale
    y = (rng.uniform(size=n) < expit(X @ beta)).astype(float)
    if case in ("separated", "separated_x1000") and p > 1:
        y = (X[:, -1] > 0).astype(float)
        if case == "separated_x1000":
            X[:, -1] *= 1000.0
    elif case == "constant":
        y = np.full(n, float(rng.integers(2)))
    elif case == "duplicated" and p > 2:
        X[:, -1] = X[:, 1]
    return y, X


class TestSignFoldedKernel:
    """fit_glm folds the response's sign into the design and clips eta
    only when |beta| @ max|X_j| lets the clip act; its fits must equal
    reference_fit's byte for byte."""

    @pytest.mark.parametrize("block_rows", [glm.BLOCK_ROWS, 1000])
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=40, max_value=400),
           st.sampled_from(["regular", "separated", "separated_x1000",
                            "constant", "duplicated"]),
           st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
           st.sampled_from([None, "nested", "random"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_kernel(self, block_rows, p, n, case, scale,
                                      start, seed):
        # with BLOCK_ROWS at 1000 every fit runs 2 or 3 blocks; a cold one
        # calls the kernel, which fit_glm would start from a pilot fit
        rng = np.random.default_rng(seed)
        if block_rows < glm.BLOCK_ROWS:
            n += 1000
        y, X = guard_case(case, n, p, scale, rng)
        if start == "nested" and p > 1:
            start = np.append(fit_glm(y, X[:, :-1]).coefficients, 0.0)
        elif start is not None:
            start = rng.uniform(-2.0, 2.0, size=p)
        with mock.patch.object(glm, "BLOCK_ROWS", block_rows):
            fit = (zero_start_fit(y, X) if start is None and n > block_rows
                   else fit_glm(y, X, start=start))
            assert fit_bytes(fit) == reference_fit(y, X, start)

    @pytest.mark.parametrize("block_rows", [glm.BLOCK_ROWS, 1000])
    @pytest.mark.parametrize("case", ["separated_x1000", "separated",
                                      "constant", "duplicated"])
    def test_guards_switch_on_part_way(self, monkeypatch, block_rows, case):
        # each fit starts at zero, where neither the clip nor the weight
        # floor acts, and ends where one does: past the clip's bound (x1000)
        # or with weights below the floor (separated, constant response).
        # The duplicated column takes lstsq.
        monkeypatch.setattr(glm, "BLOCK_ROWS", block_rows)
        y, X = guard_case(case, 2500, 2 if case != "duplicated" else 3,
                          1.0, np.random.default_rng(5))
        fit = fit_glm(y, X)
        assert fit_bytes(fit) == reference_fit(y, X)
        if case == "duplicated":
            assert fit.rank_deficient
        elif case == "separated_x1000":
            assert np.abs(fit.coefficients) @ np.abs(X).max(axis=0) > 499.0
        else:
            mu = expit(X @ fit.coefficients)
            assert (mu * (1.0 - mu)).min() < 1e-10

    def test_clip_is_skipped_only_where_it_changes_nothing(self):
        # eta reaches +-|beta| @ max|X_j| on the row of the largest |x|, so
        # bounds either side of 500 clip some rows or none; each evaluation
        # must equal the always-clipped one byte for byte
        rng = np.random.default_rng(3)
        n = 500
        X = design_matrix(n, rng.normal(size=n))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        Xt = np.ascontiguousarray(X.T)
        colmax = np.abs(X).max(axis=0)
        for bound in np.linspace(480.0, 540.0, 61):
            beta = np.array([0.0, bound / colmax[1]])
            eta = np.clip(beta @ Xt, -500.0, 500.0)
            e = np.exp(-(2.0 * y - 1.0) * eta)
            got_e, got_ll = glm._evaluate(beta, Xt * (1.0 - 2.0 * y), colmax)
            assert got_e.tobytes() == e.tobytes()
            assert got_ll.hex() == (-float(np.sum(np.log1p(e)))).hex()


def kernel_calls(monkeypatch):
    """Spy on glm._fit_logistic: a list that gets (rows, start given, fit)
    for each call."""
    calls = []
    original = glm._fit_logistic

    def spy(y, Xt, start):
        fit = original(y, Xt, start)
        calls.append((y.size, start is not None, fit))
        return fit

    monkeypatch.setattr(glm, "_fit_logistic", spy)
    return calls


def zero_start_fit(y, X):
    """The kernel's fit from zeros: fit_glm's fit when it has no pilot."""
    return glm._fit_logistic(y, np.ascontiguousarray(X.T), None)


class TestPilotFit:
    """A cold fit over more than BLOCK_ROWS rows starts from a fit on every
    PILOT_STRIDE-th row when that fit converged and is not rank deficient;
    it must report the zero-start kernel's flags, and where both converge
    the same optimum to within the score tolerance."""

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1001, max_value=3000),
           st.sampled_from(["regular", "separated", "separated_x1000",
                            "constant", "duplicated"]),
           st.sampled_from([0.1, 1.0, 10.0]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_zero_start_kernel(self, p, n, case, scale, seed):
        rng = np.random.default_rng(seed)
        y, X = guard_case(case, n, p, scale, rng)
        with mock.patch.object(glm, "BLOCK_ROWS", 1000):
            fit = fit_glm(y, X)
            cold = zero_start_fit(y, X)
        assert (fit.converged, fit.separated, fit.rank_deficient) == \
            (cold.converged, cold.separated, cold.rank_deficient)
        if cold.rank_deficient:
            # so is the pilot's design, a subset of the rows
            assert fit_bytes(fit) == fit_bytes(cold)
            return
        if not (fit.converged and cold.converged):
            return
        # each fit stops with a score g of max-norm below TOL. With H the
        # information X'WX at the optimum, smallest eigenvalue lam, a fit
        # lies within |H^-1 g| <= sqrt(p) * TOL / lam of the optimum and
        # its log-likelihood within g'H^-1 g / 2 <= p * TOL^2 / (2 lam) of
        # the maximum; the two fits lie within twice that of each other,
        # to second order. A factor 2 covers the second-order terms; the
        # log-likelihood also carries the rounding of its sum over n rows,
        # which step acceptance bounds by 1e-12 |ll|.
        mu = expit(X @ cold.coefficients)
        lam = np.linalg.eigvalsh((X.T * (mu * (1.0 - mu))) @ X)[0]
        coef_bound = 4.0 * math.sqrt(p) * glm.TOL / lam
        ll_bound = (2.0 * p * glm.TOL ** 2 / lam
                    + 1e-12 * abs(cold.log_likelihood))
        assert np.linalg.norm(fit.coefficients - cold.coefficients) <= \
            coef_bound
        assert abs(fit.log_likelihood - cold.log_likelihood) <= ll_bound

    @pytest.mark.parametrize("case", ["separated", "rank_deficient"])
    def test_unusable_pilot_gives_the_zero_start_fit(self, monkeypatch,
                                                     case):
        # the full design is regular, but on the pilot's rows the response
        # is separated by x1, or x2 repeats x1; the fit starts from zeros
        # and equals the zero-start kernel's byte for byte
        monkeypatch.setattr(glm, "BLOCK_ROWS", 1000)
        n = 4000
        rng = np.random.default_rng(8)
        x1, x2 = rng.normal(size=(2, n))
        y = (rng.uniform(size=n) < expit(0.3 + x1 - 0.5 * x2)).astype(float)
        pilot = slice(None, None, glm.PILOT_STRIDE)
        if case == "separated":
            y[pilot] = (x1[pilot] > 0).astype(float)
        else:
            x2[pilot] = x1[pilot]
        X = design_matrix(n, x1, x2)
        calls = kernel_calls(monkeypatch)
        fit = fit_glm(y, X)
        [(rows, warm, pilot_fit), (_, full_warm, _)] = calls
        assert rows == y[pilot].size and not warm and not full_warm
        assert (pilot_fit.separated if case == "separated"
                else pilot_fit.rank_deficient)
        assert fit.converged and not fit.separated
        assert not fit.rank_deficient
        assert fit_bytes(fit) == fit_bytes(zero_start_fit(y, X))

    def test_explicit_start_skips_the_pilot(self, monkeypatch):
        monkeypatch.setattr(glm, "BLOCK_ROWS", 1000)
        y, X, _ = block_case("regular", 3000)
        calls = kernel_calls(monkeypatch)
        fit = fit_glm(y, X, start=np.zeros(3))
        assert [(rows, warm) for rows, warm, _ in calls] == [(3000, True)]
        assert fit.converged

    @pytest.mark.parametrize("n, kernel_rows", [(1000, [1000]),
                                                (1001, [63, 1001])])
    def test_pilot_only_above_block_rows(self, monkeypatch, n, kernel_rows):
        # a fit of BLOCK_ROWS rows is one kernel call from zeros and equals
        # the kernel's from before the pilot fit byte for byte; one row
        # more fits a pilot first
        monkeypatch.setattr(glm, "BLOCK_ROWS", 1000)
        y, X, _ = block_case("regular", n)
        calls = kernel_calls(monkeypatch)
        fit = fit_glm(y, X)
        assert [rows for rows, _, _ in calls] == kernel_rows
        if n == 1000:
            assert fit_bytes(fit) == reference_fit(y, X)

    def test_treatment_fit_at_hundred_thousand_rows(self):
        # seed 3's treatment fit on (W2, W3, W4) took 7 full-data
        # iterations from zeros
        ds = generate(replace(default_config(), n=100_000, seed=3))
        X = design_matrix(ds.n_rows,
                          *(ds.column(c) for c in ("W2", "W3", "W4")))
        fit = fit_glm(ds.column("A"), X)
        assert fit.converged
        assert fit.iterations <= 4


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
