import inspect
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from shadowipw import cli, estimate, experiments, glm, shadow
from shadowipw.data import DataError, Dataset, RoleMap
from shadowipw.estimate import fit_and_weight
from shadowipw.shadow import (H_MODE_A_MEAN, H_MODE_A_ROW,
                              ShadowPropensityModel, ShadowError,
                              moment_residuals, or_blend, or_propensity,
                              reconstruct_propensity_from_joint,
                              solve_propensity)
from shadowipw.simulate import default_config, generate

from oracles import OneStratum, one_stratum_dataset


def model(beta, gamma, y_ref=0.0, names=None):
    beta = np.asarray(beta, dtype=float)
    names = names or tuple(f"Z{i+1}" for i in range(beta.size))
    return ShadowPropensityModel(beta=beta, gamma=gamma, y_ref=y_ref,
                                 adjustment=tuple(names), residual_norm=0.0,
                                 converged=True, iterations=0)


def shadow_dataset(beta, gamma, n, seed, y_ref=0.0):
    """Data whose response mechanism follows the fitted family exactly."""
    rng = np.random.default_rng(seed)
    k = len(beta)
    z = rng.normal(size=(n, k)) * 0.8
    a = (rng.uniform(size=n) < expit(0.3 + z[:, 0])).astype(float)
    y_full = (rng.uniform(size=n) < expit(0.6 * a + 0.5 * z[:, -1])).astype(float)
    p_r = or_blend(expit(z @ np.asarray(beta)),
                   np.exp(gamma * (y_full - y_ref)))
    r = (rng.uniform(size=n) < p_r).astype(float)
    columns = {"A": a, "Y": np.where(r == 1.0, y_full, np.nan), "R": r,
               "I": rng.normal(size=n)}
    for i in range(k):
        columns[f"Z{i+1}"] = z[:, i]
    roles = RoleMap("A", "Y", "R", "I", tuple(f"Z{i+1}" for i in range(k)))
    return Dataset(columns, roles), p_r


def exact_or_blend(score, part):
    """pi0 / (pi0 + eta (1 - pi0)) with pi0 = expit(score) and
    eta = exp(part), in 50-digit decimal arithmetic, rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 50
        pi0 = 1 / (1 + (-Decimal(score)).exp())
        eta = Decimal(part).exp()
        return float(pi0 / (pi0 + eta * (1 - pi0)))


class TestOrPropensity:
    def test_reference_outcome_gives_baseline_exactly(self):
        m = model([0.7, -0.2, 0.1], gamma=-1.5)
        z = np.array([0.5, 1.0, -2.0])
        assert or_propensity(0.0, z, m) == expit(z @ m.beta)

    def test_zero_gamma_removes_outcome_dependence(self):
        m = model([0.5, 0.5], gamma=0.0)
        z = np.array([1.0, -1.0])
        assert or_propensity(-3.0, z, m) == or_propensity(7.0, z, m)

    def test_documented_arithmetic_case(self):
        # beta=(1,0,0), z=(1,0,0), gamma=-1.5, y=1: baseline expit(1),
        # odds-ratio term exp(-1.5), blended propensity 0.92414
        m = model([1.0, 0.0, 0.0], gamma=-1.5)
        p = or_propensity(1.0, np.array([1.0, 0.0, 0.0]), m)
        pi0, eta = expit(1.0), math.exp(-1.5)
        assert p == pytest.approx(pi0 / (pi0 + eta * (1 - pi0)), abs=1e-12)
        assert p == pytest.approx(0.92414, abs=1e-5)
        # algebraically identical logistic form
        assert p == pytest.approx(expit(1.0 + 1.5), abs=1e-12)

    def test_half_at_zero_score_and_reference_outcome(self):
        m = model([0.3, -0.3], gamma=2.0)
        assert or_propensity(0.0, np.zeros(2), m) == 0.5

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-5, 5),
           st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_open_interval_and_monotone_in_score(self, s1, s2, y, gamma):
        lo_score, hi_score = sorted((s1, s2))
        m = model([1.0], gamma=gamma)
        p_lo = or_propensity(y, np.array([lo_score]), m)
        p_hi = or_propensity(y, np.array([hi_score]), m)
        assert 0.0 < p_lo <= p_hi < 1.0

    @given(st.floats(-30, 30), st.floats(-3, 3), st.floats(-10, 10),
           st.floats(-2, 2))
    @example(30.0, 3.0, 10.0, 0.0)      # or_blend's float form is off 5e-4
    @example(25.0, -2.0, -10.0, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_one_logit_agrees_with_the_two_part_formula(self, score, gamma,
                                                        y, y_ref):
        # p = expit(z.beta - gamma (y - y_ref)) is the factorization
        # formula with pi0 = expit(z.beta) and eta = exp(gamma (y - y_ref))
        part = gamma * (y - y_ref)
        assume(abs(part) <= 30.0)
        p = or_propensity(y, np.array([score]), model([1.0], gamma, y_ref))
        assert p == pytest.approx(exact_or_blend(score, part), rel=1e-14)
        # the float or_blend loses about eps / (1 - pi0) relative through
        # 1 - pi0, 3e-4 at z.beta = 30; where pi0 <= 1/2 it keeps full
        # precision and the two agree
        if score <= 0.0:
            assert p == pytest.approx(
                or_blend(expit(score), math.exp(part)), rel=1e-14)

    def test_extreme_arguments_saturate_without_overflow(self):
        m = model([1.0], gamma=-300.0)
        for y in (-1e6, 1e6):
            p = or_propensity(y, np.array([1e8]), m)
            assert 0.0 < p < 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShadowError):
            or_propensity(0.0, np.zeros(2), model([1.0], gamma=0.0))


class TestReconstructFromJoint:
    @staticmethod
    def direct_conditional(joint):
        return joint[1] / (joint[0] + joint[1])

    @staticmethod
    def random_joint(rng, n_y, n_z):
        j = rng.uniform(0.05, 1.0, size=(2, n_y, n_z))
        return j / j.sum(axis=(0, 1), keepdims=True)

    def test_independent_joint_reduces_to_marginal(self):
        # R independent of Y given Z: odds-ratio term is 1 and the
        # reconstruction equals the marginal response probability
        p_r1 = np.array([0.3, 0.8])
        p_y = np.array([[0.2, 0.5], [0.5, 0.25], [0.3, 0.25]])  # n_y x n_z
        joint = np.stack([(1 - p_r1)[None, :] * p_y, p_r1[None, :] * p_y])
        rec = reconstruct_propensity_from_joint(joint)
        assert rec == pytest.approx(np.broadcast_to(p_r1, rec.shape), abs=1e-12)

    def test_random_joint_matches_direct_conditioning(self):
        rng = np.random.default_rng(7)
        joint = self.random_joint(rng, 3, 2)
        rec = reconstruct_propensity_from_joint(joint)
        assert rec == pytest.approx(self.direct_conditional(joint), abs=1e-12)

    def test_reference_row_equals_baseline(self):
        rng = np.random.default_rng(8)
        joint = self.random_joint(rng, 4, 3)
        rec = reconstruct_propensity_from_joint(joint)
        pi0 = joint[1, 0] / (joint[0, 0] + joint[1, 0])
        assert rec[0] == pytest.approx(pi0, abs=1e-15)

    def test_zero_cell_rejected(self):
        joint = self.random_joint(np.random.default_rng(0), 2, 1)
        bad = joint.copy()
        bad[0, 0, 0] = 0.0
        with pytest.raises(ShadowError, match="positive"):
            reconstruct_propensity_from_joint(bad)

    def test_unnormalized_joint_rejected(self):
        joint = self.random_joint(np.random.default_rng(1), 2, 2) * 1.5
        with pytest.raises(ShadowError, match="normalized"):
            reconstruct_propensity_from_joint(joint)

    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 4)])
    def test_misshaped_joint_rejected(self, shape):
        with pytest.raises(ShadowError, match=re.escape(
                f"joint must have shape (2, n_y, n_z), got {shape}")):
            reconstruct_propensity_from_joint(np.full(shape, 0.25))


class TestMomentResiduals:
    def test_fully_observed_with_unit_propensity_is_zero(self):
        ds, _ = shadow_dataset([0.4, -0.4], gamma=-1.0, n=500, seed=3)
        # force all rows observed
        cols = {n: ds.column(n) for n in ds.names}
        cols["R"] = np.ones(ds.n_rows)
        cols["Y"] = np.nan_to_num(cols["Y"])
        full = Dataset(cols, ds.roles)
        trivial = ShadowPropensityModel.trivial(("Z1", "Z2"))
        res = moment_residuals(full, trivial)
        assert res == pytest.approx(np.zeros(3), abs=1e-15)

    def test_law_of_large_numbers_at_true_parameters(self):
        beta, gamma = [0.6, -0.4, 0.3], -0.8
        n = 1_000_000
        ds, _ = shadow_dataset(beta, gamma, n=n, seed=42)
        res = moment_residuals(ds, model(beta, gamma), H_MODE_A_MEAN)
        assert np.all(np.abs(res) < 3.0 / math.sqrt(n) * 3.0)

    def test_mean_mode_last_equation_is_scaled_unit_h(self):
        ds, _ = shadow_dataset([0.5], gamma=-1.2, n=2000, seed=9)
        m = model([0.4], gamma=-1.0, names=("Z1",))
        res = moment_residuals(ds, m, H_MODE_A_MEAN)
        r = ds.column("R")
        y = np.nan_to_num(ds.column("Y"))
        p = or_propensity(y[r == 1.0], ds.column("Z1")[r == 1.0, None], m)
        w = np.full(ds.n_rows, -1.0)
        w[r == 1.0] = 1.0 / p - 1.0
        a_bar = ds.column("A").mean()
        assert res[-1] == pytest.approx(a_bar * w.mean(), rel=1e-12)


class TestExactOddsWeights:
    """The weights are the exact odds 1/p - 1 = exp(-u) in one pass, with u
    clipped to [-500, 500]."""

    Z = ("Z1", "Z2", "Z3")

    @pytest.mark.parametrize("bound", [498.9, 500.1, 2000.0])
    def test_equal_clipped_exp_bit_for_bit(self, bound):
        # theta is scaled so that |theta| @ max|Ut_j|, a bound on |u|, is
        # `bound`: below 500 the clip cannot act; above, it acts on the row
        # that attains an axis-aligned theta's bound
        ds, _ = shadow_dataset([0.5, -0.3, 0.2], gamma=-0.7, n=3000, seed=26)
        moments = shadow._Moments(ds, self.Z, H_MODE_A_ROW)
        colmax = np.abs(moments.Ut).max(axis=1)
        rng = np.random.default_rng(27)
        directions = [*np.eye(4), *rng.normal(size=(6, 4))]
        for direction in directions:
            theta = direction * bound / (np.abs(direction) @ colmax)
            u = theta @ moments.Ut
            want = np.exp(-np.clip(u, -500.0, 500.0))
            assert np.array_equal(moments.weights(theta), want)
        aligned = np.eye(4)[0] * bound / colmax[0]
        assert (np.abs(aligned @ moments.Ut).max() > 500.0) == (bound > 500.0)

    def test_odds_far_in_the_tail_are_exact(self):
        # at u = 40, p = expit(u) rounds to 1 and is clamped to 1 - 2**-53,
        # from which the former 1/p - 1 gave 2**-52
        ds, _ = shadow_dataset([0.5], gamma=-0.7, n=500, seed=28)
        cols = {n: ds.column(n) for n in ds.names}
        cols["Z1"] = np.ones(ds.n_rows)
        moments = shadow._Moments(Dataset(cols, ds.roles), ("Z1",),
                                  H_MODE_A_ROW)
        w = moments.weights(np.array([40.0, 0.0]))
        assert np.all(w == np.exp(-40.0))
        p = np.clip(glm.expit(40.0), shadow._P_MIN, shadow._P_MAX)
        assert 1.0 / p - 1.0 == 2.0 ** -52


class TestBlockedJacobian:
    """The Jacobian is summed over equal blocks of at most glm.BLOCK_ROWS
    respondents; one block is the one-pass sum bit for bit."""

    Z = ("Z1", "Z2", "Z3")

    @classmethod
    def moments(cls, h_mode):
        ds, _ = shadow_dataset([0.5, -0.3, 0.2], gamma=-0.7, n=5000, seed=29)
        return shadow._Moments(ds, cls.Z, h_mode)

    @staticmethod
    def one_pass(moments, w):
        return -(moments.Ht * w) @ moments.Ut.T / moments.n

    @pytest.mark.parametrize("h_mode", [H_MODE_A_MEAN, H_MODE_A_ROW])
    def test_blocked_matches_one_pass(self, monkeypatch, h_mode):
        moments = self.moments(h_mode)
        m = moments.Ut.shape[1]
        blocked = []
        summed = glm._summed

        def spy(product, rows):
            # the rows summed and the number of blocks they were cut into
            blocks = []
            total = summed(lambda b: blocks.append(b) or product(b), rows)
            blocked.append((rows, len(blocks)))
            return total

        monkeypatch.setattr(glm, "_summed", spy)
        monkeypatch.setattr(glm, "BLOCK_ROWS", 1000)
        rng = np.random.default_rng(30)
        for theta in rng.normal(scale=0.5, size=(10, 4)):
            w = moments.weights(theta)
            assert moments.jacobian(w) == pytest.approx(
                self.one_pass(moments, w), rel=1e-13)
        assert m > 2000 and blocked == [(m, -(-m // 1000))] * 10

    def test_one_block_is_the_one_pass_sum(self, monkeypatch):
        moments = self.moments(H_MODE_A_ROW)
        m = moments.Ut.shape[1]
        w = moments.weights(np.array([0.3, -0.2, 0.1, -0.8]))
        monkeypatch.setattr(glm, "BLOCK_ROWS", m)
        assert np.array_equal(moments.jacobian(w), self.one_pass(moments, w))
        monkeypatch.setattr(glm, "BLOCK_ROWS", m - 1)   # two blocks
        assert moments.jacobian(w) == pytest.approx(
            self.one_pass(moments, w), rel=1e-13)


def full_row_residuals(ds, Z, h_mode, theta, y_ref=0.0):
    """The estimating equations written over all n rows, as in the paper:
    mean of (R / p - 1) * h, with p = expit(beta.z - gamma * (y - y_ref))."""
    r = ds.column("R")
    y = np.nan_to_num(ds.column("Y")) - y_ref
    Zm = np.column_stack([ds.column(z) for z in Z])
    a = ds.column("A")
    h_last = np.full(ds.n_rows, a.mean()) if h_mode == H_MODE_A_MEAN else a
    H = np.column_stack([Zm, h_last])
    p = expit(Zm @ theta[:-1] - theta[-1] * y)
    return H.T @ np.where(r == 1.0, 1.0 / p - 1.0, -1.0) / ds.n_rows


class TestRespondentMoments:
    """The moments kept on respondents' rows only agree with the full-row
    equations they replace."""

    Z = ("Z1", "Z2", "Z3")

    @pytest.mark.parametrize("h_mode", [H_MODE_A_MEAN, H_MODE_A_ROW])
    def test_residuals_match_full_rows_at_random_parameters(self, h_mode):
        ds, _ = shadow_dataset([0.5, -0.3, 0.2], gamma=-0.7, n=5000, seed=21)
        moments = shadow._Moments(ds, self.Z, h_mode)
        rng = np.random.default_rng(22)
        for theta in rng.normal(size=(10, 4)):
            got = moments.residuals(moments.weights(theta))
            want = full_row_residuals(ds, self.Z, h_mode, theta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("h_mode", [H_MODE_A_MEAN, H_MODE_A_ROW])
    def test_jacobian_matches_central_differences(self, h_mode):
        ds, _ = shadow_dataset([0.5, -0.3, 0.2], gamma=-0.7, n=5000, seed=23)
        moments = shadow._Moments(ds, self.Z, h_mode)
        rng = np.random.default_rng(24)
        step = 1e-6
        for theta in rng.normal(scale=0.5, size=(5, 4)):
            jac = moments.jacobian(moments.weights(theta))
            for j in range(4):
                e = np.zeros(4)
                e[j] = step
                diff = (moments.residuals(moments.weights(theta + e))
                        - moments.residuals(moments.weights(theta - e)))
                assert jac[:, j] == pytest.approx(diff / (2 * step),
                                                  rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("h_mode", [H_MODE_A_MEAN, H_MODE_A_ROW])
    def test_moment_residuals_fold_in_a_nonzero_y_ref(self, h_mode):
        ds, _ = shadow_dataset([0.4, 0.1, -0.2], gamma=-0.9, n=4000, seed=25)
        theta = np.array([0.3, -0.2, 0.5, -1.1])
        m = model(theta[:3], theta[3], y_ref=0.75, names=self.Z)
        got = moment_residuals(ds, m, h_mode)
        want = full_row_residuals(ds, self.Z, h_mode, theta, y_ref=0.75)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        # the same as a reference of zero on the outcome shifted by y_ref
        cols = {n: ds.column(n) for n in ds.names}
        cols["Y"] = cols["Y"] - 0.75
        shifted = moment_residuals(Dataset(cols, ds.roles),
                                   model(theta[:3], theta[3], names=self.Z),
                                   h_mode)
        assert got == pytest.approx(shifted, rel=1e-12, abs=1e-15)
        assert not np.allclose(got, moment_residuals(
            ds, model(theta[:3], theta[3], names=self.Z), h_mode))


class TestSolvePropensity:
    def test_recovers_parameters_on_correctly_specified_data(self):
        beta, gamma = [0.8, -0.5], -1.2
        estimates = []
        for seed in range(20):
            ds, _ = shadow_dataset(beta, gamma, n=20000, seed=100 + seed)
            fit = solve_propensity(ds, ("Z1", "Z2"), H_MODE_A_ROW)
            assert fit.converged and fit.residual_norm < 1e-8
            estimates.append(np.append(fit.beta, fit.gamma))
        median = np.median(np.asarray(estimates), axis=0)
        assert median == pytest.approx([*beta, gamma], abs=0.15)

    def test_beta_recovery_on_main_simulation(self):
        # the fitted baseline omits the simulator's exogenous incentive
        # term, so coefficients are attenuated relative to (1, 1, 1); the
        # 0.25 componentwise band absorbs that projection gap
        from shadowipw.simulate import default_config, generate
        betas = []
        for seed in range(20):
            ds = generate(default_config(n=10000, seed=500 + seed))
            fit = solve_propensity(ds, ("W2", "W3", "W4"))
            assert fit.converged
            betas.append(fit.beta)
        median = np.median(np.asarray(betas), axis=0)
        assert np.all(np.abs(median - 1.0) < 0.25)

    def test_mean_mode_also_converges(self):
        ds, _ = shadow_dataset([0.7], gamma=-1.0, n=20000, seed=5)
        fit = solve_propensity(ds, ("Z1",), H_MODE_A_MEAN)
        assert fit.converged
        assert np.max(np.abs(moment_residuals(ds, fit, H_MODE_A_MEAN))) < 1e-8

    def test_all_observed_returns_trivial_model_with_warning(self):
        ds, _ = shadow_dataset([0.5], gamma=-1.0, n=300, seed=1)
        cols = {n: ds.column(n) for n in ds.names}
        cols["R"] = np.ones(ds.n_rows)
        cols["Y"] = np.nan_to_num(cols["Y"])
        full = Dataset(cols, ds.roles)
        with pytest.warns(UserWarning, match="observed"):
            fit = solve_propensity(full, ("Z1",))
        assert fit.degenerate
        assert or_propensity(0.3, np.array([2.0]), fit) == 1.0

    @pytest.mark.parametrize("h_mode", [H_MODE_A_MEAN, H_MODE_A_ROW])
    @pytest.mark.parametrize("n", [0, 5])
    def test_no_observed_outcome_is_refused(self, n, h_mode):
        # with no rows every outcome is also (vacuously) observed: the
        # refusal must win over the all-observed warning, and no empty mean
        # may warn on the way, which Tier-1's warning filter would fail
        cols = {"A": np.arange(n) % 2.0, "Y": np.full(n, np.nan),
                "R": np.zeros(n), "I": np.linspace(-1.0, 1.0, n),
                "Z1": np.linspace(0.0, 1.0, n)}
        ds = Dataset(cols, RoleMap("A", "Y", "R", "I", ("Z1",)))
        with pytest.raises(ShadowError, match="^no observed outcomes"):
            solve_propensity(ds, ("Z1",), h_mode)

    def test_far_newton_candidate_is_halved_without_warning(self):
        # on these 100 rows a far Newton candidate's residuals are about
        # 1e217, and their norm overflows to inf; the step is halved, and
        # no RuntimeWarning may reach Tier-1's filter
        ds = generate(default_config(n=100, seed=1))
        model, _, est = fit_and_weight(ds, ("W2", "W3", "W4"))
        assert model.used_fallback and np.isfinite(est.ace)

    def test_row_order_invariance(self):
        ds, _ = shadow_dataset([0.6, 0.2], gamma=-0.9, n=4000, seed=10)
        fit = solve_propensity(ds, ("Z1", "Z2"))
        perm = np.random.default_rng(0).permutation(ds.n_rows)
        shuffled = ds.take(perm)
        fit2 = solve_propensity(shuffled, ("Z1", "Z2"))
        assert fit2.beta == pytest.approx(fit.beta, abs=1e-6)
        assert fit2.gamma == pytest.approx(fit.gamma, abs=1e-6)

    def test_duplication_invariance(self):
        ds, _ = shadow_dataset([0.6], gamma=-0.9, n=2000, seed=11)
        doubled = ds.take(np.concatenate([np.arange(ds.n_rows)] * 2))
        fit = solve_propensity(ds, ("Z1",))
        fit2 = solve_propensity(doubled, ("Z1",))
        assert fit2.beta == pytest.approx(fit.beta, abs=1e-6)
        assert fit2.gamma == pytest.approx(fit.gamma, abs=1e-6)

    def test_repeated_adjustment_column_is_rejected(self):
        ds, _ = shadow_dataset([0.6, 0.2], gamma=-0.9, n=500, seed=10)
        with pytest.raises(DataError,
                           match="adjustment column 'Z1' appears more"):
            solve_propensity(ds, ("Z1", "Z2", "Z1"))

    def test_empty_adjustment_solves_gamma_only_limit(self):
        # response generated with a constant one-half baseline: the lone
        # moment condition identifies gamma
        gamma = -1.1
        rng = np.random.default_rng(2)
        n = 50000
        a = (rng.uniform(size=n) < 0.5).astype(float)
        y_full = (rng.uniform(size=n) < expit(0.8 * a - 0.2)).astype(float)
        p_r = or_blend(0.5, np.exp(gamma * y_full))
        r = (rng.uniform(size=n) < p_r).astype(float)
        ds = Dataset({"A": a, "Y": np.where(r == 1.0, y_full, np.nan),
                      "R": r, "I": rng.normal(size=n),
                      "Z1": rng.normal(size=n)},
                     RoleMap("A", "Y", "R", "I", ("Z1",)))
        fit = solve_propensity(ds, (), H_MODE_A_ROW)
        assert fit.converged
        assert fit.beta.size == 0
        assert fit.gamma == pytest.approx(gamma, abs=0.1)

    def test_stalled_newton_returns_its_last_iterate_flagged(self):
        # with a direct A -> R edge the a_row equations have no root: gamma
        # runs off towards -inf until no halved step lowers the residual
        from shadowipw.simulate import default_config, generate
        ds = generate(default_config(n=2000, seed=0, scenario="add_a_to_ry"))
        Z = ("W1", "W2", "W3", "W4")
        fit = solve_propensity(ds, Z, H_MODE_A_ROW)
        assert not fit.converged and fit.used_fallback
        # the count is of accepted steps, not of the attempt that failed
        assert fit.iterations == 6
        res = moment_residuals(ds, fit, H_MODE_A_ROW)
        assert fit.residual_norm == np.max(np.abs(res))
        at_zero = moment_residuals(ds, model(np.zeros(4), 0.0, names=Z),
                                   H_MODE_A_ROW)
        assert fit.residual_norm <= np.max(np.abs(at_zero))

    def test_singular_jacobian_returns_the_start_flagged(self):
        # a covariate column of zeros, which a CSV can hold, makes the
        # Jacobian singular before the first step
        ds, _ = shadow_dataset([0.6, 0.2], gamma=-0.9, n=2000, seed=4)
        cols = {name: ds.column(name) for name in ds.names}
        cols["Z1"] = np.zeros(ds.n_rows)
        ds = Dataset(cols, ds.roles)
        fit = solve_propensity(ds, ("Z1", "Z2"))
        assert fit.beta.tolist() == [0.0, 0.0] and fit.gamma == 0.0
        assert (fit.converged, fit.used_fallback, fit.iterations) == \
            (False, True, 0)

    def test_newton_steps_at_1e5_rows(self):
        # seed 3 at 10^5 rows sums the Jacobian over 4 blocks of its
        # respondents; the steps are those of the one-pass sum
        from shadowipw.simulate import default_config, generate
        ds = generate(default_config(n=100_000, seed=3))
        fits = [solve_propensity(ds, Z)
                for Z in (("W2", "W3", "W4"), ("W2", "W3"))]
        assert [(f.iterations, f.converged) for f in fits] == \
            [(7, True), (6, True)]

    def test_serializes_with_diagnostics(self):
        ds, _ = shadow_dataset([0.5], gamma=-1.0, n=3000, seed=3)
        fit = solve_propensity(ds, ("Z1",))
        d = fit.to_dict()
        assert d["converged"] is True
        assert d["adjustment"] == ["Z1"]
        assert len(d["beta"]) == 1


class TestOneStratum:
    """The a_row solve and the ACE against their closed form on one
    stratum (``tests/oracles.py:OneStratum``)."""

    @pytest.mark.parametrize("n, seed", [(2000, 1), (2000, 2), (2000, 5),
                                         (2000, 10), (100_000, 1),
                                         (100_000, 2)])
    def test_a_row_solve_is_the_closed_form(self, n, seed):
        ds = one_stratum_dataset(n, seed)
        exact = OneStratum(ds)
        assert exact.q1 > 0   # a root exists
        fit = solve_propensity(ds, ("C",), H_MODE_A_ROW)
        assert fit.converged and not fit.used_fallback
        assert abs(fit.beta[0] - exact.beta) <= exact.bounds[0]
        assert abs(fit.gamma - exact.gamma) <= exact.bounds[1]

    @pytest.mark.parametrize("n, seed", [(2000, 0), (2000, 1), (2000, 2),
                                         (10_000, 1), (10_000, 4)])
    def test_ace_is_the_closed_form(self, n, seed):
        # seed 0 at 2,000 rows clips p(R=1 | Y=1) at 0.99
        ds = one_stratum_dataset(n, seed)
        exact = OneStratum(ds)
        model, treat, est = fit_and_weight(ds, ("C",), H_MODE_A_ROW)
        assert model.converged and treat.converged
        assert abs(est.ace - exact.ace(0.01, 0.99)) <= \
            exact.ace_bound(0.01, 0.99)

    def test_no_root_stalls_at_w1_zero(self, monkeypatch):
        # q1 < 0: no propensity fits. The solve drives the odds of
        # non-response given Y = 1 to 0, the nearest it can come, where
        # the residual max-norm is -q1, and stalls there
        ds = one_stratum_dataset(2000, 3)
        exact = OneStratum(ds)
        assert exact.q1 == pytest.approx(-0.013762852424489, abs=1e-14)
        jacobians = []
        jacobian = shadow._Moments.jacobian
        monkeypatch.setattr(shadow._Moments, "jacobian", lambda self, w:
                            jacobians.append(w) or jacobian(self, w))
        fit = solve_propensity(ds, ("C",), H_MODE_A_ROW)
        assert (fit.converged, fit.used_fallback) == (False, True)
        assert abs(fit.residual_norm + exact.q1) <= 1e-12
        assert or_propensity(1.0, [1.0], fit) == 1.0 - np.finfo(float).epsneg
        # every Newton pass builds one Jacobian; the pass that stalled
        # applied no step
        assert fit.iterations == len(jacobians) - 1


class TestHMode:
    """Every entry point that takes an h mode refuses an unknown one with
    the command line's message."""

    @pytest.mark.parametrize("h_mode", ["a_median", "", None, 1,
                                        ("a_mean",)], ids=repr)
    def test_refused(self, h_mode):
        ds, _ = shadow_dataset([0.6], gamma=-0.9, n=500, seed=10)
        fitted = model([0.6], gamma=-0.9)
        message = f"h_mode must be one of a_mean, a_row, got {h_mode}"
        for call in (lambda: solve_propensity(ds, ("Z1",), h_mode),
                     lambda: moment_residuals(ds, fitted, h_mode)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message

    def test_numpy_string_accepted(self):
        ds, _ = shadow_dataset([0.6], gamma=-0.9, n=500, seed=10)
        got = solve_propensity(ds, ("Z1",), np.str_(H_MODE_A_ROW))
        want = solve_propensity(ds, ("Z1",), H_MODE_A_ROW)
        assert (got.gamma, list(got.beta)) == (want.gamma, list(want.beta))

    def test_every_default_is_the_one_constant(self):
        # the six h_mode defaults all read shadow.DEFAULT_H_MODE, so that
        # switching the default is a one-line change
        functions = (shadow.solve_propensity, shadow.moment_residuals,
                     estimate.fit_and_weight,
                     estimate.baseline_wrong_adjustment,
                     experiments.run_estimation_experiment)
        defaults = [inspect.signature(f).parameters["h_mode"].default
                    for f in functions]
        defaults.append(cli._SETTINGS["h_mode"].default)
        assert all(d is shadow.DEFAULT_H_MODE for d in defaults), defaults
