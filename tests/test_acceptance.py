"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The Monte Carlo criteria (3-6) share module fixtures; the whole
module takes 1m28s wall time on two cores. The causes of the
criterion 3 and 5 failures, and the derivation of criterion 4's direction,
are in docs/acceptance_analysis.md.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import expit
from scipy.stats import binom

from shadowipw import citest
from shadowipw.cli import main as cli_main
from shadowipw.data import Dataset, RoleMap
from shadowipw.estimate import (METHOD_FULL, METHOD_IGNORE_MISSINGNESS,
                                METHOD_ORACLE_SEARCH, METHOD_WRONG_ADJUSTMENT)
from shadowipw.experiments import (run_estimation_experiment,
                                   run_search_experiment)
from shadowipw.shadow import reconstruct_propensity_from_joint, \
    solve_propensity
from shadowipw.simulate import (SCENARIO_ADD_A_TO_RY, SCENARIO_HIDE_W4,
                                default_config, generate, true_ace)

from oracles import DiscreteModel

SEED = 0
JOBS = 2
N_DESK = 10000
TRIALS = 200
ALPHAS = (0.01, 0.05, 0.1)


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def search_reports():
    """Search experiment at n=10000 for each alpha (criteria 3 and 4)."""
    out = {}
    for alpha in ALPHAS:
        t0 = time.time()
        out[alpha] = run_search_experiment([N_DESK], TRIALS, alpha,
                                           seed=SEED, jobs=JOBS)
        print(f"[search experiment alpha={alpha}: {time.time()-t0:.0f}s]",
              flush=True)
    return out


@pytest.fixture(scope="module")
def estimation_report():
    t0 = time.time()
    rep = run_estimation_experiment(
        [N_DESK], TRIALS, alpha=0.05,
        methods=(METHOD_FULL, METHOD_ORACLE_SEARCH,
                 METHOD_IGNORE_MISSINGNESS, METHOD_WRONG_ADJUSTMENT),
        seed=SEED, jobs=JOBS)
    print(f"[estimation experiment: {time.time()-t0:.0f}s]", flush=True)
    return rep


def test_criterion_1_odds_ratio_reconstruction_oracle():
    rng = np.random.default_rng(12345)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        n_y = int(rng.integers(2, 5))      # outcome levels up to 4
        n_z = int(rng.integers(1, 4))      # strata up to 3
        joint = rng.uniform(0.02, 1.0, size=(2, n_y, n_z))
        joint /= joint.sum(axis=(0, 1), keepdims=True)
        rec = reconstruct_propensity_from_joint(joint)
        direct = joint[1] / (joint[0] + joint[1])
        worst = max(worst, float(np.max(np.abs(rec - direct))))
    elapsed = time.time() - t0
    report(1, worst < 1e-12 and elapsed < 5.0,
           f"1000 random joints, worst deviation {worst:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_2_weighting_functional_oracle():
    rng = np.random.default_rng(99)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        m = DiscreteModel.random(rng)
        for arm in (0, 1):
            w = m.weighting_functional(arm)
            adj = m.adjustment_functional(arm)
            brute = m.interventional_mean(arm)
            worst = max(worst, abs(w - adj), abs(adj - brute))
    elapsed = time.time() - t0
    report(2, worst < 1e-10 and elapsed < 1.0,
           f"100 discrete models x 2 arms, worst gap {worst:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_3_search_accuracy_at_desk_scale(search_reports):
    rep = search_reports[0.05]
    cell = rep.cell(N_DESK)
    ok = cell.sensitivity >= 0.85 and cell.specificity >= 0.85
    by_scenario = []
    for scenario in (SCENARIO_ADD_A_TO_RY, SCENARIO_HIDE_W4):
        hits = [row[5] for row in rep.rows
                if row[1] == "negative" and row[3] == scenario]
        by_scenario.append(f"{scenario} {sum(hits)}/{len(hits)}")
    report(3, ok,
           f"n={N_DESK} alpha=0.05 over {TRIALS}+{TRIALS} trials: "
           f"sensitivity {cell.sensitivity:.3f}, specificity "
           f"{cell.specificity:.3f} (threshold 0.85); negatives rejected "
           f"by scenario: {', '.join(by_scenario)}")


def test_criterion_4_alpha_trend(search_reports):
    """Sensitivity falls and specificity rises as alpha grows.

    "Positive" means the search returned the correct set (see
    ``run_search_experiment``). At the correct candidate (W1; W2,W3,W4) C3's
    dependence is detected at every alpha tested, so the positive outcome is
    decided by C2 and C4. Both require independence (their rows of
    ``citest.CONDITIONS`` set ``requires_dependence`` to False, so they pass
    when p >= alpha) and are calibrated (criterion 7), so a true candidate
    survives both with probability about (1 - alpha)^2, which must fall as
    alpha grows. Specificity is C2's power against the A->R edge of
    ``add_a_to_ry`` (``hide_w4`` is rejected at every alpha), and power
    rises with alpha. Labelling "positive" as "violation detected" instead
    swaps the two rates, which gives the reverse ordering from the same
    outcomes; this test keeps the labelling the harness uses. The measured
    rates and the per-condition counts are in docs/acceptance_analysis.md.
    """
    sens = [search_reports[a].cell(N_DESK).sensitivity for a in ALPHAS]
    spec = [search_reports[a].cell(N_DESK).specificity for a in ALPHAS]
    sens_ok = sens[0] > sens[1] > sens[2]
    spec_ok = spec[0] < spec[1] < spec[2]
    report(4, sens_ok and spec_ok,
           f"sensitivity across alpha {ALPHAS}: "
           f"{[round(s, 3) for s in sens]} (must decrease: C2 and C4 "
           f"require independence, so about (1-alpha)^2 = "
           f"{[round((1 - a) ** 2, 3) for a in ALPHAS]}); specificity: "
           f"{[round(s, 3) for s in spec]} (must increase: C2's power "
           f"against A->R grows with alpha)")


def test_criterion_5_estimator_comparison(estimation_report):
    rep = estimation_report
    truth = rep.ground_truth
    full = rep.cell(N_DESK, METHOD_FULL)
    oracle = rep.cell(N_DESK, METHOD_ORACLE_SEARCH)
    ignore = rep.cell(N_DESK, METHOD_IGNORE_MISSINGNESS)
    wrong = rep.cell(N_DESK, METHOD_WRONG_ADJUSTMENT)
    full_err = abs(full.median - truth)
    full_mae = full.median_abs_error(truth)
    ratios = {name: cell.median_abs_error(truth) / full_mae
              for name, cell in (("ignore", ignore), ("wrong", wrong))}
    close_to_truth = full_err < 0.03
    matches_oracle = abs(full.median - oracle.median) < 0.01
    baselines_worse = all(r >= 3.0 for r in ratios.values())
    report(5, close_to_truth and matches_oracle and baselines_worse,
           f"truth {truth:.4f}; |median(full)-truth|={full_err:.4f} (<0.03); "
           f"|median(full)-median(oracle)|="
           f"{abs(full.median - oracle.median):.4f} (<0.01); "
           f"median-abs-error ratios vs full(={full_mae:.4f}): "
           f"ignore {ratios['ignore']:.2f}x (median error "
           f"{ignore.median - truth:+.4f}), wrong {ratios['wrong']:.2f}x "
           f"(median error {wrong.median - truth:+.4f}) (each must be >=3); "
           f"search found {len(full.estimates)}/{TRIALS} trials")


def test_criterion_6_estimating_equation_recovery():
    t0 = time.time()
    gammas = []
    residuals = []
    for trial in range(TRIALS):
        ds = generate(default_config(n=N_DESK, seed=SEED + 7_000_000 + trial))
        fit = solve_propensity(ds, ("W2", "W3", "W4"))
        gammas.append(fit.gamma)
        if fit.converged:
            residuals.append(fit.residual_norm)
    med = float(np.median(gammas))
    max_resid = max(residuals)
    ok = abs(med - (-1.5)) < 0.25 and max_resid < 1e-8 and len(residuals) > 0
    report(6, ok,
           f"median gamma over {TRIALS} trials = {med:.3f} "
           f"(target -1.5 +/- 0.25); {len(residuals)}/{TRIALS} converged, "
           f"max converged residual {max_resid:.2e} "
           f"[{time.time()-t0:.0f}s]")


class TestCriterion7Calibration:
    """Null rejection rates for each condition over 2000 replications at
    n=5000, inside the exact binomial 99 percent band around alpha. Each
    null scenario is built so the fitted null model is correctly specified
    and the tested d-separation holds in the generating graph."""

    REPS = 2000
    N = 5000
    ALPHA = 0.05

    def _band(self):
        lo = binom.ppf(0.005, self.REPS, self.ALPHA)
        hi = binom.ppf(0.995, self.REPS, self.ALPHA)
        return int(lo), int(hi)

    @staticmethod
    def _dataset(columns, covariates):
        return Dataset(columns, RoleMap("A", "Y", "R", "I", covariates))

    _SEEDS = {"C1": 101, "C2": 202, "C3": 303, "C4": 404}

    def _run(self, condition, runner):
        rng = np.random.default_rng(self._SEEDS[condition])
        rejected = 0
        for _ in range(self.REPS):
            rejected += runner(rng)
        lo, hi = self._band()
        ok = lo <= rejected <= hi
        report(f"7.{condition}", ok,
               f"{condition} null rejections {rejected}/{self.REPS} "
               f"(99% band [{lo}, {hi}] around alpha={self.ALPHA})")

    def test_c1_null(self):
        n = self.N

        def run(rng):
            z = rng.normal(size=n)
            i = rng.normal(size=n) * np.sqrt(2.0)
            y_full = (rng.uniform(size=n) < expit(0.5 * z)).astype(float)
            r = (rng.uniform(size=n) <
                 expit(0.4 + 0.6 * z - 0.8 * y_full)).astype(float)
            ds = self._dataset(
                {"A": (rng.uniform(size=n) < 0.5).astype(float),
                 "Y": np.where(r == 1.0, y_full, np.nan), "R": r, "I": i,
                 "Z1": z}, ("Z1",))
            return not citest.test_c1(ds, self.ALPHA).result.independent

        self._run("C1", run)

    def test_c2_null(self):
        n = self.N

        def run(rng):
            z = rng.normal(size=n)
            i = rng.normal(size=n) * np.sqrt(2.0)
            y_full = (rng.uniform(size=n) < expit(0.4 + 0.7 * z)).astype(float)
            # treatment depends on (outcome, z) only, so its conditional law
            # among respondents is exactly the fitted logistic
            a = (rng.uniform(size=n) <
                 expit(-0.2 + 0.8 * y_full + 0.5 * z)).astype(float)
            r = (rng.uniform(size=n) <
                 expit(0.3 + 0.5 * z + 0.6 * i - 0.7 * y_full)).astype(float)
            ds = self._dataset({"A": a, "Y": np.where(r == 1.0, y_full,
                                                      np.nan),
                                "R": r, "I": i, "Z1": z}, ("Z1",))
            return not citest.test_c2(ds, ("Z1",),
                                      self.ALPHA).result.independent

        self._run("C2", run)

    def test_c3_null(self):
        n = self.N

        def run(rng):
            z = rng.normal(size=n)
            w = rng.normal(size=n)   # isolated node: independent of response
            i = rng.normal(size=n)
            y_full = (rng.uniform(size=n) < 0.6).astype(float)
            r = (rng.uniform(size=n) < expit(0.3 + 0.8 * z)).astype(float)
            ds = self._dataset(
                {"A": (rng.uniform(size=n) < 0.5).astype(float),
                 "Y": np.where(r == 1.0, y_full, np.nan), "R": r, "I": i,
                 "W1": w, "Z1": z}, ("W1", "Z1"))
            return not citest.test_c3(ds, "W1", ("Z1",),
                                      self.ALPHA).result.independent

        self._run("C3", run)

    def test_c4_null(self):
        n = self.N

        def run(rng):
            z = rng.normal(size=n)
            w = rng.normal(size=n)
            i = rng.normal(size=n)
            a = (rng.uniform(size=n) < expit(0.4 * z)).astype(float)
            y_full = (rng.uniform(size=n) < 0.5).astype(float)
            r = (rng.uniform(size=n) <
                 expit(0.2 + 0.7 * z - 0.9 * a)).astype(float)
            ds = self._dataset({"A": a, "Y": np.where(r == 1.0, y_full,
                                                      np.nan),
                                "R": r, "I": i, "W1": w, "Z1": z},
                               ("W1", "Z1"))
            return not citest.test_c4(ds, "W1", ("Z1",),
                                      self.ALPHA).result.independent

        self._run("C4", run)


class TestCriterion8Determinism:
    ROLE_FLAGS = ["--treatment", "A", "--outcome", "Y", "--response", "R",
                  "--incentive", "I", "--covariates", "W1,W2,W3,W4"]

    def test_pipeline_and_experiments_are_jobs_invariant(self, tmp_path):
        runner = CliRunner()
        csv = tmp_path / "d.csv"
        res = runner.invoke(cli_main, ["simulate", "--n", "6000", "--seed",
                                       "5", "--out", str(csv)])
        assert res.exit_code == 0, res.output

        pipeline_payloads = []
        for name in ("p1.json", "p2.json"):
            out = tmp_path / name
            res = runner.invoke(cli_main, ["pipeline", str(csv),
                                           *self.ROLE_FLAGS, "--seed", "1",
                                           "--out", str(out)])
            assert res.exit_code == 0, res.output
            pipeline_payloads.append(out.read_bytes())
        pipeline_ok = pipeline_payloads[0] == pipeline_payloads[1]

        search_payloads = []
        estimate_payloads = []
        for jobs in ("1", "2"):
            sdir = tmp_path / f"s{jobs}"
            res = runner.invoke(cli_main, [
                "experiment", "search", "--n-grid", "2000", "--trials", "4",
                "--alpha", "0.05", "--seed", "3", "--jobs", jobs,
                "--out-dir", str(sdir)])
            assert res.exit_code == 0, res.output
            search_payloads.append(
                (sdir / "search_summary.json").read_bytes() +
                (sdir / "search_trials.csv").read_bytes())
            edir = tmp_path / f"e{jobs}"
            res = runner.invoke(cli_main, [
                "experiment", "estimate", "--n-grid", "2000", "--trials",
                "4", "--methods", "oracle_search,ignore_missingness",
                "--seed", "3", "--jobs", jobs, "--out-dir", str(edir)])
            assert res.exit_code == 0, res.output
            estimate_payloads.append(
                (edir / "estimate_summary.json").read_bytes() +
                (edir / "estimate_trials.csv").read_bytes())
        search_ok = search_payloads[0] == search_payloads[1]
        estimate_ok = estimate_payloads[0] == estimate_payloads[1]

        report(8, pipeline_ok and search_ok and estimate_ok,
               f"pipeline byte-identical: {pipeline_ok}; experiment search "
               f"jobs-invariant: {search_ok}; experiment estimate "
               f"jobs-invariant: {estimate_ok}")
