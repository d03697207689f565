"""Tests of the benchmark's reference computations. Run them with
``python -m pytest perfbench/tests``; Tier-1's testpaths do not collect
them."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import probe
import reference
from shadowipw import citest, estimate, shadow, simulate


@pytest.fixture(scope="module")
def ds():
    return simulate.generate(simulate.default_config(n=20000, seed=3))


def test_quadrature_has_converged():
    config = simulate.default_config()
    assert reference.true_ace_quadrature(config, 32) == pytest.approx(
        reference.true_ace_quadrature(config, 64), abs=1e-12)


def test_quadrature_matches_simulation_of_the_same_integral():
    config = simulate.default_config()
    coef = np.array([0.0, *config.coef_y[1:]])
    sd = math.sqrt(coef @ np.array(config.sigma) @ coef)
    x = np.random.default_rng(0).normal(0.0, sd, 2_000_000)
    lo, hi = config.prob_clip
    diff = (np.clip(1 / (1 + np.exp(-(config.coef_y[0] + x))), lo, hi)
            - np.clip(1 / (1 + np.exp(-x)), lo, hi))
    se = diff.std() / math.sqrt(diff.size)
    assert abs(diff.mean() - reference.true_ace_quadrature(config)) < 4 * se


def test_quadrature_matches_program_truth():
    config = simulate.default_config()
    assert abs(simulate.true_ace(config, 1_000_000)
               - reference.true_ace_quadrature(config)) < 0.003


def test_logistic_fit_matches_closed_form_for_one_binary_regressor():
    x = np.repeat([0.0, 1.0], [300, 700])
    y = np.concatenate([np.repeat([1.0, 0.0], [90, 210]),
                        np.repeat([1.0, 0.0], [500, 200])])
    expected = sum(k * math.log(k / n) + (n - k) * math.log(1 - k / n)
                   for k, n in ((90, 300), (500, 700)))
    X = np.column_stack([np.ones(x.size), x])
    assert reference.logistic_max_loglik(y, X) == pytest.approx(expected,
                                                                abs=1e-9)


@pytest.mark.parametrize("condition,witness,Z", [
    ("C1", None, ()), ("C2", None, ("W2", "W3")), ("C3", "W1", ("W2",)),
    ("C4", "W1", ("W2", "W3", "W4"))])
def test_lrt_matches_citest(ds, condition, witness, Z):
    tests = {"C1": lambda: citest.test_c1(ds, 0.05),
             "C2": lambda: citest.test_c2(ds, Z, 0.05),
             "C3": lambda: citest.test_c3(ds, witness, Z, 0.05),
             "C4": lambda: citest.test_c4(ds, witness, Z, 0.05)}
    got = tests[condition]().result
    stat, p = reference.lrt(ds.column, ds.roles, condition, witness, Z)
    assert stat == pytest.approx(got.statistic, rel=1e-7, abs=1e-6)
    assert (p < 0.05) == (not got.independent)


def test_estimating_equations_vanish_at_the_true_parameters():
    rng = np.random.default_rng(1)
    n, beta, gamma = 400_000, np.array([0.5, -0.3]), -1.0
    Zm = rng.normal(size=(n, 2))
    a = (rng.uniform(size=n) < 0.4).astype(float)
    y_full = (rng.uniform(size=n) < 1 / (1 + np.exp(-(a - 0.5)))).astype(float)
    p = reference.or_propensity(y_full, Zm, beta, gamma, 0.0)
    r = (rng.uniform(size=n) < p).astype(float)
    y = np.where(r == 1.0, y_full, np.nan)
    eq = reference.estimating_equations(r, y, a, Zm, beta, gamma, 0.0,
                                        "a_row")
    terms = np.column_stack([Zm, a]) * (r / p - 1.0)[:, None]
    se = terms.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(eq) < 5 * se)


@pytest.mark.parametrize("h_mode", shadow.H_MODES)
def test_estimating_equations_vanish_at_the_program_solution(ds, h_mode):
    Z = ("W2", "W3", "W4")
    model = shadow.solve_propensity(ds, Z, h_mode)
    eq = reference.estimating_equations(
        ds.column("R"), ds.column("Y"), ds.column("A"),
        np.column_stack([ds.column(z) for z in Z]), model.beta, model.gamma,
        model.y_ref, h_mode)
    assert np.max(np.abs(eq)) < 1e-7


def test_double_ipw_by_hand():
    r = np.array([1.0, 1.0, 1.0, 0.0])
    a = np.array([1.0, 0.0, 1.0, 0.0])
    y = np.array([1.0, 0.0, 1.0, np.nan])
    Zm = np.zeros((4, 1))
    # p(R=1) = 1/2 and p(A=a) = 1/2: weight 4 on each respondent
    assert reference.double_ipw_ace(r, a, y, Zm, [0.0], 0.0, 0.0,
                                    [0.0, 0.0]) == pytest.approx(2.0)
    # p(A=1) = expit(10) is clipped to 0.99
    assert reference.double_ipw_ace(r, a, y, Zm, [0.0], 0.0, 0.0,
                                    [10.0, 0.0]) == pytest.approx(
        2 / (0.5 * 0.99) / 4)


def test_double_ipw_matches_ipw_ace(ds):
    Z = ("W2", "W3", "W4")
    model = shadow.solve_propensity(ds, Z)
    treat = estimate.fit_treatment_propensity(ds, Z)
    got = estimate.ipw_ace(ds, Z, model, treat).ace
    ref = reference.double_ipw_ace(
        ds.column("R"), ds.column("A"), ds.column("Y"),
        np.column_stack([ds.column(z) for z in Z]), model.beta, model.gamma,
        model.y_ref, treat.coefficients)
    assert ref == pytest.approx(got, abs=1e-12)


def test_benchmark_lists_every_per_layer_metric():
    bench = json.loads((Path(probe.__file__).parent.parent
                        / "BENCHMARK.json").read_text())
    names = set(probe.layer_metrics([], 0))
    names |= {"ref.ops", "ref.correct_verdicts", "ref.ace_abs_err",
              "trace.spans", "trace.overhead_s", "trace.op_s.p50",
              "trace.kernel_s",
              "cli.import_s", "simulate.true_ace.s", "data.write_csv.s"}
    assert {m["name"] for m in bench["per_layer"]} == names
