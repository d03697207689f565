import numpy as np
import pytest

from shadowipw import citest
from shadowipw.citest import C1, C3, C4, ConditionRecord
from shadowipw.data import Dataset, RoleMap
from shadowipw.glm import CiTestResult
from shadowipw.search import (C1_FAILED, FOUND, NOT_FOUND, GraphOracleTester,
                              LrtTester, SearchOutcome, find_adjustment_set)
from shadowipw.simulate import (default_config, example_graph,
                                generate, generate_example, scenario_graph)

ALPHA = 0.05


def assert_replays(ds, outcome):
    """Every record of an LRT search equals a fresh, uncached citest call
    bit for bit; an error record raises the same message again."""
    runners = {"C1": lambda rec: citest.test_c1(ds, ALPHA),
               "C2": lambda rec: citest.test_c2(ds, rec.adjustment, ALPHA),
               "C3": lambda rec: citest.test_c3(ds, rec.witness,
                                                rec.adjustment, ALPHA),
               "C4": lambda rec: citest.test_c4(ds, rec.witness,
                                                rec.adjustment, ALPHA)}
    for rec in outcome.trail:
        if rec.error is not None:
            with pytest.raises(ValueError) as raised:
                runners[rec.condition](rec)
            assert str(raised.value) == rec.error
            continue
        replay = runners[rec.condition](rec)
        assert replay.result.statistic == rec.result.statistic
        assert replay.result.p_value == rec.result.p_value


class TestLrtSearch:
    def test_base_scenario_finds_the_correct_set(self, base_ds_10k):
        outcome = find_adjustment_set(base_ds_10k, ALPHA)
        assert outcome.status == FOUND
        assert outcome.witness == "W1"
        assert tuple(sorted(outcome.adjustment_set)) == ("W2", "W3", "W4")

    def test_direct_treatment_response_edge_yields_not_found(self):
        ds = generate(default_config(n=10000, seed=4,
                                     scenario="add_a_to_ry"))
        assert find_adjustment_set(ds, ALPHA).status == NOT_FOUND

    def test_hidden_confounder_yields_not_found(self):
        ds = generate(default_config(n=10000, seed=8, scenario="hide_w4"))
        assert find_adjustment_set(ds, ALPHA).status == NOT_FOUND

    def test_example_distribution_lands_on_documented_candidate(self):
        ds = generate_example(20000, seed=0)
        outcome = find_adjustment_set(ds, ALPHA)
        assert outcome.status == FOUND
        assert outcome.witness == "W3"
        assert tuple(sorted(outcome.adjustment_set)) == ("W1", "W2")

    def test_noise_incentive_gates_at_c1(self, base_ds_small):
        rng = np.random.default_rng(0)
        cols = {n: base_ds_small.column(n) for n in base_ds_small.names}
        cols["I"] = rng.normal(size=base_ds_small.n_rows)
        ds = Dataset(cols, base_ds_small.roles, base_ds_small.oracle_names)
        outcome = find_adjustment_set(ds, ALPHA)
        assert outcome.status == C1_FAILED
        assert outcome.tests_run == 1
        assert outcome.witness is None and outcome.adjustment_set is None

    def test_deterministic_including_trail(self, base_ds_small):
        a = find_adjustment_set(base_ds_small, ALPHA)
        b = find_adjustment_set(base_ds_small, ALPHA)
        assert a == b

    def test_trail_is_replayable(self, base_ds_small, monkeypatch):
        # every record equals a fresh, uncached citest call bit for bit. The
        # exhaustive hide_w4 search revisits each Z under several witnesses,
        # so there the tester's fit memo answers many of its C2 tests' fits.
        exhaustive = generate(default_config(n=2500, seed=8,
                                             scenario="hide_w4"))
        outcome = find_adjustment_set(base_ds_small, ALPHA)
        assert_replays(base_ds_small, outcome)
        fits = []
        original = citest.fit_glm
        monkeypatch.setattr(citest, "fit_glm", lambda *args, **kwargs:
                            fits.append(1) or original(*args, **kwargs))
        tester = LrtTester(exhaustive)
        outcome = find_adjustment_set(exhaustive, ALPHA, tester=tester)
        monkeypatch.undo()
        # each design is fitted once (50 fits before the design memo)
        assert outcome.status == NOT_FOUND
        assert len(fits) == len(tester._fits) == 31
        assert_replays(exhaustive, outcome)

    def test_conditions_share_designs(self, base_ds_small, monkeypatch):
        tested = []
        original = citest.likelihood_ratio_test
        monkeypatch.setattr(citest, "likelihood_ratio_test",
                            lambda null, full, alpha: tested.append(
                                (null, full)) or original(null, full, alpha))
        tester = LrtTester(base_ds_small)
        for condition, W, Z in [(C1, None, ()), (C3, "W2", ()),
                                (C3, "W1", ("W3",)), (C3, "W4", ("W1", "W3")),
                                (C4, "W1", ("W3",)), (C4, "W4", ("W1", "W3"))]:
            tester(condition, W, Z, ALPHA)
        (c1_null, _), (c3_null, _), *rest = tested
        # R ~ 1 is C1's null and C3's null at Z = ()
        assert c1_null is c3_null
        # the full design at (W1, {W3}) is the null design at {W1, W3}
        (_, c3_full), (c3_null, _), (_, c4_full), (c4_null, _) = rest
        assert c3_full is c3_null and c4_full is c4_null
        assert c3_full is not c4_full

    def test_tests_run_matches_trail_and_bound(self):
        ds = generate(default_config(n=2500, seed=8, scenario="hide_w4"))
        outcome = find_adjustment_set(ds, ALPHA)
        k = len(ds.roles.covariates)
        assert outcome.tests_run == len(outcome.trail)
        assert outcome.tests_run <= k * 2 ** (k - 1) * 3 + 1

    def test_max_subset_size_limits_candidates(self, base_ds_10k):
        outcome = find_adjustment_set(base_ds_10k, ALPHA, max_subset_size=2)
        # the only valid set has size 3, so a size-2 cap cannot find it
        assert outcome.status == NOT_FOUND
        assert all(len(rec.adjustment) <= 2 for rec in outcome.trail
                   if rec.condition != "C1")

    def test_needs_at_least_two_covariates(self):
        n = 40
        rng = np.random.default_rng(1)
        y = (rng.uniform(size=n) < 0.5).astype(float)
        ds = Dataset({"A": (rng.uniform(size=n) < 0.5).astype(float),
                      "Y": y, "R": np.ones(n), "I": rng.normal(size=n),
                      "W1": rng.normal(size=n)},
                     RoleMap("A", "Y", "R", "I", ("W1",)))
        with pytest.raises(ValueError, match="two covariates"):
            find_adjustment_set(ds, ALPHA)


def _few_rows():
    # 12 rows and 11 covariates: the C3/C4 references R ~ W1..W11 and
    # R ~ A + W1..W11 have more coefficients than rows, so they cannot be
    # fitted, while the designs of singleton adjustment sets can
    rng = np.random.default_rng(6)
    n, k = 12, 11
    i = rng.normal(size=n)
    r = (i + 0.5 * rng.normal(size=n) > -0.8).astype(float)
    a = (rng.uniform(size=n) < 0.5).astype(float)
    y = np.where(r == 1, (rng.uniform(size=n) < 0.5).astype(float), np.nan)
    cols = {"A": a, "Y": y, "R": r, "I": i}
    names = tuple(f"W{j}" for j in range(1, k + 1))
    for name in names:
        cols[name] = rng.normal(size=n)
    return Dataset(cols, RoleMap("A", "Y", "R", "I", names))


def _with_w5(make_w5):
    ds = generate(default_config(n=2000, seed=2, scenario="hide_w4"))
    cols = {name: ds.column(name) for name in ds.names}
    cols["W5"] = make_w5(cols)
    roles = ds.roles
    return Dataset(cols, RoleMap(roles.treatment, roles.outcome,
                                 roles.response, roles.incentive,
                                 (*roles.covariates, "W5")))


def _duplicate_covariate():
    # W5 repeats W3, so every reference design is rank deficient
    return _with_w5(lambda cols: cols["W3"].copy())


def _separating_covariate():
    # W5 separates R, so every reference design is separated
    rng = np.random.default_rng(0)
    return _with_w5(lambda cols: cols["R"] + rng.uniform(-0.4, 0.4,
                                                         cols["R"].size))


# builder -> (max_subset_size, status, tests_run, verdict of each trail
# record: p passed, f failed, e error), as the search gave them with every
# test's full fit started from its null fit, before the design memo
FALLBACK_SEARCHES = {
    _few_rows: (1, NOT_FOUND, 243,
        "ppfpfppfppfpfpfpfpfpfpffpfpfpfpfpfpfpfpfpfpffpfpfpfpfpfpfpfppfpf"
        "pffpfppfpfpfpfpfpfpfpfppffpfpfpfpfpfpfpfpfpfppffpfpfpfpfpfpfpfpf"
        "pfpffpfpfpfpfpfpfpfpfpfpffpfpfpfppfpfpfpfpfpfpffpfpfpfpfpfpfpfpf"
        "pfpffpfpfpfpfppfppfpfpfpfpffpfpfpfpfppfpfpfpfpfpfpf"),
    _duplicate_covariate: (None, NOT_FOUND, 89,
        "pppfppfppfppfppfppfppfppfppfppfppfppfppfppfppfppfppfppfppfpfppfp"
        "fpfpfppfppfppfpfppfpfpfpf"),
    _separating_covariate: (None, NOT_FOUND, 85,
        "pppfppfppfpfppfpfpfpfppfppfppfpfppfpfpfpfppfppfppfpfppfpfpfpfppf"
        "ppfppfppfppfppfppfppf"),
}


class TestFallbackStarts:
    """A C3/C4 design starts from the reference fit (the endpoint on every
    covariate) only when that fit converged with full rank; otherwise it
    starts from zeros, and the search decides as before."""

    @pytest.mark.parametrize("build", list(FALLBACK_SEARCHES),
                             ids=lambda build: build.__name__.strip("_"))
    def test_search_decides_as_before_and_replays(self, build, monkeypatch):
        ds = build()
        max_size, status, tests_run, verdicts = FALLBACK_SEARCHES[build]
        warm = []
        original = citest.fit_glm

        def fit_glm(y, X, start=None):
            if y is ds.column("R"):
                warm.append(start is not None)
            return original(y, X, start)

        monkeypatch.setattr(citest, "fit_glm", fit_glm)
        tester = LrtTester(ds)
        outcome = find_adjustment_set(ds, ALPHA, max_size, tester=tester)
        monkeypatch.undo()
        assert (outcome.status, outcome.witness, outcome.adjustment_set,
                outcome.tests_run) == (status, None, None, tests_run)
        assert "".join("e" if rec.error else "pf"[not rec.passed]
                       for rec in outcome.trail) == verdicts
        assert_replays(ds, outcome)
        # the premise: each reference could not serve as a start
        covariates = ds.roles.covariates
        for given in ((), ("A",)):
            reference = tester._fits.get((False, "R", given + covariates))
            if build is _few_rows:
                assert reference is None
            else:
                assert reference.rank_deficient or reference.separated
        # so every fit of R starts from zeros, but C1's R ~ I from R ~ 1
        assert sum(warm) == 1
        assert {"C3", "C4"} <= {rec.condition for rec in outcome.trail
                                if rec.result is not None}


# (scenario, seed) -> (status, witness, adjustment_set, tests_run) at
# n=10000, as the engine gave them before the IRLS rewrite; no change to the
# engine may flip one
PINNED_VERDICTS = {
    ("base", 0): (NOT_FOUND, None, None, 87),
    ("base", 1): (FOUND, "W1", ("W2", "W3", "W4"), 25),
    ("base", 4): (FOUND, "W1", ("W2", "W3", "W4"), 11),
    ("base", 9): (NOT_FOUND, None, None, 97),
    ("add_a_to_ry", 0): (FOUND, "W1", ("W2", "W3", "W4"), 25),
    ("add_a_to_ry", 1): (NOT_FOUND, None, None, 33),
    ("add_a_to_ry", 7): (NOT_FOUND, None, None, 41),
    ("hide_w4", 0): (NOT_FOUND, None, None, 37),
    ("hide_w4", 3): (NOT_FOUND, None, None, 23),
    ("hide_w4", 4): (NOT_FOUND, None, None, 13),
}


class TestTesterProtocol:
    def test_plain_function_is_a_tester(self, base_ds_small):
        # a backend is any callable (condition, W, Z, alpha) -> record;
        # this one passes exactly the conditions listed here
        passes = {("C1", None, ()), ("C2", None, ("W3",)),
                  ("C3", "W2", ("W3",)), ("C4", "W2", ("W3",))}

        def tester(condition, W, Z, alpha):
            passed = (condition, W, Z) in passes
            independent = passed == (condition in ("C2", "C4"))
            return ConditionRecord(condition, W, Z, CiTestResult(
                statistic=0.0 if independent else 9.0, df=1,
                p_value=1.0 if independent else 0.001,
                independent=independent, alpha=alpha))

        outcome = find_adjustment_set(base_ds_small, ALPHA, tester=tester)
        assert (outcome.status, outcome.witness, outcome.adjustment_set,
                outcome.tests_run) == (FOUND, "W2", ("W3",), 15)
        failed_c2 = [("C2", None, Z, False) for Z in (
            ("W4",), ("W2", "W3"), ("W2", "W4"), ("W3", "W4"),
            ("W2", "W3", "W4"))]
        assert [(rec.condition, rec.witness, rec.adjustment, rec.passed)
                for rec in outcome.trail] == [
            ("C1", None, (), True),
            ("C2", None, (), False), ("C2", None, ("W2",), False),
            ("C2", None, ("W3",), True), ("C3", "W1", ("W3",), False),
            *failed_c2,
            ("C2", None, (), False), ("C2", None, ("W1",), False),
            ("C2", None, ("W3",), True), ("C3", "W2", ("W3",), True),
            ("C4", "W2", ("W3",), True)]


class TestPinnedVerdicts:
    @pytest.mark.parametrize("scenario, seed", sorted(PINNED_VERDICTS))
    def test_verdict_is_pinned(self, scenario, seed):
        ds = generate(default_config(n=10000, seed=seed, scenario=scenario))
        outcome = find_adjustment_set(ds, ALPHA)
        assert (outcome.status, outcome.witness, outcome.adjustment_set,
                outcome.tests_run) == PINNED_VERDICTS[scenario, seed]

    def test_no_respondents_fails_every_c2_and_slices_once(
            self, base_ds_small, monkeypatch):
        # with C1 passed by fiat, every candidate reaches C2, which must
        # raise on the empty respondent subset each time it is asked
        n = base_ds_small.n_rows
        cols = {name: base_ds_small.column(name)
                for name in base_ds_small.names}
        cols["R"] = np.zeros(n)
        cols["Y"] = np.full(n, np.nan)
        ds = Dataset(cols, base_ds_small.roles, base_ds_small.oracle_names)
        slices = []
        original = citest.subset_observed
        monkeypatch.setattr(citest, "subset_observed",
                            lambda d: slices.append(1) or original(d))

        class GatePassed(LrtTester):
            def __call__(self, condition, W, Z, alpha):
                if condition != C1:
                    return super().__call__(condition, W, Z, alpha)
                return ConditionRecord(C1, None, (), CiTestResult(
                    statistic=float("inf"), df=1, p_value=0.0,
                    independent=False, alpha=alpha))

        with pytest.warns(UserWarning, match="no rows"):
            outcome = find_adjustment_set(ds, ALPHA, tester=GatePassed(ds))
        k = len(ds.roles.covariates)
        assert outcome.status == NOT_FOUND
        assert outcome.tests_run == 1 + k * 2 ** (k - 1)
        assert all(rec.condition == "C2" and rec.result is None
                   and "response == 1" in rec.error
                   for rec in outcome.trail[1:])
        assert len(slices) == 1


# every (condition, witness, adjustment, passed) of the oracle search, as the
# hand-written d-separation queries gave them before both backends read
# citest.CONDITIONS; the oracle ignores the data, so any draw will do
ORACLE_TRAILS = {
    "base": (("C1", None, (), True), ("C2", None, (), False),
        ("C2", None, ("W2",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W4",), False), ("C2", None, ("W2", "W3"), False),
        ("C2", None, ("W2", "W4"), False), ("C2", None, ("W3", "W4"), False),
        ("C2", None, ("W2", "W3", "W4"), True),
        ("C3", "W1", ("W2", "W3", "W4"), True),
        ("C4", "W1", ("W2", "W3", "W4"), True)),
    "add_a_to_ry": (("C1", None, (), True), ("C2", None, (), False),
        ("C2", None, ("W2",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W4",), False), ("C2", None, ("W2", "W3"), False),
        ("C2", None, ("W2", "W4"), False), ("C2", None, ("W3", "W4"), False),
        ("C2", None, ("W2", "W3", "W4"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W4",), False), ("C2", None, ("W1", "W3"), False),
        ("C2", None, ("W1", "W4"), False), ("C2", None, ("W3", "W4"), False),
        ("C2", None, ("W1", "W3", "W4"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), False), ("C2", None, ("W2",), False),
        ("C2", None, ("W4",), False), ("C2", None, ("W1", "W2"), False),
        ("C2", None, ("W1", "W4"), False), ("C2", None, ("W2", "W4"), False),
        ("C2", None, ("W1", "W2", "W4"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), False), ("C2", None, ("W2",), False),
        ("C2", None, ("W3",), False), ("C2", None, ("W1", "W2"), False),
        ("C2", None, ("W1", "W3"), False), ("C2", None, ("W2", "W3"), False),
        ("C2", None, ("W1", "W2", "W3"), False)),
    "hide_w4": (("C1", None, (), True), ("C2", None, (), False),
        ("C2", None, ("W2",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W2", "W3"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W1", "W3"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), False), ("C2", None, ("W2",), False),
        ("C2", None, ("W1", "W2"), False)),
    "example": (("C1", None, (), True), ("C2", None, (), False),
        ("C2", None, ("W2",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W2", "W3"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), True), ("C3", "W2", ("W1",), True),
        ("C4", "W2", ("W1",), False), ("C2", None, ("W3",), False),
        ("C2", None, ("W1", "W3"), True), ("C3", "W2", ("W1", "W3"), True),
        ("C4", "W2", ("W1", "W3"), False), ("C2", None, (), False),
        ("C2", None, ("W1",), True), ("C3", "W3", ("W1",), True),
        ("C4", "W3", ("W1",), False), ("C2", None, ("W2",), False),
        ("C2", None, ("W1", "W2"), True), ("C3", "W3", ("W1", "W2"), True),
        ("C4", "W3", ("W1", "W2"), True)),
}


class TestGraphOracleSearch:
    """With d-separation substituted for the tests, the search must decide
    exactly as the graph dictates."""

    def test_base_graph(self, base_ds_small):
        tester = GraphOracleTester(scenario_graph(), base_ds_small.roles)
        outcome = find_adjustment_set(base_ds_small, ALPHA, tester=tester)
        assert outcome.status == FOUND
        assert outcome.witness == "W1"
        assert tuple(sorted(outcome.adjustment_set)) == ("W2", "W3", "W4")

    def test_direct_edge_graph_has_no_valid_candidate(self, base_ds_small):
        tester = GraphOracleTester(scenario_graph("add_a_to_ry"),
                                   base_ds_small.roles)
        outcome = find_adjustment_set(base_ds_small, ALPHA, tester=tester)
        assert outcome.status == NOT_FOUND

    def test_latent_confounder_graph_has_no_valid_candidate(self):
        ds = generate(default_config(n=500, seed=2, scenario="hide_w4"))
        tester = GraphOracleTester(scenario_graph("hide_w4"), ds.roles)
        assert find_adjustment_set(ds, ALPHA, tester=tester).status == NOT_FOUND

    def test_example_graph_reproduces_documented_order(self):
        ds = generate_example(200, seed=0)
        tester = GraphOracleTester(example_graph(), ds.roles)
        outcome = find_adjustment_set(ds, ALPHA, tester=tester)
        assert outcome.status == FOUND
        assert outcome.witness == "W3"
        assert tuple(sorted(outcome.adjustment_set)) == ("W1", "W2")
        # the singleton candidate (W3, {W1}) passed C2/C3 but fell at C4
        seen = [(rec.condition, rec.witness, rec.adjustment)
                for rec in outcome.trail]
        assert ("C4", "W3", ("W1",)) in seen

    @pytest.mark.parametrize("scenario", sorted(ORACLE_TRAILS))
    def test_full_trail_is_pinned(self, scenario, base_ds_small):
        if scenario == "example":
            ds, graph = generate_example(200, seed=0), example_graph()
        elif scenario == "hide_w4":
            ds = generate(default_config(n=500, seed=2, scenario=scenario))
            graph = scenario_graph(scenario)
        else:
            ds, graph = base_ds_small, scenario_graph(scenario)
        outcome = find_adjustment_set(ds, ALPHA,
                                      tester=GraphOracleTester(graph, ds.roles))
        assert tuple((rec.condition, rec.witness, rec.adjustment, rec.passed)
                     for rec in outcome.trail) == ORACLE_TRAILS[scenario]

    def test_oracle_and_lrt_agree_at_scale(self, base_ds_10k):
        tester = GraphOracleTester(scenario_graph(), base_ds_10k.roles)
        oracle = find_adjustment_set(base_ds_10k, ALPHA, tester=tester)
        tested = find_adjustment_set(base_ds_10k, ALPHA)
        assert oracle.status == tested.status == FOUND
        assert oracle.adjustment_set == tested.adjustment_set


class TestSerialization:
    def test_outcome_round_trip_keys(self, base_ds_small):
        outcome = find_adjustment_set(base_ds_small, ALPHA)
        d = outcome.to_dict()
        assert set(d) == {"status", "witness", "adjustment_set", "tests_run",
                          "trail"}
        assert len(d["trail"]) == outcome.tests_run


# the values each entry point that takes a test level or a subset-size
# bound refuses, with the message the command line prints
BAD_ALPHAS = [0, 1, 1.5, float("nan"), "0.05", True]
BAD_SUBSET_SIZES = [-1, 1.5, float("nan"), "2", True]


def no_test(condition, W, Z, alpha):
    raise AssertionError(f"{condition} ran on refused settings")


class TestSearchSettings:
    @pytest.mark.parametrize("alpha", BAD_ALPHAS, ids=repr)
    def test_alpha_refused_before_any_test(self, base_ds_small, alpha):
        with pytest.raises(ValueError) as raised:
            find_adjustment_set(base_ds_small, alpha, tester=no_test)
        assert str(raised.value) == f"alpha must lie in (0, 1), got {alpha}"

    @pytest.mark.parametrize("size", BAD_SUBSET_SIZES, ids=repr)
    def test_subset_size_refused_before_any_test(self, base_ds_small, size):
        with pytest.raises(ValueError) as raised:
            find_adjustment_set(base_ds_small, ALPHA, size, tester=no_test)
        assert str(raised.value) == ("max_subset_size must be an integer "
                                     f">= 0, got {size}")

    def test_numpy_scalars_accepted(self, base_ds_small):
        want = find_adjustment_set(base_ds_small, ALPHA, 2)
        got = find_adjustment_set(base_ds_small, np.float32(ALPHA),
                                  np.int64(2))
        assert (got.status, got.witness, got.adjustment_set) == \
            (want.status, want.witness, want.adjustment_set)
        assert [r.result.statistic for r in got.trail] == \
            [r.result.statistic for r in want.trail]
