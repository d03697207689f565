import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

from shadowipw import citest
from shadowipw.citest import DegenerateDataError
from shadowipw.data import Dataset, RoleMap, subset_observed
from shadowipw.search import LrtTester
from shadowipw.simulate import default_config, generate

from oracles import g_statistic, generate_example

ALPHA = 0.05
Z_FULL = ("W2", "W3", "W4")


def _replace_column(ds, name, values):
    return _replace_columns(ds, {name: values})


def _replace_columns(ds, replacements):
    cols = {n: replacements.get(n, ds.column(n)) for n in ds.names}
    return Dataset(cols, ds.roles, ds.oracle_names)


class TestC1:
    def test_detects_incentive_effect_on_response(self, base_ds_10k):
        record = citest.test_c1(base_ds_10k, ALPHA)
        assert record.passed
        assert record.result.p_value < 1e-6
        assert record.condition == "C1" and record.witness is None

    def test_pure_noise_incentive_fails(self, base_ds_10k):
        noise = np.random.default_rng(0).normal(size=base_ds_10k.n_rows)
        ds = _replace_column(base_ds_10k, "I", noise)
        # a single draw; the null-rate calibration is checked below
        assert not citest.test_c1(ds, ALPHA).passed

    def test_null_rejection_rate_near_alpha(self):
        rng = np.random.default_rng(99)
        reps, n = 400, 2000
        rejected = 0
        for _ in range(reps):
            r = (rng.uniform(size=n) < 0.6).astype(float)
            i = rng.normal(size=n)
            y = np.where(r == 1.0, 1.0, np.nan)
            ds = Dataset({"A": (rng.uniform(size=n) < 0.5).astype(float),
                          "Y": y, "R": r, "I": i,
                          "W1": rng.normal(size=n), "W2": rng.normal(size=n)},
                         RoleMap("A", "Y", "R", "I", ("W1", "W2")))
            rejected += not citest.test_c1(ds, ALPHA).result.independent
        assert binom.ppf(0.005, reps, ALPHA) <= rejected <= \
            binom.ppf(0.995, reps, ALPHA)

    def test_constant_response_is_degenerate(self, base_ds_10k):
        n = base_ds_10k.n_rows
        ds = _replace_columns(base_ds_10k, {
            "R": np.ones(n), "Y": np.nan_to_num(base_ds_10k.column("Y"))})
        with pytest.raises(DegenerateDataError):
            citest.test_c1(ds, ALPHA)

    @pytest.mark.parametrize("build, message", [
        (lambda ds: ds.take(np.arange(0)),
         "no rows available for endpoint 'R'"),
        (lambda ds: _replace_columns(ds, {
            "R": np.ones(ds.n_rows), "Y": np.nan_to_num(ds.column("Y"))}),
         "endpoint column 'R' is constant"),
    ], ids=["no_rows", "constant"])
    def test_degenerate_response_is_named(self, base_ds_small, build,
                                          message):
        ds = build(base_ds_small)
        with pytest.raises(DegenerateDataError, match=f"^{message}$"):
            citest.test_c1(ds, ALPHA)
        # a search's tester checks the endpoint on every call, so on the
        # second call, which finds the endpoint's table in its memo, too
        tester = LrtTester(ds)
        for _ in range(2):
            with pytest.raises(DegenerateDataError, match=f"^{message}$"):
                tester("C1", None, (), ALPHA)


class TestC2:
    def test_holds_on_the_valid_adjustment_set(self, base_ds_10k):
        record = citest.test_c2(base_ds_10k, Z_FULL, ALPHA)
        assert record.passed
        assert record.adjustment == Z_FULL

    def test_direct_treatment_response_edge_is_detected(self):
        ds = generate(default_config(n=10000, seed=4,
                                     scenario="add_a_to_ry"))
        assert not citest.test_c2(ds, Z_FULL, ALPHA).passed

    def test_uses_only_responding_rows(self, base_ds_small):
        ds = base_ds_small
        baseline = citest.test_c2(ds, Z_FULL, ALPHA)
        # graft extra non-responding rows: outcome missing, response zero
        extra = 500
        rng = np.random.default_rng(1)
        cols = {}
        continuous = (*ds.roles.covariates, ds.roles.incentive)
        for name in ds.names:
            col = ds.column(name)
            if name == "R":
                pad = np.zeros(extra)
            elif name == "Y":
                pad = np.full(extra, np.nan)
            else:
                pad = rng.normal(size=extra) if name in continuous \
                    else (rng.uniform(size=extra) < 0.5).astype(float)
            cols[name] = np.concatenate([col, pad])
        grown = Dataset(cols, ds.roles, ds.oracle_names)
        regrown = citest.test_c2(grown, Z_FULL, ALPHA)
        assert regrown.result.p_value == baseline.result.p_value
        assert regrown.result.statistic == baseline.result.statistic

    def test_empty_observed_subset_rejected(self, base_ds_small):
        n = base_ds_small.n_rows
        ds = _replace_columns(base_ds_small, {
            "R": np.zeros(n), "Y": np.full(n, np.nan)})
        with pytest.warns(UserWarning, match="no rows with response == 1"), \
                pytest.raises(DegenerateDataError):
            citest.test_c2(ds, Z_FULL, ALPHA)

    def test_null_pass_rate_with_randomized_treatment(self):
        # randomized treatment and no incentive effect: C2's independence
        # holds; pass rate should sit near 1 - alpha (the base model is not
        # exactly logistic-linear, so only a generous band is asserted)
        rng = np.random.default_rng(5)
        reps, n = 200, 4000
        passed = 0
        for rep in range(reps):
            cfg = default_config(n=n, seed=10_000 + rep,
                                 coef_a=(0.0, 0.0, 0.0, 0.0, 0.0),
                                 coef_r_ref=(1.0, 1.0, 1.0, 0.0))
            ds = generate(cfg)
            passed += citest.test_c2(ds, Z_FULL, ALPHA).passed
        assert 0.88 <= passed / reps <= 0.99


class TestC3:
    def test_witness_detected_given_full_adjustment(self, base_ds_10k):
        record = citest.test_c3(base_ds_10k, "W1", Z_FULL, ALPHA)
        assert record.passed
        assert record.witness == "W1"

    def test_noise_witness_fails_at_null_rate(self, base_ds_small):
        rng = np.random.default_rng(12)
        reps = 200
        passes = 0
        for rep in range(reps):
            ds = generate(default_config(n=3000, seed=30_000 + rep))
            noisy = _replace_column(ds, "W1", rng.normal(size=ds.n_rows))
            passes += citest.test_c3(noisy, "W1", ("W2", "W3"), ALPHA).passed
        # passes means dependence detected, which for noise is the null rate
        assert binom.ppf(0.001, reps, ALPHA) <= passes <= \
            binom.ppf(0.999, reps, ALPHA)

    def test_marginal_dependence_in_example_graph(self):
        ds = generate_example(20000, seed=0)
        assert citest.test_c3(ds, "W3", (), ALPHA).passed

    def test_witness_must_be_a_covariate(self, base_ds_small):
        with pytest.raises(Exception, match="covariate"):
            citest.test_c3(base_ds_small, "I", ("W2",), ALPHA)


class TestC4:
    def test_treatment_blocks_witness_path(self, base_ds_10k):
        record = citest.test_c4(base_ds_10k, "W1", Z_FULL, ALPHA)
        assert record.passed

    def test_open_backdoor_detected_with_partial_adjustment(self, base_ds_10k):
        # leaving W4 out keeps an open backdoor: the d-separation oracle
        # says dependent, and the test must agree at this sample size
        from shadowipw.simulate import scenario_graph
        assert not scenario_graph().d_separated("W1", "R", ("A", "W2", "W3"))
        record = citest.test_c4(base_ds_10k, "W1", ("W2", "W3"), ALPHA)
        assert not record.passed

    def test_noise_witness_passes_at_complement_rate(self):
        rng = np.random.default_rng(21)
        reps = 200
        passes = 0
        for rep in range(reps):
            ds = generate(default_config(n=3000, seed=60_000 + rep))
            noisy = _replace_column(ds, "W1", rng.normal(size=ds.n_rows))
            passes += citest.test_c4(noisy, "W1", ("W2", "W3"), ALPHA).passed
        rejected = reps - passes
        assert binom.ppf(0.001, reps, ALPHA) <= rejected <= \
            binom.ppf(0.999, reps, ALPHA)

    def test_witness_cannot_be_in_adjustment(self, base_ds_small):
        with pytest.raises(Exception, match="witness"):
            citest.test_c4(base_ds_small, "W2", ("W2",), ALPHA)


class TestPowerAtScale:
    """Strongly d-connected hypotheses are rejected nearly always at
    n=10000. (C2's power against the direct treatment-response edge is
    materially lower at this sample size; it is exercised through the
    search experiments instead.)"""

    REPS = 40

    def test_c1_c3_c4_power_exceeds_095(self):
        hits = {"c1": 0, "c3": 0, "c4": 0}
        for rep in range(self.REPS):
            ds = generate(default_config(n=10000, seed=90_000 + rep))
            hits["c1"] += citest.test_c1(ds, ALPHA).passed
            hits["c3"] += citest.test_c3(ds, "W1", Z_FULL, ALPHA).passed
            # dropping W4 from the adjustment leaves an open backdoor
            hits["c4"] += not citest.test_c4(ds, "W1", ("W2", "W3"),
                                             ALPHA).passed
        for name, count in hits.items():
            assert count / self.REPS > 0.95, (name, count)


class TestKnownAnswers:
    """With a 0/1 tested variable, the LRT of R ~ 1 against R ~ 1 + x
    compares a one-parameter model with the saturated model of the 2x2
    table of x and R, so its statistic is the table's G statistic in
    closed form. C1 tests the incentive so, and C3 at Z = () the witness.
    The bound holds the log-likelihoods, sums over n rows, to a few
    hundred times their rounding."""

    @pytest.mark.parametrize("n", [200, 10_000])
    def test_c1_and_c3_match_the_g_statistic(self, n):
        for seed in range(20):
            ds = generate(default_config(n=n, seed=seed))
            incentive = (ds.column("I") > 0.0).astype(float)
            witness = (ds.column("W1") > 0.5).astype(float)
            ds = _replace_columns(ds, {"I": incentive, "W1": witness})
            for record, x in ((citest.test_c1(ds, ALPHA), incentive),
                              (citest.test_c3(ds, "W1", (), ALPHA), witness)):
                g = g_statistic(x, ds.column("R"))
                assert abs(record.result.statistic - g) <= \
                    1e-10 * max(g, 1.0), (seed, record.condition)


class TestRecordBehavior:
    def test_tests_are_deterministic(self, base_ds_small):
        first = citest.test_c2(base_ds_small, ("W2", "W3"), ALPHA)
        second = citest.test_c2(base_ds_small, ("W2", "W3"), ALPHA)
        assert first == second

    @pytest.mark.parametrize("condition", ["C2", "C3", "C4"])
    def test_adjustment_order_does_not_change_a_bit(self, base_ds_small,
                                                    condition):
        # a design lists its covariates in the roles' order, whatever order
        # Z arrives in; the record keeps the caller's order
        def run(Z):
            if condition == "C2":
                return citest.test_c2(base_ds_small, Z, ALPHA)
            test = getattr(citest, f"test_{condition.lower()}")
            return test(base_ds_small, "W1", Z, ALPHA)

        forward, backward = run(Z_FULL), run(Z_FULL[::-1])
        assert backward.result.statistic == forward.result.statistic
        assert backward.result.p_value == forward.result.p_value
        assert backward.adjustment == Z_FULL[::-1]

    @pytest.mark.parametrize("condition", ["C2", "C3", "C4"])
    def test_repeated_adjustment_column_is_rejected(self, base_ds_small,
                                                    condition):
        args = () if condition == "C2" else ("W1",)
        test = getattr(citest, f"test_{condition.lower()}")
        with pytest.raises(ValueError,
                           match="adjustment column 'W2' appears more"):
            test(base_ds_small, *args, ("W2", "W3", "W2"), ALPHA)

    def test_serialization_round_trip_keys(self, base_ds_small):
        record = citest.test_c1(base_ds_small, ALPHA)
        d = record.to_dict()
        assert d["condition"] == "C1"
        assert set(d) == {"condition", "witness", "adjustment", "result",
                          "passed", "error"}
        assert d["result"]["p_value"] == record.result.p_value
