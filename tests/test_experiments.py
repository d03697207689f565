import json

import numpy as np
import pytest

from shadowipw.estimate import (METHOD_FULL, METHOD_IGNORE_MISSINGNESS,
                                METHOD_ORACLE_SEARCH, METHOD_WRONG_ADJUSTMENT)
from shadowipw.experiments import (run_estimation_experiment,
                                   run_search_experiment)

BAD_ALPHAS = [0, 1, 1.5, float("nan"), "0.05", True]
BAD_JOBS = [0, -5, 1.5, "2", True, None]


class TestSearchExperiment:
    def test_oracle_backend_is_perfect(self):
        report = run_search_experiment([300], trials=4, alpha=0.05, seed=1,
                                       oracle=True)
        cell = report.cell(300)
        assert cell.sensitivity == 1.0
        assert cell.specificity == 1.0
        assert cell.tp == cell.tn == 4 and cell.fp == cell.fn == 0

    def test_confusion_identities(self):
        report = run_search_experiment([400], trials=3, alpha=0.05, seed=2)
        cell = report.cell(400)
        assert cell.tp + cell.fn == report.trials_positive
        assert cell.tn + cell.fp == report.trials_negative
        if cell.tp + cell.fn:
            assert cell.sensitivity == cell.tp / (cell.tp + cell.fn)

    def test_parallel_execution_matches_serial(self):
        serial = run_search_experiment([400], trials=4, alpha=0.05, seed=3,
                                       jobs=1, oracle=True)
        parallel = run_search_experiment([400], trials=4, alpha=0.05, seed=3,
                                         jobs=2, oracle=True)
        assert serial == parallel

    def test_positive_and_negative_seeds_disjoint(self):
        report = run_search_experiment([300], trials=5, alpha=0.05, seed=4,
                                       oracle=True)
        pos = {row[2] for row in report.rows if row[1] == "positive"}
        neg = {row[2] for row in report.rows if row[1] == "negative"}
        assert not pos & neg

    def test_rows_csv_shape(self):
        report = run_search_experiment([300], trials=2, alpha=0.05, seed=5,
                                       oracle=True)
        lines = report.rows_csv().strip().splitlines()
        assert lines[0] == "sample_size,kind,trial,scenario,status,correct"
        assert len(lines) == 1 + 4   # 2 positive + 2 negative trials

    def test_negative_trials_mix_both_scenarios(self):
        report = run_search_experiment([200], trials=24, alpha=0.05, seed=6,
                                       oracle=True)
        scenarios = {row[3] for row in report.rows if row[1] == "negative"}
        assert scenarios == {"add_a_to_ry", "hide_w4"}

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_search_experiment([100], trials=0, alpha=0.05)


class TestEstimationExperiment:
    def test_report_structure_and_determinism(self):
        kwargs = dict(sample_sizes=[600], trials=3, alpha=0.05,
                      methods=(METHOD_ORACLE_SEARCH,
                               METHOD_IGNORE_MISSINGNESS),
                      seed=7)
        a = run_estimation_experiment(jobs=1, **kwargs)
        b = run_estimation_experiment(jobs=2, **kwargs)
        assert a == b
        cell = a.cell(600, METHOD_ORACLE_SEARCH)
        assert len(cell.estimates) + cell.n_not_found == 3
        assert np.isfinite(a.ground_truth)

    def test_full_method_records_not_found_trials(self):
        # at n=400 the tests are underpowered, so the search often fails;
        # those trials must show up in the exclusion count, not the medians
        report = run_estimation_experiment([400], trials=4, alpha=0.05,
                                           methods=(METHOD_FULL,), seed=8)
        cell = report.cell(400, METHOD_FULL)
        assert len(cell.estimates) + cell.n_not_found == 4
        blank_rows = [row for row in report.rows if row[3] == ""]
        assert len(blank_rows) == cell.n_not_found

    def test_empty_cell_statistics_are_null(self):
        # at n=30 the search finds no set, so the full cell has no
        # estimates; its statistics are None, which JSON writes as null
        report = run_estimation_experiment([30], 1, 0.05,
                                           methods=(METHOD_FULL,), seed=4)
        cell = report.to_dict()["cells"][0]
        assert cell["n_not_found"] == 1
        assert [cell[k] for k in ("median", "q25", "q75",
                                  "median_abs_error")] == [None] * 4
        json.dumps(report.to_dict(), allow_nan=False)

    def test_oracle_and_wrong_adjustment_summaries(self):
        report = run_estimation_experiment(
            [500], trials=3, alpha=0.05,
            methods=(METHOD_ORACLE_SEARCH, METHOD_WRONG_ADJUSTMENT), seed=9)
        for method in (METHOD_ORACLE_SEARCH, METHOD_WRONG_ADJUSTMENT):
            cell = report.cell(500, method)
            assert cell.n_not_found == 0
            q25, q50, q75 = cell.quantiles()
            assert q25 <= q50 <= q75
            assert cell.median_abs_error(report.ground_truth) >= 0.0

    @pytest.mark.parametrize("methods", [(METHOD_IGNORE_MISSINGNESS,),
                                         (METHOD_FULL,)])
    def test_unknown_h_mode_rejected(self, methods):
        # refused before any trial, also where no trial would solve a
        # response propensity: the baseline never does, and at n=300 seed
        # 0 the search finds no set
        with pytest.raises(ValueError) as raised:
            run_estimation_experiment([300], 1, 0.05, methods=methods,
                                      h_mode="a_median")
        assert str(raised.value) == \
            "h_mode must be one of a_mean, a_row, got a_median"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_estimation_experiment([100], 1, 0.05, methods=("nope",))

    def test_summary_serialization(self):
        report = run_estimation_experiment([500], trials=2, alpha=0.05,
                                           methods=(METHOD_ORACLE_SEARCH,),
                                           seed=10)
        d = report.to_dict()
        assert d["ground_truth"] == report.ground_truth
        assert d["cells"][0]["method"] == METHOD_ORACLE_SEARCH
        lines = report.rows_csv().strip().splitlines()
        assert lines[0] == "sample_size,trial,method,ace"


class TestAlpha:
    """Both experiments refuse a test level outside (0, 1) with the command
    line's message before any trial or truth is drawn."""

    @pytest.mark.parametrize("run", [run_search_experiment,
                                     run_estimation_experiment])
    @pytest.mark.parametrize("alpha", BAD_ALPHAS, ids=repr)
    def test_refused(self, run, alpha):
        with pytest.raises(ValueError) as raised:
            run([100], 1, alpha)
        assert str(raised.value) == f"alpha must lie in (0, 1), got {alpha}"

    def test_numpy_scalar_accepted(self):
        alpha = np.float32(0.05)
        search = run_search_experiment([400], 1, alpha, seed=3, oracle=True)
        assert search.cell(400).tp + search.cell(400).fn == 1
        est = run_estimation_experiment([400], 1, alpha,
                                        methods=(METHOD_ORACLE_SEARCH,))
        assert len(est.cell(400, METHOD_ORACLE_SEARCH).estimates) == 1


class TestDesignInputs:
    """Both experiments refuse a worker count that is not an integer >= 1,
    and a string where a sequence of sample sizes or methods belongs."""

    @pytest.mark.parametrize("run", [run_search_experiment,
                                     run_estimation_experiment])
    @pytest.mark.parametrize("jobs", BAD_JOBS, ids=repr)
    def test_jobs_refused(self, run, jobs):
        with pytest.raises(ValueError) as raised:
            run([200], 1, 0.05, jobs=jobs)
        assert str(raised.value) == \
            f"jobs must be an integer >= 1, got {jobs!r}"

    @pytest.mark.parametrize("run", [run_search_experiment,
                                     run_estimation_experiment])
    @pytest.mark.parametrize("trials", [0, 1.5, 2.0, True, "2", None],
                             ids=repr)
    def test_trials_refused(self, run, trials):
        # a float used to reach range() as a TypeError, and True ran one
        # trial per kind
        with pytest.raises(ValueError) as raised:
            run([200], trials, 0.05)
        assert str(raised.value) == "trials must be >= 1"

    def test_numpy_integer_trials_accepted(self):
        report = run_search_experiment([300], np.int64(1), 0.05, seed=1,
                                       oracle=True)
        assert report.trials_positive == report.cell(300).tp == 1

    def test_numpy_integer_jobs_accepted(self):
        report = run_search_experiment([300], 1, 0.05, seed=1,
                                       jobs=np.int64(1), oracle=True)
        assert report.cell(300).tp == 1

    @pytest.mark.parametrize("methods", [METHOD_FULL, METHOD_ORACLE_SEARCH])
    def test_methods_string_refused(self, methods):
        with pytest.raises(ValueError) as raised:
            run_estimation_experiment([200], 1, 0.05, methods=methods)
        assert str(raised.value) == \
            f"methods must be a sequence, got {methods!r}"

    @pytest.mark.parametrize("run", [run_search_experiment,
                                     run_estimation_experiment])
    def test_sample_sizes_string_refused(self, run):
        with pytest.raises(ValueError) as raised:
            run("123", 1, 0.05)
        assert str(raised.value) == \
            "sample sizes must be a sequence, got '123'"
