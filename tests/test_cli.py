import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from shadowipw import estimate
from shadowipw.cli import (_SETTINGS, EXIT_C1_FAILED, EXIT_NOT_FOUND,
                           EXIT_OK, _estimate_report, main)
from shadowipw.data import RoleMap, load_csv, write_csv
from shadowipw.glm import GlmFit
from shadowipw.shadow import ShadowPropensityModel
from shadowipw.simulate import default_config, generate, roles_for


@pytest.fixture()
def runner():
    return CliRunner()


ROLE_FLAGS = ["--treatment", "A", "--outcome", "Y", "--response", "R",
              "--incentive", "I", "--covariates", "W1,W2,W3,W4"]


def simulate_csv(tmp_path, runner, n=8000, seed=5, scenario="base",
                 name="data.csv"):
    out = tmp_path / name
    result = runner.invoke(main, ["simulate", "--n", str(n), "--seed",
                                  str(seed), "--scenario", scenario,
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def rewrite_column(csv, column, cell):
    """Rewrite csv's column as cell(treated) on each row."""
    raw = csv.read_text().splitlines()
    header = raw[0].split(",")
    a, c = header.index("A"), header.index(column)
    rows = [line.split(",") for line in raw[1:]]
    for row in rows:
        row[c] = cell(row[a] == "1")
    csv.write_text("\n".join([raw[0], *map(",".join, rows)]) + "\n")


def separate_by_treatment(csv, column, value):
    """Rewrite csv's column as +value on treated rows and -value on the
    others, so that it separates the treatment."""
    rewrite_column(csv, column, lambda treated: repr(value if treated
                                                     else -value))


class TestHelpAndVersion:
    def test_help_lists_all_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for sub in ("simulate", "search", "estimate", "pipeline",
                    "experiment"):
            assert sub in result.output

    def test_experiment_group_lists_both(self, runner):
        result = runner.invoke(main, ["experiment", "--help"])
        assert "search" in result.output and "estimate" in result.output

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    def test_unknown_flag_fails_with_usage_hint(self, runner):
        result = runner.invoke(main, ["simulate", "--bogus"])
        assert result.exit_code != 0
        assert "--help" in result.output or "Usage" in result.output


class TestSimulate:
    def test_writes_main_and_oracle_files(self, tmp_path, runner):
        out = simulate_csv(tmp_path, runner, n=500, seed=1)
        assert out.exists()
        assert (tmp_path / "data.oracle.csv").exists()
        ds = load_csv(out, roles_for(default_config()))
        assert ds.n_rows == 500

    def test_seed_env_var_is_honored(self, tmp_path, runner):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        runner.invoke(main, ["simulate", "--n", "50", "--out", str(a)],
                      env={"SHADOWIPW_SEED": "9"})
        runner.invoke(main, ["simulate", "--n", "50", "--seed", "9",
                             "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_non_positive_n_is_a_usage_error(self, tmp_path, runner, n):
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["simulate", "--n", n, "--out",
                                      str(out)])
        assert result.exit_code == 2
        assert "--n" in result.output
        assert list(tmp_path.iterdir()) == []


class TestSearchCommand:
    def test_base_data_found_with_exit_zero(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=10000, seed=5)
        result = runner.invoke(main, ["search", str(csv), *ROLE_FLAGS])
        assert result.exit_code == EXIT_OK, result.output
        report = json.loads(result.output)
        assert report["outcome"]["status"] == "found"
        assert sorted(report["outcome"]["adjustment_set"]) == ["W2", "W3",
                                                               "W4"]

    def test_hidden_covariate_not_found_exit_code(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=5000, seed=8,
                           scenario="hide_w4")
        flags = ROLE_FLAGS.copy()
        flags[flags.index("W1,W2,W3,W4")] = "W1,W2,W3"
        result = runner.invoke(main, ["search", str(csv), *flags])
        assert result.exit_code == EXIT_NOT_FOUND

    def test_noise_incentive_gate_exit_code(self, tmp_path, runner):
        ds = generate(default_config(n=4000, seed=3))
        rng = np.random.default_rng(1)
        cols = {n: ds.column(n) for n in ds.names}
        cols["I"] = rng.normal(size=ds.n_rows)
        from shadowipw.data import Dataset
        noisy = Dataset(cols, ds.roles, ds.oracle_names)
        path = tmp_path / "noisy.csv"
        write_csv(noisy, path)
        result = runner.invoke(main, ["search", str(path), *ROLE_FLAGS])
        assert result.exit_code == EXIT_C1_FAILED

    def test_config_file_roles_with_flag_override(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=10000, seed=5,
                           name="cfgdata.csv")
        config = {"treatment": "A", "outcome": "Y", "response": "R",
                  "incentive": "I", "covariates": ["W1", "W2", "W3", "W4"],
                  "alpha": 0.05}
        cfg_path = tmp_path / "roles.json"
        cfg_path.write_text(json.dumps(config))
        result = runner.invoke(main, ["search", str(csv), "--config",
                                      str(cfg_path)])
        assert result.exit_code == EXIT_OK, result.output
        report = json.loads(result.output)
        assert report["alpha"] == 0.05
        # a flag overrides the config file value
        result2 = runner.invoke(main, ["search", str(csv), "--config",
                                       str(cfg_path), "--alpha", "0.5",
                                       "--max-subset-size", "0"])
        report2 = json.loads(result2.output)
        assert report2["alpha"] == 0.5

    def test_missing_roles_named_in_error(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=200, seed=2, name="r.csv")
        result = runner.invoke(main, ["search", str(csv), "--treatment", "A"])
        assert result.exit_code != 0
        assert "missing role configuration" in result.output
        assert "outcome" in result.output


class TestEstimateCommand:
    def test_reports_estimate_with_explicit_adjustment(self, tmp_path,
                                                       runner):
        csv = simulate_csv(tmp_path, runner, n=6000, seed=6)
        result = runner.invoke(main, ["estimate", str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W2,W3,W4"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["estimate"]["method"] == "full"
        assert report["response_propensity"]["converged"] is True
        assert np.isfinite(report["estimate"]["ace"])

    def test_reports_the_treatment_fit(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=3000, seed=6)
        flags = [*ROLE_FLAGS, "--adjustment", "W2,W3,W4"]
        report = json.loads(runner.invoke(main, ["estimate", str(csv),
                                                 *flags]).output)
        ds = load_csv(csv, RoleMap("A", "Y", "R", "I",
                                   ("W1", "W2", "W3", "W4")))
        treat = estimate.fit_treatment_propensity(ds, ("W2", "W3", "W4"))
        assert report["treatment_propensity"] == {
            "coefficients": treat.coefficients.tolist(),
            "converged": True, "separated": False}
        # a separated treatment fit shows in the report; W2 = +-0.1 so that
        # the coefficients pass SEPARATION_NORM before the score passes TOL
        separate_by_treatment(csv, "W2", 0.1)
        result = runner.invoke(main, ["estimate", str(csv), *flags])
        assert result.exit_code == 0, result.output
        block = json.loads(result.output)["treatment_propensity"]
        assert (block["converged"], block["separated"]) == (False, True)

    @pytest.mark.xfail(strict=True, reason=(
        "glm flags separation by the coefficients' norm alone: with W2 = "
        "+-1 the score falls below TOL first and the fit reports converged "
        "(CHANGES.md's FOUND line on glm.py's separation rule; ROADMAP "
        "item 1)"))
    def test_reports_a_unit_scale_separated_treatment_fit(self, tmp_path,
                                                         runner):
        csv = simulate_csv(tmp_path, runner, n=3000, seed=6)
        separate_by_treatment(csv, "W2", 1.0)
        result = runner.invoke(main, ["estimate", str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W2,W3,W4"])
        assert result.exit_code == 0, result.output
        block = json.loads(result.output)["treatment_propensity"]
        assert (block["converged"], block["separated"]) == (False, True)

    def test_repeated_adjustment_column_exits_1(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=2000, seed=6)
        result = runner.invoke(main, ["estimate", str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W2,W2"])
        assert result.exit_code == 1
        assert "adjustment column 'W2' appears more than once" in \
            result.output


class TestReportWarnings:
    """``estimate`` and ``pipeline`` reports list each fit an estimate
    should not be trusted on."""

    def test_stalled_response_solve(self, tmp_path, runner):
        # the a_row solve on W2, W3 stalls with gamma near -1e14, and the
        # ACE is still a number
        csv = simulate_csv(tmp_path, runner, n=10000, seed=7,
                           scenario="add_a_to_ry")
        result = runner.invoke(main, ["estimate", str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W2,W3",
                                      "--h-mode", "a_row"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["response_propensity"]["used_fallback"] is True
        # 7 accepted steps; the failed eighth attempt is not counted
        assert report["response_propensity"]["iterations"] == 7
        assert np.isfinite(report["estimate"]["ace"])
        [warning] = report["warnings"]
        assert warning.startswith("response propensity: the Newton solve "
                                  "stalled at residual ")

    def test_column_of_zeros(self, tmp_path, runner):
        # the response solve's Jacobian is singular at the start, and the
        # treatment design has a zero column
        csv = simulate_csv(tmp_path, runner, n=2000, seed=6)
        rewrite_column(csv, "W1", lambda treated: "0")
        result = runner.invoke(main, ["estimate", str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W1,W2"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["response_propensity"]["iterations"] == 0
        stalled, rank = report["warnings"]
        assert stalled.startswith("response propensity: the Newton solve "
                                  "stalled at residual ")
        assert rank == "treatment propensity: the design is rank deficient"

    def test_separated_treatment_fit(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=3000, seed=6)
        separate_by_treatment(csv, "W2", 0.1)
        result = runner.invoke(main, ["estimate", str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W2,W3,W4"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["warnings"] == [
            "treatment propensity: the fit is separated"]

    def test_clean_csv_gives_no_warnings(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=10000, seed=5)
        for command in (["pipeline"],
                        ["estimate", "--adjustment", "W2,W3,W4"]):
            result = runner.invoke(main, [command[0], str(csv), *ROLE_FLAGS,
                                          *command[1:]])
            assert result.exit_code == EXIT_OK, result.output
            report = json.loads(result.output)
            assert report["estimate"] is not None
            assert report["warnings"] == [], command[0]

    @pytest.mark.parametrize("solve, fit, want", [
        ({"converged": False, "iterations": 100}, {},
         ["response propensity: the Newton solve did not converge in 100 "
          "iterations"]),
        ({}, {"converged": False, "iterations": 50},
         ["treatment propensity: the fit did not converge in 50 "
          "iterations"]),
        ({}, {"converged": False, "separated": True},
         ["treatment propensity: the fit is separated"]),
        ({}, {"rank_deficient": True},
         ["treatment propensity: the design is rank deficient"]),
    ])
    def test_each_warning(self, solve, fit, want):
        model = replace(ShadowPropensityModel.trivial(("W2",)), **solve)
        treat = replace(GlmFit(np.zeros(2), -1.0, True, 3, 10), **fit)
        est = estimate.AceEstimate(0.5, 0.25, 0.25, 10, 10, 0.0, "full")
        assert _estimate_report(model, treat, est)["warnings"] == want


class TestPipelineCommand:
    def test_success_path_produces_full_report(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=10000, seed=5,
                           name="pipe.csv")
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["pipeline", str(csv), *ROLE_FLAGS,
                                      "--out", str(out)])
        assert result.exit_code == EXIT_OK, result.output
        report = json.loads(out.read_text())
        assert report["search"]["status"] == "found"
        assert report["estimate"] is not None
        assert report["config"]["alpha"] == 0.05
        assert report["config"]["roles"]["treatment"] == "A"
        # pipeline draws nothing at random, so its report names no seed
        assert "seed" not in report["config"]

    def test_seed_is_a_usage_error(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=200, seed=1, name="t.csv")
        result = runner.invoke(main, ["pipeline", str(csv), *ROLE_FLAGS,
                                      "--seed", "1"])
        assert result.exit_code == 2
        assert "--seed" in result.output

    def test_not_found_terminates_without_estimate(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=5000, seed=8,
                           scenario="hide_w4", name="neg.csv")
        flags = ROLE_FLAGS.copy()
        flags[flags.index("W1,W2,W3,W4")] = "W1,W2,W3"
        out = tmp_path / "neg.json"
        result = runner.invoke(main, ["pipeline", str(csv), *flags,
                                      "--out", str(out)])
        assert result.exit_code == EXIT_NOT_FOUND
        report = json.loads(out.read_text())
        assert report["estimate"] is None

    def test_bad_alpha_is_a_config_error(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=200, seed=1, name="t.csv")
        result = runner.invoke(main, ["pipeline", str(csv), *ROLE_FLAGS,
                                      "--alpha", "1.5"])
        assert result.exit_code not in (EXIT_OK, EXIT_NOT_FOUND,
                                        EXIT_C1_FAILED)
        assert "alpha" in result.output

    def test_byte_identical_reports_for_same_config(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=4000, seed=7, name="d.csv")
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            runner.invoke(main, ["pipeline", str(csv), *ROLE_FLAGS,
                                 "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExperimentCommands:
    def test_search_experiment_jobs_invariance(self, tmp_path, runner):
        payloads = []
        for jobs, name in (("1", "j1"), ("2", "j2")):
            out_dir = tmp_path / name
            result = runner.invoke(main, ["experiment", "search", "--n-grid",
                                          "400", "--trials", "3", "--seed",
                                          "3", "--jobs", jobs, "--oracle",
                                          "--out-dir", str(out_dir)])
            assert result.exit_code == 0, result.output
            payloads.append((
                (out_dir / "search_summary.json").read_bytes(),
                (out_dir / "search_trials.csv").read_bytes()))
        assert payloads[0] == payloads[1]

    def test_estimate_experiment_writes_summary(self, tmp_path, runner):
        out_dir = tmp_path / "est"
        result = runner.invoke(main, [
            "experiment", "estimate", "--n-grid", "500", "--trials", "2",
            "--methods", "oracle_search", "--seed", "4", "--jobs", "1",
            "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        summary = json.loads((out_dir / "estimate_summary.json").read_text())
        assert summary["cells"][0]["method"] == "oracle_search"
        assert (out_dir / "estimate_trials.csv").exists()


class TestLibraryErrors:
    """An input, fit or solve error the library raises ends any command
    with its message and exit code 1, not a traceback."""

    @pytest.mark.parametrize("command,args,message", [
        ("search", ["--covariates", "W1,W2,W3,W9"],
         "column 'W9' not found"),
        ("estimate", ["--adjustment", "W2,W9"],
         "adjustment column 'W9' is not a covariate"),
        ("pipeline", ["--covariates", "W1,W2,W3,W9"],
         "column 'W9' not found"),
    ])
    def test_bad_input_exits_one_with_message(self, tmp_path, runner,
                                              command, args, message):
        csv = simulate_csv(tmp_path, runner, n=200, seed=1, name="t.csv")
        out = tmp_path / "report.json"
        result = runner.invoke(main, [command, str(csv), *ROLE_FLAGS, *args,
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_non_utf8_file_is_named_with_the_byte_offset(self, tmp_path,
                                                         runner):
        csv = simulate_csv(tmp_path, runner, n=2000, seed=1, name="t.csv")
        raw = csv.read_bytes()
        offset = raw.rindex(b"\n", 0, len(raw) - 1) + 1   # last row's start
        csv.write_bytes(raw[:offset] + b"\xe9" + raw[offset + 1:])
        result = runner.invoke(main, ["pipeline", str(csv), *ROLE_FLAGS])
        assert result.exit_code == 1
        assert (f"Error: {csv} is not UTF-8: byte 0xe9 at offset {offset} "
                "cannot be decoded") in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("case,message", [
        ("search_out", "No such file or directory"),
        ("search_directory", "Is a directory"),
        ("simulate_out", "No such file or directory"),
        ("experiment_out_dir", "File exists"),
    ])
    def test_file_error_exits_one_with_message(self, tmp_path, runner, case,
                                               message):
        # an OSError from reading or writing a file ends the command at the
        # same boundary as the library's errors
        csv = simulate_csv(tmp_path, runner, n=200, seed=1, name="t.csv")
        missing = tmp_path / "missing" / "dir"
        args = {
            "search_out": ["search", str(csv), *ROLE_FLAGS,
                           "--out", str(missing / "r.json")],
            "search_directory": ["search", str(tmp_path), *ROLE_FLAGS],
            "simulate_out": ["simulate", "--n", "200",
                             "--out", str(missing / "x.csv")],
            "experiment_out_dir": ["experiment", "search", "--n-grid", "200",
                                   "--trials", "1", "--jobs", "1",
                                   "--out-dir", str(csv)],
        }[case]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: [Errno" in result.output and message in result.output
        assert "Traceback" not in result.output
        assert not missing.parent.exists()

    @pytest.mark.parametrize("command", ["estimate", "pipeline"])
    def test_infinite_cell_exits_one_naming_the_column(self, tmp_path,
                                                       runner, command):
        csv = simulate_csv(tmp_path, runner, n=500, seed=1, name="t.csv")
        lines = csv.read_text().splitlines()
        w4 = lines[0].split(",").index("W4")
        row = lines[3].split(",")
        row[w4] = "inf"
        lines[3] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, [command, str(csv), *ROLE_FLAGS,
                                      "--adjustment", "W2,W3,W4"]
                               if command == "estimate" else
                               [command, str(csv), *ROLE_FLAGS])
        assert result.exit_code == 1
        assert ("Error: column 'W4' holds inf at row 2; only finite numbers "
                "are allowed") in result.output


class TestArgumentChecks:
    """Every command rejects a test level outside (0, 1), clip bounds
    outside 0 < lo < hi < 1, a negative or fractional subset size and an
    unknown h mode before doing any work, and a trial count below 1, an
    empty grid or method list, a size below 1 or a repeated size or method
    ends in an error message rather than a traceback."""

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    def test_dataset_commands_reject_alpha(self, tmp_path, runner, command,
                                           alpha):
        csv = simulate_csv(tmp_path, runner, n=200, seed=1, name="t.csv")
        result = runner.invoke(main, [command, str(csv), *ROLE_FLAGS,
                                      "--alpha", alpha])
        assert result.exit_code == 1
        assert "alpha must lie in (0, 1)" in result.output

    def test_config_file_alpha_must_be_a_number(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=200, seed=1, name="t.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": "0.05"}))
        result = runner.invoke(main, ["search", str(csv), *ROLE_FLAGS,
                                      "--config", str(config)])
        assert result.exit_code == 1
        assert "alpha must lie in (0, 1)" in result.output

    @pytest.mark.parametrize("experiment", ["search", "estimate"])
    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_experiments_reject_alpha(self, tmp_path, runner, experiment,
                                      alpha):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "experiment", experiment, "--n-grid", "200", "--trials", "1",
            "--jobs", "1", "--alpha", alpha, "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert "alpha must lie in (0, 1)" in result.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("experiment", ["search", "estimate"])
    def test_experiments_reject_zero_trials(self, tmp_path, runner,
                                            experiment):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "experiment", experiment, "--n-grid", "200", "--trials", "0",
            "--jobs", "1", "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "trials must be >= 1" in result.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("experiment,args,message", [
        ("search", ["--n-grid", ","], "no sample sizes given"),
        ("estimate", ["--n-grid", ","], "no sample sizes given"),
        ("search", ["--n-grid", "200,0"], "sample sizes must be >= 1"),
        ("estimate", ["--n-grid", "-5"], "sample sizes must be >= 1"),
        ("search", ["--n-grid", "200,200"], "sample sizes must be distinct"),
        ("estimate", ["--n-grid", "200,300,200"],
         "sample sizes must be distinct"),
        ("estimate", ["--n-grid", "200", "--methods",
                      "oracle_search,oracle_search"],
         "methods must be distinct"),
        ("estimate", ["--n-grid", "200", "--methods", ","],
         "no methods given"),
    ])
    def test_experiments_reject_degenerate_design(self, tmp_path, runner,
                                                  experiment, args, message):
        out_dir = tmp_path / "out"
        result = runner.invoke(main, [
            "experiment", experiment, *args, "--trials", "1", "--jobs", "1",
            "--out-dir", str(out_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not out_dir.exists()

    # the file below lacks every role column, so a setting that is checked
    # before the data are read is the only error these commands can report
    @pytest.mark.parametrize("command,args,message", [
        ("pipeline", ["--clip-lo", "0.9", "--clip-hi", "0.1"], "clip bounds"),
        ("estimate", ["--clip-lo", "0"], "clip bounds"),
        ("estimate", ["--clip-hi", "1"], "clip bounds"),
        ("search", ["--max-subset-size", "-1"], "max_subset_size"),
        ("pipeline", ["--max-subset-size", "-1"], "max_subset_size"),
    ])
    def test_settings_checked_before_data_are_read(self, tmp_path, runner,
                                                   command, args, message):
        csv = tmp_path / "t.csv"
        csv.write_text("x\n1\n")
        out = tmp_path / "report.json"
        if command == "estimate":
            args = [*args, "--adjustment", "W2,W3"]
        result = runner.invoke(main, [command, str(csv), *ROLE_FLAGS, *args,
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command,setting,key", [
        ("search", {"alpha": 0.05, "alhpa": 0.5}, "'alhpa'"),
        ("pipeline", {"max_subset_szie": 0}, "'max_subset_szie'"),
        ("estimate", {"h_mode": "a_row", "seed": 3}, "'seed'"),
        ("pipeline", {"seed": 3}, "'seed'"),
    ])
    def test_config_file_unknown_key_named(self, tmp_path, runner, command,
                                           setting, key):
        csv = simulate_csv(tmp_path, runner, n=2000, seed=1, name="t.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        out = tmp_path / "report.json"
        extra = ["--adjustment", "W2,W3"] if command == "estimate" else []
        result = runner.invoke(main, [command, str(csv), *ROLE_FLAGS, *extra,
                                      "--config", str(config),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert f"unknown key {key}" in result.output
        assert not out.exists()

    def test_roles_only_config_file_runs_the_pipeline(self, tmp_path, runner):
        csv = simulate_csv(tmp_path, runner, n=2000, seed=1, name="t.csv")
        config = tmp_path / "roles.json"
        config.write_text(json.dumps(roles_for(default_config()).to_dict()))
        result = runner.invoke(main, ["pipeline", str(csv), "--config",
                                      str(config)])
        assert result.exit_code in (EXIT_OK, EXIT_NOT_FOUND), result.output
        assert json.loads(result.output)["config"]["alpha"] == 0.05

    @pytest.mark.parametrize("command,setting,message", [
        ("estimate", {"clip_lo": "0.01"}, "clip bounds"),
        ("pipeline", {"clip_hi": 0.005}, "clip bounds"),
        ("search", {"max_subset_size": 1.5}, "max_subset_size"),
        ("pipeline", {"max_subset_size": True}, "max_subset_size"),
        ("estimate", {"h_mode": "a_median"}, "h_mode"),
        ("pipeline", {"h_mode": "a_median"}, "h_mode"),
    ])
    def test_config_file_settings_checked(self, tmp_path, runner, command,
                                          setting, message):
        csv = tmp_path / "t.csv"
        csv.write_text("x\n1\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(setting))
        extra = ["--adjustment", "W2,W3"] if command == "estimate" else []
        result = runner.invoke(main, [command, str(csv), *ROLE_FLAGS, *extra,
                                      "--config", str(config)])
        assert result.exit_code == 1
        assert message in result.output


def test_settings_table_lists_every_setting_option():
    # a setting option that the table lacks could not come from a config
    # file, and a config key that no option has could never be set
    options = set()
    for command in ("search", "estimate", "pipeline"):
        options |= {p.name for p in main.commands[command].params}
    assert options - {"data", "config_path", "adjustment", "out"} == \
        set(_SETTINGS)


class TestSettingSources:
    """A setting gives the same report whichever way it arrives, and a flag
    overrides the config file."""

    ROLES = {"treatment": "A", "outcome": "Y", "response": "R",
             "incentive": "I"}

    @pytest.mark.parametrize("command", [
        ["search"], ["estimate", "--adjustment", "W2,W3,W4"], ["pipeline"]])
    def test_covariates_from_list_string_or_flag(self, tmp_path, runner,
                                                 command):
        csv = simulate_csv(tmp_path, runner, n=2000, seed=1, name="t.csv")
        config = tmp_path / "config.json"
        outputs = []
        for covariates in (["W1", "W2", "W3", "W4"], " W1, W2 ,W3,W4 ",
                           None):
            flags = ["--covariates", "W1,W2,W3,W4"] if covariates is None \
                else []
            config.write_text(json.dumps(
                self.ROLES if covariates is None
                else {**self.ROLES, "covariates": covariates}))
            result = runner.invoke(main, [command[0], str(csv), *command[1:],
                                          "--config", str(config), *flags])
            assert result.exit_code in (EXIT_OK, EXIT_NOT_FOUND), \
                result.output
            outputs.append(result.output)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("key, config_value, flag_value", [
        ("alpha", 0.2, "0.1"), ("max_subset_size", 3, "1"),
        ("h_mode", "a_mean", "a_row"), ("clip_lo", 0.02, "0.05"),
        ("clip_hi", 0.98, "0.95")])
    def test_flag_overrides_config(self, tmp_path, runner, key,
                                   config_value, flag_value):
        csv = simulate_csv(tmp_path, runner, n=2000, seed=1, name="t.csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {**roles_for(default_config()).to_dict(), key: config_value}))
        flag = ["--" + key.replace("_", "-"), flag_value]
        results = [runner.invoke(main, ["pipeline", str(csv), *args])
                   for args in (["--config", str(config), *flag],
                                [*ROLE_FLAGS, *flag],
                                ["--config", str(config)])]
        assert {r.exit_code for r in results} <= {EXIT_OK, EXIT_NOT_FOUND}
        overridden, flag_only, config_only = (r.output for r in results)
        assert overridden == flag_only != config_only
