"""The benchmark's workloads: inputs made from the seed, one operation at a
time, and a check of every operation's outputs against ``reference``.

Each workload runs rounds of operations. ``search-mc`` and ``estimate-mc``
run one Monte Carlo trial set per round, on fresh seeds; ``pipeline-csv``
runs the CLI once on each of its files per round, on the same files every
round, so that each report can be compared with the first one.
"""

from __future__ import annotations

import csv
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
from shadowipw import (citest, cli, data, estimate, experiments, graphs,
                       search, shadow, simulate)

ALPHA = 0.05
CORRECT_SET = ("W2", "W3", "W4")
TRIAL_STRIDE = 10_000_000     # trial seeds of two run seeds never meet
N_ORACLE = 1_000_000          # experiments.run_estimation_experiment default
OP_TIMEOUT_S = 60
EQUATION_TOL = 1e-7           # the solver stops below 1e-8
ACE_TOL = 1e-9
TRUTH_TOL = 0.003             # 6 standard errors of a 10^6-row mean

# every site a traced run wraps: (module or class, attribute, span name)
SITES = (
    (experiments, "run_search_experiment",
     "experiments.run_search_experiment"),
    (experiments, "run_estimation_experiment",
     "experiments.run_estimation_experiment"),
    (experiments, "generate", "simulate.generate"),
    (experiments, "find_adjustment_set", "search.find_adjustment_set"),
    (cli, "main", "cli.pipeline"),
    (cli, "load_csv", "data.load_csv"),
    (cli, "find_adjustment_set", "search.find_adjustment_set"),
    (search.LrtTester, "c2", "search.LrtTester.c2"),
    (citest, "test_c1", "citest.c1"),
    (citest, "test_c2", "citest.c2"),
    (citest, "test_c3", "citest.c3"),
    (citest, "test_c4", "citest.c4"),
    (citest, "subset_observed", "data.subset_observed"),
    (estimate, "subset_observed", "data.subset_observed"),
    (citest, "fit_glm", "glm.fit_glm"),
    (estimate, "fit_glm", "glm.fit_glm"),
    (citest, "likelihood_ratio_test", "glm.likelihood_ratio_test"),
    (graphs.Dag, "d_separated", "graphs.d_separated"),
    (shadow, "solve_propensity", "shadow.solve_propensity"),
    (estimate, "fit_treatment_propensity",
     "estimate.fit_treatment_propensity"),
    (estimate, "ipw_ace", "estimate.ipw_ace"),
    (estimate, "baseline_ignore_missingness",
     "estimate.baseline_ignore_missingness"),
    (estimate, "baseline_wrong_adjustment",
     "estimate.baseline_wrong_adjustment"),
)


@dataclass
class Check:
    """What one operation's outputs showed."""
    problems: list[str]
    verdicts: list[bool]          # search verdicts that match the scenario
    ace_errors: list[float]       # |ACE - truth| of the paper's estimator


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object, list], Check]


def check_search(column, roles, found: dict, alpha: float) -> list[str]:
    """Recompute the LRT of C1 and of the candidate the search accepted
    (or, when it found none, of the first candidate up to the condition
    that rejected it), and check each verdict against its requirement."""
    trail = found["trail"]
    records = [trail[0]]
    if found["status"] == search.FOUND:
        records += trail[-3:]
    elif found["status"] == search.NOT_FOUND:
        for rec in trail[1:]:
            records.append(rec)
            if not rec["passed"]:
                break
    problems = []
    for rec in records:
        where = f"{rec['condition']} W={rec['witness']} Z={rec['adjustment']}"
        if rec["result"] is None:
            problems.append(f"{where}: no test result ({rec['error']})")
            continue
        stat, p = reference.lrt(column, roles, rec["condition"],
                                rec["witness"], rec["adjustment"])
        got = rec["result"]["statistic"]
        if abs(stat - got) > 1e-6 + 1e-7 * abs(stat):
            problems.append(f"{where}: LRT statistic {got!r}, "
                            f"reference {stat!r}")
        passed = (p < alpha) == reference.REQUIRES_DEPENDENCE[rec["condition"]]
        if passed != rec["passed"] and abs(p - alpha) > 1e-9:
            problems.append(f"{where}: passed={rec['passed']}, reference "
                            f"p={p!r} at alpha={alpha}")
    if found["status"] == search.FOUND:
        accepted = trail[-3:]
        if (not all(rec["passed"] for rec in accepted)
                or [r["condition"] for r in accepted] != ["C2", "C3", "C4"]
                or any(r["adjustment"] != list(found["adjustment_set"])
                       for r in accepted)
                or accepted[-1]["witness"] != found["witness"]):
            problems.append("found set is not the last certified candidate")
    return problems


def verdict_ok(scenario: str, status: str, adjustment) -> bool:
    if scenario == simulate.SCENARIO_BASE:
        return (status == search.FOUND
                and tuple(sorted(adjustment)) == CORRECT_SET)
    return status != search.FOUND


def _matrix(column, names, n):
    return (np.column_stack([column(z) for z in names]) if names
            else np.empty((n, 0)))


def check_estimate(column, roles, adjustment, model: dict, h_mode: str,
                   treat_coef, clip, ace) -> list[str]:
    """The estimating equations vanish at the returned (beta, gamma), and
    the double-IPW mean recomputed from the two models equals ``ace``."""
    r, a, y = (column(roles.response), column(roles.treatment),
               column(roles.outcome))
    Zm = _matrix(column, adjustment, r.size)
    problems = []
    eq = reference.estimating_equations(r, y, a, Zm, model["beta"],
                                        model["gamma"], model["y_ref"],
                                        h_mode)
    if not np.max(np.abs(eq)) <= EQUATION_TOL:
        problems.append(f"Z={adjustment}: estimating equations "
                        f"{eq.tolist()} at the returned parameters")
    ref = reference.double_ipw_ace(r, a, y, Zm, model["beta"], model["gamma"],
                                   model["y_ref"], treat_coef, clip)
    if not abs(ref - ace) <= ACE_TOL:
        problems.append(f"Z={adjustment}: ACE {ace!r}, reference {ref!r}")
    return problems


def _model_dict(model):
    return {"beta": model.beta, "gamma": model.gamma, "y_ref": model.y_ref}


class MonteCarlo:
    """One experiment call per operation, on trial seeds taken from the run
    seed, so that every round runs on new data."""
    min_rounds = 8
    kernel_parts = (0,)           # NumPy: most of a trial is array work

    def round_ops(self, state, r):
        trial_seed = state["seed"] * TRIAL_STRIDE + r
        return [Op(lambda: self.experiment(trial_seed),
                   lambda report, captured: self.check(state, report,
                                                       captured))]

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SearchMC(MonteCarlo):
    """One positive and one negative search trial per operation, n=10^4,
    through experiments.run_search_experiment with the LRT backend."""
    name = "search-mc"
    capture = {"search.find_adjustment_set"}

    def setup(self, seed, run_dir):
        return {"seed": seed}, {}, []

    def experiment(self, trial_seed):
        return experiments.run_search_experiment([10_000], 1, ALPHA,
                                                 seed=trial_seed, jobs=1)

    def check(self, state, report, captured):
        searches = [(args[0], result) for name, args, _, result in captured
                    if name == "search.find_adjustment_set"]
        problems, verdicts = [], []
        if len(searches) != len(report.rows):
            problems.append(f"{len(searches)} searches for "
                            f"{len(report.rows)} trials")
        for row, (ds, outcome) in zip(report.rows, searches):
            _, _, _, scenario, status, correct = row
            if status != outcome.status:
                problems.append(f"row status {status}, search {outcome.status}")
            problems += check_search(ds.column, ds.roles, outcome.to_dict(),
                                     ALPHA)
            ok = verdict_ok(scenario, outcome.status, outcome.adjustment_set)
            if ok != correct:
                problems.append(f"row says correct={correct} for a "
                                f"{scenario} trial that returned "
                                f"{outcome.adjustment_set}")
            verdicts.append(ok)
        return Check(problems, verdicts, [])


class EstimateMC(MonteCarlo):
    """One estimation trial per operation, n=10^5, with the d-separation
    oracle's set, the complete-case and the wrong-set baselines."""
    name = "estimate-mc"
    methods = (estimate.METHOD_ORACLE_SEARCH,
               estimate.METHOD_IGNORE_MISSINGNESS,
               estimate.METHOD_WRONG_ADJUSTMENT)
    capture = {"search.find_adjustment_set", "shadow.solve_propensity",
               "estimate.ipw_ace"}

    def setup(self, seed, run_dir):
        config = simulate.default_config()
        simulate.true_ace.cache_clear()
        start = time.perf_counter()
        # warms the cache run_estimation_experiment reads, under its key
        program_truth = simulate.true_ace(config, N_ORACLE)
        true_ace_s = time.perf_counter() - start
        truth = reference.true_ace_quadrature(config)
        problems = []
        if not abs(program_truth - truth) <= TRUTH_TOL:
            problems.append(f"true_ace {program_truth!r}, quadrature {truth!r}")
        return ({"seed": seed, "truth": truth},
                {"simulate.true_ace.s": true_ace_s}, problems)

    def experiment(self, trial_seed):
        return experiments.run_estimation_experiment(
            [100_000], 1, ALPHA, methods=self.methods, seed=trial_seed,
            jobs=1)

    def check(self, state, report, captured):
        problems, verdicts, errors = [], [], []
        rows = {row[2]: row[3] for row in report.rows}
        h_modes = {}
        for name, args, kwargs, result in captured:
            if name == "search.find_adjustment_set":
                verdicts.append(verdict_ok(simulate.SCENARIO_BASE,
                                           result.status,
                                           result.adjustment_set))
            elif name == "shadow.solve_propensity":
                h_modes[id(result)] = (args[2] if len(args) > 2 else
                                       kwargs.get("h_mode",
                                                  shadow.H_MODE_A_MEAN))
            elif name == "estimate.ipw_ace":
                ds, Z, model, treat = args[:4]
                clip = args[4] if len(args) > 4 else kwargs.get(
                    "clip_bounds", estimate.DEFAULT_CLIP)
                problems += check_estimate(
                    ds.column, ds.roles, Z, _model_dict(model),
                    h_modes[id(model)], treat.coefficients, clip, result.ace)
                if result.method == estimate.METHOD_ORACLE_SEARCH:
                    if rows.get(result.method) != repr(result.ace):
                        problems.append("experiment row differs from ipw_ace")
                    errors.append(abs(result.ace - state["truth"]))
        return Check(problems, verdicts, errors)


class PipelineCSV:
    """`python -m shadowipw.cli pipeline` on CSV files written at set-up:
    six base files and one without W4 at 10^4 rows, one without W4 at
    10^5 rows. Without W4 no adjustment set exists (exit code 4)."""
    name = "pipeline-csv"
    files = tuple((f"b{k}", simulate.SCENARIO_BASE, 10_000)
                  for k in range(1, 7)) + (
        ("h1", simulate.SCENARIO_HIDE_W4, 10_000),
        ("h2", simulate.SCENARIO_HIDE_W4, 100_000))
    min_rounds = 2
    kernel_parts = (0, 1)         # NumPy and Python: start-up and parsing
    capture = set()
    in_process = False            # traced runs call cli.main in-process

    def setup(self, seed, run_dir):
        state = {"seed": seed, "truth": reference.true_ace_quadrature(
            simulate.default_config()), "files": [], "first": {}}
        write_s = 0.0
        for k, (label, scenario, n) in enumerate(self.files):
            config = simulate.default_config(
                n=n, seed=seed * TRIAL_STRIDE + k, scenario=scenario)
            ds = simulate.generate(config)
            path = run_dir / f"{label}.csv"
            start = time.perf_counter()
            data.write_csv(ds, path)
            write_s += time.perf_counter() - start
            roles = run_dir / f"{label}.roles.json"
            roles.write_text(json.dumps(simulate.roles_for(config).to_dict()))
            state["files"].append((label, scenario, path, roles))
        return state, {"data.write_csv.s": write_s}, []

    def round_ops(self, state, r):
        return [Op(lambda f=f: self.invoke(f, r),
                   lambda out, _, f=f: self.check(state, f, out))
                for f in state["files"]]

    def invoke(self, f, r):
        label, _, path, roles = f
        args = ["pipeline", str(path), "--config", str(roles)]
        if self.in_process:
            out = path.with_name(f"{label}.report.{r}.json")
            try:
                cli.main(args + ["--out", str(out)], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
            report = out.read_bytes()
            out.unlink()
            return code, report
        proc = subprocess.Popen([sys.executable, "-m", "shadowipw.cli", *args],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            report, err = proc.communicate(timeout=OP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode not in (cli.EXIT_OK, cli.EXIT_NOT_FOUND):
            raise RuntimeError(f"exit code {proc.returncode}: "
                               f"{err.decode(errors='replace')[-500:]}")
        return proc.returncode, report

    def check(self, state, f, out):
        label, scenario, path, _ = f
        code, text = out
        if label in state["first"]:
            first_text, first_check = state["first"][label]
            if text != first_text:
                return Check([f"{label}: report differs from the first run"],
                             [], [])
            return first_check
        report = json.loads(text)
        found = report["search"]
        problems = []
        expected_code = {search.FOUND: cli.EXIT_OK,
                         search.NOT_FOUND: cli.EXIT_NOT_FOUND}.get(
                             found["status"])
        if code != expected_code:
            problems.append(f"{label}: exit code {code} for status "
                            f"{found['status']}")
        roles = data.RoleMap.from_dict(report["config"]["roles"])
        column = read_csv(path, roles)
        problems += [f"{label}: {p}" for p in
                     check_search(column, roles, found,
                                  report["config"]["alpha"])]
        errors = []
        if found["status"] == search.FOUND:
            est = report["estimate"]["ace"]
            problems += [f"{label}: {p}" for p in check_estimate(
                column, roles, found["adjustment_set"],
                report["response_propensity"], report["config"]["h_mode"],
                report["treatment_propensity"]["coefficients"],
                tuple(report["config"]["clip"]), est)]
            if scenario == simulate.SCENARIO_BASE:
                errors.append(abs(est - state["truth"]))
        checked = Check(problems, [verdict_ok(scenario, found["status"],
                                              found["adjustment_set"])],
                        errors)
        state["first"][label] = (text, checked)
        return checked

    def peak_rss_mb(self):
        # the CLI processes, not this one
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def read_csv(path, roles):
    """The file's role columns as float arrays, empty cells as NaN, and the
    response derived from the outcome when the file has none."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: np.array([row[j] or "nan" for row in body], dtype=float)
            for j, name in enumerate(header)}
    if roles.response not in cols:
        cols[roles.response] = (~np.isnan(cols[roles.outcome])).astype(float)
    return cols.__getitem__


WORKLOADS = {w.name: w for w in (SearchMC, EstimateMC, PipelineCSV)}
