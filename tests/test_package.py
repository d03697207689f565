import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shadowipw

SRC = str(Path(shadowipw.__file__).resolve().parent.parent)

# runs a CLI command in this interpreter; each module named in the first
# argument is blocked, so that importing it raises ImportError
RUN_CLI = """
import sys
for name in filter(None, sys.argv[1].split(",")):
    sys.modules[name] = None
from shadowipw.cli import main
main(sys.argv[2:], prog_name="shadowipw")
"""


def python(*args, cwd=None):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_every_exported_name_resolves():
    missing = [name for name in shadowipw.__all__
               if not hasattr(shadowipw, name)]
    assert missing == []
    assert "fit_and_weight" in shadowipw.__all__


def test_acceptance_analysis_script_prints_its_usage():
    # nothing else imports the script, and it reaches into experiments'
    # private names, so a bare run checks that every name it imports exists
    root = Path(__file__).resolve().parents[1]
    result = python("docs/acceptance_analysis.py", cwd=root)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("usage: docs/acceptance_analysis.py "
                                    "{search,estimate-spread,"
                                    "estimate-large-n,search-large-n}")


def test_cli_import_leaves_out_scipy_optimize():
    # the runtime is numpy and click: scipy and networkx are test
    # dependencies only, and importing either costs every start of the
    # program, as would the process pool only `--jobs` above 1 uses
    for module in ("shadowipw", "shadowipw.cli"):
        out = python("-c", f"import sys, {module}; "
                     "print('scipy.optimize' in sys.modules); "
                     "print('concurrent.futures.process' in sys.modules); "
                     "print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] in ('scipy', 'networkx')))")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "False", "[]"], module


def test_cli_runs_without_scipy_and_networkx(tmp_path):
    # simulate, the LRT pipeline and the d-separation oracle each write
    # the same bytes with the test dependencies blocked as without; paths
    # are relative because the pipeline report records its input's
    commands = [
        ["simulate", "--n", "3000", "--seed", "5", "--out", "data.csv"],
        ["pipeline", "data.csv", "--treatment", "A", "--outcome", "Y",
         "--response", "R", "--incentive", "I", "--covariates",
         "W1,W2,W3,W4", "--out", "report.json"],
        ["experiment", "search", "--n-grid", "400", "--trials", "2",
         "--seed", "3", "--jobs", "1", "--oracle", "--out-dir", "oracle"],
    ]
    reports = {}
    for blocked in ("", "scipy,networkx"):
        out = tmp_path / (blocked.replace(",", "-") or "all")
        out.mkdir()
        for command in commands:
            run = python("-c", RUN_CLI, blocked, *command, cwd=out)
            assert run.returncode == 0, (blocked, command, run.stderr)
        reports[blocked] = {path.relative_to(out): path.read_bytes()
                            for path in sorted(out.rglob("*"))
                            if path.is_file()}
    assert len(reports[""]) == 5
    assert reports["scipy,networkx"] == reports[""]


@pytest.fixture
def workloads(monkeypatch):
    # perfbench/workloads.py, imported as the benchmark imports it
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # read only
    try:
        yield importlib.import_module("workloads")
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)


def test_benchmark_bindings_resolve(workloads):
    # perfbench/ wraps or reads these names of the package at run time; a
    # rename breaks the benchmark, not the package's own tests. The names
    # are listed in ROADMAP.md ("Names the benchmark binds").
    unbound = [name for owner, attr, name in workloads.SITES
               if not callable(getattr(owner, attr, None))]
    assert unbound == []
    from shadowipw import citest, data, estimate, shadow, simulate
    assert shadow.H_MODE_A_MEAN in shadow.H_MODES
    assert "used_fallback" in {f.name for f in
                               dataclasses.fields(shadow.ShadowPropensityModel)}
    assert list(inspect.signature(shadow.solve_propensity).parameters)[:3] \
        == ["ds", "Z", "h_mode"]
    assert list(inspect.signature(data.write_csv).parameters)[:2] == \
        ["ds", "path"]
    for fn in (citest.subset_observed, estimate.subset_observed,
               data.RoleMap.from_dict, simulate.roles_for):
        assert callable(fn)


def test_estimation_experiment_reads_the_warmed_truth():
    # estimate-mc's set-up caches true_ace(default_config(), 1_000_000);
    # an experiment that read the truth under another key would redraw
    # the 10^6 rows in every operation
    from shadowipw.experiments import run_estimation_experiment
    from shadowipw.simulate import default_config, true_ace
    true_ace.cache_clear()
    true_ace(default_config(), 1_000_000)
    run_estimation_experiment([300], 1, 0.05,
                              methods=("ignore_missingness",))
    assert true_ace.cache_info().misses == 1


@pytest.mark.parametrize("Z, h_mode", [
    (("W2", "W3", "W4"), "a_mean"), (("W2", "W3", "W4"), "a_row"),
    (("W2", "W3"), "a_mean")])
def test_benchmark_estimate_check_passes(workloads, Z, h_mode):
    # estimate-mc counts an operation as failed when this check reports a
    # problem, so a solver change that breaks it fails here first
    from shadowipw import estimate
    from shadowipw.simulate import default_config, generate
    ds = generate(default_config(n=10_000, seed=3))
    model, treat, est = estimate.fit_and_weight(ds, Z, h_mode)
    problems = workloads.check_estimate(
        ds.column, ds.roles, Z, workloads._model_dict(model), h_mode,
        treat.coefficients, estimate.DEFAULT_CLIP, est.ace)
    assert problems == []
