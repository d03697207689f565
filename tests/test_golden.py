"""Golden reports: the CLI's JSON reports on fixed simulated datasets.

Each case runs one CLI command in-process on a CSV that the test draws with
``generate`` and writes under a temporary directory, and compares the
report with ``tests/golden/<case>.json`` byte for byte. The data path is
passed relative to that directory, so the report's ``data`` field does not
depend on where the test runs. A refactor that changes no output passes
unedited; a mismatch names the report keys that differ and the largest
relative difference among their floats, so a last-bit move shows apart
from a verdict change.

The bytes depend on NumPy and on the BLAS kernel, since a GEMM's summation
order can differ between builds and CPUs, but not on the BLAS thread count:
the one sum whose bits moved with it, the response solve's sum over the
non-respondents, calls no BLAS, and a test below runs one report on one
BLAS thread and on two. The files were made with NumPy
2.4.6 and its bundled scipy-openblas 0.3.31 (DYNAMIC_ARCH, x86-64 with
AVX-512), Python 3.11. To rewrite them on purpose, run

    PYTHONPATH=src python tests/golden/regenerate.py

and say in CHANGES.md which reports moved and why.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import shadowipw
from shadowipw.cli import EXIT_C1_FAILED, EXIT_NOT_FOUND, EXIT_OK, main
from shadowipw.data import write_csv
from shadowipw.simulate import default_config, generate, roles_for

GOLDEN = Path(__file__).parent / "golden"

# the datasets: file name -> (scenario, n, seed)
DATASETS = {
    "base.csv": ("base", 10_000, 1),
    "add_a_to_ry.csv": ("add_a_to_ry", 10_000, 1),
    "hide_w4.csv": ("hide_w4", 10_000, 1),
    "hide_w4_large.csv": ("hide_w4", 100_000, 7),
    "base_large.csv": ("base", 100_000, 7),
}

# the reports: case name -> (command, data file, extra arguments)
CASES = {
    **{f"{command}_{stem}": (command, f"{stem}.csv", ())
       for command in ("search", "pipeline")
       for stem in ("base", "add_a_to_ry", "hide_w4")},
    "estimate_base": ("estimate", "base.csv", ("--adjustment", "W2,W3,W4")),
    "estimate_base_a_row": ("estimate", "base.csv",
                            ("--h-mode", "a_row", "--adjustment", "W2,W3")),
    "pipeline_hide_w4_large": ("pipeline", "hide_w4_large.csv", ()),
    "estimate_base_large": ("estimate", "base_large.csv",
                            ("--adjustment", "W2,W3,W4")),
}


def write_datasets(directory: Path) -> None:
    for name, (scenario, n, seed) in DATASETS.items():
        config = default_config(n=n, seed=seed, scenario=scenario)
        write_csv(generate(config), directory / name)


def case_args(case: str) -> list[str]:
    """The command line of ``case``, after the program's name."""
    command, data, extra = CASES[case]
    roles = roles_for(default_config(scenario=DATASETS[data][0]))
    flags = ["--treatment", roles.treatment, "--outcome", roles.outcome,
             "--response", roles.response, "--incentive", roles.incentive,
             "--covariates", ",".join(roles.covariates)]
    return [command, data, *flags, *extra]


def run_case(case: str) -> str:
    """The report of ``case``, run in the current directory, which holds
    the datasets."""
    result = CliRunner().invoke(main, case_args(case))
    assert result.exit_code in (EXIT_OK, EXIT_C1_FAILED, EXIT_NOT_FOUND), \
        result.output
    return result.stdout


ABSENT = "<absent>"


def differences(old, new, path="report"):
    """(path, old, new) for each value of two JSON documents that differs;
    a key on one side only is paired with ``ABSENT``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from differences(old.get(key, ABSENT),
                                   new.get(key, ABSENT), f"{path}.{key}")
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def mismatch_message(case: str, expected: str, actual: str) -> str:
    diffs = list(differences(json.loads(expected), json.loads(actual)))
    if not diffs:
        return f"{case}: same JSON values, different bytes"
    floats = [abs(a - b) / max(abs(a), abs(b)) for _, a, b in diffs
              if isinstance(a, float) and isinstance(b, float)
              and math.isfinite(a) and math.isfinite(b)]
    largest = f"{max(floats):.3g}" if floats else "none (no float pairs)"
    shown = "\n  ".join(f"{p}: {a!r} -> {b!r}" for p, a, b in diffs[:20])
    more = f"\n  ... and {len(diffs) - 20} more" if len(diffs) > 20 else ""
    return (f"{case}: {len(diffs)} values differ; largest relative float "
            f"difference {largest}\n  {shown}{more}")


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_datasets(directory)
    return directory


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, data_dir, monkeypatch):
    monkeypatch.chdir(data_dir)
    actual = run_case(case)
    expected = (GOLDEN / f"{case}.json").read_text()
    assert actual == expected, mismatch_message(case, expected, actual)


def test_report_does_not_depend_on_blas_thread_count(data_dir):
    # OpenBLAS splits a product of more than 10^4 elements across its
    # threads, which changes its rounding; a 10^5-row estimate, run in a
    # fresh process with one BLAS thread and then two, gives the same bytes
    case = "estimate_base_large"
    path = os.pathsep.join([str(Path(shadowipw.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            threads)}
        done = subprocess.run(
            [sys.executable, "-m", "shadowipw.cli", *case_args(case)],
            cwd=data_dir, env=env, capture_output=True, text=True,
            timeout=300)
        assert done.returncode == EXIT_OK, done.stderr
        reports.append(done.stdout)
    assert reports[0] == reports[1], \
        mismatch_message(case, reports[0], reports[1])


def test_mismatch_message_names_keys_and_largest_difference():
    old = json.dumps({"a": 1.0, "b": [1, 2.0], "c": "x"})
    new = json.dumps({"a": 1.0 + 1e-15, "b": [1, 3.0], "d": "x"})
    message = mismatch_message("case", old, new)
    assert "4 values differ" in message
    for path in ("report.a", "report.b[1]", "report.c", "report.d"):
        assert path in message
    assert "largest relative float difference 0.333" in message


def test_regenerate_summary_gives_largest_differences_and_other_values():
    from golden.regenerate import summary
    old = json.dumps({"a": 1.0, "b": [0, 2.0, True], "c": "x", "e": 4})
    new = json.dumps({"a": 1.5, "b": [0.0, 2.0, False], "d": "x", "e": 3})
    assert summary(old, new) == [
        "  3 numbers moved; largest absolute difference 1, "
        "largest relative 0.333",
        "  report.b[2]: True -> False",
        "  report.c: 'x' -> '<absent>'",
        "  report.d: '<absent>' -> 'x'"]
    assert summary(old, old) == []
