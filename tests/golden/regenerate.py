"""Rewrite the golden reports of ``tests/test_golden.py`` whose bytes
changed.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

For each report it rewrites, it prints the largest absolute and relative
difference among the report's numbers and every non-numeric value that
changed. Each use changes test data: say in CHANGES.md which reports
moved and why, with what this prints.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import (CASES, GOLDEN, differences, run_case,  # noqa: E402
                         write_datasets)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def summary(old: str, new: str) -> list[str]:
    """Lines that describe how report ``new`` differs from ``old``: the
    largest absolute and relative difference among the numbers that moved,
    then each other value that changed."""
    numeric, other = [], []
    for path, a, b in differences(json.loads(old), json.loads(new)):
        if _is_number(a) and _is_number(b):
            d = abs(a - b)
            numeric.append((d, d / max(abs(a), abs(b)) if d else 0.0))
        else:
            other.append(f"  {path}: {a!r} -> {b!r}")
    lines = []
    if numeric:
        lines.append(f"  {len(numeric)} numbers moved; largest absolute "
                     f"difference {max(d for d, _ in numeric):.3g}, "
                     f"largest relative {max(r for _, r in numeric):.3g}")
    return lines + other


def main():
    with tempfile.TemporaryDirectory() as tmp:
        write_datasets(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            reports = {case: run_case(case) for case in CASES}
        finally:
            os.chdir(cwd)
    for case, report in reports.items():
        path = GOLDEN / f"{case}.json"
        old = path.read_text() if path.exists() else None
        if old == report:
            print(f"unchanged {path}")
            continue
        path.write_text(report)
        print(f"wrote {path}")
        if old is not None:
            print("\n".join(summary(old, report) or
                            ["  same JSON values, different bytes"]))


if __name__ == "__main__":
    main()
