"""Rewrite the golden reports of ``tests/test_golden.py``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Each use changes test data: say in CHANGES.md which reports moved and why.
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import CASES, GOLDEN, run_case, write_datasets  # noqa: E402


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
        (GOLDEN / f"{case}.json").write_text(report)
        print(f"wrote {GOLDEN / f'{case}.json'}")


if __name__ == "__main__":
    main()
