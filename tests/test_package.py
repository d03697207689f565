import os
import subprocess
import sys
from pathlib import Path

import shadowipw


def test_every_exported_name_resolves():
    missing = [name for name in shadowipw.__all__
               if not hasattr(shadowipw, name)]
    assert missing == []
    assert "fit_and_weight" in shadowipw.__all__


def test_cli_import_leaves_out_scipy_optimize():
    # nothing on a CLI run needs an optimizer; importing one costs every
    # start of the program
    src = str(Path(shadowipw.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, shadowipw.cli; "
         "print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
