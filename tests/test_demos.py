"""Each Python demo runs to completion against the package in ``src/``.

``05_cli_walkthrough.sh`` is left out: it needs the installed ``focusface``
console script.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_autodiff.py", "02_losses.py", "03_data_and_model.py",
         "04_training_and_metrics.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
