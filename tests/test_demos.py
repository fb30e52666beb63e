"""Each demo runs to completion against the package in ``src/``.

``05_cli_walkthrough.sh`` calls the ``focusface`` command; a shim on
``PATH`` runs ``python -m focusface.cli`` in its place.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_autodiff.py", "02_losses.py", "03_data_and_model.py",
         "04_training_and_metrics.py")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    result = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                            cwd=tmp_path, env=_env(), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_cli_walkthrough_runs(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "focusface"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m focusface.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join((str(bin_dir), env.get("PATH", "")))
    # unbuffered, a pipe into `head -1` breaks at the next print
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp_path)
    script = os.path.join(ROOT, "demos", "05_cli_walkthrough.sh")
    result = subprocess.run(["sh", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    output = result.stdout + result.stderr
    assert result.returncode == 0, output
    assert "Traceback" not in output and "Exception ignored" not in output, output
    assert "walkthrough done" in result.stdout
