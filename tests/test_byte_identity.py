"""Training and gradient-check outputs are pinned byte for byte.

The CLI runs in fresh processes with BLAS on one thread, because the
training bits depend on the BLAS thread count (README, "Command line").
On a small generated corpus whose validation split has three identities
(so best-checkpoint selection runs), it trains a short default run, then
a frozen-backbone run on top of that run's ``best.ckpt``, and runs
``gradcheck --seed 0``.  The sha256 of each ``train.log``, ``best.ckpt``,
``final.ckpt`` and of the gradcheck stdout must equal ``DIGESTS``.

The digests belong to one numpy and OpenBLAS build (``BUILD``); on any
other build the test skips and says why.  A change that moves training
bits on purpose updates ``DIGESTS`` in the same commit: run this file as
a script (``python tests/test_byte_identity.py``) to print the current
digests.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31"}

DIGESTS = {
    "full_train.log": "746801245d869281ce328bd0ad4f703cb1d00c94d32db77c9700ecae57cca8a9",
    "full_best.ckpt": "8b49bf0690ea6ca70ab4e8504e9740eff90ceecfacc6714676dc6cca4b41fbde",
    "full_final.ckpt": "11b9f6775e15c68ad4baf528be7961b9489c359abea6f3972fe19040af45e4ec",
    "frozen_train.log": "74186830db64b0e07e704b49767459868a8594b47443cc5f08372f2f175638ce",
    "frozen_best.ckpt": "84464eb0d6887f1c2c66fddcd6d4e3dbfa77772208ed4a83cbed53f12f7f5ad5",
    "frozen_final.ckpt": "84464eb0d6887f1c2c66fddcd6d4e3dbfa77772208ed4a83cbed53f12f7f5ad5",
    "gradcheck_stdout": "a85636eaa350200399ce08cd8dd0f38f8964591f38473cea97d607a4d5e37b40",
}


def current_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = ".".join(blas.get("version", "").split(".")[:3])
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {version}"}


def _cli(workdir: str, *argv: str) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "focusface.cli", *argv], cwd=workdir,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pinned(workdir: str) -> dict:
    """Run the pinned commands in ``workdir``; the digest of each output."""
    _cli(workdir, "gen-data", "--out", "corpus", "--dataset-seed", "0",
         "--set", "num_identities=20", "--set", "samples_per_identity=8")
    short = ("--data", "corpus", "--seed", "0", "--set", "max_iterations=200")
    _cli(workdir, "train", *short, "--out", "full")
    _cli(workdir, "train", *short, "--out", "frozen", "--freeze-backbone",
         "--init-checkpoint", os.path.join("full", "best.ckpt"))
    digests = {}
    for run in ("full", "frozen"):
        for name in ("train.log", "best.ckpt", "final.ckpt"):
            with open(os.path.join(workdir, run, name), "rb") as f:
                digests[f"{run}_{name}"] = _sha256(f.read())
    digests["gradcheck_stdout"] = _sha256(_cli(workdir, "gradcheck", "--seed", "0").encode())
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    if current_build() != BUILD:
        pytest.skip(f"digests pinned for {BUILD}, this build is {current_build()}")
    return run_pinned(str(tmp_path_factory.mktemp("pinned")))


@pytest.mark.parametrize("output", sorted(DIGESTS))
def test_output_bytes_are_pinned(digests, output):
    assert digests[output] == DIGESTS[output]


if __name__ == "__main__":
    print(f"# build: {current_build()}")
    with tempfile.TemporaryDirectory() as workdir:
        for output, digest in run_pinned(workdir).items():
            print(f'    "{output}": "{digest}",')
