import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from focusface import cli
from focusface.cli import main
from focusface.config import (
    ConfigError,
    RunConfig,
    format_config,
    load_config,
    parse_config_text,
    parse_overrides,
)
from focusface.data import load_corpus
from focusface.losses import LossConfig
from focusface.metrics import PROTOCOL_MODES
from focusface.model import (
    ToyBackboneConfig,
    ToyModel,
    load_checkpoint,
    save_checkpoint,
)
from focusface.training import TrainConfig, init_state


def run_cli(*argv):
    return main(list(argv))


# -- config parsing ----------------------------------------------------------

def test_config_round_trip_exact():
    config = load_config(None, {"lr": 0.07, "lambda_": 0.25,
                                "milestones": (10, 20, 30), "baseline": True,
                                "coverage_lo": 0.3, "out_dir": "/tmp/x"})
    assert config.train.lr == 0.07 and config.train.loss.lambda_ == 0.25
    again = load_config(None, parse_config_text(format_config(config)))
    assert again == config


def test_config_defaults_match_library_defaults():
    # `focusface train` and fit(TrainConfig()) train the same run
    assert RunConfig().train == TrainConfig()
    assert load_config(None).train == TrainConfig()
    assert load_config(None).train.loss == LossConfig()


def test_run_config_declares_no_library_field():
    # loss and loop keys are declared once, in LossConfig and TrainConfig
    own = {f.name for f in dataclasses.fields(RunConfig)}
    library = {f.name for f in dataclasses.fields(LossConfig)}
    library |= {f.name for f in dataclasses.fields(TrainConfig)}
    assert not own & library


FLOAT_KEYS = [("lambda" if attr == "lambda_" else attr)
              for attr, value in parse_config_text(format_config(RunConfig())).items()
              if isinstance(value, float)]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_config_rejects_non_finite_floats(bad):
    assert {"lr", "momentum", "weight_decay", "s", "m", "alpha", "beta", "lambda",
            "coverage_lo", "coverage_hi"} == set(FLOAT_KEYS)
    for key in FLOAT_KEYS:
        with pytest.raises(ConfigError, match=f"key '{key}'.*must be finite"):
            parse_overrides([f"{key}={bad}"])
        with pytest.raises(ConfigError, match=f"key '{key}'.*must be finite"):
            parse_config_text(f"{key} = {bad}\n")


def test_config_is_frozen_and_hashable():
    config = RunConfig()
    assert hash(config) == hash(RunConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.train.loss.s = 1.0


def test_config_unknown_key_named(capsys):
    with pytest.raises(ConfigError, match="no_such_key"):
        parse_config_text("no_such_key = 5")
    with pytest.raises(ConfigError, match="also_bad"):
        parse_overrides(["also_bad=1"])
    # keys of deleted switches are unknown too, in a file and on the command line
    with pytest.raises(ConfigError, match="line 2: unknown config key 'selection_mode'"):
        parse_config_text("seed = 1\nselection_mode = random")
    assert run_cli("train", "--set", "mse_on_normalized=true") == 2
    assert capsys.readouterr().err == \
        "error: unknown config key 'mse_on_normalized'\n"
    with pytest.raises(ConfigError, match="line 1: unknown config key 'comb_mode'"):
        parse_config_text("comb_mode = additive\nseed = 1")
    assert run_cli("train", "--set", "comb_mode=multiplicative") == 2
    assert capsys.readouterr().err == "error: unknown config key 'comb_mode'\n"


def test_config_bad_values_report_key():
    for text, key in [("lr = fast", "lr"), ("baseline = yes", "baseline"),
                      ("milestones = 3,x", "milestones")]:
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)


def test_config_file_with_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a comment\nlr = 0.05\n\nlambda = 0.3\n")
    config = load_config(str(path), {"seed": 9})
    assert config.train.lr == 0.05 and config.train.loss.lambda_ == 0.3
    assert config.train.seed == 9


# -- gen-data ----------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    code = run_cli("gen-data", "--out", out, "--dataset-seed", "7",
                   "--set", "num_identities=20",
                   "--set", "samples_per_identity=8")
    assert code == 0
    return out


def test_gen_data_writes_manifest_and_config(corpus_dir):
    assert os.path.exists(os.path.join(corpus_dir, "manifest.tsv"))
    assert os.path.exists(os.path.join(corpus_dir, "config.txt"))
    corpus = load_corpus(corpus_dir)
    assert corpus.num_classes == 13  # 20 identities at 20:5:8 proportions
    assert corpus.dataset_seed == 7


def test_gen_data_deterministic(tmp_path, corpus_dir):
    out = str(tmp_path / "again")
    assert run_cli("gen-data", "--out", out, "--dataset-seed", "7",
                   "--set", "num_identities=20",
                   "--set", "samples_per_identity=8") == 0
    with open(os.path.join(corpus_dir, "manifest.tsv"), "rb") as f:
        first = f.read()
    with open(os.path.join(out, "manifest.tsv"), "rb") as f:
        second = f.read()
    assert first == second


def test_gen_data_invalid_coverage_names_key(tmp_path, capsys):
    out = str(tmp_path / "bad")
    code = run_cli("gen-data", "--out", out, "--set", "coverage_lo=0.0001")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "coverage_lo" in err
    code = run_cli("gen-data", "--out", out,
                   "--set", "coverage_lo=0.9", "--set", "coverage_hi=0.2")
    assert code != 0
    assert "coverage_hi" in capsys.readouterr().err
    assert not os.path.exists(out)
    with pytest.raises(ConfigError, match="coverage_lo"):
        load_config(None, {"coverage_hi": 0.99})


# -- train -------------------------------------------------------------------

FAST = ["--set", "max_iterations=30", "--set", "milestones=15,24",
        "--set", "eval_interval=10"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_dir):
    out = str(tmp_path_factory.mktemp("run"))
    code = run_cli("train", "--data", corpus_dir, "--out", out,
                   "--seed", "3", *FAST)
    assert code == 0
    return out


def test_train_outputs(run_dir):
    for name in ("train.log", "best.ckpt", "final.ckpt", "config.txt", "environment.txt"):
        assert os.path.exists(os.path.join(run_dir, name))


def test_train_environment_is_recorded_beside_the_log(corpus_dir, tmp_path, monkeypatch):
    # the thread variables each run finds go to environment.txt, and only there
    short = ["--seed", "2", "--set", "max_iterations=3", "--set", "milestones=2",
             "--set", "eval_interval=2"]
    runs = {"a": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
            "b": {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3"}}
    for name, env in runs.items():
        for var, value in env.items():
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert run_cli("train", "--data", corpus_dir, "--out", str(tmp_path / name),
                       *short) == 0
        recorded = (tmp_path / name / "environment.txt").read_text()
        assert recorded == "".join(f"{var} = {value or 'unset'}\n"
                                   for var, value in env.items()) + \
            f"numpy = {np.__version__}\n"
    for name in ("train.log", "best.ckpt", "final.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_prints_live_trainable_count(corpus_dir, tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run_cli("train", "--data", corpus_dir, "--out", out,
                   "--seed", "1",
                   "--set", "max_iterations=2", "--set", "milestones=1",
                   "--set", "eval_interval=5") == 0
    text = capsys.readouterr().out
    model, _ = load_checkpoint(os.path.join(out, "final.ckpt"))
    config = load_config(os.path.join(out, "config.txt"))
    trainable = init_state(model, config.train).velocities
    want = f"{sum(model.params[n].size for n in trainable):,} of {model.total_count():,}"
    assert want in text


def test_train_echoed_config_reproduces_run(run_dir, tmp_path):
    out = str(tmp_path / "again")
    assert run_cli("train", "--config", os.path.join(run_dir, "config.txt"),
                   "--out", out) == 0
    for name in ("train.log", "best.ckpt", "final.ckpt"):
        with open(os.path.join(run_dir, name), "rb") as f:
            first = f.read()
        with open(os.path.join(out, name), "rb") as f:
            second = f.read()
        assert first == second, name


def test_train_baseline_flag_recorded(corpus_dir, tmp_path):
    out = str(tmp_path / "b")
    assert run_cli("train", "--data", corpus_dir, "--out", out, "--baseline",
                   "--seed", "0",
                   "--set", "max_iterations=2", "--set", "milestones=1",
                   "--set", "eval_interval=5") == 0
    config = load_config(os.path.join(out, "config.txt"), {})
    assert config.train.baseline is True


def test_train_freeze_requires_init_checkpoint(corpus_dir, tmp_path, capsys):
    out = str(tmp_path / "f")
    code = run_cli("train", "--data", corpus_dir, "--out", out,
                   "--freeze-backbone")
    assert code != 0
    assert "--init-checkpoint" in capsys.readouterr().err


def test_train_frozen_backbone_is_bit_identical(corpus_dir, run_dir, tmp_path):
    out = str(tmp_path / "frozen")
    init = os.path.join(run_dir, "final.ckpt")
    assert run_cli("train", "--data", corpus_dir, "--out", out,
                   "--freeze-backbone", "--init-checkpoint", init,
                   "--seed", "4", *FAST) == 0
    start, _ = load_checkpoint(init)
    finish, _ = load_checkpoint(os.path.join(out, "final.ckpt"))
    config = load_config(os.path.join(out, "config.txt"))
    assert config.train.freeze_backbone
    frozen = set(finish.params) - set(init_state(finish, config.train).velocities)
    moved = set(finish.params) - frozen
    assert frozen and moved
    for name in frozen:
        assert finish.params[name].tobytes() == start.params[name].tobytes()
    assert any(finish.params[name].tobytes() != start.params[name].tobytes()
               for name in moved)


def test_train_from_frozen_checkpoint_trains_backbone(corpus_dir, run_dir,
                                                      tmp_path, capsys):
    # earlier versions recorded "frozen = backbone" in a frozen run's
    # checkpoints; without --freeze-backbone the continued run trains
    # every parameter, and its checkpoints record no freeze mode
    short = ["--set", "max_iterations=3", "--set", "milestones=2",
             "--set", "eval_interval=5"]
    frozen_dir = tmp_path / "frozen"
    assert run_cli("train", "--data", corpus_dir, "--out", str(frozen_dir),
                   "--freeze-backbone", "--init-checkpoint",
                   os.path.join(run_dir, "final.ckpt"), *short) == 0
    init = frozen_dir / "older.ckpt"
    raw = (frozen_dir / "final.ckpt").read_bytes()
    init.write_bytes(raw.replace(b"\nparam ", b"\nfrozen = backbone\nparam ", 1))
    out = tmp_path / "thawed"
    capsys.readouterr()
    assert run_cli("train", "--data", corpus_dir, "--out", str(out),
                   "--init-checkpoint", str(init), *short) == 0
    start, _ = load_checkpoint(str(init))
    finish, _ = load_checkpoint(str(out / "final.ckpt"))
    assert b"\nfrozen = backbone\n" in init.read_bytes()
    assert b"frozen" not in (out / "final.ckpt").read_bytes().split(b"end-header")[0]
    total = f"{finish.total_count():,}"
    assert f"trainable parameters: {total} of {total}" in capsys.readouterr().out
    for name in (n for n in finish.params if n.startswith("conv")):
        assert finish.params[name].tobytes() != start.params[name].tobytes(), name


def test_train_echoes_the_corpus_it_reads(tmp_path):
    corpus = tmp_path / "corpus"
    assert run_cli("gen-data", "--out", str(corpus), "--dataset-seed", "5",
                   "--set", "num_identities=6", "--set", "samples_per_identity=3",
                   "--set", "coverage_lo=0.3", "--set", "coverage_hi=0.45") == 0
    out = tmp_path / "run"
    assert run_cli("train", "--data", str(corpus), "--out", str(out),
                   "--set", "max_iterations=2", "--set", "milestones=1",
                   "--set", "eval_interval=5", "--set", "batch_size=4") == 0
    made = load_config(str(corpus / "config.txt"))
    echoed = load_config(str(out / "config.txt"))
    keys = ("num_identities", "samples_per_identity", "dataset_seed",
            "coverage_lo", "coverage_hi")
    assert [getattr(echoed, k) for k in keys] == [6, 3, 5, 0.3, 0.45]
    assert [getattr(echoed, k) for k in keys] == [getattr(made, k) for k in keys]


@pytest.mark.parametrize("command", ["eval", "train"])
def test_non_finite_checkpoint_is_one_line_error(corpus_dir, run_dir, tmp_path,
                                                 capsys, command):
    model, seed = load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    model.params["recognition.weight"][0, 0] = np.nan
    path = str(tmp_path / "nan.ckpt")
    save_checkpoint(model, path, seed=seed)
    argv = (["eval", "--checkpoint", path, "--mode", "um"] if command == "eval"
            else ["train", "--init-checkpoint", path,
                  "--out", str(tmp_path / "o"), *FAST])
    assert run_cli(*argv, "--data", corpus_dir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nan.ckpt: parameter recognition.weight: 1 of " in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("zeroed,where,named", [
    (("recognition.weight", "recognition.bias"), np.s_[...],
     "parameters recognition.weight and recognition.bias are all zero, "
     "so every recognition embedding is zero"),
    (("arcface.weight",), np.s_[:, 3], "parameter arcface.weight: class column 3 is all zero"),
], ids=["zero-recognition-head", "zero-class-column"])
def test_train_untrainable_checkpoint_is_one_line_error(corpus_dir, run_dir, tmp_path,
                                                        capsys, zeroed, where, named):
    # the first step would hand l2_normalize a zero vector; eval still
    # scores the zero-column file, so only train rejects it
    model, seed = load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    for name in zeroed:
        model.params[name][where] = 0.0
    path = str(tmp_path / "zero.ckpt")
    save_checkpoint(model, path, seed=seed)
    out = tmp_path / "o"
    assert run_cli("train", "--data", corpus_dir, "--init-checkpoint", path,
                   "--out", str(out), *FAST) == 2
    assert capsys.readouterr().err == f"error: {path}: {named}\n"
    assert not out.exists()


def test_train_missing_corpus_fails(tmp_path, capsys):
    code = run_cli("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o"))
    assert code != 0
    assert "corpus" in capsys.readouterr().err


def test_bad_manifest_is_one_line_error(corpus_dir, run_dir, tmp_path, capsys):
    bad = tmp_path / "bad-corpus"
    bad.mkdir()
    with open(os.path.join(corpus_dir, "manifest.tsv")) as f:
        text = f.read()
    (bad / "manifest.tsv").write_text(text.replace("# samples_per_identity = 8\n", ""))
    for command in (["train", "--out", str(tmp_path / "o")],
                    ["eval", "--checkpoint", os.path.join(run_dir, "best.ckpt"),
                     "--mode", "um"]):
        code = run_cli(*command, "--data", str(bad))
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load corpus") and err.count("\n") == 1
        assert "samples_per_identity" in err


def test_train_divergence_is_one_line_error(corpus_dir, tmp_path, capsys, recwarn):
    out = tmp_path / "diverged"
    code = run_cli("train", "--data", corpus_dir, "--out", str(out),
                   "--set", "lr=1e7", *FAST)
    assert code != 0
    # numpy's overflow and invalid-value warnings on the way stay silent
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert re.search(r"non-finite gradient at iteration \d+ for [\w.]+:", err)
    assert re.search(r": [1-9]\d* of \d+ entries are inf or nan$", err)
    assert not list(out.glob("*.ckpt"))


def test_train_out_of_float32_range_is_one_line_error(corpus_dir, tmp_path,
                                                      capsys, recwarn):
    # the first update takes conv0.bias past float32 range with every
    # gradient finite, so only the parameter check in sgd_step stops the run
    out = tmp_path / "overflow"
    code = run_cli("train", "--data", corpus_dir, "--out", str(out),
                   "--set", "lr=1e40", "--set", "max_iterations=1",
                   "--set", "eval_interval=1")
    assert code == 2
    # the run stops before a float32 tape would overflow, so numpy has
    # nothing to warn about
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged, no checkpoint written: ")
    assert err.count("\n") == 1
    assert err.endswith(": parameter conv0.bias at iteration 0: 6 of 8 entries "
                        "are outside float32 range\n")
    # train made the directory, so the failed run takes it away again
    assert not out.exists()
    # a directory that was there before the run stays
    out.mkdir()
    assert run_cli("train", "--data", corpus_dir, "--out", str(out),
                   "--set", "lr=1e40", "--set", "max_iterations=1") == 2
    assert out.is_dir() and not list(out.iterdir())


def test_train_invalid_loop_value_is_one_line_error(corpus_dir, tmp_path, capsys):
    code = run_cli("train", "--data", corpus_dir, "--out", str(tmp_path / "o"),
                   "--set", "batch_size=0")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "batch_size" in err
    with pytest.raises(ConfigError, match="batch_size"):
        load_config(None, {"batch_size": 0})


@pytest.mark.parametrize("text", [
    "Unable to allocate 381. GiB for an array with shape (100000000, 32, 32) "
    "and data type float32", ""], ids=["numpy-message", "bare"])
def test_out_of_memory_is_one_line_error(corpus_dir, tmp_path, capsys,
                                         monkeypatch, text):
    # stands in for `train --set batch_size=100000000`; no test allocates that
    def fit(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(cli, "fit", fit)
    out = tmp_path / "oom"
    assert run_cli("train", "--data", corpus_dir, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: out of memory: {text or 'allocation failed'}\n"
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_silent_and_keeps_the_run(corpus_dir, tmp_path,
                                                   unbuffered):
    # `focusface train ... | true`: the reader is gone before the first print
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-m", "focusface.cli", "train", "--data", corpus_dir,
         "--out", str(out), "--set", "max_iterations=2",
         "--set", "milestones=1", "--set", "eval_interval=5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert err == ""
    for name in ("config.txt", "train.log", "best.ckpt", "final.ckpt"):
        assert (out / name).exists(), name


@pytest.fixture(scope="module")
def one_train_identity_dir(tmp_path_factory):
    # 4 identities split 1 train, 1 val, 2 test
    out = str(tmp_path_factory.mktemp("tiny-corpus"))
    assert run_cli("gen-data", "--out", out, "--set", "num_identities=4",
                   "--set", "samples_per_identity=8") == 0
    return out


@pytest.fixture(scope="module")
def tampered_corpus_dir(tmp_path_factory, corpus_dir):
    # a copy of corpus_dir whose manifest lost one train row
    out = tmp_path_factory.mktemp("tampered") / "corpus"
    shutil.copytree(corpus_dir, out)
    manifest = out / "manifest.tsv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines
                                if not line.startswith("images/train/id0002_train_m0003")))
    return str(out)


@pytest.fixture(scope="module")
def shared_identity_dir(tmp_path_factory, corpus_dir):
    # a copy of corpus_dir whose validation identity 13 was renamed to
    # training identity 0, in the manifest and in the image file names
    out = tmp_path_factory.mktemp("shared-identity") / "corpus"
    shutil.copytree(corpus_dir, out)
    manifest = out / "manifest.tsv"
    manifest.write_text(manifest.read_text().replace("images/val/id0013_", "images/val/id0000_")
                        .replace("\t13\t", "\t0\t"))
    for image in (out / "images" / "val").glob("id0013_*"):
        image.rename(image.with_name(image.name.replace("id0013_", "id0000_")))
    return str(out)


# manifest header line -> its replacement, one corpus copy each
HEADER_EDITS = {
    "seed-zero": ("# dataset_seed = 7", "# dataset_seed = zero"),
    "coverage-one-value": ("# coverage_range = 0.4,0.55", "# coverage_range = 0.45"),
    "coverage-unordered": ("# coverage_range = 0.4,0.55", "# coverage_range = 0.9,0.1"),
    "samples-zero": ("# samples_per_identity = 8", "# samples_per_identity = 0"),
    "seed-negative": ("# dataset_seed = 7", "# dataset_seed = -5"),
}


@pytest.fixture(scope="module")
def header_edited_dirs(tmp_path_factory, corpus_dir):
    dirs = {}
    for name, (line, edited) in HEADER_EDITS.items():
        out = tmp_path_factory.mktemp(name) / "corpus"
        shutil.copytree(corpus_dir, out)
        manifest = out / "manifest.tsv"
        text = manifest.read_text()
        assert line + "\n" in text
        manifest.write_text(text.replace(line + "\n", edited + "\n"))
        dirs[name] = str(out)
    return dirs


# each case: argv from the paths at hand, and a text the error line names
BAD_INPUTS = {
    "gen-data-one-identity": lambda p: (
        ["gen-data", "--out", p["new"], "--set", "num_identities=1"], "identities"),
    "gen-data-no-samples": lambda p: (
        ["gen-data", "--out", p["new"], "--set", "samples_per_identity=0"],
        "samples_per_identity"),
    "gen-data-dataset-seed-negative": lambda p: (
        ["gen-data", "--out", p["new"], "--dataset-seed", "-1"],
        "dataset_seed must be non-negative, got -1"),
    "gen-data-out-under-file": lambda p: (
        ["gen-data", "--out", os.path.join(p["file"], "sub")], p["file"]),
    "train-checkpoint-class-count": lambda p: (
        ["train", "--data", p["corpus"], "--out", p["new"],
         "--init-checkpoint", p["wide"], *FAST], "30 classes"),
    "train-one-identity": lambda p: (
        ["train", "--data", p["tiny"], "--out", p["new"], *FAST],
        "needs at least 2 training identities, the corpus has 1"),
    "train-tampered-manifest": lambda p: (
        ["train", "--data", p["tampered"], "--out", p["new"], *FAST], "manifest.tsv"),
    "train-identity-in-two-splits": lambda p: (
        ["train", "--data", p["shared"], "--out", p["new"], *FAST],
        "manifest.tsv: identity 0 is in both the train and the val split"),
    "train-manifest-seed-not-integer": lambda p: (
        ["train", "--data", p["seed-zero"], "--out", p["new"], *FAST],
        "manifest.tsv: header field dataset_seed"),
    "train-manifest-coverage-one-value": lambda p: (
        ["train", "--data", p["coverage-one-value"], "--out", p["new"], *FAST],
        "manifest.tsv: header field coverage_range"),
    "train-manifest-coverage-unordered": lambda p: (
        ["train", "--data", p["coverage-unordered"], "--out", p["new"], *FAST],
        "manifest.tsv: header field coverage_range"),
    "train-manifest-samples-zero": lambda p: (
        ["train", "--data", p["samples-zero"], "--out", p["new"], *FAST],
        "manifest.tsv: header field samples_per_identity = '0': expected a positive integer"),
    "train-manifest-seed-negative": lambda p: (
        ["train", "--data", p["seed-negative"], "--out", p["new"], *FAST],
        "manifest.tsv: header field dataset_seed = '-5': expected a non-negative integer"),
    "train-seed-negative": lambda p: (
        ["train", "--data", p["corpus"], "--out", p["new"], "--seed", "-1", *FAST],
        "seed must be non-negative, got -1"),
    "train-lr-nan": lambda p: (
        ["train", "--data", p["corpus"], "--out", p["new"], "--set", "lr=nan"],
        "key 'lr'"),
    "train-out-is-file": lambda p: (
        ["train", "--data", p["corpus"], "--out", p["file"], *FAST], p["file"]),
    "eval-out-is-file": lambda p: (
        ["eval", "--checkpoint", p["ckpt"], "--data", p["corpus"], "--mode", "um",
         "--out", p["file"]], p["file"]),
    "eval-one-val-identity": lambda p: (
        ["eval", "--checkpoint", p["ckpt"], "--data", p["tiny"], "--mode", "um",
         "--split", "val"], "um verification needs at least 2 identities, the val split has 1"),
    "gradcheck-seed-negative": lambda p: (
        ["gradcheck", "--seed", "-2"], "seed must be non-negative, got -2"),
    "roc-export-missing-dir": lambda p: (
        ["roc-export", "--checkpoint", p["ckpt"], "--data", p["corpus"],
         "--mode", "um", "--out", os.path.join(p["new"], "roc.csv")], p["new"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_line_error(corpus_dir, run_dir, one_train_identity_dir,
                                     tampered_corpus_dir, shared_identity_dir,
                                     header_edited_dirs, tmp_path, capsys, case):
    file_path = tmp_path / "file"
    file_path.write_text("")
    wide = str(tmp_path / "wide.ckpt")
    save_checkpoint(ToyModel.init(ToyBackboneConfig(num_classes=30)), wide)
    paths = {"corpus": corpus_dir, "tiny": one_train_identity_dir,
             "tampered": tampered_corpus_dir, "shared": shared_identity_dir,
             "ckpt": os.path.join(run_dir, "best.ckpt"), "wide": wide,
             "file": str(file_path), "new": str(tmp_path / "new"), **header_edited_dirs}
    argv, named = BAD_INPUTS[case](paths)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert named in err
    # a rejected command leaves no output directory behind
    assert not os.path.exists(paths["new"])


# -- eval / roc-export -------------------------------------------------------

def test_eval_um_report(corpus_dir, run_dir, tmp_path, capsys):
    out = str(tmp_path / "report")
    assert run_cli("eval", "--checkpoint", os.path.join(run_dir, "best.ckpt"),
                   "--data", corpus_dir, "--mode", "um", "--split", "test",
                   "--out", out) == 0
    text = capsys.readouterr().out
    assert "eer" in text and "fmr100" in text
    with open(os.path.join(out, "report-um-test.json")) as f:
        report = json.load(f)
    for key in ("eer", "auc", "fmr100", "fmr10", "gmean", "imean"):
        assert isinstance(report[key], float), key
    assert report["protocol"] == "um" and report["split"] == "test"
    # no config key applies to eval, so it echoes no config
    assert not os.path.exists(os.path.join(out, "config.txt"))


@pytest.mark.parametrize("command,flags", [
    ("eval", ["--set", "lr=1"]),
    ("roc-export", ["--config", "f", "--out", "roc.csv"]),
])
def test_eval_and_roc_export_take_no_config_flags(corpus_dir, run_dir, capsys,
                                                  command, flags):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--checkpoint", os.path.join(run_dir, "best.ckpt"),
                "--data", corpus_dir, "--mode", "um", *flags)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments" in err


def test_eval_mask_roc(corpus_dir, run_dir, tmp_path, capsys):
    out = str(tmp_path / "roc")
    assert run_cli("eval", "--checkpoint", os.path.join(run_dir, "best.ckpt"),
                   "--data", corpus_dir, "--mode", "mask-roc",
                   "--out", out) == 0
    assert "auc" in capsys.readouterr().out
    with open(os.path.join(out, "mask-roc-test.csv")) as f:
        header = f.readline().strip()
    assert header == "threshold,fmr,fnmr"


@pytest.fixture
def zero_head_checkpoint(run_dir, tmp_path):
    """A trained checkpoint whose recognition head maps every image to zero."""
    model, seed = load_checkpoint(os.path.join(run_dir, "final.ckpt"))
    model.params["recognition.weight"][:] = 0.0
    model.params["recognition.bias"][:] = 0.0
    path = str(tmp_path / "zero-head.ckpt")
    save_checkpoint(model, path, seed=seed)
    return path


@pytest.mark.parametrize("mode", PROTOCOL_MODES)
def test_eval_zero_norm_embedding_is_one_line_error(corpus_dir, zero_head_checkpoint,
                                                    tmp_path, capsys, mode):
    out = tmp_path / "report"
    assert run_cli("eval", "--checkpoint", zero_head_checkpoint, "--data", corpus_dir,
                   "--mode", mode, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "has a zero-norm embedding" in err
    assert not out.exists()


def test_eval_mask_roc_needs_no_recognition_head(corpus_dir, zero_head_checkpoint,
                                                 tmp_path):
    assert run_cli("eval", "--checkpoint", zero_head_checkpoint, "--data", corpus_dir,
                   "--mode", "mask-roc", "--out", str(tmp_path / "roc")) == 0
    assert (tmp_path / "roc" / "mask-roc-test.csv").exists()


def test_eval_missing_checkpoint_fails(corpus_dir, tmp_path, capsys):
    code = run_cli("eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--data", corpus_dir, "--mode", "um")
    assert code != 0
    assert "no.ckpt" in capsys.readouterr().err


def test_eval_checkpoint_missing_header_field_fails(corpus_dir, run_dir,
                                                    tmp_path, capsys):
    path = tmp_path / "no-mask-dim.ckpt"
    with open(os.path.join(run_dir, "best.ckpt"), "rb") as f:
        raw = f.read()
    path.write_bytes(b"".join(line for line in raw.splitlines(keepends=True)
                              if not line.startswith(b"mask_dim = ")))
    code = run_cli("eval", "--checkpoint", str(path), "--data", corpus_dir,
                   "--mode", "um")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no-mask-dim.ckpt" in err and "mask_dim" in err


def test_roc_export_csv(corpus_dir, run_dir, tmp_path):
    path = str(tmp_path / "roc.csv")
    assert run_cli("roc-export", "--checkpoint",
                   os.path.join(run_dir, "best.ckpt"),
                   "--data", corpus_dir, "--mode", "um", "--out", path) == 0
    with open(path) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "threshold,fmr,fnmr"
    assert len(lines) > 10
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # thresholds ascend, fmr falls, fnmr rises along the sweep
    assert np.all(np.diff(rows[:, 0]) >= 0)
    assert np.all(np.diff(rows[:, 1]) <= 0)
    assert np.all(np.diff(rows[:, 2]) >= 0)


@pytest.mark.parametrize("command,mode,out,csv_name", [
    ("eval", "mask-roc", "roc", os.path.join("roc", "mask-roc-test.csv")),
    ("roc-export", "um", "roc.csv", "roc.csv"),
])
def test_printed_point_count_is_the_csv_row_count(corpus_dir, run_dir, tmp_path, capsys,
                                                  command, mode, out, csv_name):
    assert run_cli(command, "--checkpoint", os.path.join(run_dir, "best.ckpt"),
                   "--data", corpus_dir, "--mode", mode, "--out", str(tmp_path / out)) == 0
    printed = re.search(r"\((\d+) points\)", capsys.readouterr().out)
    with open(tmp_path / csv_name) as f:
        data_rows = len(f.read().splitlines()) - 1
    assert printed is not None and int(printed.group(1)) == data_rows > 3


# -- paramcount / gradcheck --------------------------------------------------

def test_paramcount_full_scale(capsys):
    assert run_cli("paramcount") == 0
    text = capsys.readouterr().out
    for number in ("52,309,568", "12,846,080", "802,880", "43,899,904",
                   "109,858,498", "57,548,930", "65,155,648"):
        assert number in text, number
    assert "47.62%" in text


def test_paramcount_freeze_flag(capsys):
    assert run_cli("paramcount", "--freeze") == 0
    assert "trainable parameters: 57,548,930" in capsys.readouterr().out


def test_paramcount_toy_matches_live_model(capsys):
    assert run_cli("paramcount", "--scale", "toy") == 0
    from focusface.model import ToyBackboneConfig, ToyModel, toy_scale_modules
    from focusface.params import summarize
    summary = summarize(toy_scale_modules())
    model = ToyModel.init(ToyBackboneConfig(), seed=0)
    assert summary.scratch_total == model.total_count()
    assert f"{summary.scratch_total:,}" in capsys.readouterr().out


def test_gradcheck_passes(capsys):
    assert run_cli("gradcheck", "--seed", "5") == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 18 and "FAIL" not in text


def test_gradcheck_reports_failures(capsys, monkeypatch):
    from focusface import checks as checks_mod
    from focusface.checks import CheckResult

    def fake_run_all(seed=0):
        return [CheckResult("matmul", 3e-3, 20, 1e-4),
                CheckResult("add", 1e-9, 20, 1e-4)]

    monkeypatch.setattr(checks_mod, "run_all", fake_run_all)
    assert run_cli("gradcheck") == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and "matmul" in captured.err
