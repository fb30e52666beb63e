import json
import os
import re

import numpy as np
import pytest

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
from focusface.model import load_checkpoint
from focusface.training import TrainConfig


def run_cli(*argv):
    return main(list(argv))


# -- config parsing ----------------------------------------------------------

def test_config_round_trip_exact():
    config = RunConfig(lr=0.07, lambda_=0.25, milestones=(10, 20, 30),
                       baseline=True, out_dir="/tmp/x")
    again = RunConfig(**parse_config_text(format_config(config)))
    assert again == config


def test_config_defaults_match_library_defaults():
    # `focusface train` and fit(TrainConfig()) train the same run
    assert RunConfig().loss_config() == LossConfig()
    assert RunConfig().train_config() == TrainConfig()


def test_config_unknown_key_named():
    with pytest.raises(ConfigError, match="no_such_key"):
        parse_config_text("no_such_key = 5")
    with pytest.raises(ConfigError, match="also_bad"):
        parse_overrides(["also_bad=1"])


def test_config_bad_values_report_key():
    for text, key in [("lr = fast", "lr"), ("baseline = yes", "baseline"),
                      ("milestones = 3,x", "milestones")]:
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)


def test_config_file_with_comments(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# a comment\nlr = 0.05\n\nlambda = 0.3\n")
    config = load_config(str(path), {"seed": 9})
    assert config.lr == 0.05 and config.lambda_ == 0.3 and config.seed == 9


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
    assert "coverage_lo" in capsys.readouterr().err
    code = run_cli("gen-data", "--out", out,
                   "--set", "coverage_lo=0.9", "--set", "coverage_hi=0.2")
    assert code != 0
    assert "coverage_hi" in capsys.readouterr().err


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
    for name in ("train.log", "best.ckpt", "final.ckpt", "config.txt"):
        assert os.path.exists(os.path.join(run_dir, name))


def test_train_prints_live_trainable_count(corpus_dir, tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run_cli("train", "--data", corpus_dir, "--out", out,
                   "--seed", "1",
                   "--set", "max_iterations=2", "--set", "milestones=1",
                   "--set", "eval_interval=5") == 0
    text = capsys.readouterr().out
    model, _ = load_checkpoint(os.path.join(out, "final.ckpt"))
    want = f"{model.trainable_count():,} of {model.total_count():,}"
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
    assert config.baseline is True


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
    assert finish.frozen == "backbone"
    frozen = set(finish.params) - set(finish.trainable_names())
    moved = set(finish.params) - frozen
    assert frozen and moved
    for name in frozen:
        assert finish.params[name].tobytes() == start.params[name].tobytes()
    assert any(finish.params[name].tobytes() != start.params[name].tobytes()
               for name in moved)


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_train_divergence_is_one_line_error(corpus_dir, tmp_path, capsys):
    out = tmp_path / "diverged"
    code = run_cli("train", "--data", corpus_dir, "--out", str(out),
                   "--set", "lr=1e7", *FAST)
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert re.search(r"non-finite gradient at iteration \d+ for [\w.]+:", err)
    assert not list(out.glob("*.ckpt"))


def test_train_invalid_loop_value_is_one_line_error(corpus_dir, tmp_path, capsys):
    code = run_cli("train", "--data", corpus_dir, "--out", str(tmp_path / "o"),
                   "--set", "batch_size=0")
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "batch_size" in err
    with pytest.raises(ConfigError, match="batch_size"):
        load_config(None, {"batch_size": 0})


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


def test_eval_mask_roc(corpus_dir, run_dir, tmp_path, capsys):
    out = str(tmp_path / "roc")
    assert run_cli("eval", "--checkpoint", os.path.join(run_dir, "best.ckpt"),
                   "--data", corpus_dir, "--mode", "mask-roc",
                   "--out", out) == 0
    assert "auc" in capsys.readouterr().out
    with open(os.path.join(out, "mask-roc-test.csv")) as f:
        header = f.readline().strip()
    assert header == "threshold,fmr,fnmr"


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
    from focusface.model import ToyBackboneConfig, ToyModel
    from focusface.params import toy_scale_modules, summarize
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
