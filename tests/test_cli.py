import argparse
import json
import os

import pytest

from ssfa.cli import CliConfigError, _apply_config, _apply_threads, _build_parser, main


def run_ok(argv):
    assert main(argv) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> mine -> train pipeline shared by the eval tests."""
    base = tmp_path_factory.mktemp("cli")
    data = base / "data"
    run_ok(["synth", "--out", str(data), "--clips", "8", "--labeled-per-class", "5", "--seed", "9"])
    mined = base / "mined"
    run_ok(["mine", "--data", str(data / "unlabeled.txt"), "--out", str(mined), "--T", "2", "--seed", "1"])
    run = base / "run"
    run_ok(
        [
            "train", "--labeled", str(data / "labeled.txt"),
            "--unlabeled", str(data / "unlabeled.txt"),
            "--pairs", str(mined / "pairs.txt"), "--triplets", str(mined / "triplets.txt"),
            "--method", "ssfa", "--lambda", "0.5", "--lambda2", "0.5",
            "--epochs", "6", "--patience", "6", "--seed", "2", "--out", str(run),
        ]
    )
    return base, data, mined, run


def test_synth_writes_manifests_and_config_echo(pipeline):
    _, data, _, _ = pipeline
    assert (data / "unlabeled.txt").is_file()
    assert (data / "labeled.txt").is_file()
    echo = (data / "run_config.txt").read_text()
    assert "seed = 9" in echo and "clips = 8" in echo


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["synth", "--clips", "4"])  # no --out
    assert e.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_mine_counts_and_files(pipeline, capsys):
    base, data, mined, _ = pipeline
    assert (mined / "pairs.txt").is_file() and (mined / "triplets.txt").is_file()
    out = mined / "again"
    run_ok(["mine", "--data", str(data / "unlabeled.txt"), "--out", str(out), "--T", "2",
            "--pair-neg-ratio", "3", "--triplet-neg-ratio", "1", "--seed", "1"])
    captured = capsys.readouterr().out
    assert "achieved ratio 1:3.00" in captured
    assert "achieved ratio 1:1.00" in captured


def test_mine_window_too_large_exits_3(pipeline):
    base, data, _, _ = pipeline
    code = main(["mine", "--data", str(data / "unlabeled.txt"), "--out", str(base / "x"),
                 "--T", "50", "--seed", "0"])
    assert code == 3


def test_train_unreg_ignores_tuple_inputs(pipeline):
    base, data, mined, _ = pipeline
    out = base / "unreg"
    run_ok(["train", "--labeled", str(data / "labeled.txt"), "--method", "unreg",
            "--epochs", "4", "--patience", "4", "--out", str(out), "--seed", "0"])
    assert (out / "checkpoint.ckpt").is_file()
    assert (out / "history.csv").is_file()


def test_train_ssfa_requires_tuples(pipeline):
    base, data, _, _ = pipeline
    code = main(["train", "--labeled", str(data / "labeled.txt"), "--method", "ssfa",
                 "--epochs", "3", "--out", str(base / "fail")])
    assert code == 2


def test_eval_commands_write_reports(pipeline):
    base, data, _, run = pipeline
    ckpt = str(run / "checkpoint.ckpt")
    es = base / "es"
    run_ok(["eval-seqcomp", "--checkpoint", ckpt, "--unlabeled", str(data / "unlabeled.txt"),
            "--queries", "25", "--pool-n", "5", "--seed", "3", "--out", str(es)])
    rep = json.loads((es / "seqcomp.json").read_text())
    assert set(rep) == {"eta", "ranks", "accuracy", "config"}
    assert len(rep["ranks"]) == 25
    assert (es / "ranks.csv").read_text().splitlines()[0] == "query,rank"

    ec = base / "ec"
    run_ok(["eval-cls", "--checkpoint", ckpt, "--test", str(data / "labeled.txt"), "--out", str(ec)])
    rep = json.loads((ec / "classification.json").read_text())
    assert 0.0 <= rep["accuracy"]["linear"] <= 1.0

    ek = base / "ek"
    run_ok(["eval-knn", "--checkpoint", ckpt, "--train", str(data / "labeled.txt"),
            "--test", str(data / "labeled.txt"), "--k", "3", "--out", str(ek)])
    rep = json.loads((ek / "knn.json").read_text())
    assert rep["accuracy"]["k"] == 3


def test_eval_missing_checkpoint_exits_3(pipeline):
    base, data, _, _ = pipeline
    code = main(["eval-cls", "--checkpoint", str(base / "nope.ckpt"),
                 "--test", str(data / "labeled.txt"), "--out", str(base / "y")])
    assert code == 3


def test_gradcheck_cli_passes():
    assert main(["gradcheck", "--points", "3", "--seed", "0"]) == 0


def test_train_cv_writes_search_log(pipeline, tmp_path):
    _, data, mined, _ = pipeline
    out = tmp_path / "cv"
    run_ok(
        [
            "train", "--labeled", str(data / "labeled.txt"),
            "--unlabeled", str(data / "unlabeled.txt"),
            "--pairs", str(mined / "pairs.txt"), "--triplets", str(mined / "triplets.txt"),
            "--method", "ssfa", "--cv", "--epochs", "2", "--patience", "2",
            "--seed", "1", "--out", str(out),
        ]
    )
    log = (out / "search_log.csv").read_text().splitlines()
    assert log[0] == "stage,candidate,val_loss"
    stages = {line.split(",")[0] for line in log[1:]}
    assert stages == {"lr", "lam", "lam_prime", "delta_triplet"}
    assert (out / "checkpoint.ckpt").is_file()


def test_config_file_supplies_defaults_flags_override(pipeline, tmp_path):
    base, data, mined, _ = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# defaults\nepochs = 5\nlambda = 0.25\nmethod = sfa2\n")
    out = tmp_path / "run"
    run_ok(["train", "--config", str(cfg), "--labeled", str(data / "labeled.txt"),
            "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(mined / "pairs.txt"),
            "--epochs", "4", "--out", str(out), "--seed", "0"])
    echo = (out / "run_config.txt").read_text()
    assert "epochs = 4" in echo        # explicit flag wins
    assert "lam = 0.25" in echo        # config file value applied
    assert "method = sfa2" in echo
    lines = (out / "history.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_config_file_unknown_key_exits_2(pipeline, tmp_path):
    _, data, _, _ = pipeline
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    code = main(["train", "--config", str(cfg), "--labeled", str(data / "labeled.txt"),
                 "--method", "unreg", "--out", str(tmp_path / "o")])
    assert code == 2


def test_fixtures_command_writes_bundle(tmp_path):
    out = tmp_path / "fx"
    run_ok(["fixtures", "--out", str(out), "--seed", "3"])
    for name in (
        "train_clips", "eval_clips", "labeled_train", "labeled_test",
        "labeled_knn_train", "labeled_knn_test",
    ):
        sub = out / name
        assert sub.is_dir(), name
        manifests = list(sub.glob("*.txt"))
        assert manifests, name


def test_config_boolean_false_leaves_search_off(pipeline, tmp_path):
    _, data, _, _ = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text("cv = false\nepochs = 2\n")
    out = tmp_path / "run"
    run_ok(["train", "--config", str(cfg), "--labeled", str(data / "labeled.txt"),
            "--method", "unreg", "--out", str(out), "--seed", "0"])
    assert not (out / "search_log.csv").exists()
    assert "cv = False" in (out / "run_config.txt").read_text()


def test_config_boolean_values_parse_strictly():
    parser = _build_parser()
    train_parser = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices["train"]
    for text, expect in (("true", True), ("1", True), ("false", False), ("0", False)):
        _apply_config(train_parser, {"cv": text})
        args = parser.parse_args(["train", "--labeled", "l.txt", "--out", "o"])
        assert args.cv is expect, text
    for text in ("yes", "False", "", "2"):
        with pytest.raises(CliConfigError):
            _apply_config(train_parser, {"cv": text})


def test_config_boolean_bad_value_exits_2(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("cv = yes\n")
    code = main(["train", "--config", str(cfg), "--labeled", str(tmp_path / "none.txt"),
                 "--method", "unreg", "--out", str(tmp_path / "o")])
    assert code == 2


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_explicit_threads_flag_overrides_preset_blas_env(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "7")
    _apply_threads(["train", "--threads", "2"])
    assert [os.environ[v] for v in BLAS_VARS] == ["2", "2", "2"]
    _apply_threads(["train", "--threads=3"])
    assert [os.environ[v] for v in BLAS_VARS] == ["3", "3", "3"]


def test_threads_default_keeps_preset_blas_env(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    _apply_threads(["train", "--seed", "3"])
    assert [os.environ[v] for v in BLAS_VARS] == ["7", "1", "1"]


def _unset_blas_env(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "unset")  # so teardown restores the original
        monkeypatch.delenv(var)


def test_config_threads_key_pins_blas_env(monkeypatch, tmp_path):
    _unset_blas_env(monkeypatch)
    cfg = tmp_path / "c.txt"
    cfg.write_text("threads = 3\n")
    run_ok(["gradcheck", "--points", "1", "--config", str(cfg)])
    assert [os.environ[v] for v in BLAS_VARS] == ["3", "3", "3"]


def test_threads_precedence_flag_then_config_then_preset_env(monkeypatch, tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("threads = 3\n")
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "7")
    run_ok(["gradcheck", "--points", "1", "--config", str(cfg)])
    assert [os.environ[v] for v in BLAS_VARS] == ["3", "3", "3"]
    run_ok(["gradcheck", "--points", "1", "--config", str(cfg), "--threads", "2"])
    assert [os.environ[v] for v in BLAS_VARS] == ["2", "2", "2"]


def test_config_threads_non_integer_exits_2(monkeypatch, tmp_path):
    _unset_blas_env(monkeypatch)
    cfg = tmp_path / "c.txt"
    cfg.write_text("threads = many\n")
    assert main(["gradcheck", "--points", "1", "--config", str(cfg)]) == 2
    assert not any(v in os.environ for v in BLAS_VARS)
