import argparse
import contextlib
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssfa import gradcheck, network
from ssfa.cli import (CliConfigError, _apply_config, _apply_threads, _build_parser,
                      _parse_config_file, _real, main)
from ssfa.data import ManifestError, load_manifest
from ssfa.losses import Margins
from ssfa.mining import PairSample, TripletSample, load_tuples
from ssfa.network import LayerSpec, save_checkpoint
from ssfa.trainer import TrainConfig, resolve_pairs, train


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


def test_synth_zero_clips_writes_labeled_only(tmp_path):
    # SynthConfig rejected 0 clips before the labeled-only branch was reached
    out = tmp_path / "d"
    run_ok(["synth", "--out", str(out), "--clips", "0", "--labeled-per-class", "5"])
    assert (out / "labeled.txt").is_file()
    assert not (out / "unlabeled.txt").exists()


@pytest.mark.parametrize("counts", [("8", "-2"), ("-1", "5"), ("0", "0")])
def test_synth_negative_or_no_counts_exit_3(tmp_path, capsys, counts):
    # --labeled-per-class -2 exited 0 with no labeled set written
    out = tmp_path / "d"
    code = main(["synth", "--out", str(out), "--clips", counts[0],
                 "--labeled-per-class", counts[1]])
    assert code == 3
    assert "--clips" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_noise_exits_3(tmp_path, capsys, value):
    # --noise nan wrote noise-free frames and --noise inf frames of 0s and 1s
    out = tmp_path / "d"
    code = main(["synth", "--out", str(out), "--clips", "2", "--noise", value])
    assert code == 3
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


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
    assert not (base / "x").exists()  # both sets are mined before --out is made


@pytest.mark.parametrize("flag, value", [
    ("--T", "inf"), ("--T", "nan"), ("--pair-neg-ratio", "nan"), ("--pair-neg-ratio", "inf"),
    ("--triplet-neg-ratio", "nan"),
])
def test_mine_non_finite_value_exits_3(pipeline, tmp_path, capsys, flag, value):
    _, data, _, _ = pipeline
    code = main(["mine", "--data", str(data / "unlabeled.txt"), "--out", str(tmp_path / "m"),
                 "--T", "2", flag, value])
    assert code == 3
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("flag", ["--lambda", "--lambda2", "--delta-pair", "--delta-triplet",
                                  "--lr"])
def test_train_non_finite_value_exits_3(pipeline, tmp_path, capsys, flag):
    # a NaN weight or margin used to train with that term silently off
    _, data, mined, _ = pipeline
    for value in ("nan", "inf"):
        code = main(["train", "--labeled", str(data / "labeled.txt"),
                     "--unlabeled", str(data / "unlabeled.txt"),
                     "--pairs", str(mined / "pairs.txt"), "--triplets", str(mined / "triplets.txt"),
                     "--method", "ssfa", "--epochs", "1", "--out", str(tmp_path / "run"),
                     flag, value])
        assert code == 3, value
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


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


def test_train_sfa1_is_library_training_on_the_l1_pair_loss(pipeline, tmp_path):
    # the l1 method was tested only at the library level, never through train
    _, data, mined, _ = pipeline
    out = tmp_path / "sfa1"
    run_ok(["train", "--labeled", str(data / "labeled.txt"),
            "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(mined / "pairs.txt"),
            "--method", "sfa1", "--epochs", "4", "--patience", "4", "--seed", "3",
            "--out", str(out)])
    labeled, u = load_manifest(data / "labeled.txt"), load_manifest(data / "unlabeled.txt")
    pairs = resolve_pairs(u, load_tuples(mined / "pairs.txt")[0])
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.0, margins=Margins(metric="l1"),
                      max_epochs=4, patience=4, seed=3)
    params, W, _ = train(labeled, pairs, None, LayerSpec((256, 25, 25)), cfg)
    save_checkpoint(tmp_path / "library.ckpt", params, W)
    assert (out / "checkpoint.ckpt").read_bytes() == (tmp_path / "library.ckpt").read_bytes()


def test_train_ssfa_with_only_a_pair_file_exits_2(pipeline, tmp_path, capsys):
    _, data, mined, _ = pipeline
    out = tmp_path / "o"
    code = main(["train", "--labeled", str(data / "labeled.txt"),
                 "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(mined / "pairs.txt"),
                 "--method", "ssfa", "--out", str(out)])
    assert code == 2
    assert "method ssfa needs triplet tuples (--triplets)" in capsys.readouterr().err
    assert not out.exists()


def test_train_checks_hidden_before_reading_any_file(tmp_path, capsys):
    # a bad --hidden used to surface only after the manifest was read, so a
    # missing manifest hid it behind exit 3; its reader now rejects it
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        main(["train", "--labeled", str(tmp_path / "missing.txt"), "--hidden", "2_5",
              "--out", str(out)])
    assert e.value.code == 2
    assert "argument --hidden: bad hidden layer list '2_5'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["mine", "--data", "MISSING", "--T", "0"], 3, "T_seconds must be finite and > 0, got 0.0"),
    (["train", "--labeled", "MISSING", "--lr", "-1"], 3, "lr must be finite and > 0, got -1.0"),
    (["train", "--labeled", "MISSING", "--hidden", "0"], 2,
     "argument --hidden: bad hidden layer list '0'"),
    (["train", "--labeled", "MISSING", "--hidden", "25,-3"], 2,
     "argument --hidden: bad hidden layer list '25,-3'"),
    (["train", "--labeled", "MISSING", "--dim", "0"], 2,
     "argument --dim: expected an integer >= 1, got '0'"),
    (["train", "--labeled", "MISSING", "--method", "ssfa"], 2,
     "this method needs --unlabeled and --pairs"),
    (["train", "--labeled", "MISSING", "--momentum", "1"], 3, "momentum must be in [0, 1)"),
    (["train", "--labeled", "MISSING", "--batch-labeled", "0"], 3, "batch_labeled must be >= 1"),
    (["train", "--labeled", "MISSING", "--batch-pairs", "-1"], 3, "batch sizes must be >= 0"),
    (["train", "--labeled", "MISSING", "--epochs", "0"], 3,
     "max_epochs and patience must be >= 1"),
    (["train", "--labeled", "MISSING", "--val-fraction", "1"], 3,
     "val_fraction must be in (0, 1)"),
    (["mine", "--data", "MISSING", "--max-pairs", "0"], 3, "caps must be >= 1"),
], ids=["mine_T", "train_lr", "train_hidden_0", "train_hidden_negative", "train_dim_0",
        "train_needs_tuple_files", "train_momentum", "train_batch_labeled", "train_batch_pairs",
        "train_epochs", "train_val_fraction", "mine_max_pairs"])
def test_flag_values_are_checked_before_any_file_is_read(tmp_path, capsys, argv, code, message):
    # these were found only once the manifests had loaded, so a missing one
    # hid them behind "No such file" (and a width below 1 reached LayerSpec,
    # exit 3, after every manifest and tuple file had been read); a method
    # with lam > 0 and no tuple files was found only after --labeled loaded
    out = tmp_path / "o"
    argv = [str(tmp_path / "missing.txt") if a == "MISSING" else a for a in argv]
    try:
        got = main(argv + ["--out", str(out)])
    except SystemExit as e:  # argparse rejects a value outside a type itself
        got = e.code
    assert got == code
    err = capsys.readouterr().err
    assert message in err and "No such file" not in err
    assert not out.exists()


# flags that name an input file, and the other flags that take no value from a domain
PATH_FLAGS = {"--data", "--labeled", "--unlabeled", "--pairs", "--triplets", "--checkpoint",
              "--train", "--test"}
NO_RULE_FLAGS = PATH_FLAGS | {"--config", "--out", "--cv"}

# every other flag: an out-of-domain value, its exit code and its message;
# a flag that every subcommand shares is keyed by its name alone
FLAG_RULES = {
    "--threads": ("0", 2, "argument --threads: expected an integer >= 1, got '0'"),
    "--seed": ("-1", 2, "argument --seed: expected an integer >= 0, got '-1'"),
    ("synth", "--mode"): ("bogus", 2, "argument --mode: invalid choice: 'bogus'"),
    ("synth", "--clips"): ("-1", 3, "--clips and --labeled-per-class must be >= 0, got -1 and 0"),
    ("synth", "--clip-len"): ("4", 3, "clip_len must be >= 5"),
    ("synth", "--grid"): ("7", 3, "grid must be >= 8"),
    ("synth", "--shapes"): ("1", 3, "shapes must be in [2, "),
    ("synth", "--noise"): ("-1", 3, "noise_sigma must be finite and >= 0, got -1.0"),
    ("synth", "--labeled-per-class"): ("-1", 3,
                                       "--clips and --labeled-per-class must be >= 0, got 8 and -1"),
    ("mine", "--T"): ("0", 3, "T_seconds must be finite and > 0, got 0.0"),
    ("mine", "--pair-neg-ratio"): ("-1", 3, "negative ratios must be finite and >= 0, got -1.0, 1.0"),
    ("mine", "--triplet-neg-ratio"): ("-1", 3,
                                      "negative ratios must be finite and >= 0, got 3.0, -1.0"),
    ("mine", "--max-pairs"): ("0", 3, "caps must be >= 1"),
    ("mine", "--max-triplets"): ("0", 3, "caps must be >= 1"),
    ("train", "--method"): ("bogus", 2, "argument --method: invalid choice: 'bogus'"),
    ("train", "--lambda"): ("-1", 3, "regularization weights must be finite and >= 0, got "
                                     "lam=-1.0, lam_prime=1.0"),
    ("train", "--lambda2"): ("-1", 3, "regularization weights must be finite and >= 0, got "
                                      "lam=1.0, lam_prime=-1.0"),
    ("train", "--lr"): ("0", 3, "lr must be finite and > 0, got 0.0"),
    ("train", "--momentum"): ("1", 3, "momentum must be in [0, 1)"),
    ("train", "--delta-pair"): ("-1", 3, "margins must be finite and >= 0, got "
                                         "delta_pair=-1.0, delta_triplet=1.0"),
    ("train", "--delta-triplet"): ("-1", 3, "margins must be finite and >= 0, got "
                                            "delta_pair=1.0, delta_triplet=-1.0"),
    ("train", "--batch-labeled"): ("0", 3, "batch_labeled must be >= 1"),
    ("train", "--batch-pairs"): ("-1", 3, "batch sizes must be >= 0"),
    ("train", "--batch-triplets"): ("-1", 3, "batch sizes must be >= 0"),
    ("train", "--epochs"): ("0", 3, "max_epochs and patience must be >= 1"),
    ("train", "--patience"): ("0", 3, "max_epochs and patience must be >= 1"),
    ("train", "--val-fraction"): ("0", 3, "val_fraction must be in (0, 1)"),
    ("train", "--hidden"): ("0", 2, "argument --hidden: bad hidden layer list '0'"),
    ("train", "--dim"): ("0", 2, "argument --dim: expected an integer >= 1, got '0'"),
    ("eval-seqcomp", "--T"): ("-1", 3, "T_seconds must be finite and > 0, got -1.0"),
    ("eval-seqcomp", "--queries"): ("0", 3, "max_queries must be >= 1, got 0"),
    ("eval-seqcomp", "--pool-n"): ("-1", 3, "n_per_video must be >= 0"),
    ("eval-knn", "--k"): ("0", 3, "k must be >= 1"),
    ("gradcheck", "--points"): ("0", 3, "points must be >= 1, got 0"),
}


def _subparsers():
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags(parser):
    return [opt for a in parser._actions for opt in a.option_strings if opt not in ("-h", "--help")]


@pytest.mark.parametrize("command, flag", [pytest.param(c, f, id=c + f)
                                           for c, p in _subparsers().items()
                                           for f in _flags(p) if f not in NO_RULE_FLAGS])
def test_every_flag_rule_is_reached_before_any_input_is_read(tmp_path, capsys, command, flag):
    # eval-knn --k, eval-seqcomp --queries, --T and --pool-n were checked only
    # once the checkpoint and manifests had loaded, and --seed -1 reached
    # numpy's seeding (or was masked), so a missing file hid each behind
    # "No such file"; a flag in neither table fails here
    rule = FLAG_RULES.get((command, flag), FLAG_RULES.get(flag))
    assert rule is not None, f"{command} {flag} has no out-of-domain case in FLAG_RULES"
    value, code, message = rule
    missing, out = str(tmp_path / "missing"), tmp_path / "o"
    argv = [command] + [a for f in _flags(_subparsers()[command]) if f in PATH_FLAGS
                        for a in (f, missing)]
    try:
        got = main(argv + ["--out", str(out), flag, value])
    except SystemExit as e:  # argparse rejects a value outside a type or choices itself
        got = e.code
    err = capsys.readouterr().err
    assert got == code and message in err, err
    assert "No such file" not in err
    assert not out.exists()


# the flags whose FLAG_RULES row is their argparse reader's rule
READER_RULES = ([(c, f) for c in _subparsers() for f in ("--seed", "--threads")]
                + [("train", "--dim"), ("train", "--hidden")])


@pytest.mark.parametrize("command, flag", [pytest.param(c, f, id=c + f) for c, f in READER_RULES])
def test_every_reader_rule_names_the_config_key(tmp_path, capsys, command, flag):
    # --threads, --dim and --hidden were checked after parsing, so a bad
    # config value was reported under the flag's name; each flag's reader
    # now checks a config value too and names the key, with the reason the
    # flag gives, before any input is read
    value, code, message = FLAG_RULES.get((command, flag), FLAG_RULES.get(flag))
    key = flag[2:]
    missing, out = str(tmp_path / "missing"), tmp_path / "o"
    (tmp_path / "c.txt").write_text(f"{key} = {value}\n")
    argv = [command] + [a for f in _flags(_subparsers()[command]) if f in PATH_FLAGS
                        for a in (f, missing)]
    assert main(argv + ["--out", str(out), "--config", str(tmp_path / "c.txt")]) == code == 2
    err = capsys.readouterr().err
    assert message.replace(f"argument {flag}", f"config key {key!r}") in err, err
    assert flag not in err and "No such file" not in err
    assert not out.exists()


def test_every_subcommand_shares_four_flags_and_the_rule_table_is_current():
    subparsers = _subparsers()
    for command, parser in subparsers.items():
        assert {"--config", "--threads", "--seed", "--out"} <= set(_flags(parser)), command
        for a in parser._actions:  # a flag with a domain cannot hide among the exempt ones
            if set(a.option_strings) & NO_RULE_FLAGS:
                assert a.type is None and a.choices is None, a.option_strings
    flags = {(c, f) for c, p in subparsers.items() for f in _flags(p)}
    assert {key for key in FLAG_RULES if isinstance(key, tuple)} <= flags


def test_failed_train_leaves_no_out_behind(pipeline, tmp_path, capsys):
    # the config echo was written before training, so a diverged run left
    # run_config.txt behind as if it had produced a model
    _, data, _, _ = pipeline
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["train", "--labeled", str(data / "labeled.txt"), "--method", "unreg",
                     "--lr", "1e300", "--epochs", "3", "--out", str(out)])
    assert code == 3
    assert "non-finite loss term validation" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--clips", "1", "--clip-len", "3"], ["fixtures"], ["mine", "--data", "missing.txt"],
    ["train", "--labeled", "missing.txt"],
    ["eval-seqcomp", "--checkpoint", "missing.ckpt", "--unlabeled", "missing.txt"],
    ["eval-cls", "--checkpoint", "missing.ckpt", "--test", "missing.txt"],
    ["eval-knn", "--checkpoint", "missing.ckpt", "--train", "missing.txt", "--test", "missing.txt"],
    ["gradcheck", "--points", "1"],
], ids=lambda argv: argv[0])
def test_every_subcommand_rejects_an_out_it_cannot_create_before_any_work(tmp_path, capsys,
                                                                          monkeypatch, argv):
    # a file in the way of --out must be found before the inputs are read or
    # any work is done, not after a long run; an empty --out is no directory
    # either, and must not stand for the working directory
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    for out in (str(blocker), str(blocker / "run"), ""):
        assert main(argv + ["--out", out]) == 2
        assert f"--out: cannot create directory {out}" in capsys.readouterr().err
    assert blocker.read_text() == "x"
    assert os.listdir(tmp_path) == ["file"]


def test_train_sfa2_without_pair_batch_exits_3(pipeline):
    # lam > 0 with a pair batch of 0 has nothing to regularize with
    base, data, mined, _ = pipeline
    code = main(["train", "--labeled", str(data / "labeled.txt"),
                 "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(mined / "pairs.txt"),
                 "--method", "sfa2", "--lambda", "0.5", "--batch-pairs", "0",
                 "--epochs", "2", "--out", str(base / "no_pair_batch")])
    assert code == 3
    assert not (base / "no_pair_batch" / "checkpoint.ckpt").exists()


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


def test_eval_knn_of_a_set_against_itself_spans_distance_blocks(pipeline, tmp_path):
    # what `eval-knn --train X --test X` runs; 300 x 300 distances are six
    # blocks of queries
    from ssfa.data import PREP_BLOCK_BYTES
    from ssfa.evaluate import knn_accuracy
    from ssfa.network import load_checkpoint

    _, _, _, run = pipeline
    ckpt, data, out = str(run / "checkpoint.ckpt"), tmp_path / "data", tmp_path / "ek"
    run_ok(["synth", "--out", str(data), "--clips", "0", "--labeled-per-class", "75"])
    labeled = str(data / "labeled.txt")
    run_ok(["eval-knn", "--checkpoint", ckpt, "--train", labeled, "--test", labeled,
            "--out", str(out)])
    s = load_manifest(labeled)
    assert 8 * len(s) ** 2 > 5 * (PREP_BLOCK_BYTES // 8)
    acc = json.loads((out / "knn.json").read_text())["accuracy"]["knn"]
    assert acc == knn_accuracy(load_checkpoint(ckpt)[0], s, s)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_eval_seqcomp_non_finite_window_exits_3(pipeline, tmp_path, capsys, value):
    # --T inf used to exit 1 with an OverflowError traceback
    _, data, _, run = pipeline
    code = main(["eval-seqcomp", "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--unlabeled", str(data / "unlabeled.txt"), "--T", value,
                 "--out", str(tmp_path / "e")])
    assert code == 3
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("queries", ["0", "-5"])
def test_eval_seqcomp_fewer_than_one_query_exits_3(pipeline, tmp_path, capsys, queries):
    # --queries -5 exited 0 after dropping 5 random candidates
    _, data, _, run = pipeline
    code = main(["eval-seqcomp", "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--unlabeled", str(data / "unlabeled.txt"), "--queries", queries,
                 "--out", str(tmp_path / "e")])
    assert code == 3
    assert "max_queries must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--T", "0.5", "no clip admits a completion query"),  # frame period 1: a 0-frame window
    ("--pool-n", "-1", "n_per_video must be >= 0"),
])
def test_eval_seqcomp_without_queries_or_with_a_negative_pool_exits_3(pipeline, tmp_path, capsys,
                                                                       flag, value, message):
    _, data, _, run = pipeline
    code = main(["eval-seqcomp", "--checkpoint", str(run / "checkpoint.ckpt"),
                 "--unlabeled", str(data / "unlabeled.txt"), flag, value,
                 "--out", str(tmp_path / "e")])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_missing_checkpoint_exits_3(pipeline):
    base, data, _, _ = pipeline
    code = main(["eval-cls", "--checkpoint", str(base / "nope.ckpt"),
                 "--test", str(data / "labeled.txt"), "--out", str(base / "y")])
    assert code == 3


@pytest.mark.parametrize("kind, line", [("layers", b"layers 2 x"), ("layers", b"layers 2 0"),
                                        ("classes", b"classes q"), ("classes", b"classes -1")])
def test_eval_cls_bad_checkpoint_header_names_file_and_line(pipeline, tmp_path, capsys, kind, line):
    # these lines raised messages that named neither the file nor the line
    _, data, _, run = pipeline
    head = (run / "checkpoint.ckpt").read_bytes().split(b"\n", 3)
    head[1 if kind == "layers" else 2] = line
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(b"\n".join(head))
    code = main(["eval-cls", "--checkpoint", str(ckpt), "--test", str(data / "labeled.txt"),
                 "--out", str(tmp_path / "e")])
    assert code == 3
    assert f"{ckpt}: bad {kind} line {line!r}" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_gradcheck_cli_passes():
    assert main(["gradcheck", "--points", "3", "--seed", "0"]) == 0


def test_gradcheck_cli_reports_a_wrong_gradient_and_exits_3(tmp_path, capsys, monkeypatch):
    # the FAILED exit had no test through the CLI
    real = gradcheck.total_objective

    def flipped(*args, **kwargs):
        result = real(*args, **kwargs)
        np.negative(result.grads["flat"], out=result.grads["flat"])
        return result

    monkeypatch.setattr(gradcheck, "total_objective", flipped)
    out = tmp_path / "g"
    assert main(["gradcheck", "--points", "2", "--seed", "0", "--out", str(out)]) == 3
    assert "gradient check FAILED" in capsys.readouterr().err
    rows = (out / "gradcheck.csv").read_text().splitlines()
    assert [r.split(",")[-1] for r in rows] == ["status", "pass", "pass", "pass", "FAIL"]
    assert rows[-1].startswith("total_objective,")


@pytest.mark.parametrize("points", ["0", "-3"])
def test_gradcheck_fewer_than_one_point_exits_3(tmp_path, capsys, points):
    # --points 0 printed "pass" on every row and exited 0
    code = main(["gradcheck", "--points", points, "--out", str(tmp_path / "g")])
    assert code == 3
    captured = capsys.readouterr()
    assert "points must be >= 1" in captured.err and "pass" not in captured.out
    assert not (tmp_path / "g").exists()


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


def test_train_unreg_cv_searches_lr_only(pipeline, tmp_path):
    # with no tuples the lam stage trained "nothing to optimize" and exited 3
    _, data, _, _ = pipeline
    out = tmp_path / "cv"
    run_ok(["train", "--labeled", str(data / "labeled.txt"), "--method", "unreg", "--cv",
            "--epochs", "2", "--patience", "2", "--seed", "1", "--out", str(out)])
    log = (out / "search_log.csv").read_text().splitlines()
    assert log[0] == "stage,candidate,val_loss"
    assert {line.split(",")[0] for line in log[1:]} == {"lr"}
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


def test_missing_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "missing.cfg"
    assert main(["gradcheck", "--config", str(cfg), "--points", "1"]) == 2
    assert f"error: config file not found: {cfg}" in capsys.readouterr().err


def test_config_file_unknown_key_exits_2(pipeline, tmp_path, capsys):
    _, data, _, _ = pipeline
    # a key is a flag's name: neither its dest (lam, pair_neg_ratio) nor
    # --help or --config itself
    cfg = tmp_path / "bad.cfg"
    train = ["train", "--labeled", str(data / "labeled.txt"), "--method", "unreg"]
    mine = ["mine", "--data", str(data / "unlabeled.txt")]
    for argv, key in ((train, "warp_speed = 9"), (train, "help = x"),
                      (train, "config = nowhere.txt"), (train, "lam = 0.5"),
                      (mine, "pair_neg_ratio = 2")):
        cfg.write_text(key + "\n")
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "is not a flag of this subcommand" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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
    run_ok(["gradcheck", "--points", "1", "--threads", "2"])
    assert [os.environ[v] for v in BLAS_VARS] == ["2", "2", "2"]
    run_ok(["gradcheck", "--points", "1", "--threads=3"])
    assert [os.environ[v] for v in BLAS_VARS] == ["3", "3", "3"]


def test_threads_default_keeps_preset_blas_env(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    run_ok(["gradcheck", "--points", "1", "--seed", "3"])
    assert [os.environ[v] for v in BLAS_VARS] == ["7", "1", "1"]


def test_a_non_ascii_digit_in_a_preset_blas_variable_is_read_as_unset(tmp_path):
    # OpenBLAS's atoi reads "²" as 0, that is unset; importing ssfa must not
    # fail on it either, so the command runs and exits 0
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(OPENBLAS_NUM_THREADS="²", OMP_NUM_THREADS="³", PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "ssfa.cli", "synth", "--out", str(tmp_path / "s"),
                           "--clips", "1"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "s" / "unlabeled.txt").exists()


def _child(args, tmp_path, **env):
    """Run ``python`` with ``args`` in a child that has no BLAS variable preset but ``env``."""
    root = Path(__file__).resolve().parents[1]
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + ("GOTO_NUM_THREADS",)}
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, capture_output=True, text=True,
                          env={**base, **env, "PYTHONPATH": str(root / "src")}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(network.blas_pool() is None, reason="needs numpy's bundled OpenBLAS")
def test_threads_sets_the_live_blas_pool_of_this_process(tmp_path):
    # numpy has loaded OpenBLAS before the CLI parses --threads, so the
    # count reaches this process's pool through the live setter, capped at
    # the CPUs that OpenBLAS counts
    code = ("from ssfa import cli, network\n"
            "print(network._BLAS.scipy_openblas_get_num_procs64_())\n"
            "for n in (1, 2):\n    cli._apply_threads(n)\n    print(network.blas_pool())")
    procs, *pools = _child(["-c", code], tmp_path).split()
    assert pools == ["1", str(min(2, int(procs)))]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or network.blas_pool() is None
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity, numpy's bundled OpenBLAS and two CPUs")
def test_threads_runs_the_pool_a_preset_count_gives_under_an_affinity(tmp_path):
    # pinned to one CPU before numpy loads, OpenBLAS caps a preset
    # OPENBLAS_NUM_THREADS=2 at that one CPU; --threads 2 takes the same cap,
    # so both runs sum in one order and take the same split gates
    pin = ("import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
           "from ssfa import cli, network\n")
    flag = _child(["-c", pin + "cli._apply_threads(2)\nprint(network.blas_pool())"], tmp_path)
    preset = _child(["-c", pin + "print(network.blas_pool())"], tmp_path, OPENBLAS_NUM_THREADS="2")
    assert flag == preset


def test_threads_1_writes_the_checkpoint_of_a_preset_one_thread_pool(tmp_path):
    # at 1024->256->64 a wider pool sums the products in another order, so
    # --threads 1 with nothing preset must run the pool that a preset
    # OPENBLAS_NUM_THREADS=1 gives, and write the same bytes
    data, mined = tmp_path / "data", tmp_path / "mined"
    run_ok(["synth", "--out", str(data), "--grid", "32", "--clips", "16", "--clip-len", "40",
            "--labeled-per-class", "10", "--seed", "7"])
    run_ok(["mine", "--data", str(data / "unlabeled.txt"), "--out", str(mined), "--seed", "7",
            "--max-pairs", "1024", "--max-triplets", "1024"])
    train = ["-m", "ssfa.cli", "train", "--labeled", str(data / "labeled.txt"),
             "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(mined / "pairs.txt"),
             "--triplets", str(mined / "triplets.txt"), "--hidden", "256", "--dim", "64",
             "--epochs", "1", "--batch-pairs", "256", "--batch-triplets", "256", "--seed", "1"]
    _child([*train, "--threads", "1", "--out", "flag"], tmp_path)
    _child([*train, "--out", "preset"], tmp_path, OPENBLAS_NUM_THREADS="1")
    ckpt = [(tmp_path / run / "checkpoint.ckpt").read_bytes() for run in ("flag", "preset")]
    assert ckpt[0] == ckpt[1]


@pytest.mark.skipif(network.blas_pool() is None, reason="needs numpy's bundled OpenBLAS")
def test_main_gives_back_the_blas_pool_it_found(monkeypatch):
    # --threads sets the pool for the run only: a caller in the same process
    # keeps its own pool, and splits as before
    before = network.blas_pool()
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "7")
    run_ok(["gradcheck", "--points", "1", "--threads", "1" if before > 1 else "2"])
    assert network.blas_pool() == before


def test_without_the_blas_handle_threads_only_writes_the_variables(monkeypatch):
    # over another BLAS the pool is unknown: nothing splits, and --threads
    # reaches child processes through the variables alone
    pool = network.blas_pool()
    monkeypatch.setattr(network, "_BLAS", None)
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "7")
    _apply_threads(1)
    assert not network._split_elems(network._SPLIT_ELEMS) and network.blas_pool() is None
    assert [os.environ[v] for v in BLAS_VARS] == ["1", "1", "1"]
    monkeypatch.undo()
    assert network.blas_pool() == pool


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


def test_config_value_outside_choices_exits_2(pipeline, tmp_path):
    _, data, mined, _ = pipeline
    cfg = tmp_path / "train.cfg"
    cfg.write_text("method = bogus\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--labeled", str(data / "labeled.txt"),
                 "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(mined / "pairs.txt"),
                 "--epochs", "1", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    cfg.write_text("mode = wobbly\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("argv,config", [
    (["--threads", "0"], None),
    (["--threads=-2"], None),
    ([], "threads = 0\n"),
    (["--thr", "0"], None),
])
def test_thread_count_below_1_exits_2_and_leaves_env(monkeypatch, tmp_path, argv, config):
    _unset_blas_env(monkeypatch)
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    if config is not None:
        (tmp_path / "c.txt").write_text(config)
        assert main(["gradcheck", "--points", "1", "--config", str(tmp_path / "c.txt")]) == 2
    else:  # argparse rejects a flag value outside its reader's domain itself
        with pytest.raises(SystemExit) as e:
            main(["gradcheck", "--points", "1"] + argv)
        assert e.value.code == 2
    assert os.environ["OMP_NUM_THREADS"] == "7"
    assert not any(v in os.environ for v in BLAS_VARS[1:])


def test_abbreviated_config_and_threads_flags_are_honored(monkeypatch, tmp_path):
    # argparse accepts unique prefixes of long flags; both must take effect
    _unset_blas_env(monkeypatch)
    (tmp_path / "c.txt").write_text("clips = 2\n")
    out = tmp_path / "o"
    run_ok(["synth", "--out", str(out), "--conf", str(tmp_path / "c.txt"), "--thr", "3"])
    assert len((out / "unlabeled.txt").read_text().splitlines()) == 2
    assert [os.environ[v] for v in BLAS_VARS] == ["3", "3", "3"]


@pytest.mark.parametrize("command, key, value, reason", [
    ("train", "epochs", "1_0", "expected an integer in ASCII digits"),
    ("train", "batch-pairs", "+3", "expected an integer in ASCII digits"),
    ("train", "hidden", "2_5", "bad hidden layer list"),
    ("eval-knn", "k", "\u0663", "expected an integer in ASCII digits"),
    ("train", "seed", "-1", "expected an integer >= 0"),
], ids=["epochs_underscore", "batch_pairs_plus", "hidden_underscore", "k_arabic_indic",
        "seed_negative"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_integer_flags_and_config_values_are_ascii_decimal(pipeline, tmp_path, capsys, command,
                                                           key, value, reason, via):
    # int() took the first four: 10 epochs, a pair batch of 3, a 25-unit
    # hidden layer and k = 3; each is now exit 2 with the flag or key named,
    # and the reader's reason, before any output
    _, data, _, run = pipeline
    labeled, out = str(data / "labeled.txt"), str(tmp_path / "out")
    argv = {
        "train": ["train", "--labeled", labeled, "--method", "unreg", "--out", out]
                 + (["--epochs", "1"] if key != "epochs" else []),
        "eval-knn": ["eval-knn", "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--train", labeled, "--test", labeled, "--out", out],
    }[command]
    if via == "flag":
        argv += [f"--{key}", value]
    else:
        (tmp_path / "c.txt").write_text(f"{key} = {value}\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "c.txt")]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a bad flag value itself
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err and reason in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("synth", "noise", "0_1"),
    ("mine", "T", "\u0662"),
    ("train", "lr", "1_0e-3"),
    ("train", "lambda", "\u0661.\u0665"),
    ("eval-seqcomp", "T", "\uff12"),
], ids=["noise_underscore", "T_arabic_indic", "lr_underscore", "lambda_arabic_indic",
        "T_fullwidth"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_float_flags_and_config_values_are_ascii(pipeline, tmp_path, capsys, command, key, value,
                                                 via):
    # float() took these: noise 0.1, T = 2, lr 0.01, lambda 1.5 and T = 2;
    # each is now exit 2 with the flag or key named, and the reader's
    # reason, before any output
    _, data, _, run = pipeline
    labeled, unlabeled = str(data / "labeled.txt"), str(data / "unlabeled.txt")
    out = str(tmp_path / "out")
    argv = {
        "synth": ["synth", "--out", out, "--clips", "2"],
        "mine": ["mine", "--data", unlabeled, "--out", out],
        "train": ["train", "--labeled", labeled, "--method", "unreg", "--epochs", "1", "--out", out],
        "eval-seqcomp": ["eval-seqcomp", "--checkpoint", str(run / "checkpoint.ckpt"),
                         "--unlabeled", unlabeled, "--out", out],
    }[command]
    if via == "flag":
        argv += [f"--{key}", value]
    else:
        (tmp_path / "c.txt").write_text(f"{key} = {value}\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "c.txt")]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects a bad flag value itself
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and repr(value) in err, err
    assert "expected a real number in ASCII" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["1", "-2.5", "+.5", "7.", "1e-05", "2.5E+3", "inf", "-Infinity",
                                  "1e999"])
def test_real_reads_float_forms_in_ascii(text):
    assert _real(text) == float(text)
    assert np.isnan(_real("nan")) and np.isnan(_real("-NaN"))


def test_header_only_labeled_manifest_exits_3(tmp_path, capsys):
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("classes\t2\n")
    out = tmp_path / "run"
    code = main(["train", "--labeled", str(labeled), "--method", "unreg", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert str(labeled) in err and "empty" in err
    assert not out.exists()


def test_tuple_naming_unknown_clip_or_frame_exits_3(pipeline, tmp_path, capsys):
    _, data, _, _ = pipeline
    clip_id = (data / "unlabeled.txt").read_text().split("\t", 1)[0]
    for line in ("PAIR nosuch 9 5 1", f"PAIR {clip_id} 99 5 1"):
        (tmp_path / "pairs.txt").write_text(line + "\n")
        code = main(["train", "--labeled", str(data / "labeled.txt"),
                     "--unlabeled", str(data / "unlabeled.txt"),
                     "--pairs", str(tmp_path / "pairs.txt"), "--method", "sfa2",
                     "--epochs", "1", "--out", str(tmp_path / "run")])
        assert code == 3, line
        assert line.split()[1] in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("PAIR {clip} x 1 1", "invalid literal for int() with base 10: 'x'"),
    ("PAIR {clip} 1 5 1", "pair needs j > k >= 0, got (1, 5)"),
    ("TRIP {clip} 1 2 3 7", "label must be 0 or 1, got 7"),
])
def test_tuple_value_error_names_file_and_line(pipeline, tmp_path, capsys, line, message):
    _, data, _, _ = pipeline
    clip_id = (data / "unlabeled.txt").read_text().split("\t", 1)[0]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"# mined temporal tuples\nPAIR {clip_id} 1 0 1\n{line.format(clip=clip_id)}\n")
    code = main(["train", "--labeled", str(data / "labeled.txt"),
                 "--unlabeled", str(data / "unlabeled.txt"), "--pairs", str(pairs),
                 "--method", "sfa2", "--epochs", "1", "--out", str(tmp_path / "run")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {pairs}: line 3: {message}\n"


def test_no_tuple_sample_alive_while_training(pipeline, tmp_path, monkeypatch):
    # train resolves its tuple files into index arrays; the samples they
    # were read into are gone before trainer.train runs
    from ssfa import trainer

    base, data, mined, _ = pipeline

    def live_samples():
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, (PairSample, TripletSample))}

    before, seen = live_samples(), []
    train = trainer.train

    def spy(*args, **kwargs):
        seen.append(len(live_samples() - before))
        return train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", spy)
    run_ok(["train", "--labeled", str(data / "labeled.txt"),
            "--unlabeled", str(data / "unlabeled.txt"),
            "--pairs", str(mined / "pairs.txt"), "--triplets", str(mined / "triplets.txt"),
            "--method", "ssfa", "--lambda", "0.5", "--lambda2", "0.5",
            "--epochs", "1", "--seed", "2", "--out", str(tmp_path / "run")])
    assert seen == [0]


@contextlib.contextmanager
def _address_space_cap(extra=2**31):
    """Cap this process's address space at its current size plus ``extra``,
    so that an oversized allocation fails on hosts that overcommit memory."""
    if not sys.platform.startswith("linux"):
        yield
        return
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as f:
        size = int(f.read().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def _argv_for(case, data, run, tmp_path):
    labeled, unlabeled = str(data / "labeled.txt"), str(data / "unlabeled.txt")
    ckpt, out = str(run / "checkpoint.ckpt"), str(tmp_path / "out")
    if case == "train_unlabeled_is_labeled":
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("PAIR c 1 0 1\n")
        return ["train", "--labeled", labeled, "--unlabeled", labeled, "--pairs", str(pairs),
                "--out", out]
    if case == "mine_huge_p2_header":
        (tmp_path / "huge.pgm").write_bytes(b"P2 100000 100000 9 1")  # 20 bytes
        (tmp_path / "clips.txt").write_text("c\t1.0\thuge.pgm\n")
        return ["mine", "--data", str(tmp_path / "clips.txt"), "--out", out]
    if case == "synth_grid_too_large":
        return ["synth", "--out", out, "--grid", "100000", "--clips", "1", "--clip-len", "5"]
    not_text = tmp_path / "not_text.txt"
    not_text.write_bytes(b"\xff\xfeclips = 2\n")
    if case == "config_not_utf8":
        return ["synth", "--config", str(not_text), "--out", out]
    if case == "manifest_not_utf8":
        return ["mine", "--data", str(not_text), "--out", out]
    if case == "pairs_not_utf8":
        return ["train", "--labeled", labeled, "--unlabeled", unlabeled, "--pairs", str(not_text),
                "--out", out]
    return {
        "mine_data_is_labeled": ["mine", "--data", labeled, "--out", out],
        "seqcomp_unlabeled_is_labeled": ["eval-seqcomp", "--checkpoint", ckpt,
                                         "--unlabeled", labeled, "--out", out],
        "cls_test_is_unlabeled": ["eval-cls", "--checkpoint", ckpt, "--test", unlabeled,
                                  "--out", out],
        "knn_train_is_unlabeled": ["eval-knn", "--checkpoint", ckpt, "--train", unlabeled,
                                   "--test", labeled, "--out", out],
    }[case]


@pytest.mark.parametrize("case, code", [
    ("train_unlabeled_is_labeled", 2),
    ("mine_huge_p2_header", 3),
    ("synth_grid_too_large", 3),
    ("config_not_utf8", 2),
    ("manifest_not_utf8", 3),
    ("pairs_not_utf8", 3),
    ("mine_data_is_labeled", 2),
    ("seqcomp_unlabeled_is_labeled", 2),
    ("cls_test_is_unlabeled", 2),
    ("knn_train_is_unlabeled", 2),
])
def test_bad_input_exits_2_or_3_without_traceback(pipeline, tmp_path, capsys, case, code):
    # every bad input is a usage error (2) or a runtime error (3), reported
    # in one line, and a failed run writes no output directory
    _, data, _, run = pipeline
    argv = _argv_for(case, data, run, tmp_path)
    with _address_space_cap():
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if case.endswith("_not_utf8"):
        assert f"{tmp_path / 'not_text.txt'}: not utf-8 text: invalid start byte" in err


def test_line_readers_skip_the_same_lines(tmp_path, capsys):
    # one CRLF file: blank, indented comment, whitespace-only, then a line
    # that no reader accepts; each reader reports it as line 4
    text = b"\r\n  \t# indented comment\r\n \t \r\nnot a record\r\n"
    path = tmp_path / "lines.txt"
    path.write_bytes(text)
    with pytest.raises(ManifestError, match=r"line 4: expected 3 tab-separated fields"):
        load_manifest(path)
    with pytest.raises(ValueError, match=r"line 4: bad tuple line 'not a record'"):
        load_tuples(path)
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "line 4: expected key = value" in capsys.readouterr().err
    # with the record made valid for each, every reader sees exactly it
    path.write_bytes(text.replace(b"not a record", b"PAIR c 1 0 1"))
    assert load_tuples(path) == ([PairSample("c", 1, 0, 1)], [])
    path.write_bytes(text.replace(b"not a record", b"clips = 2"))
    assert _parse_config_file(path) == {"clips": "2"}
