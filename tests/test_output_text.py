"""The literal text of every text table and JSON report the CLI writes, on
fixed values: ints, 0.1, 1/3, inf and a np.float64."""

import numpy as np

from ssfa.cli import main
from ssfa.data import Clip, LabeledSet, UnlabeledSet, write_labeled, write_unlabeled
from ssfa.gradcheck import GradCheckRow, format_report
from ssfa.network import LayerSpec, NetworkParams, save_checkpoint
from ssfa.trainer import EpochStats, TrainHistory, write_search_log


def test_history_csv_text(tmp_path):
    rows = [EpochStats(1, 0.1, 1 / 3, 0.0, float("inf"), np.float64(0.25)),
            EpochStats(12, np.float64(1 / 3), 2.0, 1e-300, 0.1, 1.0)]
    TrainHistory(rows, 1).to_csv(tmp_path / "history.csv")
    assert (tmp_path / "history.csv").read_text() == (
        "epoch,loss_sup,loss_slow,loss_steady,val_loss,val_acc\n"
        "1,0.1,0.3333333333333333,0.0,inf,0.25\n"
        "12,0.3333333333333333,2.0,1e-300,0.1,1.0\n")


def test_search_log_text(tmp_path):
    log = [{"stage": "lr", "candidate": 0.1, "val_loss": 1 / 3},
           {"stage": "delta_triplet", "candidate": 3.0, "val_loss": float("inf")}]
    write_search_log(log, tmp_path / "search_log.csv")
    assert (tmp_path / "search_log.csv").read_text() == (
        "stage,candidate,val_loss\n"
        "lr,0.1,0.3333333333333333\n"
        "delta_triplet,3.0,inf\n")


def test_gradcheck_report_text():
    rows = [GradCheckRow("softmax", 0.1, 1e-6), GradCheckRow("pair", 0.0, 1e-6),
            GradCheckRow("triplet", 1 / 3 * 1e-5, 1e-4),
            GradCheckRow("total_objective", float("inf"), 1e-4)]
    assert format_report(rows) == (
        "loss,max_rel_error,tolerance,status\n"
        "softmax,0.1,1e-06,FAIL\n"
        "pair,0.0,1e-06,pass\n"
        "triplet,3.3333333333333333e-06,0.0001,pass\n"
        "total_objective,inf,0.0001,FAIL\n")


def test_eval_report_texts(tmp_path):
    # an all-zero network maps every image to the zero feature: every rank is
    # 1, and both classifiers vote class 0 (kNN with k = 1 votes the first
    # training label, 1)
    spec = LayerSpec((4, 3, 2))
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(ckpt, NetworkParams(spec, np.zeros(spec.param_count)), np.zeros((2, 2)))
    grid = np.linspace(0.0, 1.0, 4).reshape(2, 2)
    write_unlabeled(UnlabeledSet([Clip("c0", [grid ** (t + 1) for t in range(3)], 0.5)]),
                    tmp_path / "clips")
    write_labeled(LabeledSet([grid, grid.T, 1 - grid], (0, 1, 1), 2), tmp_path / "test")
    write_labeled(LabeledSet([grid, grid.T], (1, 0), 2), tmp_path / "train")
    out = tmp_path / "eval"
    assert main(["eval-seqcomp", "--checkpoint", str(ckpt), "--unlabeled",
                 str(tmp_path / "clips" / "unlabeled.txt"), "--T", "1", "--pool-n", "2",
                 "--out", str(out)]) == 0
    assert main(["eval-cls", "--checkpoint", str(ckpt), "--test",
                 str(tmp_path / "test" / "labeled.txt"), "--out", str(out)]) == 0
    assert main(["eval-knn", "--checkpoint", str(ckpt), "--train",
                 str(tmp_path / "train" / "labeled.txt"), "--test",
                 str(tmp_path / "test" / "labeled.txt"), "--k", "1", "--out", str(out)]) == 0
    assert (out / "ranks.csv").read_text() == "query,rank\n0,1\n"
    assert (out / "seqcomp.json").read_text() == (
        '{\n  "accuracy": {},\n  "config": {\n    "T": 1.0,\n    "pool_n": 2,\n'
        '    "pool_size": 3,\n    "queries": 1,\n    "seed": 0\n  },\n'
        '  "eta": 33.33333333333333,\n  "ranks": [\n    1\n  ]\n}\n')
    assert (out / "classification.json").read_text() == (
        '{\n  "accuracy": {\n    "linear": 0.3333333333333333\n  },\n'
        '  "config": {\n    "test_size": 3\n  },\n  "eta": null,\n  "ranks": null\n}\n')
    assert (out / "knn.json").read_text() == (
        '{\n  "accuracy": {\n    "k": 1,\n    "knn": 0.6666666666666666\n  },\n'
        '  "config": {\n    "test_size": 3,\n    "train_size": 2\n  },\n'
        '  "eta": null,\n  "ranks": null\n}\n')


def _run_config_lines(labeled, out):
    return ["batch_labeled = 16", "batch_pairs = 32", "batch_triplets = 32", "command = train",
            "cv = False", "delta_pair = 1.0", "delta_triplet = 1.0", "dim = 25", "epochs = 150",
            "hidden = 25", f"labeled = {labeled}", "lam = 1.0", "lam2 = 1.0", "lr = 0.01",
            "method = unreg", "momentum = 0.9", f"out = {out}", "pairs = None", "patience = 15",
            "seed = 0", "triplets = None", "unlabeled = None", "val_fraction = 0.2"]


def test_train_run_config_text(tmp_path):
    # the echoed configuration of a default unreg run, and of one with a
    # spaced --hidden list, whose widths are echoed joined by commas
    grid = np.linspace(0.0, 1.0, 4).reshape(2, 2)
    images = [grid ** (i + 1) for i in range(5)] + [grid.T ** (i + 1) for i in range(5)]
    write_labeled(LabeledSet(images, (0,) * 5 + (1,) * 5, 2), tmp_path / "set")
    labeled = str(tmp_path / "set" / "labeled.txt")
    plain, spaced = str(tmp_path / "plain"), str(tmp_path / "spaced")
    assert main(["train", "--labeled", labeled, "--method", "unreg", "--out", plain]) == 0
    assert main(["train", "--labeled", labeled, "--method", "unreg", "--hidden", "25, 10",
                 "--out", spaced]) == 0
    lines = _run_config_lines(labeled, plain)
    assert (tmp_path / "plain" / "run_config.txt").read_text() == "\n".join(lines) + "\n"
    lines = _run_config_lines(labeled, spaced)
    lines[lines.index("hidden = 25")] = "hidden = 25,10"
    assert (tmp_path / "spaced" / "run_config.txt").read_text() == "\n".join(lines) + "\n"
