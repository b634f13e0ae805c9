"""Output files are replaced atomically: a write that fails partway (here a
disk that fills up after half the bytes) leaves the previous file intact
and no temporary file behind."""

import argparse
import errno
import io
import os

import numpy as np
import pytest

from ssfa.cli import _echo_config, main
from ssfa.data import LabeledSet, save_pgm, write_atomic, write_labeled
from ssfa.evaluate import EvalReport
from ssfa.mining import MiningConfig, PairSample, save_tuples
from ssfa.network import LayerSpec, init_classifier, init_glorot, save_checkpoint
from ssfa.trainer import EpochStats, TrainHistory, write_search_log


class _DiskFull:
    """File wrapper that writes half of the data, then fails like ENOSPC."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.fixture
def disk_full(monkeypatch):
    """``disk_full(name)``: from now on, files opened for writing whose name
    contains ``name`` fail halfway through their first write."""

    def arm(name):
        real_open = io.open

        def faulty_open(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            if "w" in mode and name in os.fspath(file):
                return _DiskFull(f)
            return f

        monkeypatch.setattr(io, "open", faulty_open)

    return arm


def _checkpoint(path, seed):
    spec = LayerSpec((6, 4, 3))
    save_checkpoint(path, init_glorot(spec, seed), init_classifier(2, 3, seed))


def _tuples(path, seed):
    save_tuples(path, [PairSample("c0", i + 1, i, 1) for i in range(40 + seed)], MiningConfig(T_seconds=2.0))


def _manifest(path, seed):
    frames = [np.full((2, 2), 0.1 * k) for k in range(20 + seed)]
    write_labeled(LabeledSet(frames, tuple(k % 2 for k in range(len(frames))), 2), path.parent)


def _report_json(path, seed):
    EvalReport(eta=0.5 + seed, ranks=list(range(50)), config={"seed": seed}).save_json(path)


def _ranks_csv(path, seed):
    EvalReport(ranks=list(range(seed, 60))).save_ranks_csv(path)


def _history(path, seed):
    rows = [EpochStats(e, 0.1 * e + seed, 0.0, 0.0, 1.0, 0.5) for e in range(1, 30)]
    TrainHistory(rows, 1).to_csv(path)


def _search_log(path, seed):
    write_search_log([{"stage": "lr", "candidate": 0.1 * k + seed, "val_loss": 1.0}
                      for k in range(30)], path)


def _run_config(path, seed):
    _echo_config(argparse.Namespace(seed=seed, out=str(path.parent), note="x" * 200), path.parent)


def _frame(path, seed):
    save_pgm(np.linspace(0.0, 1.0, 64).reshape(8, 8) ** (seed + 1), path)


WRITERS = {
    "checkpoint.ckpt": _checkpoint,
    "frame.pgm": _frame,
    "pairs.txt": _tuples,
    "labeled.txt": _manifest,
    "seqcomp.json": _report_json,
    "ranks.csv": _ranks_csv,
    "history.csv": _history,
    "search_log.csv": _search_log,
    "run_config.txt": _run_config,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, disk_full, name):
    path = tmp_path / name
    WRITERS[name](path, 0)
    before = path.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    disk_full(name)
    with pytest.raises(OSError):
        WRITERS[name](path, 1)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


def test_failed_gradcheck_report_keeps_previous_file(tmp_path, disk_full):
    report = tmp_path / "gradcheck.csv"
    report.write_text("previous report\n")
    disk_full("gradcheck.csv")
    assert main(["gradcheck", "--points", "1", "--out", str(tmp_path)]) == 3
    assert report.read_text() == "previous report\n"
    assert sorted(os.listdir(tmp_path)) == ["gradcheck.csv", "run_config.txt"]


def test_write_atomic_bytes_match_plain_writes(tmp_path):
    text = "a\tb\n" * 100
    write_atomic(tmp_path / "atomic.txt", text)
    (tmp_path / "plain.txt").write_text(text)
    write_atomic(tmp_path / "atomic.bin", text.encode() + b"\xff")
    (tmp_path / "plain.bin").write_bytes(text.encode() + b"\xff")
    assert (tmp_path / "atomic.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()
    assert (tmp_path / "atomic.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()
    write_atomic(tmp_path / "atomic.txt", "short\n")
    assert (tmp_path / "atomic.txt").read_text() == "short\n"
    assert sorted(os.listdir(tmp_path)) == ["atomic.bin", "atomic.txt", "plain.bin", "plain.txt"]
