"""The benchmark's own tests. Run with

    python3 -m pytest -q bench/selftest.py

They run every workload at tiny size, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_closed_form_counts_match_enumeration():
    from ssfa.mining import pair_candidates, triplet_candidates

    for n in range(0, 31):
        for t in (0, 1, 2, 3):
            assert checks.pair_counts(n, t) == tuple(map(len, pair_candidates(n, t))), (n, t)
            assert checks.triplet_counts(n, t) == tuple(
                map(len, triplet_candidates(n, t))), (n, t)


def test_check_tuples_accepts_mined_and_rejects_broken():
    from ssfa import MiningConfig, PairSample, SynthConfig, gen_unlabeled, mine_pairs

    u = gen_unlabeled(SynthConfig(num_clips=3, clip_len=15, seed=1))
    cfg = MiningConfig(T_seconds=2.0, max_pairs=40)
    pairs = mine_pairs(u, cfg)
    lengths = {c.clip_id: len(c.frames) for c in u.clips}
    assert checks.check_tuples(pairs, lengths, 2, 40, 3.0, "pair") == []
    gray_zone = PairSample(pairs[0].clip_id, 4, 0, 0)  # gap 4 < 2t+1 is not a negative
    assert checks.check_tuples(pairs[:-1] + [gray_zone], lengths, 2, 40, 3.0, "pair")
    assert checks.check_tuples(pairs[:-1], lengths, 2, 40, 3.0, "pair")  # count short


def test_self_time_on_hand_built_tree():
    tr = Tracer()
    root = tr.span("root", 0.0, 10.0)
    a = tr.span("a", 1.0, 4.0, root)
    tr.span("b", 3.0, 6.0, root)       # overlaps a: the union [1, 6] counts once
    tr.span("a.child", 2.0, 3.0, a)
    tr.span("c", 8.0, 12.0, root)      # clipped to the parent's end
    _, _, start, end, parent = tr.spans()
    assert self_times(start, end, parent) == [3.0, 2.0, 3.0, 1.0, 4.0]


def test_derive_counts_nested_groups_once_and_validation():
    tr = Tracer()
    m = tr.span("data.load_manifest", 0.0, 5.0)
    tr.span("data.load_pgm", 1.0, 2.0, m)
    tr.span("data.load_pgm", 6.0, 7.0)
    t = tr.span("trainer.train", 10.0, 20.0)
    step = tr.span("trainer.nesterov_step", 11.0, 15.0, t)
    tr.span("network.forward", 12.0, 13.0, step)
    tr.span("network.forward", 16.0, 17.5, t)      # validation pass
    tr.span("losses.softmax_loss", 17.5, 18.0, t)  # validation loss
    out = layers.derive(tr)
    assert out["data.read_s"] == 6.0
    assert out["trainer.validate_s"] == 2.0
    assert out["network.forward_s"] == 2.5
    assert out["trainer.nesterov_self_s"] == 3.0
    assert out["trainer.loop_self_s"] == 10.0 - 4.0 - 2.0
    assert out["trainer.steps"] == 1 and out["network.forward_calls"] == 2


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    faster = [v * 0.8 for v in base]
    assert run.verdict(base, faster, "lower", 0.1)[0] == "better"
    assert run.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert run.verdict(base, list(reversed(base)), "lower", 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert run.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert run.verdict([1.8] * 3, [1.9] * 3, "lower", 0.0)[0] == "worse"


def test_benchmark_json_names_every_metric():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    assert all(name.match(n) for n in e2e + per_layer)
    assert len(set(e2e + per_layer)) == len(e2e + per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert "setup_s" in e2e
    derived = set(layers.derive(Tracer())) | {"trace.overhead_s"}
    assert set(per_layer) == derived
    assert set(layers.COUNTS) <= derived
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def _bench(tmp_path, workload, trace, tag):
    out = tmp_path / f"{workload}-{trace}-{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, proc.stdout
    return last, json.loads(out.read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_untraced(tmp_path, workload):
    last, record = _bench(tmp_path, workload, 0, "a")
    assert list(last["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v["value"] > 0 for v in last["metrics"].values())
    prov = record["provenance"]
    assert prov["seed"] == 5 and prov["inputs"] and prov["versions"]["numpy"]
    assert all(env == {v: "1" for v in run.BLAS_VARS} for env in prov["blas_env"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    first, _ = _bench(tmp_path, workload, 1, "a")
    second, _ = _bench(tmp_path, workload, 1, "b")
    assert list(first["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for name in layers.COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["network.forward_calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
