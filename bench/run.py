"""The repository benchmark.

One run measures one workload for a fixed time. Each repetition is a fresh
worker process (``worker.py``) with one BLAS thread, so set-up time and
peak memory are measured per process and reported as medians. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, from untraced repetitions. With ``--trace 1`` they are the
per-layer metrics: traced repetitions alternate with untraced ones, and
``trace.overhead_s`` is the traced minus the untraced wall time of each
adjacent pair.

    python3 bench/run.py --workload desk --seed 7 --seconds 35 --trace 0
    python3 bench/run.py --compare OLD NEW   # result files or directories

A full record of each run (every sample, quartiles, quality numbers,
failures and provenance) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk", "wide", "long_clips")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0  # every run must end within 180 s
RESULTS_DIR = ROOT / ".bench_out" / "results"

# Quality numbers are kept beside the timings: name prefix -> (unit,
# better). They are exact for a seed, so compare mode holds them to a
# bound of 0.
QUALITY = {"eta_": ("%", "lower"), "acc_": ("ratio", "higher"), "knn_": ("ratio", "higher")}


def quartiles(values):
    """(q1, median, q3) of the samples, inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(samples: dict, units: dict) -> dict:
    out = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                     "unit": units.get(name, "")}
    return out


# ---------------------------------------------------------------------------
# Running repetitions


def spawn(workload, seed, size, traced, timeout, scratch: Path, index: int):
    """One worker process: (result dict, None), or (None, error message)."""
    result = scratch / f"rep{index}.json"
    env = dict(os.environ)
    env.update({v: "1" for v in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced)),
           "--result", str(result)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(t0)], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"repetition {index} timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not result.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
        return None, f"repetition {index} exited {proc.returncode}: {' | '.join(tail)}"
    rep = json.loads(result.read_text())
    rep["traced"] = traced
    rep["elapsed"] = elapsed
    return rep, None


def run_reps(workload, seed, seconds, trace, size):
    """Repeat the workload in fresh processes while another repetition
    fits in ``seconds``; a traced run alternates untraced and traced ones."""
    start = time.perf_counter()
    reps, errors = [], []
    scratch_root = ROOT / ".bench_out" / "tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as tmp:
        i = 0
        while True:
            traced = bool(trace) and i % 2 == 1
            left = DEADLINE_S - (time.perf_counter() - start)
            rep, err = spawn(workload, seed, size, traced, left, Path(tmp), i)
            i += 1
            if err:
                errors.append(err)
                break
            reps.append(rep)
            elapsed = time.perf_counter() - start
            next_traced = bool(trace) and i % 2 == 1
            alike = [r["elapsed"] for r in reps if r["traced"] == next_traced]
            guess = max(alike or [r["elapsed"] for r in reps])
            if i >= 2 and elapsed + guess > seconds or elapsed + guess > DEADLINE_S:
                break
    return reps, errors


# ---------------------------------------------------------------------------
# Checks across repetitions


def cross_checks(reps, trace):
    import layers

    problems = []
    quality = [r["quality"] for r in reps]
    if any(q != quality[0] for q in quality):
        problems.append("quality numbers differ across repetitions of one seed "
                        "(traced and untraced included)")
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        problems.append("output tree digest differs across repetitions of one seed")
    for r in reps:
        if r["wall_s"] is None:
            problems.append("a repetition did not finish its pipeline")
    traced = [r for r in reps if r["traced"]]
    for r in traced:
        counts = {c: r["layers"][c] for c in layers.COUNTS}
        if counts != {c: traced[0]["layers"][c] for c in layers.COUNTS}:
            problems.append("per-layer counts differ across traced repetitions")
        if r["layers"]["trainer.steps"] != r["train_steps"]:
            problems.append(f"traced optimizer steps {r['layers']['trainer.steps']} != "
                            f"steps derived from the configuration {r['train_steps']}")
    if trace and not traced:
        problems.append("no traced repetition fitted in the run")
    return problems


# ---------------------------------------------------------------------------
# Metrics


def e2e_samples(reps) -> dict:
    untraced = [r for r in reps if not r["traced"] and r["wall_s"] is not None]
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
        "train_steps_per_s": [r["train_steps"] / r["train_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    for r in untraced:
        for name, value in r["quality"].items():
            samples.setdefault(name, []).append(value)
    return samples


def layer_samples(reps) -> dict:
    samples = {}
    for r in reps:
        if r["traced"] and r["wall_s"] is not None:
            for name, value in r["layers"].items():
                samples.setdefault(name, []).append(value)
    # repetitions alternate untraced, traced: each adjacent pair gives one
    # overhead sample, so slow drift of the host cancels within the pair
    pairs = zip(reps[0::2], reps[1::2])
    overhead = [t["wall_s"] - u["wall_s"] for u, t in pairs
                if u["wall_s"] is not None and t["wall_s"] is not None]
    if overhead:
        samples["trace.overhead_s"] = overhead
    return samples


def provenance(reps, args) -> dict:
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    first = reps[0] if reps else {}
    return {
        "git_commit": git_commit(ROOT),
        "versions": first.get("versions"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_env": [r["blas_env"] for r in reps],
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": first.get("sizes"),
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in bench[kind]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    reps, errors = run_reps(args.workload, args.seed, args.seconds, args.trace, args.size)
    units.update({name: unit for r in reps for name in r["quality"]
                  for prefix, (unit, _) in QUALITY.items() if name.startswith(prefix)})
    problems = cross_checks(reps, args.trace)
    attempted = sum(r["attempted"] for r in reps) + len(errors)
    failures = [f for r in reps for f in r["failures"]] + errors
    samples = layer_samples(reps) if args.trace else e2e_samples(reps)
    missing = [m for m in wanted if not samples.get(m)]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = not problems and not failures
    summary = summarize(samples, units)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "ops_failed_frac": len(failures) / max(attempted, 1),
        "problems": problems, "failures": failures,
        "repetitions": [{k: r[k] for k in ("traced", "elapsed", "setup_s", "wall_s")}
                        for r in reps],
        "samples": samples, "summary": summary,
        "provenance": provenance(reps, args),
    }
    out = Path(args.out) if args.out else (
        RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name in sorted(summary):
        s = summary[name]
        print(f"{args.workload:10s} {name:28s} {s['median']:.6g} {s['unit']} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
    for p in problems + failures:
        print(f"FAILED: {p}")
    metrics = {m: {"value": summary[m]["median"], "unit": units[m]}
               for m in wanted if m in summary}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Compare mode


def load_results(path: Path):
    """Result records keyed by (workload, trace), then by seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        rec = json.loads(f.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def paired(a_runs: dict, b_runs: dict, name: str):
    """Samples of ``name`` on both sides, in pairs. Many runs pair by seed,
    one run median each; a single run on each side pairs its repetitions."""
    if len(a_runs) == 1 and len(b_runs) == 1:
        (a,), (b,) = a_runs.values(), b_runs.values()
        return a["samples"].get(name, []), b["samples"].get(name, [])
    seeds = [s for s in sorted(set(a_runs) & set(b_runs))
             if name in a_runs[s]["summary"] and name in b_runs[s]["summary"]]
    return ([a_runs[s]["summary"][name]["median"] for s in seeds],
            [b_runs[s]["summary"][name]["median"] for s in seeds])


def direction(name, bench_metrics):
    if name in bench_metrics:
        return bench_metrics[name]["better"], bench_metrics[name].get("bound")
    for prefix, (_, better) in QUALITY.items():
        if name.startswith(prefix):
            return better, 0.0
    return None, None


def verdict(a, b, better, bound):
    """better / worse / unchanged / unresolved, and the win rate of ``b``
    over ``a`` across the paired samples (ties count for neither).
    ``bound`` None means no bound (per-layer metrics); 0 means exact."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    win_rate = wins / len(pairs)
    if bound == 0:
        return ("worse" if losses else "better" if wins else "unchanged"), win_rate
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    iqr_a = qa3 - qa1
    gain = sign * (mb - ma)
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    lo_a, hi_a = sorted((sign * min(a), sign * max(a)))
    lo_b, hi_b = sorted((sign * min(b), sign * max(b)))
    separated = lo_b > hi_a or hi_b < lo_a
    if bound is not None and spread > bound and not separated:
        return "unresolved", win_rate
    if win_rate >= 0.9 and gain > iqr_a:
        return "better", win_rate
    if bound is not None:
        worse = -gain > bound * abs(ma)
    else:
        worse = losses / len(pairs) >= 0.9 and -gain > iqr_a
    return ("worse" if worse else "unchanged"), win_rate


def compare(old: Path, new: Path) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench_metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a_all, b_all = load_results(old), load_results(new)
    print(f"{'workload':10s} {'metric':28s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'n':>7s} {'win':>5s}  verdict")
    for key in sorted(set(a_all) & set(b_all)):
        a_runs, b_runs = a_all[key], b_all[key]
        names = sorted({n for r in [*a_runs.values(), *b_runs.values()] for n in r["samples"]})
        for name in names:
            a, b = paired(a_runs, b_runs, name)
            better, bound = direction(name, bench_metrics)
            if not a or not b or better is None:
                continue
            word, win = verdict(a, b, better, bound)
            qa, qb = quartiles(a), quartiles(b)
            print(f"{key[0]:10s} {name:28s} "
                  f"{qa[1]:12.6g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                  f"{qb[1]:12.6g} [{qb[0]:.4g}, {qb[2]:.4g}] "
                  f"{len(a):>3d}/{len(b):<3d} {win:5.2f}  {word}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input for a smoke run")
    ap.add_argument("--out", help="result file (default .bench_out/results/...)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two result files or directories of them")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if not args.workload:
        ap.error("--workload is required")
    for need in (ROOT / "BENCHMARK.json", ROOT / "src" / "ssfa" / "__init__.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
