"""Run one workload once in this process and write what it measured as
JSON. ``run.py`` starts one of these per repetition, with the BLAS thread
variables already set in the environment so they apply before numpy loads.

    python3 bench/worker.py --workload desk --seed 7 --size full --trace 0 \
        --spawn-time <perf_counter at spawn> --result out.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = Path(".bench_out", "work")
SPANS_DIR = Path(".bench_out", "spans")


def _versions() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": openblas}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("desk", "wide", "long_clips"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import ssfa
    import ssfa.cli  # noqa: F401  (loaded before tracing so cli.main is wrapped)

    if Path(ssfa.__file__).resolve().parent != (ROOT / "src" / "ssfa").resolve():
        raise SystemExit(f"imported ssfa from {ssfa.__file__}, not from this checkout")

    import layers
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    rep = workloads.Rep(args.spawn_time, tracer)
    try:
        if args.workload == "long_clips":
            workloads.long_clips(rep, args.seed, args.size, WORK_DIR / "long_clips")
        else:
            getattr(workloads, args.workload)(rep, args.seed, args.size)
    except workloads.StageFailed:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "setup_s": rep.setup_s,
        "wall_s": rep.wall_s,
        "train_s": rep.train_s,
        "train_steps": rep.train_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rep.ops.attempted,
        "failures": [rep.ops.failed[k] for k in sorted(rep.ops.failed)],
        "quality": rep.quality,
        "digest": rep.digest,
        "sizes": workloads.SIZES[args.workload][args.size],
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "versions": _versions(),
    }
    if tracer is not None:
        out["layers"] = layers.derive(tracer)
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(SPANS_DIR / f"{args.workload}.npz")
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
