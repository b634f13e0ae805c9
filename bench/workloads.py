"""The benchmark workloads. Each runs once per worker process: set-up
(imports and input generation), then the timed pipeline, then output checks
outside the timed region.

desk        The acceptance desk pipeline, in-process: tiny GEMMs, so
            per-call overhead dominates. The training corpus is the
            canonical fixture (seed 7) at every workload seed, because early
            stopping makes the step count depend on the training data; the
            workload seed draws the held-out evaluation sets. At seed 7 every
            set equals build_fixtures(7) and the quality numbers equal the
            acceptance suite's.
wide        The same joint ssfa training at 1024->256->64 for a fixed epoch
            count, then unsupervised passes: GEMM-bound.
long_clips  The CLI on long clips in a work directory: mining enumerates
            1.2M candidates; PGM, manifest, tuple and checkpoint traffic.
            Training runs 800 epochs so that its timed span outlasts short
            phases of host contention.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

import checks
from tracer import clock

TRAIN_FIXTURE_SEED = 7
METHODS = (("unreg", 0.0, 0.0), ("sfa2", 3.0, 0.0), ("ssfa", 3.0, 0.3))

SIZES = {
    "desk": {
        "full": dict(train_seeds=(1, 2, 3, 4, 5), max_epochs=600, patience=100, caps=6000,
                     unsup_caps=2500, passes=3, queries=100, pool_n=5),
        "tiny": dict(train_seeds=(1,), max_epochs=3, patience=3, caps=300,
                     unsup_caps=256, passes=1, queries=20, pool_n=3),
    },
    "wide": {
        "full": dict(grid=32, clips=16, clip_len=40, eval_clips=8, per_class=40,
                     test_per_class=100, knn_train_per_class=20, knn_test_per_class=100,
                     caps=4096, epochs=20, passes=2, queries=100, pool_n=5),
        "tiny": dict(grid=32, clips=4, clip_len=20, eval_clips=2, per_class=5,
                     test_per_class=5, knn_train_per_class=5, knn_test_per_class=5,
                     caps=512, epochs=1, passes=1, queries=10, pool_n=2),
    },
    "long_clips": {
        "full": dict(clips=2, clip_len=500, per_class=25, test_clips=2, test_clip_len=200,
                     test_per_class=50, T=4, epochs=800, queries=400, pool_n=20, k=5),
        "tiny": dict(clips=2, clip_len=60, per_class=5, test_clips=1, test_clip_len=30,
                     test_per_class=5, T=2, epochs=1, queries=20, pool_n=5, k=3),
    },
}


class StageFailed(Exception):
    """An operation raised; the rest of the pipeline cannot run."""


class Ops:
    """Operation accounting: one operation is one stage call. It fails if
    it raises or if a check on its output reports a problem."""

    def __init__(self):
        self.attempted = 0
        self.last = -1
        self.failed = {}

    def call(self, name, fn, *args, **kwargs):
        self.attempted += 1
        self.last = self.attempted - 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            self.failed[self.last] = f"{name}: {type(e).__name__}: {e}"
            raise StageFailed(name) from e

    def check(self, problems, op=None):
        """Charge ``problems`` to operation ``op`` (default: the last one)."""
        if problems:
            self.failed.setdefault(self.last if op is None else op, "; ".join(problems))


class Rep:
    """What one workload run reports back to the parent."""

    def __init__(self, spawn_time: float, tracer=None):
        self.spawn_time = spawn_time
        self.tracer = tracer
        self.ops = Ops()
        self.setup_s = self.wall_s = None
        self.train_s = 0.0
        self.train_steps = 0
        self.quality = {}
        self.digest = None
        self._t0 = None

    def start(self):
        self._t0 = clock()
        self.setup_s = self._t0 - self.spawn_time

    def stop(self):
        """End the timed region; output checks after it run untraced."""
        self.wall_s = clock() - self._t0
        if self.tracer is not None:
            self.tracer.uninstall()

    def timed_train(self, fn, *args, **kwargs):
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.train_s += clock() - t


def _steps_per_epoch(labels, batch: int, val_fraction: float = 0.2) -> int:
    """Labeled batches per epoch after the per-class validation split."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    n_train = int(sum(c - math.floor(val_fraction * c) for c in counts))
    return math.ceil(n_train / batch)


def _mine_and_resolve(ops: Ops, u, cfg, mined: list):
    """Mine pairs and triplets and resolve them to input rows. The samples
    go to ``mined`` with their operations, for the checks after timing."""
    from ssfa import mining, trainer

    ps = ops.call("mine_pairs", mining.mine_pairs, u, cfg)
    mined.append((ops.last, ps, cfg.max_pairs, cfg.pair_neg_ratio, "pair"))
    ts = ops.call("mine_triplets", mining.mine_triplets, u, cfg)
    mined.append((ops.last, ts, cfg.max_triplets, cfg.triplet_neg_ratio, "triplet"))
    pairs = ops.call("resolve_pairs", trainer.resolve_pairs, u, ps)
    ops.check(checks.finite("resolve_pairs", *pairs[:-1]))
    trips = ops.call("resolve_triplets", trainer.resolve_triplets, u, ts)
    ops.check(checks.finite("resolve_triplets", *trips[:-1]))
    return pairs, trips


def _check_mined(ops: Ops, u, t: int, mined: list):
    lengths = {c.clip_id: len(c.frames) for c in u.clips}
    for op, samples, cap, ratio, kind in mined:
        ops.check(checks.check_tuples(samples, lengths, t, cap, ratio, kind), op)


# ---------------------------------------------------------------------------


def desk(rep: Rep, seed: int, size: str):
    from ssfa import evaluate, mining, network, synth, trainer

    z = SIZES["desk"][size]
    spec = network.LayerSpec((256, 25, 25))
    train_sets = synth.fixture_configs(TRAIN_FIXTURE_SEED)
    eval_sets = synth.fixture_configs(seed)
    u = synth.gen_unlabeled(train_sets["train_clips"])
    lab_train = synth.gen_labeled(*train_sets["labeled_train"])
    eval_u = synth.gen_unlabeled(eval_sets["eval_clips"])
    lab_test = synth.gen_labeled(*eval_sets["labeled_test"])
    knn_train = synth.gen_labeled(*eval_sets["labeled_knn_train"])
    knn_test = synth.gen_labeled(*eval_sets["labeled_knn_test"])
    per_epoch = _steps_per_epoch(lab_train.labels, 4)
    ops = rep.ops

    rep.start()
    mined = []

    def mine(caps):
        cfg = mining.MiningConfig(T_seconds=2.0, seed=0, max_pairs=caps, max_triplets=caps)
        return _mine_and_resolve(ops, u, cfg, mined)

    pairs, triplets = mine(z["caps"])
    queries = ops.call("make_queries", evaluate.make_queries, eval_u, 2.0, z["queries"], seed=1)
    pool = ops.call("build_pool", evaluate.build_pool, queries, eval_u, z["pool_n"], seed=2)

    def eta_of(name, params):
        value = ops.call(name, lambda: evaluate.eta(
            evaluate.seqcomp_ranks(queries, pool, params), len(pool)))
        ops.check(checks.check_eta(name, value, len(pool)))
        return value

    for name, lam, lam_prime in METHODS:
        etas, accs = [], []
        for s in z["train_seeds"]:
            cfg = trainer.TrainConfig(
                lr=0.01, lam=lam, lam_prime=lam_prime, max_epochs=z["max_epochs"],
                patience=z["patience"], batch_labeled=4, batch_pairs=64, batch_triplets=64,
                seed=s,
            )
            p = pairs if lam > 0 else None
            t = triplets if (lam > 0 and lam_prime > 0) else None
            params, W, hist = ops.call(f"train {name} seed {s}", rep.timed_train,
                                       trainer.train, lab_train, p, t, spec, cfg)
            rep.train_steps += len(hist.epochs) * per_epoch
            ops.check(checks.check_params(f"train {name}", params, W) + checks.finite(
                f"train {name} losses",
                [(e.loss_sup, e.loss_slow, e.loss_steady, e.val_loss) for e in hist.epochs]))
            etas.append(eta_of(f"eta {name} seed {s}", params))
            acc = ops.call(f"linear_accuracy {name}", evaluate.linear_accuracy, params, W, lab_test)
            ops.check(checks.check_fraction(f"linear_accuracy {name}", acc))
            accs.append(acc)
        rep.quality[f"eta_{name}"] = float(np.mean(etas))
        rep.quality[f"acc_{name}"] = float(np.mean(accs))
    rep.quality["eta_random"] = float(np.mean(
        [eta_of(f"eta random seed {s}", network.init_glorot(spec, s)) for s in z["train_seeds"]]))

    pairs7, triplets7 = mine(z["unsup_caps"])
    finals = []
    for s in z["train_seeds"]:
        cfg = trainer.TrainConfig(lr=0.007, momentum=0.0, lam=1.0, lam_prime=0.8,
                                  batch_pairs=128, batch_triplets=128, seed=s)
        init, stages, rows = ops.call(f"train_unsupervised seed {s}", rep.timed_train,
                                      trainer.train_unsupervised, pairs7, triplets7, spec,
                                      cfg, passes=z["passes"])
        rep.train_steps += z["passes"] * math.ceil(len(pairs7[-1]) / cfg.batch_pairs)
        ops.check(checks.finite("train_unsupervised losses", rows)
                  + [p for m in stages for p in checks.check_params("pass", m)])
        for m in [init] + stages:
            acc = ops.call("knn_accuracy", evaluate.knn_accuracy, m, knn_train, knn_test, k=5)
            ops.check(checks.check_fraction("knn_accuracy", acc))
        finals.append(acc)
    rep.quality["knn_acc_unsup"] = float(np.mean(finals))
    rep.stop()

    _check_mined(ops, u, 2, mined)


def wide(rep: Rep, seed: int, size: str):
    from ssfa import evaluate, mining, network, synth, trainer

    z = SIZES["wide"][size]
    grid = z["grid"]
    spec = network.LayerSpec((grid * grid, 256, 64))

    def sc(offset, **kw):
        return synth.SynthConfig(grid=grid, seed=seed + offset, **kw)

    u = synth.gen_unlabeled(sc(0, num_clips=z["clips"], clip_len=z["clip_len"]))
    eval_u = synth.gen_unlabeled(sc(1000, num_clips=z["eval_clips"], clip_len=z["clip_len"]))
    lab_train = synth.gen_labeled(sc(2000), z["per_class"])
    lab_test = synth.gen_labeled(sc(3000), z["test_per_class"])
    knn_train = synth.gen_labeled(sc(4000), z["knn_train_per_class"])
    knn_test = synth.gen_labeled(sc(5000), z["knn_test_per_class"])
    per_epoch = _steps_per_epoch(lab_train.labels, 32)
    ops = rep.ops

    rep.start()
    mined = []
    mcfg = mining.MiningConfig(T_seconds=2.0, seed=seed, max_pairs=z["caps"],
                               max_triplets=z["caps"])
    pairs, triplets = _mine_and_resolve(ops, u, mcfg, mined)

    cfg = trainer.TrainConfig(lr=0.01, lam=3.0, lam_prime=0.3, max_epochs=z["epochs"],
                              patience=z["epochs"], batch_labeled=32, batch_pairs=256,
                              batch_triplets=256, seed=1)
    params, W, hist = ops.call("train ssfa", rep.timed_train, trainer.train, lab_train,
                               pairs, triplets, spec, cfg)
    rep.train_steps += len(hist.epochs) * per_epoch
    ops.check(checks.check_params("train ssfa", params, W) + checks.finite(
        "train ssfa losses",
        [(e.loss_sup, e.loss_slow, e.loss_steady, e.val_loss) for e in hist.epochs]))
    queries = ops.call("make_queries", evaluate.make_queries, eval_u, 2.0, z["queries"], seed=1)
    pool = ops.call("build_pool", evaluate.build_pool, queries, eval_u, z["pool_n"], seed=2)
    eta = ops.call("eta ssfa", lambda: evaluate.eta(
        evaluate.seqcomp_ranks(queries, pool, params), len(pool)))
    ops.check(checks.check_eta("eta ssfa", eta, len(pool)))
    acc = ops.call("linear_accuracy ssfa", evaluate.linear_accuracy, params, W, lab_test)
    ops.check(checks.check_fraction("linear_accuracy ssfa", acc))
    rep.quality.update(eta_ssfa=eta, acc_ssfa=acc)

    ucfg = trainer.TrainConfig(lr=0.007, momentum=0.0, lam=1.0, lam_prime=0.8,
                               batch_pairs=256, batch_triplets=256, seed=1)
    _, stages, rows = ops.call("train_unsupervised", rep.timed_train,
                               trainer.train_unsupervised, pairs, triplets, spec, ucfg,
                               passes=z["passes"])
    rep.train_steps += z["passes"] * math.ceil(len(pairs[-1]) / ucfg.batch_pairs)
    ops.check(checks.finite("train_unsupervised losses", rows)
              + checks.check_params("train_unsupervised", stages[-1]))
    knn = ops.call("knn_accuracy", evaluate.knn_accuracy, stages[-1], knn_train, knn_test, k=5)
    ops.check(checks.check_fraction("knn_accuracy", knn))
    rep.quality["knn_acc_unsup"] = knn
    rep.stop()

    _check_mined(ops, u, 2, mined)


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def long_clips(rep: Rep, seed: int, size: str, work: Path):
    from ssfa import cli, mining, trainer

    z = SIZES["long_clips"][size]
    if work.exists():
        shutil.rmtree(work)
    d = work.as_posix()
    data, test, mined, run, ev = (f"{d}/{n}" for n in ("data", "test", "mined", "run", "eval"))
    steps = [
        ["synth", "--out", data, "--clips", str(z["clips"]), "--clip-len", str(z["clip_len"]),
         "--labeled-per-class", str(z["per_class"]), "--seed", str(seed)],
        ["synth", "--out", test, "--clips", str(z["test_clips"]),
         "--clip-len", str(z["test_clip_len"]), "--labeled-per-class", str(z["test_per_class"]),
         "--seed", str(seed + 1000)],
        ["mine", "--data", f"{data}/unlabeled.txt", "--out", mined, "--T", str(z["T"]),
         "--seed", str(seed)],
        ["train", "--labeled", f"{data}/labeled.txt", "--unlabeled", f"{data}/unlabeled.txt",
         "--pairs", f"{mined}/pairs.txt", "--triplets", f"{mined}/triplets.txt",
         "--method", "ssfa", "--lambda", "3", "--lambda2", "0.3", "--epochs", str(z["epochs"]),
         "--patience", str(z["epochs"]), "--seed", "1", "--out", run],
        ["eval-seqcomp", "--checkpoint", f"{run}/checkpoint.ckpt",
         "--unlabeled", f"{test}/unlabeled.txt", "--T", str(z["T"]),
         "--queries", str(z["queries"]), "--pool-n", str(z["pool_n"]), "--seed", str(seed),
         "--out", f"{ev}/seqcomp"],
        ["eval-cls", "--checkpoint", f"{run}/checkpoint.ckpt", "--test", f"{test}/labeled.txt",
         "--out", f"{ev}/cls"],
        ["eval-knn", "--checkpoint", f"{run}/checkpoint.ckpt", "--train", f"{data}/labeled.txt",
         "--test", f"{test}/labeled.txt", "--k", str(z["k"]), "--out", f"{ev}/knn"],
    ]
    # the CLI calls trainer.train through the module; time it from outside
    trainer.train = functools.partial(rep.timed_train, trainer.train)
    op = {argv[0]: i for i, argv in enumerate(steps)}
    ops = rep.ops

    rep.start()
    for argv in steps:
        code = ops.call(argv[0], cli.main, argv)
        if code != 0:
            ops.check([f"{argv[0]} exited {code}"])
            raise StageFailed(argv[0])
    rep.stop()

    shapes = 4  # synth default
    epochs = len(Path(run, "history.csv").read_text().splitlines()) - 1
    per_epoch = _steps_per_epoch(np.repeat(np.arange(shapes), z["per_class"]), 16)
    rep.train_steps = epochs * per_epoch
    hist = np.loadtxt(Path(run, "history.csv"), delimiter=",", skiprows=1, ndmin=2)
    ops.check(checks.finite("train losses", hist), op=op["train"])

    lengths = {f"clip{i:04d}": z["clip_len"] for i in range(z["clips"])}
    pairs, _ = mining.load_tuples(Path(mined, "pairs.txt"))
    _, trips = mining.load_tuples(Path(mined, "triplets.txt"))
    ops.check(checks.check_tuples(pairs, lengths, z["T"], 10000, 3.0, "pair")
              + checks.check_tuples(trips, lengths, z["T"], 10000, 1.0, "triplet"),
              op=op["mine"])
    seq = json.loads(Path(ev, "seqcomp", "seqcomp.json").read_text())
    ops.check(checks.check_eta("eval-seqcomp", seq["eta"], seq["config"]["pool_size"]),
              op=op["eval-seqcomp"])
    cls = json.loads(Path(ev, "cls", "classification.json").read_text())["accuracy"]["linear"]
    ops.check(checks.check_fraction("eval-cls", cls), op=op["eval-cls"])
    knn = json.loads(Path(ev, "knn", "knn.json").read_text())["accuracy"]["knn"]
    ops.check(checks.check_fraction("eval-knn", knn), op=op["eval-knn"])
    rep.quality.update(eta_ssfa=seq["eta"], acc_ssfa=cls, knn_acc_ssfa=knn)
    rep.digest = tree_digest(work)
    shutil.rmtree(work)
