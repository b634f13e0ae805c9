"""Joint minibatch training with Nesterov-accelerated SGD, early stopping,
and the greedy staged hyperparameter search.

Every step draws a labeled batch plus (when regularizing) a pair batch and
a triplet batch; all branch gradients accumulate into one flat gradient
vector before a single update of the flat parameter vector (network
parameters followed by the classifier). An epoch is one full pass over the
labeled training split; tuple streams cycle independently with their own
reshuffling. Training is bit-reproducible for a fixed config.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import LabeledSet, UnlabeledSet, prep_stack, write_atomic
from .losses import Margins, coherence_objective, softmax_loss, total_objective
from .network import LayerSpec, NetworkParams, forward, init_classifier, init_glorot, split_model


class ConfigError(ValueError):
    """Invalid training configuration."""


class OptimizerError(RuntimeError):
    """Non-finite loss or gradient encountered during optimization."""


class SearchError(RuntimeError):
    """A hyperparameter search stage produced no usable candidate."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    momentum: float = 0.9
    lam: float = 0.0
    lam_prime: float = 0.0
    margins: Margins = field(default_factory=Margins)
    batch_labeled: int = 16
    batch_pairs: int = 32
    batch_triplets: int = 32
    max_epochs: int = 150
    patience: int = 15
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self):
        if not self.lr > 0:
            raise ConfigError("lr must be > 0")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if self.lam < 0 or self.lam_prime < 0:
            raise ConfigError("regularization weights must be >= 0")
        if self.batch_labeled < 1:
            raise ConfigError("batch_labeled must be >= 1")
        if self.batch_pairs < 0 or self.batch_triplets < 0:
            raise ConfigError("batch sizes must be >= 0")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max_epochs and patience must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ConfigError("val_fraction must be in (0, 1)")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_sup: float
    loss_slow: float
    loss_steady: float
    val_loss: float
    val_acc: float


@dataclass
class TrainHistory:
    epochs: list
    best_epoch: int

    def to_csv(self, path) -> None:
        lines = ["epoch,loss_sup,loss_slow,loss_steady,val_loss,val_acc"]
        for e in self.epochs:
            lines.append(
                f"{e.epoch},{float(e.loss_sup)!r},{float(e.loss_slow)!r},"
                f"{float(e.loss_steady)!r},{float(e.val_loss)!r},{float(e.val_acc)!r}"
            )
        write_atomic(path, "\n".join(lines) + "\n")


def nesterov_step(theta, velocity, grad_fn, lr: float, momentum: float):
    """One Nesterov update in lookahead form on flat parameter vectors:
    v <- momentum*v - lr*grad(theta + momentum*v);  theta <- theta + v.

    ``grad_fn`` maps the lookahead vector to the gradient vector there.
    Returns (new theta, new velocity); the inputs are not modified.
    """
    grad = grad_fn(theta + momentum * velocity)
    if not np.all(np.isfinite(grad)):
        bad = int(np.count_nonzero(~np.isfinite(grad)))
        raise OptimizerError(f"non-finite gradient in {bad} of {grad.size} coordinates")
    velocity = momentum * velocity - lr * grad
    return theta + velocity, velocity


# ---------------------------------------------------------------------------
# Data plumbing

def resolve_pairs(u: UnlabeledSet, samples):
    """Turn mined pair samples into stacked (A, B, p) input arrays of
    preprocessed, flattened frames. A rows are the later frames."""
    clips = u.clip_map()
    a = prep_stack([clips[s.clip_id].frames[s.j] for s in samples])
    b = prep_stack([clips[s.clip_id].frames[s.k] for s in samples])
    return a, b, np.array([s.p for s in samples])


def resolve_triplets(u: UnlabeledSet, samples):
    """Turn mined triplet samples into stacked (L, M, N, p) input arrays."""
    clips = u.clip_map()
    l = prep_stack([clips[s.clip_id].frames[s.l] for s in samples])
    m = prep_stack([clips[s.clip_id].frames[s.m] for s in samples])
    n = prep_stack([clips[s.clip_id].frames[s.n] for s in samples])
    return l, m, n, np.array([s.p for s in samples])


def stratified_split(labels, val_fraction: float, rng):
    """Per-class validation split; returns (train_idx, val_idx) sorted."""
    labels = np.asarray(labels)
    train_idx, val_idx = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        perm = rng.permutation(len(idx))
        n_val = int(math.floor(val_fraction * len(idx)))
        val_idx.extend(idx[perm[:n_val]])
        train_idx.extend(idx[perm[n_val:]])
    if not val_idx:
        raise ConfigError("validation split is empty; raise val_fraction or add data")
    if not train_idx:
        raise ConfigError("training split is empty; lower val_fraction")
    return np.sort(train_idx), np.sort(val_idx)


class _TupleStream:
    """Batches of rows of resolved tuple arrays, reshuffling the deck each
    time it runs out."""

    def __init__(self, arrays, batch: int, rng):
        self.arrays = arrays
        self.n = len(arrays[-1])
        self.batch = min(batch, self.n)
        self.rng = rng
        self._deck = rng.permutation(self.n)
        self._pos = 0

    def take(self):
        out = []
        need = self.batch
        while need > 0:
            avail = len(self._deck) - self._pos
            if avail == 0:
                self._deck = self.rng.permutation(self.n)
                self._pos = 0
                continue
            grab = min(need, avail)
            out.append(self._deck[self._pos : self._pos + grab])
            self._pos += grab
            need -= grab
        idx = np.concatenate(out)
        return tuple(a[idx] for a in self.arrays)


def _tuple_streams(pairs, triplets, cfg: TrainConfig, seeds):
    """(pair stream, triplet stream), each None when it has no tuples or
    batch size to draw with. The triplet term is off when lam_prime is 0."""

    def stream(arrays, batch, seed):
        if arrays is None or len(arrays[-1]) == 0 or batch <= 0:
            return None
        return _TupleStream(arrays, batch, np.random.default_rng(seed))

    trip_batch = cfg.batch_triplets if cfg.lam_prime > 0 else 0
    return stream(pairs, cfg.batch_pairs, seeds[0]), stream(triplets, trip_batch, seeds[1])


def _check_terms(terms: dict) -> None:
    for name, v in terms.items():
        if not np.isfinite(v):
            raise OptimizerError(f"non-finite loss term {name}")


def _run_steps(theta, velocity, batches, streams, objective, cfg: TrainConfig):
    """The training-step loop: one Nesterov step per labeled batch (None
    when there is no supervised term), each with fresh tuple batches.
    ``objective(look, batch, pairs, triplets)`` returns (LossValue, flat
    gradient). Returns (theta, velocity, mean loss terms)."""
    pair_stream, trip_stream = streams
    sums = {"sup": 0.0, "slow": 0.0, "steady": 0.0}
    steps = 0
    for batch in batches:
        pb = pair_stream.take() if pair_stream is not None else None
        tb = trip_stream.take() if trip_stream is not None else None
        step_terms = {}

        def grad_fn(look):
            lv, grad = objective(look, batch, pb, tb)
            _check_terms(lv.terms)
            step_terms.update(lv.terms)
            return grad

        theta, velocity = nesterov_step(theta, velocity, grad_fn, cfg.lr, cfg.momentum)
        for k in sums:
            sums[k] += step_terms.get(k, 0.0)
        steps += 1
    return theta, velocity, {k: v / steps for k, v in sums.items()}


def train(labeled: LabeledSet, pairs, triplets, layer_spec: LayerSpec, cfg: TrainConfig):
    """Optimize the joint objective; returns (params, W, history).

    ``pairs``/``triplets`` are resolved input arrays from
    :func:`resolve_pairs` / :func:`resolve_triplets` (or None when
    lam == 0). The returned parameters are the ones from the epoch with
    the lowest validation classification loss, not the final ones.
    """
    if len(labeled) == 0:
        raise ConfigError("labeled set is empty")
    have_pairs = pairs is not None and len(pairs[-1]) > 0
    have_triplets = triplets is not None and len(triplets[-1]) > 0
    if cfg.lam > 0 and not have_pairs and not have_triplets:
        raise ConfigError("lam > 0 requires mined pairs and/or triplets")

    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    params = init_glorot(layer_spec, seeds[0])
    W = init_classifier(labeled.num_classes, layer_spec.out_dim, seeds[1])

    X = prep_stack(labeled.images)
    y = np.array(labeled.labels)
    if X.shape[1] != layer_spec.in_dim:
        raise ConfigError(f"image dim {X.shape[1]} != network input dim {layer_spec.in_dim}")
    tr_idx, va_idx = stratified_split(y, cfg.val_fraction, np.random.default_rng(seeds[2]))
    Xt, yt, Xv, yv = X[tr_idx], y[tr_idx], X[va_idx], y[va_idx]

    rng_shuffle = np.random.default_rng(seeds[3])
    streams = _tuple_streams(pairs, triplets, cfg, seeds[4:6]) if cfg.lam > 0 else (None, None)

    theta = np.concatenate([params.flat, W.ravel()])  # the split_model layout
    velocity = np.zeros_like(theta)

    def objective(look, batch, pb, tb):
        net, Wc = split_model(layer_spec, look)
        lv = total_objective(*batch, pb, tb, net, Wc, cfg.lam, cfg.lam_prime, cfg.margins)
        return lv, lv.grads["flat"]

    history = []
    best = (np.inf, None, -1)
    stale = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng_shuffle.permutation(len(yt))
        sels = (order[i : i + cfg.batch_labeled] for i in range(0, len(order), cfg.batch_labeled))
        batches = ((Xt[sel], yt[sel]) for sel in sels)
        theta, velocity, means = _run_steps(theta, velocity, batches, streams, objective, cfg)

        net, Wc = split_model(layer_spec, theta)
        zv, _ = forward(net, Xv)
        val_loss = softmax_loss(Wc, zv, yv).value
        val_acc = float(np.mean(np.argmax(zv @ Wc.T, axis=1) == yv))
        history.append(
            EpochStats(epoch, means["sup"], means["slow"], means["steady"], val_loss, val_acc)
        )
        if not np.isfinite(val_loss):
            raise OptimizerError("non-finite loss term validation")
        if val_loss < best[0]:
            best = (val_loss, theta, epoch)  # steps never write theta in place
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    _, best_theta, best_epoch = best
    best_params, best_W = split_model(layer_spec, best_theta)
    return best_params, best_W, TrainHistory(history, best_epoch)


def train_unsupervised(pairs, triplets, layer_spec: LayerSpec, cfg: TrainConfig,
                       passes: int = 3):
    """Optimize the coherence loss alone (no supervised term, no classifier).

    One pass cycles once through the pair set (or the triplet set when no
    pairs are given). Returns (initial params, [params after each pass],
    per-pass (slow, steady) mean loss rows).
    """
    have_pairs = pairs is not None and len(pairs[-1]) > 0
    have_triplets = triplets is not None and len(triplets[-1]) > 0
    if not have_pairs and not have_triplets:
        raise ConfigError("unsupervised training needs mined pairs and/or triplets")
    if passes < 1:
        raise ConfigError("passes must be >= 1")

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    params = init_glorot(layer_spec, seeds[0])
    streams = _tuple_streams(pairs, triplets, cfg, seeds[1:3])
    if streams[0] is not None:
        steps_per_pass = math.ceil(len(pairs[-1]) / cfg.batch_pairs)
    elif streams[1] is not None:
        steps_per_pass = math.ceil(len(triplets[-1]) / cfg.batch_triplets)
    else:
        raise ConfigError("nothing to optimize: check batch sizes and lam_prime")

    def objective(look, batch, pb, tb):
        net = NetworkParams.from_flat(layer_spec, look)
        lv = coherence_objective(pb, tb, net, cfg.lam_prime, cfg.margins)
        return lv, lv.grads["theta"].flat

    theta = params.flat
    velocity = np.zeros_like(theta)
    snapshots, rows = [], []
    for pass_i in range(1, passes + 1):
        batches = itertools.repeat(None, steps_per_pass)
        theta, velocity, means = _run_steps(theta, velocity, batches, streams, objective, cfg)
        snapshots.append(NetworkParams.from_flat(layer_spec, theta))
        rows.append((pass_i, means["slow"], means["steady"]))
    return params, snapshots, rows


# ---------------------------------------------------------------------------
# Greedy staged hyperparameter search

_LOG_GRID = tuple(float(10.0 ** (k / 2.0)) for k in range(-4, 4))  # 1e-2 .. 10^1.5


@dataclass(frozen=True)
class SearchGrids:
    lr: tuple = (0.1, 0.01, 0.001, 0.0001)
    lam: tuple = _LOG_GRID
    lam_prime: tuple = _LOG_GRID
    delta_triplet: tuple = (0.0, 0.1, 1.0)

    def __post_init__(self):
        for name in ("lr", "lam", "lam_prime", "delta_triplet"):
            if not getattr(self, name):
                raise ConfigError(f"empty search grid {name}")


def greedy_cv(labeled: LabeledSet, pairs, triplets, layer_spec: LayerSpec,
              grids: SearchGrids = None, base: TrainConfig = None):
    """Staged greedy search: (1) lr with no regularization, (2) lam with
    lam_prime = 0, (3) lam_prime, (4) triplet margin. Each stage keeps the
    candidate with the lowest best-epoch validation classification loss;
    ties go to the smaller value. Returns (best config, log rows).
    """
    grids = grids or SearchGrids()
    base = base or TrainConfig(lr=0.01)

    log = []

    def score(cfg: TrainConfig) -> float:
        try:
            _, _, hist = train(labeled, pairs, triplets, layer_spec, cfg)
        except OptimizerError:
            return float("inf")
        return min(e.val_loss for e in hist.epochs)

    def run_stage(name, candidates, make_cfg):
        best_val, best_cand = float("inf"), None
        for cand in sorted(candidates):
            s = score(make_cfg(cand))
            log.append({"stage": name, "candidate": float(cand), "val_loss": s})
            if s < best_val:
                best_val, best_cand = s, cand
        if best_cand is None or not np.isfinite(best_val):
            raise SearchError(f"stage {name}: all candidates diverged")
        return best_cand

    cfg = replace(base, lam=0.0, lam_prime=0.0)
    lr = run_stage("lr", grids.lr, lambda v: replace(cfg, lr=v))
    cfg = replace(cfg, lr=lr)
    lam = run_stage("lam", grids.lam, lambda v: replace(cfg, lam=v))
    cfg = replace(cfg, lam=lam)
    lam_prime = run_stage("lam_prime", grids.lam_prime, lambda v: replace(cfg, lam_prime=v))
    cfg = replace(cfg, lam_prime=lam_prime)
    delta = run_stage(
        "delta_triplet",
        grids.delta_triplet,
        lambda v: replace(cfg, margins=replace(cfg.margins, delta_triplet=v)),
    )
    cfg = replace(cfg, margins=replace(cfg.margins, delta_triplet=delta))
    return cfg, log


def write_search_log(log, path) -> None:
    lines = ["stage,candidate,val_loss"]
    for row in log:
        lines.append(f"{row['stage']},{row['candidate']!r},{row['val_loss']!r}")
    write_atomic(path, "\n".join(lines) + "\n")
