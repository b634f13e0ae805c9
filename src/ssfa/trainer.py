"""Joint minibatch training with Nesterov-accelerated SGD, early stopping,
and the greedy staged hyperparameter search.

Every step draws a labeled batch plus (when regularizing) a pair batch and
a triplet batch of index rows into one corpus frame table. The objective
embeds the labeled rows and the unique table rows in one forward pass and
returns one flat gradient from one backward pass, for a single in-place
update of the flat parameter vector (network parameters followed by the
classifier). Supervised and unsupervised runs share one step loop: it
sizes the objective's pass arrays (a losses.Workspace), the velocity and
the lookahead vector once, and every step reuses them, writing its
gradient over the lookahead; the loss kernels allocate their own
scratch. An unsupervised step is a joint step with no labeled batch, no
classifier and lam = 1. No later step touches the parameters a run
returns. An epoch is one full pass over the labeled training split;
tuple streams cycle independently with their own reshuffling. Training
is bit-reproducible for a fixed config.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .data import LabeledSet, UnlabeledSet, _text_table, prep_stack, write_atomic
from . import network
from .losses import Margins, Workspace, _softmax, _tuples, has_tuples, total_objective
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must be in [0, 1)")
        if not all(math.isfinite(w) and w >= 0 for w in (self.lam, self.lam_prime)):
            raise ConfigError("regularization weights must be finite and >= 0, got "
                              f"lam={self.lam}, lam_prime={self.lam_prime}")
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
        write_atomic(path, _text_table("epoch,loss_sup,loss_slow,loss_steady,val_loss,val_acc",
                                       map(astuple, self.epochs)))


def nesterov_step(theta, velocity, look, grad_fn, lr: float, momentum: float) -> None:
    """One Nesterov update in lookahead form on flat parameter vectors, in
    place: v <- momentum*v - lr*grad(theta + momentum*v);  theta <- theta + v.

    ``look`` is a buffer of theta's shape: theta + momentum*v is written
    into it, ``grad_fn(look)`` returns the gradient (possibly in ``look``),
    and the step reuses ``look`` as scratch. ``theta`` and ``velocity`` are
    updated in place with the same operations, in the same order, as
    ``velocity = momentum*velocity - lr*grad; theta = theta + velocity``.
    A non-finite gradient raises OptimizerError and leaves both unchanged.
    A large theta runs the lookahead and the update as two halves (``network._halves``).
    """
    split = network._split_elems(theta.size)
    network._halves(theta.size, lambda i, j: np.add(theta[i:j], np.multiply(
        momentum, velocity[i:j], out=look[i:j]), out=look[i:j]), split)
    grad = grad_fn(look)
    # grad @ grad allocates nothing; only a non-finite product (a NaN or
    # inf entry, or finite entries whose squares overflow) needs the
    # element check
    with np.errstate(all="ignore"):
        norm2 = grad @ grad
    if not np.isfinite(norm2) and not np.all(np.isfinite(grad)):
        bad = int(np.count_nonzero(~np.isfinite(grad)))
        raise OptimizerError(f"non-finite gradient in {bad} of {grad.size} coordinates")

    def update(i, j):
        v = velocity[i:j]
        v *= momentum
        v -= np.multiply(lr, grad[i:j], out=look[i:j])
        theta[i:j] += v

    network._halves(theta.size, update, split)


# ---------------------------------------------------------------------------
# Data plumbing

def _resolve(u: UnlabeledSet, samples, members):
    """(frames, idx, p): ``frames`` is ``u.table``, every frame of ``u``
    preprocessed, and the same object for every call on ``u``; row i of
    ``idx`` holds the corpus rows (``u.starts``) of sample i's
    ``members``; ``p`` the int64 labels. The first sample naming an unknown
    clip or a frame past its clip's end raises ValueError."""
    n = len(samples)
    clip_of = {c.clip_id: i for i, c in enumerate(u.clips)}
    # an unknown clip indexes the trailing 0-frame entry, so every frame it
    # names is past its end; a frame beyond intp is past every clip's end
    clip = np.fromiter((clip_of.get(s.clip_id, -1) for s in samples), np.intp, n)
    length = np.append(np.diff(u.starts), 0)
    top = np.iinfo(np.intp).max
    idx = np.empty((n, len(members)), dtype=np.intp)
    for col, m in enumerate(members):
        idx[:, col] = np.fromiter((min(getattr(s, m), top) for s in samples), np.intp, n)
    bad = idx.max(axis=1, initial=0) >= length[clip]
    if bad.any():
        i = int(bad.argmax())
        s = samples[i]
        if clip[i] < 0:
            raise ValueError(f"tuple {s} names unknown clip {s.clip_id!r}")
        raise ValueError(f"tuple {s} names a frame past the end of its {length[clip[i]]}-frame clip")
    idx += u.starts[clip, None]
    return u.table, idx, np.fromiter((s.p for s in samples), np.int64, n)


def resolve_pairs(u: UnlabeledSet, samples):
    """Mined pair samples as (frames, idx, p): ``idx`` is (n, 2), columns
    (j, k) as rows of the preprocessed corpus table ``frames``, so the
    first member is the later frame."""
    return _resolve(u, samples, ("j", "k"))


def resolve_triplets(u: UnlabeledSet, samples):
    """Mined triplet samples as (frames, idx, p); ``idx`` is (n, 3),
    columns (l, m, n)."""
    return _resolve(u, samples, ("l", "m", "n"))


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
    """Batches of resolved tuples, reshuffling the deck each time it runs
    out. A batch is resolved tuples too: (frames, idx rows, labels). Each
    deck's idx rows and labels are gathered once, when it is drawn, so a
    batch inside one deck is a slice of them."""

    def __init__(self, resolved, batch: int, rng):
        self.frames, self.idx, self.p = resolved
        self.n = len(self.p)
        self.batch = min(batch, self.n)
        self.rng = rng
        self._shuffle()

    def _shuffle(self):
        deck = self.rng.permutation(self.n)
        self._idx, self._p = self.idx[deck], self.p[deck]
        self._pos = 0

    def take(self):
        start, stop = self._pos, self._pos + self.batch
        if stop <= self.n:
            self._pos = stop
            return self.frames, self._idx[start:stop], self._p[start:stop]
        # the deck's tail, then the head of the next deck
        tail_idx, tail_p = self._idx[start:], self._p[start:]
        self._shuffle()
        self._pos = stop - self.n
        return (self.frames, np.concatenate((tail_idx, self._idx[: self._pos])),
                np.concatenate((tail_p, self._p[: self._pos])))


def _tuple_streams(pairs, triplets, cfg: TrainConfig, seeds):
    """(pair stream, triplet stream) over the sides that the objective's
    ``_tuples`` keeps, each None when its side is dropped or its batch size
    is 0. Both None is a ConfigError: there is nothing to optimize."""
    sides = _tuples(pairs, triplets, cfg.lam_prime)
    streams = tuple(None if b is None or batch == 0
                    else _TupleStream(b, batch, np.random.default_rng(seed))
                    for b, batch, seed in zip(sides, (cfg.batch_pairs, cfg.batch_triplets), seeds))
    if streams == (None, None):
        raise ConfigError("nothing to optimize: check tuples, batch sizes and lam_prime")
    return streams


def _stepper(theta, layer_spec: LayerSpec, lead: int, streams, cfg: TrainConfig):
    """The one training-step loop of ``theta``, the flat vector of network
    parameters followed by the row-major classifier (none when theta holds
    the parameters alone). It sizes the velocity, the lookahead vector and
    the objective's workspace (``lead`` labeled rows plus the tuple members
    of one step of ``streams``) once, and returns ``steps(batches)``: one
    in-place Nesterov step of ``total_objective`` per labeled batch (x, y),
    or (None, None) for no supervised term, each with fresh tuple batches.
    ``steps`` returns the mean loss terms."""
    live = [s for s in streams if s is not None]
    if live and live[0].frames.shape[1] != layer_spec.in_dim:
        raise ConfigError(f"frame table dim {live[0].frames.shape[1]} != network input dim "
                          f"{layer_spec.in_dim}")
    velocity, look = np.zeros_like(theta), np.empty_like(theta)
    look_net, look_W = split_model(layer_spec, look)  # the objective evaluates here
    batches = (None if s is None else (s.frames, s.idx[: s.batch]) for s in streams)
    work = Workspace(layer_spec, lead, *batches)

    def steps(batches):
        sums = {"sup": 0.0, "slow": 0.0, "steady": 0.0}
        for count, (bx, by) in enumerate(batches, 1):
            pb, tb = (None if s is None else s.take() for s in streams)
            step_terms = {}

            def grad_fn(_look):
                lv = total_objective(bx, by, pb, tb, look_net, look_W, cfg.lam, cfg.lam_prime,
                                     cfg.margins, work=work, out=look)
                for name, v in lv.terms.items():
                    if not np.isfinite(v):
                        raise OptimizerError(f"non-finite loss term {name}")
                step_terms.update(lv.terms)
                return lv.grads["flat"]

            nesterov_step(theta, velocity, look, grad_fn, cfg.lr, cfg.momentum)
            for k in sums:
                sums[k] += step_terms.get(k, 0.0)
        return {k: v / count for k, v in sums.items()}

    return steps


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise OptimizerError
def train(labeled: LabeledSet, pairs, triplets, layer_spec: LayerSpec, cfg: TrainConfig):
    """Optimize the joint objective; returns (params, W, history).

    ``pairs``/``triplets`` are resolved tuples from
    :func:`resolve_pairs` / :func:`resolve_triplets` (or None when
    lam == 0), on one frame table. The returned parameters are a copy of the
    ones from the epoch with the lowest validation classification loss, not
    the final ones. lam > 0 with no tuple batch to draw (no tuples, batch
    sizes of 0, or only triplets with lam_prime = 0) is a ConfigError.
    """
    if len(labeled) == 0:
        raise ConfigError("labeled set is empty")

    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    X, y = prep_stack(labeled.images), labeled.labels
    if X.shape[1] != layer_spec.in_dim:
        raise ConfigError(f"image dim {X.shape[1]} != network input dim {layer_spec.in_dim}")
    tr_idx, va_idx = stratified_split(y, cfg.val_fraction, np.random.default_rng(seeds[2]))
    yt, Xv, yv = y[tr_idx], X[va_idx], y[va_idx]

    rng_shuffle = np.random.default_rng(seeds[3])
    streams = _tuple_streams(pairs, triplets, cfg, seeds[4:6]) if cfg.lam > 0 else (None, None)

    # the split_model layout; no init copy outlives the concatenation
    theta = np.concatenate([init_glorot(layer_spec, seeds[0]).flat, init_classifier(
        labeled.num_classes, layer_spec.out_dim, seeds[1]).ravel()])
    best_theta = np.empty_like(theta)
    net, Wc = split_model(layer_spec, theta)  # views: they follow the in-place steps
    steps = _stepper(theta, layer_spec, min(cfg.batch_labeled, len(yt)), streams, cfg)

    history = []
    best_val, best_epoch, stale = np.inf, -1, 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng_shuffle.permutation(len(yt))
        sels = (order[i : i + cfg.batch_labeled] for i in range(0, len(order), cfg.batch_labeled))
        means = steps((X[tr_idx[sel]], yt[sel]) for sel in sels)

        zv, _ = forward(net, Xv)
        val_loss = _softmax(Wc, zv, yv, None, None)  # the value alone
        val_acc = float(np.mean(np.argmax(zv @ Wc.T, axis=1) == yv))
        history.append(
            EpochStats(epoch, means["sup"], means["slow"], means["steady"], val_loss, val_acc)
        )
        if not np.isfinite(val_loss):
            raise OptimizerError("non-finite loss term validation")
        if val_loss < best_val:
            np.copyto(best_theta, theta)  # the next steps update theta in place
            best_val, best_epoch, stale = val_loss, epoch, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    best_params, best_W = split_model(layer_spec, best_theta)
    return best_params, best_W, TrainHistory(history, best_epoch)


@np.errstate(over="ignore", invalid="ignore")  # as in train
def train_unsupervised(pairs, triplets, layer_spec: LayerSpec, cfg: TrainConfig,
                       passes: int = 3):
    """Optimize the coherence loss alone (no supervised term, no classifier):
    the joint objective's steps with lam = 1, whatever ``cfg.lam`` is.

    One pass cycles once through the pair set (or the triplet set when no
    pairs are given). Returns (initial params, [params after each pass],
    per-pass (slow, steady) mean loss rows), which later passes do not
    touch: the last snapshot is the trained vector itself, the rest copies;
    the init is drawn again, with the same bits, after the last pass.
    """
    if passes < 1:
        raise ConfigError("passes must be >= 1")

    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    streams = _tuple_streams(pairs, triplets, cfg, seeds[1:3])
    first = streams[0] or streams[1]
    steps_per_pass = math.ceil(first.n / first.batch)

    theta = init_glorot(layer_spec, seeds[0]).flat
    steps = _stepper(theta, layer_spec, 0, streams, replace(cfg, lam=1.0))
    snapshots, rows = [], []
    for pass_i in range(1, passes + 1):
        means = steps(itertools.repeat((None, None), steps_per_pass))
        snapshots.append(NetworkParams(layer_spec, theta if pass_i == passes else theta.copy()))
        rows.append((pass_i, means["slow"], means["steady"]))
    del steps  # frees the velocity, the lookahead and the workspace before the redraw
    return init_glorot(layer_spec, seeds[0]), snapshots, rows


# ---------------------------------------------------------------------------
# Greedy staged hyperparameter search

# the candidates of each stage of greedy_cv, tried in ascending order
LR_GRID = (0.1, 0.01, 0.001, 0.0001)
LAM_GRID = LAM_PRIME_GRID = tuple(float(10.0 ** (k / 2.0)) for k in range(-4, 4))  # 1e-2 .. 10^1.5
DELTA_TRIPLET_GRID = (0.0, 0.1, 1.0)


def greedy_cv(labeled: LabeledSet, pairs, triplets, layer_spec: LayerSpec, base: TrainConfig):
    """Staged greedy search from ``base``: (1) lr with no regularization, (2)
    lam with lam_prime = 0, (3) lam_prime, (4) triplet margin, over the
    module's grids. Each stage keeps the candidate with the lowest
    best-epoch validation classification loss; ties go to the smaller
    value. When neither pairs nor triplets hold a tuple, only stage (1)
    runs and lam = lam_prime = 0. Returns (best config, log rows).
    """
    log = []

    def score(cfg: TrainConfig) -> float:
        try:
            _, _, hist = train(labeled, pairs, triplets, layer_spec, cfg)
        except OptimizerError:
            return float("inf")
        return min(e.val_loss for e in hist.epochs)

    stages = (
        ("lr", LR_GRID, lambda c, v: replace(c, lr=v)),
        ("lam", LAM_GRID, lambda c, v: replace(c, lam=v)),
        ("lam_prime", LAM_PRIME_GRID, lambda c, v: replace(c, lam_prime=v)),
        ("delta_triplet", DELTA_TRIPLET_GRID,
         lambda c, v: replace(c, margins=replace(c.margins, delta_triplet=v))),
    )
    if not (has_tuples(pairs) or has_tuples(triplets)):
        stages = stages[:1]
    cfg = replace(base, lam=0.0, lam_prime=0.0)
    for name, grid, setter in stages:
        best_val, best_cand = float("inf"), None
        for cand in sorted(grid):
            s = score(setter(cfg, cand))
            log.append({"stage": name, "candidate": float(cand), "val_loss": s})
            if s < best_val:
                best_val, best_cand = s, cand
        if best_cand is None or not np.isfinite(best_val):
            raise SearchError(f"stage {name}: all candidates diverged")
        cfg = setter(cfg, best_cand)
    return cfg, log


def write_search_log(log, path) -> None:
    write_atomic(path, _text_table("stage,candidate,val_loss",
                                   ((r["stage"], r["candidate"], r["val_loss"]) for r in log)))
