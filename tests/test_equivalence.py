"""The flat-vector, fused-pass training path against the per-block,
per-branch reference it replaced.

The reference keeps the parameters as a list of arrays (each layer's
weight and bias, then the classifier), runs one forward and one backward
per tuple member, accumulates the branch gradients block by block and runs
Nesterov per block. The library stores the same numbers in one contiguous
vector and embeds a step's labeled rows and unique tuple rows in one pass,
so it sums in a different order:

- lam = 0 runs touch no tuple and stay bit-identical;
- one objective gradient with lam > 0 matches the reference to
  ``GRAD_RTOL`` relative to its largest entry;
- short lam > 0 training runs match to ``RUN_RTOL``.
"""

import math

import numpy as np
import pytest

from ssfa import losses
from ssfa.data import prep_stack
from ssfa.losses import (
    Margins,
    coherence_objective,
    pair_loss,
    softmax_loss,
    total_objective,
    triplet_loss,
)
from ssfa.mining import MiningConfig, mine_pairs, mine_triplets
from ssfa.network import (
    LayerSpec,
    NetworkParams,
    backward,
    forward,
    init_classifier,
    init_glorot,
)
from ssfa.synth import SynthConfig, gen_labeled, gen_unlabeled
from ssfa.trainer import (
    TrainConfig,
    resolve_pairs,
    resolve_triplets,
    stratified_split,
    train,
    train_unsupervised,
)

GRAD_RTOL = 1e-12
RUN_RTOL = 1e-10


@pytest.fixture(scope="module")
def data():
    u = gen_unlabeled(SynthConfig(grid=8, clip_len=12, num_clips=6, seed=4))
    labeled = gen_labeled(SynthConfig(grid=8, seed=54), 6)
    mc = MiningConfig(T_seconds=2.0, seed=4, max_pairs=300, max_triplets=300)
    return labeled, resolve_pairs(u, mine_pairs(u, mc)), resolve_triplets(u, mine_triplets(u, mc))


def _members(resolved):
    """Resolved (frames, idx, p) as the per-member row arrays plus labels
    that the reference batcher draws from."""
    frames, idx, p = resolved
    return tuple(frames[idx[:, c]] for c in range(idx.shape[1])) + (p,)


# ---------------------------------------------------------------------------
# per-block reference

def _blocks(params):
    return [a for wb in zip(params.weights, params.biases) for a in wb]


def _net(arrays, n_layers):
    weights = arrays[0 : 2 * n_layers : 2]
    spec = LayerSpec((weights[0].shape[1],) + tuple(len(w) for w in weights))
    return NetworkParams(spec, np.concatenate([a.ravel() for a in arrays[: 2 * n_layers]]))


def _accumulate(dst, src, scale):
    for d, s in zip(dst, src):
        d += scale * s


def _ref_nesterov(params, velocity, grad_fn, lr, momentum):
    look = [p + momentum * v for p, v in zip(params, velocity)]
    grads = grad_fn(look)
    velocity = [momentum * v - lr * g for v, g in zip(velocity, grads)]
    return [p + v for p, v in zip(params, velocity)], velocity


def _ref_coherence(pairs, triplets, params, lam_prime, margins):
    dtheta = [np.zeros_like(a) for a in _blocks(params)]
    terms = {"slow": 0.0, "steady": 0.0}
    if pairs is not None:
        za, ta = forward(params, pairs[0])
        zb, tb = forward(params, pairs[1])
        r2 = pair_loss(za, zb, pairs[2], margins)
        terms["slow"] = r2.value
        _accumulate(dtheta, _blocks(backward(params, ta, r2.grads["a"])), 1.0)
        _accumulate(dtheta, _blocks(backward(params, tb, r2.grads["b"])), 1.0)
    if triplets is not None and lam_prime != 0.0:
        zl, tl = forward(params, triplets[0])
        zm, tm = forward(params, triplets[1])
        zn, tn = forward(params, triplets[2])
        r3 = triplet_loss(zl, zm, zn, triplets[3], margins)
        terms["steady"] = r3.value
        for tape, key in ((tl, "l"), (tm, "m"), (tn, "n")):
            _accumulate(dtheta, _blocks(backward(params, tape, r3.grads[key])), lam_prime)
    return terms, dtheta


def _ref_total(bx, by, pairs, triplets, params, W, cfg):
    zs, tape = forward(params, bx)
    sup = softmax_loss(W, zs, by)
    dtheta = _blocks(backward(params, tape, sup.grads["z"]))
    terms = {"sup": sup.value, "slow": 0.0, "steady": 0.0}
    if cfg.lam != 0.0 and (pairs is not None or triplets is not None):
        co_terms, co = _ref_coherence(pairs, triplets, params, cfg.lam_prime, cfg.margins)
        terms.update(co_terms)
        _accumulate(dtheta, co, cfg.lam)
    return terms, dtheta + [sup.grads["W"]]


class _RefBatcher:
    def __init__(self, resolved, batch, seed):
        self.arrays, self.n = _members(resolved), len(resolved[-1])
        self.batch = min(batch, self.n)
        self.rng = np.random.default_rng(seed)
        self.deck, self.pos = self.rng.permutation(self.n), 0

    def take(self):
        out, need = [], self.batch
        while need > 0:
            if self.pos == len(self.deck):
                self.deck, self.pos = self.rng.permutation(self.n), 0
                continue
            grab = min(need, len(self.deck) - self.pos)
            out.append(self.deck[self.pos : self.pos + grab])
            self.pos += grab
            need -= grab
        idx = np.concatenate(out)
        return tuple(a[idx] for a in self.arrays)


def _ref_train(labeled, pairs, triplets, spec, cfg):
    """Returns the parameter blocks and (epoch stats) rows after every epoch."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    params = init_glorot(spec, seeds[0])
    W = init_classifier(labeled.num_classes, spec.out_dim, seeds[1])
    X, y = prep_stack(labeled.images), np.array(labeled.labels)
    tr, va = stratified_split(y, cfg.val_fraction, np.random.default_rng(seeds[2]))
    rng_shuffle = np.random.default_rng(seeds[3])
    ps = _RefBatcher(pairs, cfg.batch_pairs, seeds[4]) if cfg.lam > 0 else None
    ts = _RefBatcher(triplets, cfg.batch_triplets, seeds[5]) if cfg.lam_prime > 0 else None
    n = len(spec.sizes) - 1
    blocks = _blocks(params) + [W]
    velocity = [np.zeros_like(b) for b in blocks]
    epochs = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng_shuffle.permutation(len(tr))
        sums = {"sup": 0.0, "slow": 0.0, "steady": 0.0}
        steps = 0
        for start in range(0, len(order), cfg.batch_labeled):
            sel = tr[order[start : start + cfg.batch_labeled]]
            pb = ps.take() if ps else None
            tb = ts.take() if ts else None
            step_terms = {}

            def grad_fn(arrays):
                terms, grads = _ref_total(X[sel], y[sel], pb, tb, _net(arrays, n),
                                          arrays[-1], cfg)
                step_terms.update(terms)
                return grads

            blocks, velocity = _ref_nesterov(blocks, velocity, grad_fn, cfg.lr, cfg.momentum)
            for k in sums:
                sums[k] += step_terms[k]
            steps += 1
        zv, _ = forward(_net(blocks, n), X[va])
        val_loss = softmax_loss(blocks[-1], zv, y[va]).value
        val_acc = float(np.mean(np.argmax(zv @ blocks[-1].T, axis=1) == y[va]))
        epochs.append((blocks, (epoch, sums["sup"] / steps, sums["slow"] / steps,
                                sums["steady"] / steps, val_loss, val_acc)))
    return epochs


def _ref_train_unsupervised(pairs, triplets, spec, cfg, passes):
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    blocks = _blocks(init_glorot(spec, seeds[0]))
    ps = _RefBatcher(pairs, cfg.batch_pairs, seeds[1]) if pairs is not None else None
    ts = _RefBatcher(triplets, cfg.batch_triplets, seeds[2]) if cfg.lam_prime > 0 else None
    steps = math.ceil(len(pairs[-1]) / cfg.batch_pairs) if ps else math.ceil(
        len(triplets[-1]) / cfg.batch_triplets)
    n = len(spec.sizes) - 1
    velocity = [np.zeros_like(b) for b in blocks]
    out = []
    for pass_i in range(1, passes + 1):
        sums = {"slow": 0.0, "steady": 0.0}
        for _ in range(steps):
            pb = ps.take() if ps else None
            tb = ts.take() if ts else None
            step_terms = {}

            def grad_fn(arrays):
                terms, grads = _ref_coherence(pb, tb, _net(arrays, n), cfg.lam_prime,
                                              cfg.margins)
                step_terms.update(terms)
                return grads

            blocks, velocity = _ref_nesterov(blocks, velocity, grad_fn, cfg.lr, cfg.momentum)
            for k in sums:
                sums[k] += step_terms[k]
        out.append((blocks, (pass_i, sums["slow"] / steps, sums["steady"] / steps)))
    return out


def _assert_blocks_equal(params, blocks):
    for a, b in zip(_blocks(params), blocks):
        assert a.tobytes() == b.tobytes()


def _assert_close(actual, ref, rtol):
    """max |actual - ref| <= rtol * max |ref| over the blocks as one vector
    (an entry-wise rtol fails on the output bias, whose exact gradient
    under the translation-invariant coherence loss is 0)."""
    actual, ref = (np.concatenate([np.ravel(b) for b in x]) for x in (actual, ref))
    assert np.max(np.abs(actual - ref)) <= rtol * np.max(np.abs(ref))


def _assert_rows_close(rows, ref_rows):
    np.testing.assert_allclose(np.array(rows, dtype=float), np.array(ref_rows, dtype=float),
                               rtol=RUN_RTOL, atol=0)


# ---------------------------------------------------------------------------
# flat, fused path == per-block, per-branch reference

SPEC = LayerSpec((64, 9, 7, 5))


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(lr=0.02, lam=3.0, lam_prime=0.3, batch_labeled=4, batch_pairs=17,
                    batch_triplets=13, max_epochs=3, patience=3, seed=1),
        TrainConfig(lr=0.05, momentum=0.5, lam=0.7, lam_prime=0.0, max_epochs=2, patience=2,
                    seed=2, margins=Margins(metric="l1")),
        TrainConfig(lr=0.03, lam=0.0, max_epochs=2, patience=2, seed=3),
    ],
)
def test_train_matches_per_block_reference(data, cfg):
    labeled, pairs, triplets = data
    trip = triplets if cfg.lam_prime > 0 else None
    ref = _ref_train(labeled, pairs if cfg.lam > 0 else None, trip, SPEC, cfg)
    params, W, hist = train(labeled, pairs, trip, SPEC, cfg)
    rows = [tuple(vars(e).values()) for e in hist.epochs]
    best_blocks = ref[hist.best_epoch - 1][0]
    if cfg.lam == 0.0:
        assert rows == [row for _, row in ref]
        _assert_blocks_equal(params, best_blocks[:-1])
        assert W.tobytes() == best_blocks[-1].tobytes()
    else:
        assert hist.best_epoch == 1 + int(np.argmin([row[4] for _, row in ref]))
        _assert_rows_close(rows, [row for _, row in ref])
        _assert_close(_blocks(params) + [W], best_blocks, RUN_RTOL)


@pytest.mark.parametrize("with_pairs", [True, False])
def test_train_unsupervised_matches_per_block_reference(data, with_pairs):
    _, pairs, triplets = data
    cfg = TrainConfig(lr=0.01, momentum=0.9, lam_prime=0.6, batch_pairs=40,
                      batch_triplets=30, seed=5)
    p = pairs if with_pairs else None
    ref = _ref_train_unsupervised(p, triplets, SPEC, cfg, passes=2)
    _, snaps, rows = train_unsupervised(p, triplets, SPEC, cfg, passes=2)
    _assert_rows_close(rows, [row for _, row in ref])
    for snap, (blocks, _) in zip(snaps, ref):
        _assert_close(_blocks(snap), blocks, RUN_RTOL)


def _model(seed):
    params = init_glorot(SPEC, seed)
    return params, init_classifier(4, SPEC.out_dim, seed + 1)


def _draw(resolved, n, seed):
    frames, idx, p = resolved
    sel = np.random.default_rng(seed).choice(len(p), size=n, replace=False)
    return frames, idx[sel], p[sel]


@pytest.mark.parametrize(
    "case", ["pairs_and_triplets", "pairs_only", "triplets_only", "lam_prime_0", "l1"])
def test_objectives_match_per_branch_reference(case):
    # 40 pairs and 30 triplets whose members are all one of 3 table rows, so
    # the fused pass sums many member gradients into each row
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(10, SPEC.in_dim))
    rows = np.array([2, 5, 7])
    pairs = (frames, rows[rng.integers(0, 3, (40, 2))], rng.integers(0, 2, 40))
    triplets = (frames, rows[rng.integers(0, 3, (30, 3))], rng.integers(0, 2, 30))
    bx, by = rng.normal(size=(4, SPEC.in_dim)), rng.integers(0, 4, 4)
    lam_prime = 0.0 if case == "lam_prime_0" else 0.6
    margins = Margins(delta_pair=2.0, delta_triplet=2.0, metric="l1" if case == "l1" else "l2")
    cfg = TrainConfig(lr=0.01, lam=1.5, lam_prime=lam_prime, margins=margins)
    pb = None if case == "triplets_only" else pairs
    tb = None if case == "pairs_only" else triplets
    params, W = _model(4)
    ref_pb, ref_tb = pb and _members(pb), tb and _members(tb)
    lv = total_objective(bx, by, pb, tb, params, W, cfg.lam, lam_prime, margins)
    terms, ref = _ref_total(bx, by, ref_pb, ref_tb, params, W, cfg)
    _assert_close([lv.grads["flat"]], ref, GRAD_RTOL)
    assert lv.terms == pytest.approx(terms, rel=GRAD_RTOL)
    co = coherence_objective(pb, tb, params, lam_prime, margins)
    terms, ref = _ref_coherence(ref_pb, ref_tb, params, lam_prime, margins)
    _assert_close([co.grads["theta"].flat], ref, GRAD_RTOL)
    assert co.terms == pytest.approx(terms, rel=GRAD_RTOL)


def test_one_forward_and_one_backward_per_objective(data, monkeypatch):
    labeled, pairs, triplets = data
    calls = {"forward": 0, "backward": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(losses, name, wrapped)

    spy("forward", losses.forward)
    spy("backward", losses.backward)
    params, W = _model(5)
    pb, tb = _draw(pairs, 30, 3), _draw(triplets, 30, 4)
    bx, by = prep_stack(labeled.images[:4]), np.array(labeled.labels[:4])
    total_objective(bx, by, pb, tb, params, W, 1.0, 0.5, Margins())
    assert calls == {"forward": 1, "backward": 1}
    coherence_objective(pb, tb, params, 0.5, Margins())
    assert calls == {"forward": 2, "backward": 2}


def test_tuples_on_different_tables_are_refused(data):
    # the triplets on a copy of the shared table: training and the
    # objective refuse two tables rather than stack them
    labeled, pairs, triplets = data
    split = pairs, (triplets[0].copy(), *triplets[1:])
    cfg = TrainConfig(lr=0.02, lam=3.0, lam_prime=0.3, batch_labeled=4, batch_pairs=17,
                      batch_triplets=13, max_epochs=2, patience=2, seed=1)
    with pytest.raises(ValueError, match="one frame table"):
        train(labeled, *split, SPEC, cfg)
    with pytest.raises(ValueError, match="one frame table"):
        train_unsupervised(*split, SPEC, cfg, passes=1)
    net, W0 = _model(6)
    bx, by = prep_stack(labeled.images[:4]), np.array(labeled.labels[:4])
    with pytest.raises(ValueError, match="one frame table"):
        total_objective(bx, by, *split, net, W0, 2.0, 0.5, Margins())
