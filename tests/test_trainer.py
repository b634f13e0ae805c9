import numpy as np
import pytest

from ssfa.data import Clip, LabeledSet, UnlabeledSet, prep_stack
from ssfa.losses import softmax_loss
from ssfa.mining import MiningConfig, PairSample, TripletSample, mine_pairs, mine_triplets
from ssfa.network import LayerSpec, forward, init_glorot
from ssfa.synth import SynthConfig, gen_labeled, gen_unlabeled
from ssfa import trainer
from ssfa.trainer import (
    ConfigError,
    OptimizerError,
    SearchError,
    TrainConfig,
    greedy_cv,
    nesterov_step,
    resolve_pairs,
    resolve_triplets,
    stratified_split,
    train,
    train_unsupervised,
)

SPEC = LayerSpec((64, 10, 8))


def small_data(seed=0, clips=6, per_class=5):
    base = SynthConfig(grid=8, clip_len=12, num_clips=clips, seed=seed)
    u = gen_unlabeled(base)
    labeled = gen_labeled(SynthConfig(grid=8, seed=seed + 50), per_class)
    mc = MiningConfig(T_seconds=2.0, seed=seed, max_pairs=400, max_triplets=400)
    pairs = resolve_pairs(u, mine_pairs(u, mc))
    triplets = resolve_triplets(u, mine_triplets(u, mc))
    return labeled, pairs, triplets


# ---------------------------------------------------------------------------
# nesterov_step

def _step(theta, velocity, grad_fn, lr, momentum):
    """nesterov_step on copies; returns (new theta, new velocity)."""
    theta, velocity = theta.copy(), velocity.copy()
    nesterov_step(theta, velocity, np.empty_like(theta), grad_fn, lr, momentum)
    return theta, velocity


def test_nesterov_zero_momentum_is_plain_sgd():
    theta = np.array([2.0, -1.0])
    new, _ = _step(theta, np.zeros(2), lambda x: 2 * x, lr=0.1, momentum=0.0)
    np.testing.assert_allclose(new, theta - 0.1 * 2 * theta)


def test_nesterov_single_step_hand_oracle():
    # f(x) = x^2 at x=1, v=0, lr=0.1, mu=0.9: v' = -0.2, x' = 0.8
    new, v = _step(np.array([1.0]), np.zeros(1), lambda x: 2 * x, lr=0.1, momentum=0.9)
    assert abs(v[0] + 0.2) < 1e-15
    assert abs(new[0] - 0.8) < 1e-15


def test_nesterov_updates_in_place_bitwise():
    # theta + (m*v - lr*g) at the lookahead theta + m*v, bit for bit, written
    # into the caller's theta and velocity
    rng = np.random.default_rng(3)
    theta, velocity = rng.normal(size=50), rng.normal(size=50)
    lr, mu = 0.03, 0.9
    t0, v0 = theta.copy(), velocity.copy()
    seen = []

    def grad_fn(look):
        seen.append(look.copy())
        return np.sin(look)

    look = np.empty_like(theta)
    assert nesterov_step(theta, velocity, look, grad_fn, lr, mu) is None
    g = np.sin(t0 + mu * v0)
    assert seen[0].tobytes() == (t0 + mu * v0).tobytes()
    assert velocity.tobytes() == (mu * v0 - lr * g).tobytes()
    assert theta.tobytes() == (t0 + (mu * v0 - lr * g)).tobytes()


def test_nesterov_lookahead_equals_rewritten_form():
    # independent formulation tracks the lookahead point phi = theta + mu*v:
    #   g = grad(phi); v' = mu*v - lr*g; phi' = phi + mu*v' - mu*v - lr*g + v' - v'...
    # derived directly: theta' = phi - lr*g + (mu*v - v) ... simplest exact
    # rewrite: theta' = theta + mu*v - lr*grad(theta + mu*v) computed inline.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    A = A @ A.T + np.eye(3)  # SPD quadratic f = 0.5 x'Ax

    lr, mu = 0.02, 0.9
    x1 = rng.normal(size=3)
    v1 = np.zeros(3)
    x2 = x1.copy()
    v2 = np.zeros(3)
    look = np.empty(3)
    for _ in range(100):
        nesterov_step(x1, v1, look, lambda x: A @ x, lr, mu)
        g = A @ (x2 + mu * v2)
        v2 = mu * v2 - lr * g
        x2 = x2 + v2
    np.testing.assert_allclose(x1, x2, atol=1e-12)


def test_nesterov_rejects_non_finite_gradient():
    theta, velocity = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    with pytest.raises(OptimizerError, match="non-finite gradient in 1 of 2"):
        nesterov_step(theta, velocity, np.empty(2), lambda x: np.array([np.nan, 0.0]), 0.1, 0.9)
    # the step leaves theta and the velocity as they were
    assert theta.tolist() == [1.0, 2.0] and velocity.tolist() == [0.5, -0.5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nesterov_rejects_each_non_finite_value_unchanged(bad):
    theta, velocity = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.5, 0.0])
    grad = np.array([1e200, bad, 0.0])
    with pytest.raises(OptimizerError, match="non-finite gradient in 1 of 3"):
        nesterov_step(theta, velocity, np.empty(3), lambda x: grad, 0.1, 0.9)
    assert theta.tolist() == [1.0, 2.0, 3.0] and velocity.tolist() == [0.5, -0.5, 0.0]


def test_nesterov_steps_on_a_finite_gradient_whose_norm_overflows():
    # grad @ grad overflows to inf here, but every entry is finite
    theta, velocity = np.zeros(4), np.zeros(4)
    with np.errstate(all="raise"):
        nesterov_step(theta, velocity, np.empty(4), lambda x: np.full(4, 2.0 ** 600), 2.0 ** -600,
                      0.9)
    assert velocity.tolist() == [-1.0] * 4 and theta.tolist() == [-1.0] * 4


def test_nesterov_gradient_written_over_the_lookahead_keeps_the_bits():
    # the step loop's gradient overwrites the lookahead point it was taken
    # at and is returned as that vector: the step is still the formula's
    rng = np.random.default_rng(4)
    theta, velocity = rng.normal(size=50), rng.normal(size=50)
    lr, mu = 0.03, 0.9
    t0, v0 = theta.copy(), velocity.copy()
    look = np.empty_like(theta)
    nesterov_step(theta, velocity, look, lambda x: np.sin(x, out=x), lr, mu)
    g = np.sin(t0 + mu * v0)
    assert velocity.tobytes() == (mu * v0 - lr * g).tobytes()
    assert theta.tobytes() == (t0 + (mu * v0 - lr * g)).tobytes()

    def non_finite(x):
        x[7] = np.nan
        return x

    t1, v1 = theta.copy(), velocity.copy()
    with pytest.raises(OptimizerError, match="non-finite gradient in 1 of 50"):
        nesterov_step(theta, velocity, look, non_finite, lr, mu)
    assert theta.tobytes() == t1.tobytes() and velocity.tobytes() == v1.tobytes()


@pytest.mark.parametrize("field, value", [
    ("lr", np.nan), ("lr", np.inf), ("lam", np.nan), ("lam", np.inf),
    ("lam_prime", np.nan), ("lam_prime", np.inf),
])
def test_train_config_rejects_non_finite_values(field, value):
    # a NaN weight failed every `> 0` test downstream and trained the
    # unregularized model
    with pytest.raises(ConfigError, match="finite"):
        TrainConfig(**{"lr": 0.01, field: value})


# ---------------------------------------------------------------------------
# splits and resolution

@pytest.mark.parametrize("batch", [1, 3, 7, 5, 9])
def test_tuple_stream_batches_follow_the_deck_permutations(batch):
    # a batch takes the next rows of the current deck and, at its end, draws
    # the next permutation only when more rows are needed
    from ssfa.trainer import _TupleStream

    idx = np.arange(21).reshape(7, 3) * 10
    p = np.arange(7) % 2
    stream = _TupleStream((None, idx, p), batch, np.random.default_rng(4))
    rng, deck, pos = np.random.default_rng(4), None, 7
    for _ in range(12):
        sel = []
        while len(sel) < min(batch, 7):
            if pos == 7:
                deck, pos = rng.permutation(7), 0
            sel.append(deck[pos])
            pos += 1
        frames, got_idx, got_p = stream.take()
        assert frames is None
        np.testing.assert_array_equal(got_idx, idx[sel])
        np.testing.assert_array_equal(got_p, p[sel])
    assert stream.rng.bit_generator.state == rng.bit_generator.state


def test_stratified_split_is_per_class():
    labels = np.array([0] * 10 + [1] * 5)
    tr, va = stratified_split(labels, 0.2, np.random.default_rng(0))
    assert len(va) == 3  # 2 of class 0, 1 of class 1
    assert np.sum(labels[va] == 0) == 2 and np.sum(labels[va] == 1) == 1
    assert sorted(np.concatenate([tr, va])) == list(range(15))


def test_stratified_split_empty_val_is_config_error():
    with pytest.raises(ConfigError):
        stratified_split(np.array([0, 0, 1, 1]), 0.2, np.random.default_rng(0))


def test_stratified_split_empty_train_is_config_error():
    with pytest.raises(ConfigError, match="training split is empty"):
        stratified_split(np.array([0, 0, 1, 1]), 1.0, np.random.default_rng(0))


def test_resolve_pairs_produces_preprocessed_rows():
    cfg = SynthConfig(grid=8, num_clips=2, seed=1)
    u = gen_unlabeled(cfg)
    samples = mine_pairs(u, MiningConfig(T_seconds=2.0, seed=0, max_pairs=12))
    frames, idx, p = resolve_pairs(u, samples)
    assert frames.shape == (sum(len(c.frames) for c in u.clips), 64)
    assert idx.shape == (len(samples), 2) and len(p) == len(samples)
    s = samples[3]
    clip = next(c for c in u.clips if c.clip_id == s.clip_id)
    np.testing.assert_allclose(frames[idx[3, 0]], prep_stack([clip.frames[s.j]])[0])
    np.testing.assert_allclose(frames[idx[3, 1]], prep_stack([clip.frames[s.k]])[0])


def test_resolve_triplets_ordering():
    cfg = SynthConfig(grid=8, num_clips=2, seed=2)
    u = gen_unlabeled(cfg)
    samples = mine_triplets(u, MiningConfig(T_seconds=2.0, seed=0, max_triplets=12))
    frames, idx, p = resolve_triplets(u, samples)
    assert idx.shape == (len(samples), 3)
    s = samples[0]
    clip = next(c for c in u.clips if c.clip_id == s.clip_id)
    np.testing.assert_allclose(frames[idx[0, 1]], prep_stack([clip.frames[s.m]])[0])


def test_starts_is_the_one_corpus_numbering():
    # clip c's frame t is table row starts[c] + t, and resolved tuples name
    # the same rows
    u = UnlabeledSet([Clip(f"c{i}", np.random.default_rng(i).uniform(0, 1, (n, 4, 3)), 1.0)
                      for i, n in enumerate((5, 1, 7))])
    assert u.starts.tolist() == [0, 5, 6, 13] and u.starts.dtype == np.intp
    assert not u.starts.flags.writeable and u.starts is u.starts
    for c, clip in enumerate(u.clips):
        for t in range(len(clip.frames)):
            row = u.table[u.starts[c] + t]
            assert row.tobytes() == prep_stack(clip.frames[t:t + 1])[0].tobytes()
    samples = [PairSample("c2", 6, 0, 1), PairSample("c0", 4, 2, 0), PairSample("c2", 3, 1, 0)]
    _, idx, _ = resolve_pairs(u, samples)
    for s, got in zip(samples, idx):
        clip = [c.clip_id for c in u.clips].index(s.clip_id)
        assert got.tolist() == (u.starts[clip] + np.array([s.j, s.k])).tolist()


def test_resolve_shares_one_table_per_corpus(monkeypatch):
    from ssfa import data

    u = gen_unlabeled(SynthConfig(grid=8, clip_len=12, num_clips=3, seed=1))
    calls = []
    real = data.prep_stack
    monkeypatch.setattr(data, "prep_stack", lambda frames: calls.append(1) or real(frames))
    mc = MiningConfig(T_seconds=2.0, seed=0, max_pairs=20, max_triplets=20)
    pairs = resolve_pairs(u, mine_pairs(u, mc))
    triplets = resolve_triplets(u, mine_triplets(u, mc))
    assert pairs[0] is triplets[0]
    assert resolve_pairs(u, mine_pairs(u, mc))[0] is pairs[0]
    assert len(calls) == 1
    assert not pairs[0].flags.writeable


def test_resolve_labels_are_int64_even_for_no_samples():
    # resolving no samples gave float64 labels, any other call int64
    u = gen_unlabeled(SynthConfig(grid=8, clip_len=12, num_clips=2, seed=1))
    clip_id = u.clips[0].clip_id
    for resolve, samples in ((resolve_pairs, [PairSample(clip_id, 3, 0, 1)]),
                             (resolve_triplets, [TripletSample(clip_id, 0, 6, 11, 0)])):
        for s in ([], samples):
            _, idx, p = resolve(u, s)
            assert p.dtype == np.int64 and p.shape == (len(s),) and idx.shape[0] == len(s)


def test_resolve_rejects_unknown_clip_and_frame_past_clip_end():
    u = gen_unlabeled(SynthConfig(grid=8, clip_len=12, num_clips=2, seed=1))
    clip_id = u.clips[0].clip_id
    with pytest.raises(ValueError, match="nosuch"):
        resolve_pairs(u, [PairSample("nosuch", 1, 0, 1)])
    with pytest.raises(ValueError, match="j=99"):
        resolve_pairs(u, [PairSample(clip_id, 99, 5, 1)])
    with pytest.raises(ValueError, match="n=12"):
        resolve_triplets(u, [TripletSample(clip_id, 0, 6, 12, 1)])
    # the last frame of the first clip resolves; one further would be the next clip's first
    frames, idx, _ = resolve_triplets(u, [TripletSample(clip_id, 0, 6, 11, 1)])
    assert idx.tolist() == [[0, 6, 11]] and frames.shape[0] == 24


def test_resolve_error_texts_name_the_first_offender():
    # clips of 7 and 12 frames: the text names the offender's own clip length
    clips = [Clip(f"c{i}", (np.arange(n) / n).reshape(n, 1, 1), 1.0)
             for i, n in enumerate((7, 12))]
    u = UnlabeledSet(clips)
    ok, past = PairSample("c1", 11, 0, 1), PairSample("c0", 7, 2, 0)
    unknown = PairSample("nosuch", 1, 0, 1)
    past_text = f"tuple {past} names a frame past the end of its 7-frame clip"
    unknown_text = f"tuple {unknown} names unknown clip 'nosuch'"
    for samples, text in (([ok, past, unknown], past_text), ([ok, unknown, past], unknown_text),
                          ([past], past_text), ([unknown], unknown_text)):
        with pytest.raises(ValueError) as err:
            resolve_pairs(u, samples)
        assert str(err.value) == text
    trip = TripletSample("c1", 2, 7, 12, 1)
    with pytest.raises(ValueError) as err:
        resolve_triplets(u, [TripletSample("c1", 2, 7, 11, 0), trip, TripletSample("x", 0, 1, 2, 1)])
    assert str(err.value) == f"tuple {trip} names a frame past the end of its 12-frame clip"
    # a frame index beyond any machine integer is past the end too
    huge = PairSample("c1", 10 ** 30, 0, 1)
    with pytest.raises(ValueError, match="past the end of its 12-frame clip"):
        resolve_pairs(u, [huge])


# ---------------------------------------------------------------------------
# train

def test_train_unreg_runs_and_is_deterministic():
    labeled, _, _ = small_data()
    cfg = TrainConfig(lr=0.05, lam=0.0, max_epochs=12, patience=5, seed=3)
    p1, W1, h1 = train(labeled, None, None, SPEC, cfg)
    p2, W2, h2 = train(labeled, None, None, SPEC, cfg)
    assert h1.epochs == h2.epochs
    assert h1.best_epoch == h2.best_epoch
    assert W1.tobytes() == W2.tobytes()
    for a, b in zip(p1.weights + p1.biases, p2.weights + p2.biases):
        assert a.tobytes() == b.tobytes()


def test_train_regularized_logs_all_terms():
    labeled, pairs, triplets = small_data()
    cfg = TrainConfig(lr=0.02, lam=0.5, lam_prime=0.5, max_epochs=6, patience=6, seed=0)
    _, _, hist = train(labeled, pairs, triplets, SPEC, cfg)
    e = hist.epochs[-1]
    assert e.loss_slow > 0 and e.loss_steady > 0 and e.loss_sup > 0
    assert all(np.isfinite([e.loss_sup, e.loss_slow, e.loss_steady, e.val_loss]) .all() for e in hist.epochs)


def test_train_sfa2_mode_ignores_triplets():
    labeled, pairs, triplets = small_data()
    cfg = TrainConfig(lr=0.02, lam=0.5, lam_prime=0.0, max_epochs=4, patience=4, seed=0)
    _, _, with_trips = train(labeled, pairs, triplets, SPEC, cfg)
    _, _, without = train(labeled, pairs, None, SPEC, cfg)
    # lam_prime = 0: triplets contribute nothing, runs are identical
    assert [e.val_loss for e in with_trips.epochs] == [e.val_loss for e in without.epochs]
    assert all(e.loss_steady == 0.0 for e in with_trips.epochs)


def test_train_returns_best_validation_epoch():
    labeled, pairs, triplets = small_data(seed=5)
    cfg = TrainConfig(lr=0.15, lam=0.3, lam_prime=0.3, max_epochs=25, patience=25, seed=1)
    params, W, hist = train(labeled, pairs, triplets, SPEC, cfg)
    losses = [e.val_loss for e in hist.epochs]
    assert hist.best_epoch == int(np.argmin(losses)) + 1
    # steps after the best epoch move theta in place; the returned copy must not
    assert hist.best_epoch < len(hist.epochs)
    # re-evaluate the returned parameters on the reproduced validation split
    X = prep_stack(labeled.images)
    y = np.array(labeled.labels)
    seeds = np.random.SeedSequence(cfg.seed).spawn(6)
    _, va = stratified_split(y, cfg.val_fraction, np.random.default_rng(seeds[2]))
    zv, _ = forward(params, X[va])
    val = softmax_loss(W, zv, y[va]).value
    assert abs(val - min(losses)) < 1e-12


def test_train_early_stops_before_max_epochs():
    labeled, _, _ = small_data(seed=7)
    cfg = TrainConfig(lr=0.3, lam=0.0, max_epochs=400, patience=4, seed=2)
    _, _, hist = train(labeled, None, None, SPEC, cfg)
    assert len(hist.epochs) < 400
    assert len(hist.epochs) >= hist.best_epoch + 4


def test_train_requires_tuples_when_regularized():
    labeled, _, _ = small_data()
    cfg = TrainConfig(lr=0.01, lam=0.5, max_epochs=2, patience=2)
    with pytest.raises(ConfigError):
        train(labeled, None, None, SPEC, cfg)


@pytest.mark.parametrize("case", ["no_pair_batch", "triplets_without_lam_prime", "no_batches"])
def test_train_regularized_without_a_tuple_batch_is_config_error(case):
    # lam > 0 with tuples that no step can draw used to train the lam = 0 model
    labeled, pairs, triplets = small_data()
    kw = dict(lr=0.01, lam=0.5, lam_prime=0.5, max_epochs=2, patience=2)
    if case == "no_pair_batch":
        cfg, triplets = TrainConfig(batch_pairs=0, **kw), None
    elif case == "triplets_without_lam_prime":
        cfg, pairs = TrainConfig(**{**kw, "lam_prime": 0.0}), None
    else:
        cfg = TrainConfig(batch_pairs=0, batch_triplets=0, **kw)
    with pytest.raises(ConfigError, match="nothing to optimize"):
        train(labeled, pairs, triplets, SPEC, cfg)


def test_train_rejects_a_frame_table_of_another_width():
    # 8x8 clips under a 256-input net used to fail inside the first step
    _, pairs, triplets = small_data()
    labeled = gen_labeled(SynthConfig(grid=16, seed=3), 5)
    cfg = TrainConfig(lr=0.01, lam=0.5, lam_prime=0.5, max_epochs=2, patience=2)
    with pytest.raises(ConfigError, match="frame table dim 64 != network input dim 256"):
        train(labeled, pairs, triplets, LayerSpec((256, 10, 8)), cfg)


def test_train_unsupervised_rejects_a_frame_table_of_another_width():
    _, pairs, triplets = small_data()
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5)
    with pytest.raises(ConfigError, match="frame table dim 64 != network input dim 256"):
        train_unsupervised(pairs, triplets, LayerSpec((256, 10, 8)), cfg, passes=1)


def test_train_rejects_an_empty_set_and_images_of_another_size():
    labeled, pairs, triplets = small_data()
    cfg = TrainConfig(lr=0.01, lam=0.5, lam_prime=0.5, max_epochs=2, patience=2)
    empty = LabeledSet(np.zeros((0, 8, 8)), [], 4)
    with pytest.raises(ConfigError, match="labeled set is empty"):
        train(empty, pairs, triplets, SPEC, cfg)
    with pytest.raises(ConfigError, match="image dim 64 != network input dim 256"):
        train(labeled, pairs, triplets, LayerSpec((256, 10, 8)), cfg)


def test_train_unsupervised_needs_a_pass():
    _, pairs, triplets = small_data()
    with pytest.raises(ConfigError, match="passes must be >= 1"):
        train_unsupervised(pairs, triplets, SPEC, TrainConfig(lr=0.01), passes=0)


def test_two_tables_are_refused_even_when_one_side_draws_nothing():
    # the side rule is the objective's: both sides hold tuples, so their
    # tables must agree whatever the batch sizes
    labeled, pairs, triplets = small_data()
    split = (triplets[0].copy(), *triplets[1:])
    cfg = TrainConfig(lr=0.01, lam=0.5, lam_prime=0.5, batch_pairs=0, max_epochs=2,
                      patience=2)
    with pytest.raises(ValueError, match="one frame table"):
        train(labeled, pairs, split, SPEC, cfg)
    with pytest.raises(ValueError, match="one frame table"):
        train_unsupervised(pairs, split, SPEC, cfg, passes=1)


def test_train_history_csv_format(tmp_path):
    labeled, _, _ = small_data()
    cfg = TrainConfig(lr=0.05, lam=0.0, max_epochs=3, patience=3, seed=0)
    _, _, hist = train(labeled, None, None, SPEC, cfg)
    hist.to_csv(tmp_path / "h.csv")
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss_sup,loss_slow,loss_steady,val_loss,val_acc"
    assert len(lines) == len(hist.epochs) + 1
    assert lines[1].startswith("1,")


def test_train_unsupervised_monotone_loss_and_snapshots():
    _, pairs, triplets = small_data(seed=9, clips=8)
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5, max_epochs=1, seed=4)
    init, snaps, rows = train_unsupervised(pairs, triplets, SPEC, cfg, passes=3)
    assert len(snaps) == 3 and len(rows) == 3
    # parameters actually moved
    assert not np.array_equal(init.weights[0], snaps[0].weights[0])
    # loss decreases from first to last pass
    assert rows[-1][1] < rows[0][1]


def test_train_unsupervised_keeps_init_and_pass_snapshots():
    # theta moves in place; the returned init and each pass's snapshot are copies
    _, pairs, triplets = small_data(seed=9)
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5, seed=4)
    init, snaps, _ = train_unsupervised(pairs, triplets, SPEC, cfg, passes=3)
    drawn = init_glorot(SPEC, np.random.SeedSequence(cfg.seed).spawn(3)[0])
    assert init.flat.tobytes() == drawn.flat.tobytes()
    for passes in (1, 2):
        _, ref, _ = train_unsupervised(pairs, triplets, SPEC, cfg, passes=passes)
        assert snaps[passes - 1].flat.tobytes() == ref[-1].flat.tobytes()
    assert len({s.flat.tobytes() for s in snaps}) == 3


def test_train_unsupervised_deterministic():
    _, pairs, triplets = small_data(seed=9)
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5, seed=4)
    _, s1, r1 = train_unsupervised(pairs, triplets, SPEC, cfg, passes=2)
    _, s2, r2 = train_unsupervised(pairs, triplets, SPEC, cfg, passes=2)
    assert r1 == r2
    assert s1[-1].weights[0].tobytes() == s2[-1].weights[0].tobytes()


def test_train_unsupervised_ignores_lam():
    # an unsupervised step is the joint step at lam = 1, whatever cfg.lam is
    _, pairs, triplets = small_data(seed=9)
    runs = [train_unsupervised(pairs, triplets, SPEC,
                               TrainConfig(lr=0.01, lam=lam, lam_prime=0.5, seed=4), passes=2)
            for lam in (0.0, 5.0)]
    (_, s0, r0), (_, s5, r5) = runs
    assert [s.flat.tobytes() for s in s0] == [s.flat.tobytes() for s in s5]
    assert r0 == r5


# ---------------------------------------------------------------------------
# greedy staged search

def _grids(monkeypatch, lr, lam, lam_prime, delta_triplet):
    """Set the four search grids of greedy_cv for one test."""
    for name, grid in (("LR_GRID", lr), ("LAM_GRID", lam), ("LAM_PRIME_GRID", lam_prime),
                       ("DELTA_TRIPLET_GRID", delta_triplet)):
        monkeypatch.setattr(trainer, name, grid)


def test_greedy_cv_visits_documented_grids_and_orders_stages(monkeypatch):
    labeled, pairs, triplets = small_data()
    base = TrainConfig(lr=0.01, max_epochs=2, patience=2, seed=0)
    _grids(monkeypatch, (0.1, 0.01), (0.1, 1.0), (0.1,), (0.0, 1.0))
    cfg, log = greedy_cv(labeled, pairs, triplets, SPEC, base=base)
    stages = [r["stage"] for r in log]
    assert stages == ["lr", "lr", "lam", "lam", "lam_prime", "delta_triplet", "delta_triplet"]
    assert cfg.lr in trainer.LR_GRID and cfg.lam in trainer.LAM_GRID
    assert cfg.lam_prime == 0.1
    assert cfg.margins.delta_triplet in trainer.DELTA_TRIPLET_GRID


def test_default_grids_match_protocol():
    assert trainer.LR_GRID == (0.1, 0.01, 0.001, 0.0001)
    np.testing.assert_allclose(trainer.LAM_GRID, [10 ** (k / 2) for k in range(-4, 4)])
    assert trainer.LAM_GRID == trainer.LAM_PRIME_GRID
    assert trainer.DELTA_TRIPLET_GRID == (0.0, 0.1, 1.0)


def test_greedy_cv_ties_break_to_smaller_value(monkeypatch):
    # lam_prime has no effect without triplets: all candidates tie, smallest wins
    labeled, pairs, _ = small_data()
    base = TrainConfig(lr=0.01, max_epochs=2, patience=2, seed=0)
    _grids(monkeypatch, (0.05,), (0.5,), (0.3, 0.1, 1.0), (1.0,))
    cfg, log = greedy_cv(labeled, pairs, None, SPEC, base=base)
    assert cfg.lam_prime == 0.1
    vals = [r["val_loss"] for r in log if r["stage"] == "lam_prime"]
    assert len(set(vals)) == 1


def test_greedy_cv_without_tuples_searches_lr_only(monkeypatch):
    # the lam stage used to train with lam > 0 and nothing to optimize
    labeled, _, _ = small_data()
    base = TrainConfig(lr=0.01, lam=0.5, lam_prime=0.5, max_epochs=2, patience=2, seed=0)
    _grids(monkeypatch, (0.1, 0.01), (0.1,), (0.1,), (1.0,))
    cfg, log = greedy_cv(labeled, None, None, SPEC, base=base)
    assert cfg.lam == 0.0 and cfg.lam_prime == 0.0 and cfg.lr in trainer.LR_GRID
    assert [(r["stage"], r["candidate"]) for r in log] == [("lr", 0.01), ("lr", 0.1)]


def test_greedy_cv_diverging_stage_raises(monkeypatch):
    # linear net (no ReLU stall) with an absurd lr overflows to non-finite
    labeled, pairs, triplets = small_data()
    base = TrainConfig(lr=0.01, max_epochs=12, patience=12, seed=0)
    _grids(monkeypatch, (1e30,), (0.1,), (0.1,), (1.0,))
    with pytest.raises(SearchError, match="lr"), np.errstate(over="ignore"):
        greedy_cv(labeled, pairs, triplets, LayerSpec((64, 8)), base=base)


# ---------------------------------------------------------------------------
# per-step allocation

def test_training_step_allocates_less_than_one_parameter_vector(monkeypatch):
    # the step reuses one workspace per run: from the second step on, the
    # traced peak between consecutive step starts stays below the bytes of
    # one parameter vector (a step that copied theta, the velocity or the
    # gradient would exceed it)
    import tracemalloc

    from ssfa import trainer

    spec = LayerSpec((1024, 256, 64))
    u = gen_unlabeled(SynthConfig(grid=32, clip_len=16, num_clips=4, seed=1))
    labeled = gen_labeled(SynthConfig(grid=32, seed=51), 10)
    mc = MiningConfig(T_seconds=2.0, seed=0, max_pairs=200, max_triplets=200)
    pairs = resolve_pairs(u, mine_pairs(u, mc))
    triplets = resolve_triplets(u, mine_triplets(u, mc))
    assert len(pairs[0]) == 64 and min(len(pairs[2]), len(triplets[2])) >= 32
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5, batch_labeled=8, batch_pairs=32,
                      batch_triplets=32, max_epochs=1, patience=1, seed=0)
    growth, mark, real = [], [], trainer.nesterov_step

    def traced(*args):
        now, peak = tracemalloc.get_traced_memory()
        if mark:  # the interval since the previous step started
            growth.append(peak - mark[0])
        mark[:] = [now]
        tracemalloc.reset_peak()
        return real(*args)

    monkeypatch.setattr(trainer, "nesterov_step", traced)
    tracemalloc.start()
    try:
        _, W, _ = train(labeled, pairs, triplets, spec, cfg)
    finally:
        tracemalloc.stop()
    bound = 8 * (spec.param_count + W.size)
    assert len(growth) >= 2
    assert max(growth[1:]) < bound, (growth, bound)


def _wide_set():
    """The 1024 -> 256 -> 64 set-up of the allocation test above, with 40
    labeled images per class, so that a second labeled stack outweighs the
    bounds' slack: (spec, labeled, pairs, triplets, cfg)."""
    spec = LayerSpec((1024, 256, 64))
    u = gen_unlabeled(SynthConfig(grid=32, clip_len=16, num_clips=4, seed=1))
    labeled = gen_labeled(SynthConfig(grid=32, seed=51), 40)
    mc = MiningConfig(T_seconds=2.0, seed=0, max_pairs=200, max_triplets=200)
    pairs = resolve_pairs(u, mine_pairs(u, mc))
    triplets = resolve_triplets(u, mine_triplets(u, mc))
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5, batch_labeled=8, batch_pairs=32,
                      batch_triplets=32, max_epochs=1, patience=1, seed=0)
    return spec, labeled, pairs, triplets, cfg


def _owned_bytes(obj) -> int:
    """Bytes of the arrays that ``obj`` (an array, a list or an object's
    attributes, recursively) owns; views count nothing."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else 0
    if isinstance(obj, list):
        return sum(map(_owned_bytes, obj))
    return sum(map(_owned_bytes, vars(obj).values())) if hasattr(obj, "__dict__") else 0


def _traced_peak(monkeypatch, run):
    """(tracemalloc peak of ``run()``, the bytes of the one Workspace it
    builds). An untraced run goes first, so the modules that numpy imports
    on first use are not in the peak. The workspace must hold less than one
    parameter vector: the gradient goes into the step loop's lookahead
    vector, and a workspace that held it would hide one from the bounds."""
    import tracemalloc

    from ssfa import trainer

    run()
    built, real = [], trainer.Workspace
    monkeypatch.setattr(trainer, "Workspace",
                        lambda *a, **k: built.append((a[0], real(*a, **k))) or built[-1][1])
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ((spec, work),) = built
    work = _owned_bytes(work)
    assert work < 8 * spec.param_count, (work, spec.param_count)
    return peak, work


def test_training_run_peak_holds_no_init_copy_or_second_labeled_stack(monkeypatch):
    # at its peak train holds the workspace, the labeled stack (X, plus the
    # small validation rows) and four theta-sized vectors: theta, the best
    # copy, the velocity and the lookahead, which the gradient overwrites. A
    # drawn init kept alive, a separate gradient vector or a second stack of
    # the training rows would exceed the bound.
    spec, labeled, pairs, triplets, cfg = _wide_set()
    theta = 8 * (spec.param_count + labeled.num_classes * spec.out_dim)
    peak, work = _traced_peak(monkeypatch, lambda: train(labeled, pairs, triplets, spec, cfg))
    bound = work + 8 * len(labeled) * spec.in_dim + 4.5 * theta
    assert peak < bound, (peak, bound)


def test_unsupervised_run_peak_holds_no_copy_of_the_last_snapshot(monkeypatch):
    # at its peak train_unsupervised holds the workspace and four theta-sized
    # vectors: theta, the velocity, the lookahead (which the gradient
    # overwrites) and the first pass's snapshot. The last snapshot is theta
    # itself and the init is redrawn once the step loop's buffers are gone;
    # an init kept through training, a separate gradient vector or a copy of
    # the last snapshot would exceed the bound.
    spec, _, pairs, triplets, cfg = _wide_set()
    theta = 8 * spec.param_count
    peak, work = _traced_peak(
        monkeypatch, lambda: train_unsupervised(pairs, triplets, spec, cfg, passes=2))
    bound = work + 4.5 * theta
    assert peak < bound, (peak, bound)


def test_greedy_cv_scores_a_diverging_candidate_inf_without_a_warning(monkeypatch):
    # the diverging lr's overflow in matmul was a numpy RuntimeWarning, which
    # the suite's filterwarnings turns into an error, before it scored inf
    labeled, _, _ = small_data()
    base = TrainConfig(lr=0.01, max_epochs=12, patience=12, seed=0)
    _grids(monkeypatch, (1e3, 0.01), (0.1,), (0.1,), (1.0,))
    cfg, log = greedy_cv(labeled, None, None, SPEC, base=base)
    assert cfg.lr == 0.01
    assert [(r["candidate"], r["val_loss"]) for r in log][1] == (1000.0, float("inf"))
    assert np.isfinite(log[0]["val_loss"])


def test_diverging_unsupervised_run_raises_optimizer_error_not_a_warning():
    # the overflow in multiply was a numpy RuntimeWarning, an error under the
    # suite's filterwarnings, before the loss check could name the term
    _, pairs, triplets = small_data()
    with pytest.raises(OptimizerError, match="non-finite loss term slow"):
        train_unsupervised(pairs, triplets, SPEC, TrainConfig(lr=1e3, lam_prime=0.5, seed=0))
