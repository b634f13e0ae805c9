import argparse
import json

import numpy as np
import pytest

from ssfa.cli import _write_report
from ssfa.data import PREP_BLOCK_BYTES, Clip, LabeledSet, UnlabeledSet, _text_table, prep_stack
from ssfa.evaluate import (
    CandidatePool,
    _neighbour_labels,
    build_pool,
    embed,
    eta,
    extrapolate,
    knn_accuracy,
    linear_accuracy,
    make_queries,
    seqcomp_ranks,
    truth_ranks,
)
from ssfa.mining import window_frames
from ssfa.network import ActivationTape, LayerSpec, NetworkParams, forward, init_glorot
from ssfa.synth import fixture_configs, gen_unlabeled


def clip_corpus(lengths, width=3, height=2, seed=0):
    rng = np.random.default_rng(seed)
    clips = []
    for i, n in enumerate(lengths):
        clips.append(Clip(f"c{i}", rng.uniform(0, 1, (n, height, width)), 1.0))
    return UnlabeledSet(clips)


def identity_net(dim):
    # single affine layer, identity weights: z = x (no ReLU on output)
    return NetworkParams(LayerSpec((dim, dim)), np.concatenate([np.eye(dim).ravel(), np.zeros(dim)]))


# ---------------------------------------------------------------------------
# extrapolate

def test_extrapolate_cases():
    z = np.array([1.0, 2.0])
    np.testing.assert_array_equal(extrapolate(z, z), z)
    np.testing.assert_array_equal(extrapolate(np.zeros(2), np.array([1.0, 2.0])), [2.0, 4.0])
    with pytest.raises(ValueError):
        extrapolate(np.zeros(2), np.zeros(3))


def test_extrapolate_chains_along_a_line():
    z1, z2 = np.array([0.0, 1.0]), np.array([1.0, 3.0])
    z3 = extrapolate(z1, z2)
    z4 = extrapolate(z2, z3)
    np.testing.assert_allclose(z4 - z3, z3 - z2)


# ---------------------------------------------------------------------------
# queries and pools

def test_make_queries_structure_and_determinism():
    u = clip_corpus([12, 9])
    qs = make_queries(u, T_seconds=2.0, max_queries=15, seed=3)
    assert qs.shape == (15, 3) and qs.dtype == np.intp
    clip = np.searchsorted(u.starts, qs, "right") - 1
    assert (clip == clip[:, :1]).all()  # all three rows of one clip
    assert ((qs[:, 1] - qs[:, 0] == qs[:, 2] - qs[:, 1]) & (qs[:, 1] - qs[:, 0] >= 1)).all()
    assert (qs[:, 1] - qs[:, 0] <= 2).all()
    np.testing.assert_array_equal(qs, make_queries(u, 2.0, 15, seed=3))
    assert not np.array_equal(qs, make_queries(u, 2.0, 15, seed=4))


def _make_queries_loop(u, T_seconds, max_queries, seed):
    """The nested-loop enumerator that make_queries replaced, numbering the
    corpus rows itself."""
    cands, base = [], 0
    for clip in u.clips:
        tf = window_frames(T_seconds, clip.frame_period)
        for s in range(1, tf + 1):
            for t1 in range(len(clip.frames) - 2 * s):
                cands.append((base + t1, base + t1 + s, base + t1 + 2 * s))
        base += len(clip.frames)
    pick = np.random.default_rng(seed).permutation(len(cands))[:max_queries]
    return [cands[i] for i in pick]


@pytest.mark.parametrize("corpus", ["train_clips", "eval_clips"])
def test_make_queries_matches_nested_loop(corpus):
    u = gen_unlabeled(fixture_configs(7)[corpus])
    for T in (1.0, 2.0, 3.5):
        for cap in (100, 10**9):  # 10**9 keeps every candidate, in drawn order
            expect = _make_queries_loop(u, T, cap, seed=1)
            assert make_queries(u, T, cap, seed=1).tolist() == [list(q) for q in expect]


def test_make_queries_rejects_non_finite_window_and_clamps_a_huge_one():
    u = clip_corpus([12, 9])
    for T in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="finite and > 0"):
            make_queries(u, T, 10, seed=1)
    # every spacing fits in a 12-frame window already
    np.testing.assert_array_equal(make_queries(u, 1e300, 10**9, seed=1),
                                  make_queries(u, 12.0, 10**9, seed=1))


@pytest.mark.parametrize("max_queries", [0, -5])
def test_make_queries_rejects_fewer_than_one_query(max_queries):
    # -5 sliced the permutation to perm[:-5], silently dropping 5 candidates;
    # 0 failed later, in np.stack
    u = clip_corpus([12, 9])
    with pytest.raises(ValueError, match="max_queries must be >= 1"):
        make_queries(u, 2.0, max_queries, seed=1)


def test_build_pool_minimal_is_queries_plus_truths():
    u = clip_corpus([12])
    pool = build_pool(np.array([[0, 1, 2], [1, 2, 3]]), u, n_per_video=0, seed=0)
    # unique rows 0, 1, 2, 3 of clip c0, in first-seen order
    assert pool.rows.tolist() == [0, 1, 2, 3] and len(pool) == 4
    assert pool.rows.dtype == np.intp and not pool.rows.flags.writeable


def test_build_pool_adds_distractors_and_dedupes():
    u = clip_corpus([12, 12])
    qs = np.array([[0, 1, 2], [12 + 4, 12 + 5, 12 + 6]])
    pool = build_pool(qs, u, n_per_video=5, seed=1)
    assert len(np.unique(pool.rows)) == len(pool)
    assert pool.rows[:6].tolist() == qs.ravel().tolist()
    per_clip = np.bincount(np.searchsorted(u.starts, pool.rows, "right") - 1, minlength=2)
    # the query frames plus up to 5 distractors each
    assert (3 <= per_clip).all() and (per_clip <= 3 + 5).all()
    np.testing.assert_array_equal(pool.rows, build_pool(qs, u, 5, seed=1).rows)
    # reference distractor counts from the real protocols are accepted
    for n in (5, 10):
        build_pool(qs, u, n_per_video=n, seed=0)


def test_build_pool_draws_distractors_in_clip_id_order():
    # corpus order c0, c1 against id order "a" < "b": the draw follows the ids
    rng = np.random.default_rng(0)
    u = UnlabeledSet([Clip(cid, rng.uniform(0, 1, (12, 2, 3)), 1.0) for cid in ("b", "a")])
    pool = build_pool(np.array([[0, 1, 2], [12, 13, 14]]), u, n_per_video=4, seed=5)
    draw = np.random.default_rng(5)
    want = [0, 1, 2, 12, 13, 14]
    for start in (12, 0):
        want += [r for r in (start + draw.permutation(12)[:4]).tolist() if r not in want]
    assert pool.rows.tolist() == want


@pytest.mark.parametrize("row", [-1, 12])
def test_build_pool_rejects_a_row_outside_the_corpus(row):
    u = clip_corpus([12])
    with pytest.raises(ValueError, match=r"query rows must lie in \[0, 12\)"):
        build_pool(np.array([[0, 1, row]]), u, 0, 0)


def test_candidate_pool_needs_one_frame_per_distinct_corpus_row():
    frames = clip_corpus([3]).clips[0].frames
    for rows in ([0, 1], [0, 0, 1], [0, 1, -1]):  # misaligned, a repeat, not a corpus row
        with pytest.raises(ValueError, match="one frame per distinct corpus row"):
            CandidatePool(frames, rows)


# ---------------------------------------------------------------------------
# ranking

def rank_of_truth(z_pool, gt_index, z_tilde):
    # the one-query ranking that truth_ranks replaced: 1 + the number of
    # other candidates strictly closer to z_tilde than the ground truth
    d = np.linalg.norm(z_pool - z_tilde, axis=1)
    return 1 + int(np.sum(d < d[gt_index]))


def rank_one(z_pool, gt_index, z_tilde):
    # truth_ranks for one query
    (rank,) = truth_ranks(z_pool, np.asarray(z_tilde)[None], [gt_index])
    return int(rank)


def test_rank_of_truth_counts_strictly_closer():
    z_pool = np.array([[0.0], [1.0], [2.0], [3.0]])
    z_tilde = np.array([2.1])
    assert rank_one(z_pool, 2, z_tilde) == 1
    assert rank_one(z_pool, 3, z_tilde) == 2
    assert rank_one(z_pool, 0, z_tilde) == 4


def test_rank_of_truth_optimistic_on_ties():
    z_pool = np.array([[1.0], [1.0], [5.0]])
    # both candidates tie at distance 0: no strictly-closer candidate
    assert rank_one(z_pool, 0, np.array([1.0])) == 1
    assert rank_one(z_pool, 1, np.array([1.0])) == 1


def test_rank_matches_brute_force_sort():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z_pool = rng.normal(size=(20, 4))
        z_tilde = rng.normal(size=4)
        gt = int(rng.integers(0, 20))
        d = np.linalg.norm(z_pool - z_tilde, axis=1)
        brute = int(np.argsort(d, kind="stable").tolist().index(gt)) + 1
        assert rank_one(z_pool, gt, z_tilde) == brute


def test_rank_rotation_invariance():
    rng = np.random.default_rng(6)
    z_pool = rng.normal(size=(30, 5))
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    for _ in range(20):
        z1, z2 = rng.normal(size=(2, 5))
        gt = int(rng.integers(0, 30))
        zt = extrapolate(z1, z2)
        r0 = rank_one(z_pool, gt, zt)
        r1 = rank_one(z_pool @ Q.T, gt, extrapolate(z1 @ Q.T, z2 @ Q.T))
        assert r0 == r1


def test_exact_collinear_features_rank_first():
    # equally spaced collinear features: the extrapolation hits the truth
    # exactly, so it ranks first whenever it is the unique minimizer
    rng = np.random.default_rng(4)
    for _ in range(20):
        z1, step = rng.normal(size=(2, 5))
        z2 = z1 + step
        z_gt = extrapolate(z1, z2)  # exactly on the line, same arithmetic
        distractors = rng.normal(size=(10, 5))
        z_pool = np.vstack([z1, z2, z_gt, distractors])
        z_tilde = extrapolate(z1, z2)
        d = np.linalg.norm(z_pool - z_tilde, axis=1)
        assert d[2] == 0.0
        if np.sum(d == 0.0) == 1:  # unique minimizer
            assert rank_one(z_pool, 2, z_tilde) == 1


@pytest.mark.parametrize("block", [1, 512, 1 << 20])
def test_truth_ranks_equal_the_one_query_oracle_with_exact_ties(monkeypatch, block):
    # pools of few distinct rows, so distances tie exactly; query points on
    # pool rows and between them; chunks of one query, of a few, and all
    monkeypatch.setattr("ssfa.evaluate.PREP_BLOCK_BYTES", block)
    rng = np.random.default_rng(8)
    for _ in range(40):
        distinct = rng.integers(-2, 3, (int(rng.integers(1, 5)), 3)).astype(float)
        z_pool = distinct[rng.integers(0, len(distinct), int(rng.integers(1, 25)))]
        n = int(rng.integers(1, 30))
        z_tilde = np.where(rng.random((n, 1)) < 0.5, z_pool[rng.integers(0, len(z_pool), n)],
                           rng.integers(-4, 5, (n, 3)) / 2.0)
        gt = rng.integers(0, len(z_pool), n)
        want = [rank_of_truth(z_pool, g, z) for g, z in zip(gt, z_tilde)]
        assert truth_ranks(z_pool, z_tilde, gt).tolist() == want


def test_pool_frames_are_views_of_the_corpus():
    u = clip_corpus([12, 10], seed=3)
    qs = make_queries(u, 2.0, 6, seed=1)
    pool = build_pool(qs, u, 2, seed=2)
    for frame, row in zip(pool.frames, pool.rows, strict=True):
        c = int(np.searchsorted(u.starts, row, "right")) - 1
        frames = u.clips[c].frames
        assert frame.base is not None and np.shares_memory(frame, frames)
        assert frame.tobytes() == frames[row - u.starts[c]].tobytes()
        assert prep_stack([frame]).tobytes() == u.table[row].tobytes()


def test_seqcomp_rank_matches_independent_embedding_path():
    # full path (pool lookups, embedding, extrapolation) against a
    # from-scratch computation over the same pool
    u = clip_corpus([10, 8], seed=21)
    params = init_glorot(LayerSpec((6, 5, 4)), 13)
    qs = make_queries(u, 2.0, 8, seed=5)
    pool = build_pool(qs, u, 3, seed=6)
    Z, _ = forward(params, prep_stack(pool.frames))
    rows = pool.rows.tolist()
    for q in qs.tolist():
        i1, i2, gt = (rows.index(r) for r in q)
        zt = 2.0 * Z[i2] - Z[i1]
        d = np.linalg.norm(Z - zt, axis=1)
        brute = 1 + int(np.sum(d < d[gt]))
        assert seqcomp_ranks([q], pool, params) == [brute]


def _pool_of(u, rows):
    """A pool of the given rows of a one-clip corpus."""
    return CandidatePool([u.clips[0].frames[r] for r in rows], rows)


def test_seqcomp_rank_requires_ground_truth_in_pool():
    u = clip_corpus([8])
    with pytest.raises(ValueError, match=r"ground truth \[2\] of query 0 not in pool"):
        seqcomp_ranks([[0, 1, 2]], _pool_of(u, [0, 1]), identity_net(6))


def test_seqcomp_rank_requires_query_frames_in_pool():
    # the pool holds the truth and the second frame, not the first
    u = clip_corpus([8])
    with pytest.raises(ValueError, match=r"query frames \[0, 1\] of query 1 not in pool"):
        seqcomp_ranks([[1, 2, 3], [0, 1, 2]], _pool_of(u, [1, 2, 3]), identity_net(6))


def test_seqcomp_rank_reports_a_missing_truth_before_missing_frames():
    u = clip_corpus([8])
    with pytest.raises(ValueError, match="ground truth"):
        seqcomp_ranks([[0, 1, 2]], _pool_of(u, [1]), identity_net(6))


def test_seqcomp_ranks_of_no_queries_on_an_empty_pool():
    assert seqcomp_ranks(np.empty((0, 3), np.intp), CandidatePool((), ()), identity_net(6)) == []


def test_seqcomp_ranks_matches_single_query_path():
    u = clip_corpus([12, 10], seed=9)
    qs = make_queries(u, 2.0, 10, seed=1)
    pool = build_pool(qs, u, 4, seed=2)
    params = init_glorot(LayerSpec((6, 5, 4)), 3)
    batch = seqcomp_ranks(qs, pool, params)
    singles = [seqcomp_ranks(q[None], pool, params)[0] for q in qs]
    assert batch == singles


# ---------------------------------------------------------------------------
# eta

def test_eta_definition_and_bounds():
    assert eta([1], 50) == 2.0
    assert eta([50, 50], 50) == 100.0
    assert abs(eta([1, 2, 3], 10) - 20.0) < 1e-12
    with pytest.raises(ValueError):
        eta([], 10)
    with pytest.raises(ValueError):
        eta([0], 10)
    with pytest.raises(ValueError):
        eta([11], 10)


# ---------------------------------------------------------------------------
# embed

@pytest.mark.parametrize("sizes", [(256, 25, 25), (1024, 256, 64), (256, 25, 16)])
def test_embed_streams_the_bits_of_one_pass(sizes):
    # row counts around the block edges and the quarter-block tail rule: a
    # trailing GEMM block of few rows can take another BLAS kernel, whose
    # low-order bits differ from those of one pass over all rows. Which rows
    # that is depends on the BLAS build and CPU (the rule was measured on
    # OpenBLAS 0.3.31), so a failure here can be the BLAS, not embed.
    side = int(sizes[0] ** 0.5)
    params = init_glorot(LayerSpec(sizes), 3)
    B = PREP_BLOCK_BYTES // (8 * sizes[0])
    images = np.random.default_rng(sizes[-1]).uniform(0, 1, (2 * B + 17 + 2000, side, side))
    for n in (1, B - 1, B, B + 1, B + B // 4 - 1, B + B // 4, 2 * B + 17, 2000):
        want, _ = forward(params, prep_stack(images[:n]))
        assert embed(params, images[:n]).tobytes() == want.tobytes(), n


def test_embed_and_prep_stack_take_no_images():
    params = init_glorot(LayerSpec((16, 5, 3)), 0)
    empty = LabeledSet(np.zeros((0, 4, 4)), [], 2)
    assert prep_stack(empty.images).shape == (0, 16)
    z = embed(params, empty.images)
    assert z.shape == (0, 3) and z.dtype == np.float64
    assert embed(params, ()).shape == (0, 3)


def whole_knn(zt, yt, zq, k):
    # the kNN of one whole distance matrix, as it was before query blocks:
    # the k nearest labels and each query's vote
    d2 = np.sum(zq * zq, axis=1)[:, None] + np.sum(zt * zt, axis=1)[None, :] - 2.0 * zq @ zt.T
    nbr = yt[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    votes = []
    for row in nbr:
        counts = np.bincount(row)
        votes.append(next(c for c in row if counts[c] == counts.max()))
    return nbr, np.array(votes)


@pytest.mark.parametrize("sizes, refs", [((256, 25, 25), 40), ((1024, 256, 64), 64),
                                         ((256, 25, 16), 100)])
def test_knn_blocks_keep_the_bits_of_one_distance_matrix(sizes, refs):
    # query counts around the distance block edges and the quarter-block
    # tail rule (see test_embed_streams_the_bits_of_one_pass). Each
    # reference has its own label in the neighbour check, so any reordered
    # neighbour shows.
    side, k = int(sizes[0] ** 0.5), 5
    params = init_glorot(LayerSpec(sizes), 3)
    B = PREP_BLOCK_BYTES // 8 // (8 * refs)
    rng = np.random.default_rng(sizes[-1])
    train = LabeledSet(rng.uniform(0, 1, (refs, side, side)), np.arange(refs) % 4, 4)
    images = rng.uniform(0, 1, (2 * B + 17, side, side))
    labels = rng.integers(0, 4, len(images))
    zt, zq = embed(params, train.images), embed(params, images)
    for n in (B - 1, B, B + 1, B + B // 4 - 1, B + B // 4, 2 * B + 17):
        want, _ = whole_knn(zt, np.arange(refs), zq[:n], k)
        assert np.array_equal(_neighbour_labels(zt, np.arange(refs), zq[:n], k), want), n
        _, vote = whole_knn(zt, np.array(train.labels), zq[:n], k)
        test = LabeledSet(images[:n], labels[:n], 4)
        assert knn_accuracy(params, train, test, k) == np.count_nonzero(vote == labels[:n]) / n


def test_evaluation_holds_one_block_at_a_time():
    # desk's kNN (2000 test and 40 reference images) and one of many
    # distance blocks (1200 x 1200), of 16x16 images at 256->25->25. One
    # pass held every test image standardized (4.1 MB) and its tape; one
    # distance matrix held 11.5 MB three times over at 1200 x 1200.
    import tracemalloc

    spec = LayerSpec((256, 25, 25))
    params = init_glorot(spec, 3)
    rows = PREP_BLOCK_BYTES // (8 * 256)
    tape = ActivationTape.buffers(spec, rows + rows // 4)  # the largest block's
    # one standardized block (512 rows here, up to 1.25 blocks) with
    # prep_stack's std temporaries of an eighth of a block, a tape, and
    # numpy's 64 KiB ufunc buffer
    held = 1.25 * PREP_BLOCK_BYTES + sum(a.nbytes for a in tape.post + tape.mask) + (128 << 10)
    distances = 1.25 * (PREP_BLOCK_BYTES // 8)  # the largest block of distances

    def peak(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n_test, n_train in ((2000, 40), (1200, 1200)):
        rng = np.random.default_rng(9)
        test = LabeledSet(rng.uniform(0, 1, (n_test, 16, 16)), rng.integers(0, 4, n_test), 4)
        train = LabeledSet(rng.uniform(0, 1, (n_train, 16, 16)), np.arange(n_train) % 4, 4)
        assert peak(lambda: embed(params, test.images)) <= 8 * 25 * len(test) + held
        assert peak(lambda: knn_accuracy(params, train, test)) <= (
            8 * 25 * (len(test) + len(train)) + held + distances), (n_test, n_train)


# ---------------------------------------------------------------------------
# classification metrics

def make_labeled(rng, n_per_class, classes, dim=6, shift=0.0):
    images, labels = [], []
    for c in range(classes):
        for _ in range(n_per_class):
            px = rng.uniform(0, 1, dim)
            px[c % dim] += shift  # class-dependent bump
            images.append(np.clip(px, 0, 1)[None, :])
            labels.append(c)
    return LabeledSet(images, labels, classes)


def test_linear_accuracy_zero_classifier_predicts_class_zero():
    rng = np.random.default_rng(7)
    test = make_labeled(rng, 5, 3)
    params = identity_net(6)
    W = np.zeros((3, 6))
    freq0 = np.count_nonzero(test.labels == 0) / len(test)
    assert linear_accuracy(params, W, test) == freq0


def test_linear_accuracy_perfect_on_separable_fixture():
    rng = np.random.default_rng(8)
    test = make_labeled(rng, 10, 3, shift=12.0)
    params = identity_net(6)
    # rows of W pick out the bumped coordinate
    W = np.zeros((3, 6))
    for c in range(3):
        W[c, c] = 1.0
    assert linear_accuracy(params, W, test) == 1.0


def test_linear_accuracy_chance_level_for_random_classifier():
    rng = np.random.default_rng(9)
    test = make_labeled(rng, 40, 25)  # 1000 items, 25 classes
    params = init_glorot(LayerSpec((6, 8)), 1)
    W = rng.normal(size=(25, 8))
    acc = linear_accuracy(params, W, test)
    assert abs(acc - 0.04) < 0.03


# ---------------------------------------------------------------------------
# knn

def brute_knn(zt, yt, zq, k):
    preds = []
    for q in zq:
        d = np.linalg.norm(zt - q, axis=1)
        order = np.argsort(d, kind="stable")[:k]
        votes = yt[order]
        counts = np.bincount(votes)
        tied = np.flatnonzero(counts == counts.max())
        if len(tied) == 1:
            preds.append(tied[0])
        else:
            preds.append(next(v for v in votes if v in tied))
    return np.array(preds)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(10)
    train = make_labeled(rng, 10, 5, shift=0.8)
    test = make_labeled(rng, 10, 5, shift=0.8)
    params = init_glorot(LayerSpec((6, 5, 4)), 2)
    for k in (1, 3, 5):
        acc = knn_accuracy(params, train, test, k=k)
        zt, zq = embed(params, train.images), embed(params, test.images)
        preds = brute_knn(zt, np.array(train.labels), zq, k)
        assert acc == float(np.mean(preds == np.array(test.labels)))


def loop_vote(zt, yt, zq, k):
    """The per-query vote: majority among the k nearest (stable order),
    a tie going to the first neighbor whose class is among the tied."""
    preds = []
    for q in zq:
        d = np.sum((zt - q) ** 2, axis=1)
        nbr = yt[np.argsort(d, kind="stable")[:k]]
        counts = np.bincount(nbr)
        tied = np.flatnonzero(counts == counts.max())
        preds.append(next(c for c in nbr if c in tied))
    return np.array(preds)


def test_knn_vote_matches_loop_oracle_on_tie_heavy_cases():
    # few distinct images and few classes: distance ties and vote ties are
    # common; labeling each query with the oracle's vote makes any
    # disagreement show as an accuracy below 1
    rng = np.random.default_rng(14)
    params = identity_net(6)
    pool = rng.uniform(0, 1, (4, 1, 6))
    for _ in range(120):
        classes = int(rng.integers(1, 5))
        n_train = int(rng.integers(1, 13))
        train = LabeledSet([pool[i] for i in rng.integers(0, 4, n_train)],
                           rng.integers(0, classes, n_train), classes)
        queries = [pool[i] for i in rng.integers(0, 4, 7)]
        zt, zq = embed(params, train.images), embed(params, queries)
        for k in sorted({1, n_train, int(rng.integers(1, n_train + 1))}):
            preds = loop_vote(zt, np.array(train.labels), zq, k)
            test = LabeledSet(queries, preds, classes)
            assert knn_accuracy(params, train, test, k=k) == 1.0


def test_knn_identity_sets_k1_is_perfect():
    rng = np.random.default_rng(11)
    s = make_labeled(rng, 4, 3)
    params = identity_net(6)
    assert knn_accuracy(params, s, s, k=1) == 1.0


def test_knn_relabeling_invariance():
    rng = np.random.default_rng(13)
    train = make_labeled(rng, 8, 4, shift=0.5)
    test = make_labeled(rng, 8, 4, shift=0.5)
    params = init_glorot(LayerSpec((6, 5)), 3)
    perm = [2, 0, 3, 1]
    train2 = LabeledSet(train.images, [perm[y] for y in train.labels], 4)
    test2 = LabeledSet(test.images, [perm[y] for y in test.labels], 4)
    assert knn_accuracy(params, train, test, k=3) == knn_accuracy(params, train2, test2, k=3)


def test_knn_vote_tie_goes_to_nearest_class():
    # k=2 with one neighbor of each class: the nearest one's class wins.
    # Frames are pre-standardized so the identity net embeds them unchanged.
    def standardized(v):
        v = np.asarray(v, dtype=float)
        v = v - v.mean()
        return v / v.std()

    a = standardized([1.0, 0.0, 0.0, 0.5])
    b = standardized([0.0, 1.0, 0.8, 0.0])
    q = standardized([0.9, 0.1, 0.0, 0.4])
    nearest_class = 0 if np.linalg.norm(a - q) < np.linalg.norm(b - q) else 1
    train = LabeledSet([a[None], b[None]], [0, 1], 2)
    params = identity_net(4)
    probe = LabeledSet([q[None]], [nearest_class], 2)
    assert knn_accuracy(params, train, probe, k=2) == 1.0
    probe_flip = LabeledSet([q[None]], [1 - nearest_class], 2)
    assert knn_accuracy(params, train, probe_flip, k=2) == 0.0


def test_knn_validates_args():
    rng = np.random.default_rng(14)
    s = make_labeled(rng, 2, 2)
    params = identity_net(6)
    with pytest.raises(ValueError):
        knn_accuracy(params, s, s, k=0)
    with pytest.raises(ValueError):
        knn_accuracy(params, s, s, k=10)


# ---------------------------------------------------------------------------
# reports

def test_eval_report_round_trip(tmp_path):
    args = argparse.Namespace(out=str(tmp_path), seed=5)
    assert _write_report(args, "r.json", {"k": 5}, eta=12.5, ranks=[1, 4, 2],
                         accuracy={"linear": 0.75}) == tmp_path
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded == {
        "eta": 12.5,
        "ranks": [1, 4, 2],
        "accuracy": {"linear": 0.75},
        "config": {"k": 5},
    }
    assert (tmp_path / "run_config.txt").read_text() == f"out = {tmp_path}\nseed = 5\n"
    assert _text_table("query,rank", enumerate([1, 4, 2])) == "query,rank\n0,1\n1,4\n2,2\n"
