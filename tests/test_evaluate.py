import json

import numpy as np
import pytest

from ssfa.data import Clip, LabeledSet, UnlabeledSet, prep_stack
from ssfa.evaluate import (
    CandidatePool,
    EvalReport,
    QueryPair,
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
from ssfa.network import LayerSpec, NetworkParams, init_glorot
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
    assert len(qs) == 15
    for q in qs:
        assert q.t2 - q.t1 == q.t3 - q.t2 <= 2
    assert qs == make_queries(u, 2.0, 15, seed=3)
    assert qs != make_queries(u, 2.0, 15, seed=4)


def _make_queries_loop(u, T_seconds, max_queries, seed):
    """The nested-loop enumerator that make_queries replaced."""
    cands = []
    for clip in u.clips:
        tf = window_frames(T_seconds, clip.frame_period)
        for s in range(1, tf + 1):
            for t1 in range(len(clip.frames) - 2 * s):
                cands.append(QueryPair(clip.clip_id, t1, t1 + s, t1 + 2 * s))
    pick = np.random.default_rng(seed).permutation(len(cands))[:max_queries]
    return [cands[i] for i in pick]


@pytest.mark.parametrize("corpus", ["train_clips", "eval_clips"])
def test_make_queries_matches_nested_loop(corpus):
    u = gen_unlabeled(fixture_configs(7)[corpus])
    for T in (1.0, 2.0, 3.5):
        for cap in (100, 10**9):  # 10**9 keeps every candidate, in drawn order
            expect = _make_queries_loop(u, T, cap, seed=1)
            assert make_queries(u, T, cap, seed=1) == expect


def test_make_queries_rejects_non_finite_window_and_clamps_a_huge_one():
    u = clip_corpus([12, 9])
    for T in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match="finite and > 0"):
            make_queries(u, T, 10, seed=1)
    # every spacing fits in a 12-frame window already
    assert make_queries(u, 1e300, 10**9, seed=1) == make_queries(u, 12.0, 10**9, seed=1)


@pytest.mark.parametrize("max_queries", [0, -5])
def test_make_queries_rejects_fewer_than_one_query(max_queries):
    # -5 sliced the permutation to perm[:-5], silently dropping 5 candidates;
    # 0 failed later, in np.stack
    u = clip_corpus([12, 9])
    with pytest.raises(ValueError, match="max_queries must be >= 1"):
        make_queries(u, 2.0, max_queries, seed=1)


def test_query_pair_validation():
    QueryPair("c", 0, 2, 4)
    with pytest.raises(ValueError):
        QueryPair("c", 0, 2, 5)
    with pytest.raises(ValueError):
        QueryPair("c", 2, 2, 2)


def test_build_pool_minimal_is_queries_plus_truths():
    u = clip_corpus([12])
    qs = [QueryPair("c0", 0, 1, 2), QueryPair("c0", 1, 2, 3)]
    pool = build_pool(qs, u, n_per_video=0, seed=0)
    # unique frames 0,1,2,3 of clip c0
    assert sorted(pool.provenance) == [("c0", 0), ("c0", 1), ("c0", 2), ("c0", 3)]


def test_build_pool_adds_distractors_and_dedupes():
    u = clip_corpus([12, 12])
    qs = [QueryPair("c0", 0, 1, 2), QueryPair("c1", 4, 5, 6)]
    pool = build_pool(qs, u, n_per_video=5, seed=1)
    assert len(set(pool.provenance)) == len(pool)
    per_clip = {"c0": 0, "c1": 0}
    for cid, _ in pool.provenance:
        per_clip[cid] += 1
    # at least the query frames plus up to 5 distractors each
    assert per_clip["c0"] >= 3 and per_clip["c1"] >= 3
    assert pool.provenance == build_pool(qs, u, 5, seed=1).provenance
    # reference distractor counts from the real protocols are accepted
    for n in (5, 10):
        build_pool(qs, u, n_per_video=n, seed=0)


def test_build_pool_unknown_clip():
    u = clip_corpus([12])
    with pytest.raises(ValueError, match="unknown clip"):
        build_pool([QueryPair("zzz", 0, 1, 2)], u, 0, 0)


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
    clips = u.clip_map()
    for frame, (cid, t) in zip(pool.frames, pool.provenance, strict=True):
        assert frame.base is not None and np.shares_memory(frame, clips[cid].frames)
        assert frame.tobytes() == clips[cid].frames[t].tobytes()


def test_seqcomp_rank_matches_independent_embedding_path():
    # full path (pool lookups, embedding, extrapolation) against a
    # from-scratch computation over the same pool
    from ssfa.network import forward

    u = clip_corpus([10, 8], seed=21)
    params = init_glorot(LayerSpec((6, 5, 4)), 13)
    qs = make_queries(u, 2.0, 8, seed=5)
    pool = build_pool(qs, u, 3, seed=6)
    Z, _ = forward(params, prep_stack(pool.frames))
    for q in qs:
        i1 = pool.provenance.index((q.clip_id, q.t1))
        i2 = pool.provenance.index((q.clip_id, q.t2))
        gt = pool.provenance.index((q.clip_id, q.t3))
        zt = 2.0 * Z[i2] - Z[i1]
        d = np.linalg.norm(Z - zt, axis=1)
        brute = 1 + int(np.sum(d < d[gt]))
        assert seqcomp_ranks([q], pool, params) == [brute]


def test_seqcomp_rank_requires_ground_truth_in_pool():
    u = clip_corpus([8])
    pool = CandidatePool(
        (u.clips[0].frames[0], u.clips[0].frames[1]), (("c0", 0), ("c0", 1))
    )
    with pytest.raises(ValueError, match="ground truth"):
        seqcomp_ranks([QueryPair("c0", 0, 1, 2)], pool, identity_net(6))


def test_seqcomp_ranks_matches_single_query_path():
    u = clip_corpus([12, 10], seed=9)
    qs = make_queries(u, 2.0, 10, seed=1)
    pool = build_pool(qs, u, 4, seed=2)
    params = init_glorot(LayerSpec((6, 5, 4)), 3)
    batch = seqcomp_ranks(qs, pool, params)
    singles = [seqcomp_ranks([q], pool, params)[0] for q in qs]
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
    freq0 = test.labels.count(0) / len(test)
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
    rep = EvalReport(eta=12.5, ranks=[1, 4, 2], accuracy={"linear": 0.75}, config={"k": 5})
    rep.save_json(tmp_path / "r.json")
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded == {
        "eta": 12.5,
        "ranks": [1, 4, 2],
        "accuracy": {"linear": 0.75},
        "config": {"k": 5},
    }
    rep.save_ranks_csv(tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == "query,rank\n0,1\n1,4\n2,2\n"
