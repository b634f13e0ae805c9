"""Measurement protocols: sequence completion by feature-space
extrapolation, linear-classifier accuracy, and k-nearest-neighbor accuracy.

Sequence completion: given the first two frames of an evenly spaced
triplet, extrapolate the third feature as 2*z2 - z1 and rank a candidate
pool by distance to it. The rank of the true frame, averaged and
normalized, is the mean percentile rank (lower is steadier). Ranking uses
the optimistic tie rule: only strictly smaller distances count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet, UnlabeledSet, _blocks, _read_only, prep_stack
from .mining import clip_window, triplet_positives
from .network import NetworkParams, forward


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Pool frames, each a (height, width) view of its corpus frame, and
    their distinct corpus rows (:attr:`UnlabeledSet.starts`), read-only intp."""

    frames: tuple
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "rows", _read_only(np.array(self.rows, np.intp).reshape(-1)))
        rows = self.rows.tolist()
        if not len(self.frames) == len(rows) == len(set(rows)) or min(rows, default=0) < 0:
            raise ValueError("a pool needs one frame per distinct corpus row (>= 0)")

    def __len__(self):
        return len(self.frames)


def embed(params: NetworkParams, images) -> np.ndarray:
    """Preprocess, flatten and map images (see :func:`prep_stack`) to an
    (n, k) array of feature rows, (0, k) for no images, standardizing and
    forwarding one :func:`_blocks` block of input rows (share 1) at a time:
    the features are bit-equal to one pass over the set."""
    n = len(images)
    z = np.empty((n, params.layer_spec().out_dim))
    for a, b in _blocks(n, 8 * np.size(images[0]) if n else 0):
        z[a:b] = forward(params, prep_stack(images[a:b]))[0]
    return z


def extrapolate(z1, z2) -> np.ndarray:
    """Linear feature-space extrapolation: 2*z2 - z1."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape:
        raise ValueError(f"shape mismatch {z1.shape} vs {z2.shape}")
    return 2.0 * z2 - z1


def check_protocol(T_seconds=1.0, max_queries=1, n_per_video=0, k=1) -> None:
    """The one home of the protocols' data-free rules (every default passes): a
    ValueError for the first value that make_queries, build_pool or knn_accuracy rejects."""
    if not (math.isfinite(T_seconds) and T_seconds > 0):
        raise ValueError(f"T_seconds must be finite and > 0, got {T_seconds}")
    if max_queries < 1:
        raise ValueError(f"max_queries must be >= 1, got {max_queries}")
    if n_per_video < 0:
        raise ValueError("n_per_video must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")


def make_queries(u: UnlabeledSet, T_seconds: float, max_queries: int, seed: int):
    """Sample evenly spaced in-sequence triplets (spacing in [1, T_frames])
    as completion queries, uniformly over the corpus, seeded: an (n, 3) intp
    array of corpus rows (:attr:`UnlabeledSet.starts`), t1, t2 and truth t3."""
    check_protocol(T_seconds, max_queries)
    pos = (triplet_positives(len(c.frames), clip_window(T_seconds, c)) for c in u.clips)
    # candidate order: by clip, then spacing, then first frame
    rows = np.concatenate([start + p[np.lexsort((p[:, 0], p[:, 1] - p[:, 0]))]
                           for start, p in zip(u.starts, pos)])
    if not len(rows):
        raise ValueError("no clip admits a completion query for this window")
    return rows[np.random.default_rng(seed).permutation(len(rows))[: max_queries]]


def build_pool(queries, u: UnlabeledSet, n_per_video: int, seed: int) -> CandidatePool:
    """Candidate pool: every query row (frames and truth), then n_per_video
    seeded-random distractor frames from each clip the queries touch, drawn in
    clip id order. A repeated row keeps its first place."""
    check_protocol(n_per_video=n_per_video)
    q = np.asarray(queries, dtype=np.intp).reshape(-1)
    if len(q) and not 0 <= q.min() <= q.max() < u.starts[-1]:
        raise ValueError(f"query rows must lie in [0, {u.starts[-1]}), the corpus's frames")
    rows = dict.fromkeys(q.tolist())
    rng = np.random.default_rng(seed)
    clips = set((np.searchsorted(u.starts, q, "right") - 1).tolist())
    for c in sorted(clips, key=lambda c: u.clips[c].clip_id):
        pick = rng.permutation(len(u.clips[c].frames))[:n_per_video]
        rows.update(dict.fromkeys((u.starts[c] + pick).tolist()))
    rows = np.fromiter(rows, np.intp, len(rows))
    clip = np.searchsorted(u.starts, rows, "right") - 1
    frames = (u.clips[c].frames[t] for c, t in zip(clip, rows - u.starts[clip]))
    return CandidatePool(frames, rows)


def truth_ranks(z_pool: np.ndarray, z_tilde: np.ndarray, gt) -> np.ndarray:
    """Per query i, 1 + the number of candidates strictly closer to
    ``z_tilde[i]`` than the ground truth ``z_pool[gt[i]]`` (optimistic
    ties). Distances take the arithmetic of ``np.linalg.norm(..., axis=-1)``
    one :func:`_blocks` block of queries (share 1) at a time, whose
    differences fill one reused buffer sized for the largest block."""
    ranks = np.empty(len(gt), dtype=np.intp)
    blocks = [slice(a, b) for a, b in _blocks(len(gt), z_pool.nbytes)]
    buf = np.empty((max((q.stop - q.start for q in blocks), default=0),) + z_pool.shape)
    for q in blocks:
        diff = buf[: q.stop - q.start]
        np.subtract(z_pool, z_tilde[q, None, :], out=diff)
        d = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=-1))
        ranks[q] = 1 + np.count_nonzero(d < d[np.arange(len(d)), gt[q], None], axis=1)
    return ranks


def seqcomp_ranks(queries, pool: CandidatePool, params: NetworkParams):
    """Ranks for many queries (rows of :func:`make_queries`), embedding the pool once."""
    q = np.asarray(queries, dtype=np.intp).reshape(-1, 3)
    for cols, what in (([2], "ground truth"), ([0, 1], "query frames")):
        miss = np.flatnonzero(~np.isin(q[:, cols], pool.rows).all(axis=1))
        if len(miss):
            raise ValueError(f"{what} {q[miss[0], cols].tolist()} of query {miss[0]} not in pool")
    at = np.empty(pool.rows.max(initial=-1) + 1, np.intp)  # pool position of each pool row
    at[pool.rows] = np.arange(len(pool))
    idx = at[q]
    z_pool = embed(params, pool.frames)
    z_tilde = extrapolate(z_pool[idx[:, 0]], z_pool[idx[:, 1]])
    return truth_ranks(z_pool, z_tilde, idx[:, 2]).tolist()


def eta(ranks, pool_size: int) -> float:
    """Mean percentile rank: mean(rank / pool_size) * 100, in
    [100/pool_size, 100]."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("no ranks")
    if ranks.min() < 1 or ranks.max() > pool_size:
        raise ValueError(f"ranks must lie in [1, {pool_size}]")
    return float(ranks.mean() / pool_size * 100.0)


def linear_accuracy(params: NetworkParams, W, test: LabeledSet) -> float:
    """Fraction of test images whose argmax logit matches the label."""
    if len(test) == 0:
        raise ValueError("empty test set")
    z = embed(params, test.images)
    preds = np.argmax(z @ np.asarray(W, dtype=np.float64).T, axis=1)
    return float(np.mean(preds == test.labels))


def _neighbour_labels(zt: np.ndarray, yt: np.ndarray, zq: np.ndarray, k: int) -> np.ndarray:
    """Each query's k nearest reference labels, nearest first (stable), in an
    (n_query, k) array, from the squared distances of one whole matrix formed
    one :func:`_blocks` block (share 8) at a time."""
    t_norms = np.sum(zt * zt, axis=1)
    nbr = np.empty((len(zq), k), dtype=yt.dtype)
    for a, b in _blocks(len(zq), 8 * len(zt), 8):
        q = zq[a:b]
        d2 = np.sum(q * q, axis=1)[:, None] + t_norms
        d2 -= (2.0 * q) @ zt.T
        nbr[a:b] = yt[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    return nbr


def knn_accuracy(params: NetworkParams, train: LabeledSet, test: LabeledSet,
                 k: int = 5) -> float:
    """Majority vote among the k nearest training features (Euclidean), by blocks of distances.

    Vote ties go to the class of the nearest neighbor among the tied
    classes. A test image that is also in ``train`` is its own neighbor.
    """
    check_protocol(k=k)
    if len(train) < k:
        raise ValueError(f"need at least k={k} training items, have {len(train)}")
    if len(test) == 0:
        raise ValueError("empty test set")
    yt = train.labels
    nbr = _neighbour_labels(embed(params, train.images), yt, embed(params, test.images), k)
    # votes per (query, class), then each neighbor's class's votes: the
    # vote is the first neighbor whose class has the most votes
    q, classes = np.arange(len(nbr))[:, None], int(yt.max()) + 1
    votes = np.bincount((q * classes + nbr).ravel(), minlength=len(nbr) * classes)
    at_nbr = votes.reshape(len(nbr), classes)[q, nbr]
    first = np.argmax(at_nbr == at_nbr.max(axis=1, keepdims=True), axis=1)
    vote = nbr[q[:, 0], first]
    return int(np.count_nonzero(vote == test.labels)) / len(test)
