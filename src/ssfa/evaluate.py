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

from .data import PREP_BLOCK_BYTES, LabeledSet, UnlabeledSet, prep_stack
from .mining import clip_window, triplet_positives
from .network import NetworkParams, forward


@dataclass(frozen=True)
class QueryPair:
    """Observed frames (t1, t2) and the ground-truth completion t3 of an
    evenly spaced in-sequence triplet."""

    clip_id: str
    t1: int
    t2: int
    t3: int

    def __post_init__(self):
        if not 0 <= self.t1 < self.t2 < self.t3:
            raise ValueError(f"query indices must increase: {(self.t1, self.t2, self.t3)}")
        if self.t2 - self.t1 != self.t3 - self.t2:
            raise ValueError(f"query must be evenly spaced: {(self.t1, self.t2, self.t3)}")


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Pool frames, each a (height, width) view of its corpus frame, with
    (clip_id, frame index) provenance."""

    frames: tuple
    provenance: tuple

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if len(self.frames) != len(self.provenance):
            raise ValueError("frames and provenance misaligned")
        if len(set(self.provenance)) != len(self.provenance):
            raise ValueError("duplicate provenance entries in pool")
        object.__setattr__(
            self, "_index", {key: i for i, key in enumerate(self.provenance)}
        )

    def __len__(self):
        return len(self.frames)

    def index_of(self, clip_id: str, t: int):
        return self._index.get((clip_id, t))


def embed(params: NetworkParams, images) -> np.ndarray:
    """Preprocess, flatten and map images (see :func:`prep_stack`) to an
    (n, k) array of feature rows, (0, k) for no images.

    Blocks of ``PREP_BLOCK_BYTES`` of input rows (at least one row) are
    standardized and forwarded one at a time. A tail under a quarter block
    joins the last block: a short trailing GEMM block can take another
    BLAS kernel, with other low-order bits. With that rule the features
    were bit-equal to one pass over the whole set at 256-25-25, 256-25-16
    and 1024-256-64 on OpenBLAS 0.3.31 (scipy-openblas wheel, 2-core Xeon);
    another BLAS build may pick its kernels at other row counts."""
    n = len(images)
    rows = max(1, PREP_BLOCK_BYTES // (8 * np.size(images[0]))) if n else 1
    edges = [0, *range(rows, n - max(1, rows // 4) + 1, rows), n] if n else [0]
    z = np.empty((n, params.layer_spec().out_dim))
    for a, b in zip(edges, edges[1:]):
        z[a:b] = forward(params, prep_stack(images[a:b]))[0]
    return z


def extrapolate(z1, z2) -> np.ndarray:
    """Linear feature-space extrapolation: 2*z2 - z1."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    if z1.shape != z2.shape:
        raise ValueError(f"shape mismatch {z1.shape} vs {z2.shape}")
    return 2.0 * z2 - z1


def make_queries(u: UnlabeledSet, T_seconds: float, max_queries: int, seed: int):
    """Sample evenly spaced in-sequence triplets (spacing in [1, T_frames])
    as completion queries, uniformly over the corpus, seeded."""
    if not (math.isfinite(T_seconds) and T_seconds > 0):
        raise ValueError(f"T_seconds must be finite and > 0, got {T_seconds}")
    if max_queries < 1:
        raise ValueError(f"max_queries must be >= 1, got {max_queries}")
    clip_ids, rows = [], []
    for clip in u.clips:
        pos = triplet_positives(len(clip.frames), clip_window(T_seconds, clip))
        # candidate order: by spacing, then first frame
        rows.append(pos[np.lexsort((pos[:, 0], pos[:, 1] - pos[:, 0]))])
        clip_ids += [clip.clip_id] * len(pos)
    rows = np.concatenate(rows)
    if not len(rows):
        raise ValueError("no clip admits a completion query for this window")
    rng = np.random.default_rng(seed)
    pick = rng.permutation(len(rows))[: max_queries]
    return [QueryPair(clip_ids[i], *map(int, rows[i])) for i in pick]


def build_pool(queries, u: UnlabeledSet, n_per_video: int, seed: int) -> CandidatePool:
    """Candidate pool: every unique query frame and ground-truth frame,
    plus n_per_video seeded-random distractor frames from each clip
    represented among the queries. Duplicates are dropped."""
    if n_per_video < 0:
        raise ValueError("n_per_video must be >= 0")
    clips = u.clip_map()
    keys = {}  # (clip id, frame) in insertion order; a repeat keeps its first place
    for q in queries:
        if q.clip_id not in clips:
            raise ValueError(f"query references unknown clip {q.clip_id!r}")
        for t in (q.t1, q.t2, q.t3):
            keys[q.clip_id, t] = None
    rng = np.random.default_rng(seed)
    for cid in sorted({q.clip_id for q in queries}):
        n_frames = len(clips[cid].frames)
        for t in rng.permutation(n_frames)[: min(n_per_video, n_frames)]:
            keys[cid, int(t)] = None
    frames = tuple(clips[cid].frames[t] for cid, t in keys)
    return CandidatePool(frames, tuple(keys))


def truth_ranks(z_pool: np.ndarray, z_tilde: np.ndarray, gt) -> np.ndarray:
    """Per query i, 1 + the number of candidates strictly closer to
    ``z_tilde[i]`` than the ground truth ``z_pool[gt[i]]`` (optimistic
    ties). Distances take the arithmetic of ``np.linalg.norm(..., axis=-1)``
    in chunks of queries whose differences fill one reused buffer of at
    most ``PREP_BLOCK_BYTES`` (at least one query)."""
    ranks = np.empty(len(gt), dtype=np.intp)
    step = max(1, PREP_BLOCK_BYTES // max(1, z_pool.nbytes))
    buf = np.empty((min(step, len(gt)),) + z_pool.shape)
    for start in range(0, len(gt), step):
        diff = buf[: min(step, len(gt) - start)]
        q = slice(start, start + len(diff))
        np.subtract(z_pool, z_tilde[q, None, :], out=diff)
        d = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=-1))
        ranks[q] = 1 + np.count_nonzero(d < d[np.arange(len(d)), gt[q], None], axis=1)
    return ranks


def seqcomp_ranks(queries, pool: CandidatePool, params: NetworkParams):
    """Ranks for many queries, embedding the pool once."""
    z_pool = embed(params, pool.frames)
    idx = np.empty((len(queries), 3), dtype=np.intp)
    for row, q in zip(idx, queries):
        i1, i2, gt = (pool.index_of(q.clip_id, t) for t in (q.t1, q.t2, q.t3))
        if gt is None:
            raise ValueError(f"ground truth {(q.clip_id, q.t3)} not in pool")
        if i1 is None or i2 is None:
            raise ValueError(f"query frames of {q} not in pool")
        row[:] = i1, i2, gt
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
    return float(np.mean(preds == np.array(test.labels)))


def knn_accuracy(params: NetworkParams, train: LabeledSet, test: LabeledSet,
                 k: int = 5) -> float:
    """Majority vote among the k nearest training features (Euclidean).

    Vote ties go to the class of the nearest neighbor among the tied
    classes. A test image that is also in ``train`` is its own neighbor.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(train) < k:
        raise ValueError(f"need at least k={k} training items, have {len(train)}")
    if len(test) == 0:
        raise ValueError("empty test set")
    zt = embed(params, train.images)
    zq = embed(params, test.images)
    yt = np.array(train.labels)
    d2 = (
        np.sum(zq * zq, axis=1)[:, None]
        + np.sum(zt * zt, axis=1)[None, :]
        - 2.0 * zq @ zt.T
    )
    nbr = yt[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    # votes per (query, class), then each neighbor's class's votes: the
    # vote is the first neighbor whose class has the most votes
    q, classes = np.arange(len(nbr))[:, None], int(yt.max()) + 1
    votes = np.bincount((q * classes + nbr).ravel(), minlength=len(nbr) * classes)
    at_nbr = votes.reshape(len(nbr), classes)[q, nbr]
    first = np.argmax(at_nbr == at_nbr.max(axis=1, keepdims=True), axis=1)
    vote = nbr[q[:, 0], first]
    return int(np.count_nonzero(vote == np.array(test.labels))) / len(test)
