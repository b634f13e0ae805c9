"""Measurement protocols: sequence completion by feature-space
extrapolation, linear-classifier accuracy, and k-nearest-neighbor accuracy.

Sequence completion: given the first two frames of an evenly spaced
triplet, extrapolate the third feature as 2*z2 - z1 and rank a candidate
pool by distance to it. The rank of the true frame, averaged and
normalized, is the mean percentile rank (lower is steadier). Ranking uses
the optimistic tie rule: only strictly smaller distances count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledSet, UnlabeledSet, prep_stack, write_atomic
from .mining import window_frames
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
    """Pool frames with (clip_id, frame index) provenance."""

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


@dataclass
class EvalReport:
    """Evaluation results; serializes to JSON plus a per-query rank CSV."""

    eta: float = None
    ranks: list = None
    accuracy: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "eta": self.eta,
            "ranks": list(self.ranks) if self.ranks is not None else None,
            "accuracy": self.accuracy,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def save_json(self, path) -> None:
        write_atomic(path, self.to_json())

    def save_ranks_csv(self, path) -> None:
        lines = ["query,rank"]
        for i, r in enumerate(self.ranks or []):
            lines.append(f"{i},{r}")
        write_atomic(path, "\n".join(lines) + "\n")


def embed(params: NetworkParams, frames) -> np.ndarray:
    """Preprocess, flatten and map frames to feature rows."""
    z, _ = forward(params, prep_stack(frames))
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
    cands = []
    for clip in u.clips:
        tf = window_frames(T_seconds, clip.frame_period)
        for s in range(1, tf + 1):
            for t1 in range(len(clip.frames) - 2 * s):
                cands.append(QueryPair(clip.clip_id, t1, t1 + s, t1 + 2 * s))
    if not cands:
        raise ValueError("no clip admits a completion query for this window")
    rng = np.random.default_rng(seed)
    pick = rng.permutation(len(cands))[: max_queries]
    return [cands[i] for i in pick]


def build_pool(queries, u: UnlabeledSet, n_per_video: int, seed: int) -> CandidatePool:
    """Candidate pool: every unique query frame and ground-truth frame,
    plus n_per_video seeded-random distractor frames from each clip
    represented among the queries. Duplicates are dropped."""
    if n_per_video < 0:
        raise ValueError("n_per_video must be >= 0")
    clips = u.clip_map()
    keys, seen = [], set()

    def add(cid, t):
        if (cid, t) not in seen:
            seen.add((cid, t))
            keys.append((cid, t))

    for q in queries:
        if q.clip_id not in clips:
            raise ValueError(f"query references unknown clip {q.clip_id!r}")
        for t in (q.t1, q.t2, q.t3):
            add(q.clip_id, t)
    rng = np.random.default_rng(seed)
    for cid in sorted({q.clip_id for q in queries}):
        n_frames = len(clips[cid].frames)
        for t in rng.permutation(n_frames)[: min(n_per_video, n_frames)]:
            add(cid, int(t))
    frames = tuple(clips[cid].frames[t] for cid, t in keys)
    return CandidatePool(frames, tuple(keys))


def rank_of_truth(z_pool: np.ndarray, gt_index: int, z_tilde: np.ndarray) -> int:
    """1 + the number of other candidates strictly closer to z_tilde than
    the ground truth (optimistic ties)."""
    d = np.linalg.norm(z_pool - z_tilde, axis=1)
    return 1 + int(np.sum(d < d[gt_index]))


def _query_rank(pool: CandidatePool, z_pool: np.ndarray, query: QueryPair) -> int:
    i1 = pool.index_of(query.clip_id, query.t1)
    i2 = pool.index_of(query.clip_id, query.t2)
    gt = pool.index_of(query.clip_id, query.t3)
    if gt is None:
        raise ValueError(f"ground truth {(query.clip_id, query.t3)} not in pool")
    if i1 is None or i2 is None:
        raise ValueError(f"query frames of {query} not in pool")
    return rank_of_truth(z_pool, gt, extrapolate(z_pool[i1], z_pool[i2]))


def seqcomp_ranks(queries, pool: CandidatePool, params: NetworkParams):
    """Ranks for many queries, embedding the pool once."""
    z_pool = embed(params, pool.frames)
    return [_query_rank(pool, z_pool, q) for q in queries]


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
                 k: int = 5, exclude_self: bool = False) -> float:
    """Majority vote among the k nearest training features (Euclidean).

    Vote ties go to the class of the nearest neighbor among the tied
    classes. With exclude_self=True, training item i is hidden from test
    item i (for evaluating a set against itself).
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
    if exclude_self:
        if len(train) != len(test):
            raise ValueError("exclude_self requires aligned train/test sets")
        np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    correct = 0
    for row, y_true in zip(order, test.labels):
        nbr = yt[row]
        counts = np.bincount(nbr)
        tied = np.flatnonzero(counts == counts.max())
        if len(tied) == 1:
            vote = tied[0]
        else:
            vote = next(c for c in nbr if c in tied)
        correct += int(vote == y_true)
    return correct / len(test)
