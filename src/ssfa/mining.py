"""Mining temporal pair and triplet tuples from unlabeled clips.

Positive pairs are frames at most T_frames apart; positive triplets are
in-sequence, evenly spaced frames with spacing at most T_frames. Negatives
are drawn beyond a buffer gap (2*T_frames + 1 for pairs, 2*T_frames for the
closing gap of triplets) so that the excluded gray zone never contaminates
the negative class. Tuples never cross clip boundaries.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import UnlabeledSet, write_atomic

log = logging.getLogger(__name__)


class MiningError(RuntimeError):
    """No usable tuple candidates in the corpus."""


@dataclass(frozen=True)
class PairSample:
    """Frame pair (j, k), j later than k, with coherence label p."""

    clip_id: str
    j: int
    k: int
    p: int

    def __post_init__(self):
        if not self.j > self.k >= 0:
            raise ValueError(f"pair needs j > k >= 0, got ({self.j}, {self.k})")
        if self.p not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.p}")


@dataclass(frozen=True)
class TripletSample:
    """Frame triplet l < m < n with coherence label p."""

    clip_id: str
    l: int
    m: int
    n: int
    p: int

    def __post_init__(self):
        if not 0 <= self.l < self.m < self.n:
            raise ValueError(f"triplet needs l < m < n, got ({self.l}, {self.m}, {self.n})")
        if self.p not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.p}")


@dataclass(frozen=True)
class MiningConfig:
    T_seconds: float
    pair_neg_ratio: float = 3.0
    triplet_neg_ratio: float = 1.0
    max_pairs: int = 10000
    max_triplets: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not self.T_seconds > 0:
            raise ValueError("T_seconds must be > 0")
        if self.pair_neg_ratio < 0 or self.triplet_neg_ratio < 0:
            raise ValueError("negative ratios must be >= 0")
        if self.max_pairs < 1 or self.max_triplets < 1:
            raise ValueError("caps must be >= 1")


def window_frames(T_seconds: float, frame_period: float) -> int:
    """Convert the temporal window from seconds to frames (floor)."""
    return int(math.floor(T_seconds / frame_period))


def pair_candidates(n_frames: int, t_frames: int):
    """All eligible (j, k) pairs for one clip: positives with
    1 <= j-k <= t_frames, negatives with j-k >= 2*t_frames + 1."""
    pos, neg = [], []
    if t_frames < 1:
        return pos, neg
    for k in range(n_frames):
        for j in range(k + 1, n_frames):
            gap = j - k
            if gap <= t_frames:
                pos.append((j, k))
            elif gap >= 2 * t_frames + 1:
                neg.append((j, k))
    return pos, neg


def triplet_candidates(n_frames: int, t_frames: int):
    """All eligible (l, m, n) triplets for one clip: positives evenly
    spaced with spacing in [1, t_frames]; negatives with m-l in
    [1, t_frames] and n-m >= 2*t_frames."""
    pos, neg = [], []
    if t_frames < 1:
        return pos, neg
    for l in range(n_frames):
        for s in range(1, t_frames + 1):
            if l + 2 * s < n_frames:
                pos.append((l, l + s, l + 2 * s))
        for g1 in range(1, t_frames + 1):
            m = l + g1
            if m >= n_frames:
                break
            for n in range(m + 2 * t_frames, n_frames):
                neg.append((l, m, n))
    return pos, neg


def _gather(u: UnlabeledSet, cfg: MiningConfig, enumerate_fn, kind: str):
    pos_all, neg_all = [], []
    skipped = 0
    for clip in u.clips:
        tf = window_frames(cfg.T_seconds, clip.frame_period)
        pos, neg = enumerate_fn(len(clip.frames), tf)
        if not pos:
            skipped += 1
            continue
        pos_all.extend((clip.clip_id,) + t for t in pos)
        neg_all.extend((clip.clip_id,) + t for t in neg)
    if skipped:
        log.warning("%s mining skipped %d clip(s) with no positive candidates", kind, skipped)
    if not pos_all:
        raise MiningError(f"no clip admits a positive {kind}")
    if not neg_all:
        raise MiningError(f"no clip admits a negative {kind} (all clips too short for the buffer gap)")
    return pos_all, neg_all


def _select(pos_all, neg_all, cap, ratio, rng):
    n_pos = min(len(pos_all), int(cap / (1.0 + ratio)))
    n_neg = min(len(neg_all), int(n_pos * ratio))
    pos_idx = rng.permutation(len(pos_all))[:n_pos]
    neg_idx = rng.permutation(len(neg_all))[:n_neg]
    return [pos_all[i] for i in pos_idx], [neg_all[i] for i in neg_idx]


def mine_pairs(u: UnlabeledSet, cfg: MiningConfig):
    """Sample labeled frame pairs, positives first, at ratio
    1:pair_neg_ratio (negatives rounded down when exhausted).
    Deterministic for a fixed config."""
    pos_all, neg_all = _gather(u, cfg, pair_candidates, "pair")
    rng = np.random.default_rng(cfg.seed)
    pos, neg = _select(pos_all, neg_all, cfg.max_pairs, cfg.pair_neg_ratio, rng)
    return [PairSample(c, j, k, 1) for c, j, k in pos] + [
        PairSample(c, j, k, 0) for c, j, k in neg
    ]


def mine_triplets(u: UnlabeledSet, cfg: MiningConfig):
    """Sample labeled frame triplets at ratio 1:triplet_neg_ratio.
    Deterministic for a fixed config."""
    pos_all, neg_all = _gather(u, cfg, triplet_candidates, "triplet")
    rng = np.random.default_rng(cfg.seed + 1)  # independent of the pair stream
    pos, neg = _select(pos_all, neg_all, cfg.max_triplets, cfg.triplet_neg_ratio, rng)
    return [TripletSample(c, l, m, n, 1) for c, l, m, n in pos] + [
        TripletSample(c, l, m, n, 0) for c, l, m, n in neg
    ]


# ---------------------------------------------------------------------------
# Text serialization: `PAIR clip_id j k p` / `TRIP clip_id l m n p`,
# preceded by '#' header lines echoing the mining config.

def save_tuples(path, samples, cfg: MiningConfig) -> None:
    lines = [
        "# mined temporal tuples",
        f"# T_seconds={cfg.T_seconds!r} pair_neg_ratio={cfg.pair_neg_ratio!r} "
        f"triplet_neg_ratio={cfg.triplet_neg_ratio!r} max_pairs={cfg.max_pairs} "
        f"max_triplets={cfg.max_triplets} seed={cfg.seed}",
    ]
    for s in samples:
        if isinstance(s, PairSample):
            lines.append(f"PAIR {s.clip_id} {s.j} {s.k} {s.p}")
        elif isinstance(s, TripletSample):
            lines.append(f"TRIP {s.clip_id} {s.l} {s.m} {s.n} {s.p}")
        else:
            raise TypeError(f"cannot serialize {type(s).__name__}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_tuples(path):
    """Read a tuple file; returns (pairs, triplets)."""
    pairs, triplets = [], []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "PAIR" and len(tok) == 5:
            pairs.append(PairSample(tok[1], int(tok[2]), int(tok[3]), int(tok[4])))
        elif tok[0] == "TRIP" and len(tok) == 6:
            triplets.append(
                TripletSample(tok[1], int(tok[2]), int(tok[3]), int(tok[4]), int(tok[5]))
            )
        else:
            raise ValueError(f"{path}: line {lineno}: bad tuple line {line!r}")
    return pairs, triplets
