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
    """All eligible pairs of one clip as ``(pos, neg)`` int arrays of shape
    (m, 2), rows ``(j, k)`` with j > k: positives with 1 <= j-k <= t_frames,
    negatives with j-k >= 2*t_frames + 1. Rows are ordered by k, then j."""
    k, j = np.triu_indices(n_frames, 1)
    rows = np.column_stack((j, k))
    gap = j - k
    return rows[gap <= t_frames], rows[(gap >= 2 * t_frames + 1) & (t_frames >= 1)]


def triplet_positives(n_frames: int, t_frames: int):
    """The evenly spaced triplets of one clip, spacing in [1, t_frames], as
    an (m, 3) int array of rows ``(l, m, n)`` ordered by l, then spacing."""
    frame, step = np.arange(n_frames), np.arange(1, t_frames + 1)
    l, s = np.nonzero(frame[:, None] + 2 * step < n_frames)
    s = step[s]
    return np.column_stack((l, l + s, l + 2 * s))


def triplet_candidates(n_frames: int, t_frames: int):
    """All eligible triplets of one clip as ``(pos, neg)`` int arrays of
    shape (m, 3), rows ``(l, m, n)``: positives are
    :func:`triplet_positives`; negatives have m-l in [1, t_frames] and
    n-m >= 2*t_frames. Rows are ordered by l, then spacing (or m), then n."""
    pos = triplet_positives(n_frames, t_frames)
    frame, step = np.arange(n_frames), np.arange(1, t_frames + 1)
    # mask over (l, g1, n) with m = l + g1
    l, g1, n = np.nonzero(frame >= (frame[:, None] + step)[..., None] + 2 * t_frames)
    return pos, np.column_stack((l, l + step[g1], n))


def _mine(u: UnlabeledSet, cfg: MiningConfig, candidates, kind: str, cap, ratio, seed, sample):
    """Candidates of every clip stacked behind a clip-index column, then
    ``cap`` of them at 1:``ratio`` drawn by two permutations; samples are
    built for the kept rows only, positives first."""
    pos_all, neg_all = [], []
    skipped = 0
    for c, clip in enumerate(u.clips):
        pos, neg = candidates(len(clip.frames), window_frames(cfg.T_seconds, clip.frame_period))
        if not len(pos):
            skipped += 1
            continue
        pos_all.append(np.column_stack((np.full(len(pos), c), pos)))
        neg_all.append(np.column_stack((np.full(len(neg), c), neg)))
    if skipped:
        log.warning("%s mining skipped %d clip(s) with no positive candidates", kind, skipped)
    if not pos_all:
        raise MiningError(f"no clip admits a positive {kind}")
    pos_all, neg_all = np.concatenate(pos_all), np.concatenate(neg_all)
    if not len(neg_all):
        raise MiningError(f"no clip admits a negative {kind} (all clips too short for the buffer gap)")
    n_pos = min(len(pos_all), int(cap / (1.0 + ratio)))
    n_neg = min(len(neg_all), int(n_pos * ratio))
    rng = np.random.default_rng(seed)
    pos = pos_all[rng.permutation(len(pos_all))[:n_pos]]
    neg = neg_all[rng.permutation(len(neg_all))[:n_neg]]
    ids = [clip.clip_id for clip in u.clips]
    return [sample(ids[c], *t, 1) for c, *t in pos.tolist()] + [
        sample(ids[c], *t, 0) for c, *t in neg.tolist()
    ]


def mine_pairs(u: UnlabeledSet, cfg: MiningConfig):
    """Sample labeled frame pairs, positives first, at ratio
    1:pair_neg_ratio (negatives rounded down when exhausted).
    Deterministic for a fixed config."""
    return _mine(u, cfg, pair_candidates, "pair", cfg.max_pairs, cfg.pair_neg_ratio,
                 cfg.seed, PairSample)


def mine_triplets(u: UnlabeledSet, cfg: MiningConfig):
    """Sample labeled frame triplets at ratio 1:triplet_neg_ratio.
    Deterministic for a fixed config."""
    # seed + 1: independent of the pair stream
    return _mine(u, cfg, triplet_candidates, "triplet", cfg.max_triplets,
                 cfg.triplet_neg_ratio, cfg.seed + 1, TripletSample)


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
