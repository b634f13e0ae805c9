"""Mining temporal pair and triplet tuples from unlabeled clips.

Positive pairs are frames at most T_frames apart; positive triplets are
in-sequence, evenly spaced frames with spacing at most T_frames. Negatives
are drawn beyond a buffer gap (2*T_frames + 1 for pairs, 2*T_frames for the
closing gap of triplets) so that the excluded gray zone never contaminates
the negative class. Tuples never cross clip boundaries.

Selection never builds the candidate rows. Each clip's candidates are
counted in closed form per group (a pair's k, a triplet's l, a negative
triplet's (l, m)); one permutation over the positives and one over the
negatives pick the kept indices, and only those are decoded. Mining thus
holds 4 bytes per candidate (:func:`_kept`), the larger permutation, plus
the kept rows, and draws the same tuples, in the same order, as permuting
the stacked rows of :func:`pair_candidates` / :func:`triplet_candidates`
would: tuple files are unchanged by the decode.

The samples of one :func:`mine_pairs`, :func:`mine_triplets` or
:func:`load_tuples` call share one int object per distinct frame index
(CPython shares only those up to 256): a loaded pair of a long clip
holds about 73 bytes, near its 64-byte object plus list slot, not 28
more per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import UnlabeledSet, _decimal, _significant_lines, write_atomic


class MiningError(RuntimeError):
    """No usable tuple candidates in the corpus."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
        _check_window(self.T_seconds)
        if not all(math.isfinite(r) and r >= 0 for r in (self.pair_neg_ratio, self.triplet_neg_ratio)):
            raise ValueError("negative ratios must be finite and >= 0, got "
                             f"{self.pair_neg_ratio}, {self.triplet_neg_ratio}")
        if self.max_pairs < 1 or self.max_triplets < 1:
            raise ValueError("caps must be >= 1")


def _check_window(T_seconds: float) -> None:
    """The one rule of a temporal window, for mining and the completion
    queries alike: a ValueError unless it is finite and > 0 seconds."""
    if not (math.isfinite(T_seconds) and T_seconds > 0):
        raise ValueError(f"T_seconds must be finite and > 0, got {T_seconds}")


def window_frames(T_seconds: float, frame_period: float) -> int:
    """Convert the temporal window from seconds to frames (floor)."""
    return int(math.floor(T_seconds / frame_period))


def clip_window(T_seconds: float, clip) -> int:
    """:func:`window_frames` of ``clip``, clamped to its frame count: a
    window of n frames or more admits the same tuples as one of n, and the
    clamp keeps a huge T (or T / frame_period overflowing to inf) out of
    array arithmetic."""
    n = len(clip.frames)
    return n if T_seconds / clip.frame_period >= n else window_frames(T_seconds, clip.frame_period)


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


def _pair_groups(n: int, t: int):
    """:func:`pair_candidates` as ``(pos, neg)`` group tables, one group per
    k. A table is ``(base, count, step)``: group g holds the ``count[g]``
    rows ``base[g] + r * step``, r = 0, 1, ..., in candidate order. Only
    groups that hold a candidate are listed."""
    k = np.arange(n - 1 if t >= 1 else 0)
    pos = (np.column_stack((k + 1, k)), np.minimum(t, n - 1 - k), (1, 0))
    k = k[: max(n - 1 - 2 * t, 0)]
    neg = (np.column_stack((k + 2 * t + 1, k)), n - 1 - 2 * t - k, (1, 0))
    return pos, neg


def _triplet_groups(n: int, t: int):
    """:func:`triplet_candidates` as ``(pos, neg)`` group tables (see
    :func:`_pair_groups`): positives one group per l, rows ``(l, l+s,
    l+2s)``; negatives one group per (l, m-l), rows ``(l, m, x)``."""
    l = np.arange(max(n - 2, 0) if t >= 1 else 0)
    pos = (np.column_stack((l, l + 1, l + 2)), np.minimum(t, (n - 1 - l) // 2), (0, 1, 2))
    l = l[: max(n - 1 - 2 * t, 0)]
    width = np.minimum(t, n - 1 - 2 * t - l)  # m - l runs over 1..width
    l = np.repeat(l, width)
    m = l + np.arange(1, len(l) + 1) - np.repeat(np.cumsum(width) - width, width)
    neg = (np.column_stack((l, m, m + 2 * t)), n - 2 * t - m, (0, 0, 1))
    return pos, neg


def _decode(table, idx):
    """Rows ``(clip, *candidate)`` of the flat candidate indices ``idx`` of
    a ``(clip, base, count, step)`` group table."""
    clip, base, count, step = table
    end = np.cumsum(count)
    g = np.searchsorted(end, idx, side="right")
    r = idx - (end[g] - count[g])
    return np.column_stack((clip[g], base[g] + r[:, None] * np.asarray(step)))


def _stack(parts):
    """One ``(clip, base, count, step)`` table from per-clip ones."""
    clip, base, count, step = zip(*parts)
    return np.concatenate(clip), np.concatenate(base), np.concatenate(count), step[0]


def _kept(rng, total: int, n: int):
    """The first ``n`` entries of ``rng.permutation(total)``, drawn by
    shuffling an int32 ``arange`` (int64 from 2**31): the shuffle depends
    only on ``total``, so the order and the generator state afterwards
    equal those of ``rng.permutation``, at half its memory. Only the kept
    head outlives the call."""
    perm = np.arange(total, dtype=np.int32 if total < 2 ** 31 else np.int64)
    rng.shuffle(perm)
    return perm[:n].copy()


def _mine(u: UnlabeledSet, cfg: MiningConfig, groups, kind: str, cap, ratio, seed, sample):
    """``cap`` tuples at 1:``ratio`` drawn by two permutations over the
    candidates of every clip, positives first. The candidates are never
    built: ``groups`` describes each clip's in closed form, and only the
    kept indices are decoded. Memory is the larger permutation, 4 bytes
    per candidate, plus the kept rows; the samples equal those of
    enumerating every candidate, clip after clip, in
    :func:`pair_candidates` / :func:`triplet_candidates` order."""
    tables = ([], [])
    skipped = 0
    for c, clip in enumerate(u.clips):
        pos, neg = groups(len(clip.frames), clip_window(cfg.T_seconds, clip))
        if not len(pos[1]):
            skipped += 1
            continue
        for parts, (base, count, step) in zip(tables, (pos, neg)):
            parts.append((np.full(len(count), c), base, count, step))
    if skipped:
        import logging  # here only: importing it adds about 0.4 MB to a process's peak RSS
        logging.getLogger(__name__).warning(
            "%s mining skipped %d clip(s) with no positive candidates", kind, skipped)
    if not tables[0]:
        raise MiningError(f"no clip admits a positive {kind}")
    pos, neg = (_stack(parts) for parts in tables)
    n_pos_all, n_neg_all = int(pos[2].sum()), int(neg[2].sum())
    if not n_neg_all:
        raise MiningError(f"no clip admits a negative {kind} (all clips too short for the buffer gap)")
    n_pos = min(n_pos_all, int(cap / (1.0 + ratio)))
    n_neg = min(n_neg_all, int(n_pos * ratio))
    rng = np.random.default_rng(seed)
    pos = _decode(pos, _kept(rng, n_pos_all, n_pos))
    neg = _decode(neg, _kept(rng, n_neg_all, n_neg))
    c, *frames = np.concatenate((pos, neg)).T.tolist()
    ids = [clip.clip_id for clip in u.clips]
    share = {}.setdefault  # one int object per distinct frame index
    return list(map(sample, map(ids.__getitem__, c), *(map(share, f, f) for f in frames),
                    [1] * n_pos + [0] * n_neg))


def mine_pairs(u: UnlabeledSet, cfg: MiningConfig):
    """Sample labeled frame pairs, positives first, at ratio
    1:pair_neg_ratio (negatives rounded down when exhausted).
    Deterministic for a fixed config."""
    return _mine(u, cfg, _pair_groups, "pair", cfg.max_pairs, cfg.pair_neg_ratio,
                 cfg.seed, PairSample)


def mine_triplets(u: UnlabeledSet, cfg: MiningConfig):
    """Sample labeled frame triplets at ratio 1:triplet_neg_ratio.
    Deterministic for a fixed config."""
    # seed + 1: independent of the pair stream
    return _mine(u, cfg, _triplet_groups, "triplet", cfg.max_triplets,
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


class _Ints(dict):
    """Token text -> its int, parsed once per distinct token, so equal
    tokens share one int object."""

    def __missing__(self, token):
        value = self[token] = int(token)
        return value


def load_tuples(path):
    """Read a tuple file; returns (pairs, triplets). The samples of one clip
    share one clip-id string, and equal frame indices share one int, so a
    loaded pair holds about 73 bytes. A bad line is a ValueError naming
    ``path`` and the line."""
    pairs, triplets = [], []
    clip_ids = {}
    ints = _Ints()
    for lineno, line in _significant_lines(path):
        tok = line.split()
        try:
            if tok[0] == "PAIR" and len(tok) == 5:
                pairs.append(PairSample(clip_ids.setdefault(tok[1], tok[1]),
                                        ints[tok[2]], ints[tok[3]], ints[tok[4]]))
            elif tok[0] == "TRIP" and len(tok) == 6:
                triplets.append(TripletSample(clip_ids.setdefault(tok[1], tok[1]),
                                              ints[tok[2]], ints[tok[3]], ints[tok[4]], ints[tok[5]]))
            else:
                raise ValueError(f"bad tuple line {line!r}")
            # int() also reads a sign, "_" and non-ASCII digits
            if not _decimal("".join(tok[2:])):
                bad = next(t for t in tok[2:] if not _decimal(t))
                raise ValueError(f"invalid literal for int() with base 10: {bad!r}")
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {e}") from None
    return pairs, triplets
