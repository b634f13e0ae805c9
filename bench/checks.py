"""Output checks that hold at any seed, and closed-form candidate counts.

Each check returns a list of problems (empty when the output is valid), so
the workload can charge them to the operation that produced the output.
"""

from __future__ import annotations


def _tri(k: int) -> int:
    """1 + 2 + ... + k (0 for k <= 0)."""
    return k * (k + 1) // 2 if k > 0 else 0


def pair_counts(n: int, t: int):
    """(positives, negatives) that ``pair_candidates(n, t)`` enumerates:
    gaps 1..t are positive and gaps >= 2t+1 negative; gap g occurs n-g times."""
    if t < 1:
        return 0, 0
    pos = sum(n - g for g in range(1, min(t, n - 1) + 1))
    return pos, _tri(n - 2 * t - 1)


def triplet_counts(n: int, t: int):
    """(positives, negatives) that ``triplet_candidates(n, t)`` enumerates.
    Spacing s gives n-2s positives. A negative (l, l+g1, x) needs
    x >= l+g1+2t, so for fixed g1 the count over l is a triangular number."""
    if t < 1:
        return 0, 0
    pos = sum(max(0, n - 2 * s) for s in range(1, t + 1))
    neg = sum(_tri(n - g1 - 2 * t) for g1 in range(1, t + 1))
    return pos, neg


def corpus_counts(clips, kind: str):
    """Candidate totals over ``(frame count, window)`` clips the way mining
    gathers them: a clip without a positive contributes no negatives."""
    fn = pair_counts if kind == "pair" else triplet_counts
    pos = neg = 0
    for n, t in clips:
        p, q = fn(n, t)
        if p:
            pos, neg = pos + p, neg + q
    return pos, neg


def selected_counts(pos: int, neg: int, cap: int, ratio: float):
    """How many positives and negatives mining keeps from the candidates."""
    n_pos = min(pos, int(cap / (1.0 + ratio)))
    return n_pos, min(neg, int(n_pos * ratio))


def check_tuples(samples, clip_lengths: dict, t: int, cap: int, ratio: float, kind: str):
    """Gap and buffer rules for every mined tuple, no duplicates, and the
    cap/ratio arithmetic of the selection against the closed-form counts."""
    problems = []
    seen = set()
    n_pos = n_neg = 0
    for s in samples:
        n = clip_lengths.get(s.clip_id)
        if n is None:
            problems.append(f"{kind} from unknown clip {s.clip_id!r}")
            continue
        if kind == "pair":
            key = (s.clip_id, s.j, s.k)
            gap = s.j - s.k
            ok = 0 <= s.k < s.j < n and (
                1 <= gap <= t if s.p else gap >= 2 * t + 1
            )
        else:
            key = (s.clip_id, s.l, s.m, s.n)
            g1, g2 = s.m - s.l, s.n - s.m
            ok = 0 <= s.l < s.m < s.n < n and 1 <= g1 <= t and (
                g1 == g2 if s.p else g2 >= 2 * t
            )
        if not ok:
            problems.append(f"{kind} {key} p={s.p} breaks the gap/buffer rule (t={t})")
        if key in seen:
            problems.append(f"duplicate {kind} {key}")
        seen.add(key)
        n_pos += s.p == 1
        n_neg += s.p == 0
    clips = [(n, t) for n in clip_lengths.values()]
    want = selected_counts(*corpus_counts(clips, kind), cap, ratio)
    if (n_pos, n_neg) != want:
        problems.append(f"{kind} selection kept {(n_pos, n_neg)}, expected {want}")
    return problems[:10]


def finite(name: str, *values):
    """Problems for any non-finite number among arrays or scalars."""
    import numpy as np

    for v in values:
        if not np.all(np.isfinite(np.asarray(v, dtype=np.float64))):
            return [f"{name}: non-finite value"]
    return []


def check_params(name: str, params, W=None):
    return finite(name, *params.weights, *params.biases, *([] if W is None else [W]))


def check_eta(name: str, value: float, pool_size: int):
    if not (100.0 / pool_size <= value <= 100.0):
        return [f"{name}: eta {value} outside [{100.0 / pool_size}, 100]"]
    return []


def check_fraction(name: str, value: float):
    if not 0.0 <= value <= 1.0:
        return [f"{name}: accuracy {value} outside [0, 1]"]
    return []
