import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ssfa.data import Clip, UnlabeledSet
from ssfa.mining import (
    MiningConfig,
    MiningError,
    PairSample,
    TripletSample,
    _decode,
    _pair_groups,
    _triplet_groups,
    load_tuples,
    mine_pairs,
    mine_triplets,
    pair_candidates,
    save_tuples,
    triplet_candidates,
    window_frames,
)


def make_corpus(lengths, period=1.0):
    clips = []
    for i, n in enumerate(lengths):
        frames = [np.full((2, 2), (t % 7) / 7) for t in range(n)]
        clips.append(Clip(f"c{i}", frames, period))
    return UnlabeledSet(clips)


# ---------------------------------------------------------------------------
# brute-force oracles of the tuple definitions

def brute_pairs(n, t):
    pos = [(j, k) for k in range(n) for j in range(n) if j > k and 1 <= j - k <= t]
    neg = [(j, k) for k in range(n) for j in range(n) if j > k and j - k >= 2 * t + 1]
    return sorted(pos), sorted(neg)


def brute_triplets(n, t):
    pos, neg = [], []
    for l in range(n):
        for m in range(l + 1, n):
            for x in range(m + 1, n):
                if m - l == x - m and m - l <= t:
                    pos.append((l, m, x))
                elif 1 <= m - l <= t and x - m >= 2 * t:
                    neg.append((l, m, x))
    return sorted(pos), sorted(neg)


def rows(a):
    """Candidate array rows as a list of int tuples."""
    return list(map(tuple, a.tolist()))


def test_pair_candidates_match_brute_force_everywhere():
    for n in range(2, 31):
        for t in (1, 2, 3):
            pos, neg = pair_candidates(n, t)
            bpos, bneg = brute_pairs(n, t)
            assert sorted(rows(pos)) == bpos, (n, t)
            assert sorted(rows(neg)) == bneg, (n, t)


def test_triplet_candidates_match_brute_force_everywhere():
    for n in range(3, 31):
        for t in (1, 2, 3):
            pos, neg = triplet_candidates(n, t)
            bpos, bneg = brute_triplets(n, t)
            assert sorted(rows(pos)) == bpos, (n, t)
            assert sorted(rows(neg)) == bneg, (n, t)


def test_documented_pair_memberships():
    pos, neg = map(rows, pair_candidates(10, 2))
    assert set(pos) == {(j, k) for k in range(10) for j in range(10) if j - k in (1, 2)}
    assert all(j - k >= 5 for j, k in neg)
    assert (5, 3) in pos
    assert (9, 2) in neg
    # gray zone: gaps 3..4 appear nowhere
    assert all(not 2 < j - k < 5 for j, k in pos + neg)


def test_documented_triplet_memberships():
    pos, neg = map(rows, triplet_candidates(10, 2))
    assert (0, 2, 4) in pos
    assert (3, 4, 5) in pos
    assert (0, 2, 7) in neg          # n - m = 5 >= 4
    assert (0, 2, 5) not in pos + neg  # gray zone
    assert all(not 2 < n - m < 4 for _, m, n in neg)


@pytest.mark.parametrize("field", ["T_seconds", "pair_neg_ratio", "triplet_neg_ratio"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mining_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        MiningConfig(**{"T_seconds": 2.0, field: value})


def test_window_frames_floor_conversion():
    assert window_frames(2.0, 1.0) == 2
    assert window_frames(2.0, 0.5) == 4
    assert window_frames(0.5, 1.0) == 0
    assert window_frames(2.0, 0.7) == 2


# ---------------------------------------------------------------------------
# mining behavior

def test_ratio_contract_when_candidates_suffice():
    u = make_corpus([20, 20])
    cfg = MiningConfig(T_seconds=2.0, pair_neg_ratio=3.0, max_pairs=40, seed=0)
    pairs = mine_pairs(u, cfg)
    n_pos = sum(p.p for p in pairs)
    assert n_pos == 10 and len(pairs) - n_pos == 30

    cfg = MiningConfig(T_seconds=2.0, triplet_neg_ratio=1.0, max_triplets=30, seed=0)
    trips = mine_triplets(u, cfg)
    t_pos = sum(t.p for t in trips)
    assert t_pos == 15 and len(trips) - t_pos == 15


def test_negatives_rounded_down_when_exhausted():
    # length 8 with T=3: negatives need gap >= 7, only (7,0) qualifies
    u = make_corpus([8])
    cfg = MiningConfig(T_seconds=3.0, pair_neg_ratio=3.0, max_pairs=100, seed=0)
    pairs = mine_pairs(u, cfg)
    n_neg = sum(1 - p.p for p in pairs)
    assert n_neg == 1
    assert sum(p.p for p in pairs) == len(pair_candidates(8, 3)[0])


def test_mined_samples_satisfy_definitions():
    u = make_corpus([12, 17, 30], period=0.5)
    cfg = MiningConfig(T_seconds=1.0, seed=3)  # 2 frames per clip window
    lengths = {c.clip_id: len(c.frames) for c in u.clips}
    for s in mine_pairs(u, cfg):
        t = window_frames(cfg.T_seconds, 0.5)
        gap = s.j - s.k
        assert s.j < lengths[s.clip_id]
        assert (s.p == 1 and 1 <= gap <= t) or (s.p == 0 and gap >= 2 * t + 1)
    for s in mine_triplets(u, cfg):
        t = window_frames(cfg.T_seconds, 0.5)
        assert s.n < lengths[s.clip_id]
        if s.p == 1:
            assert s.m - s.l == s.n - s.m <= t
        else:
            assert s.m - s.l <= t and s.n - s.m >= 2 * t


def test_mixed_frame_periods_use_per_clip_windows():
    # same T in seconds, different windows in frames
    u = UnlabeledSet(
        [
            Clip("fast", np.zeros((12, 1, 1)), 0.5),
            Clip("slow", np.zeros((12, 1, 1)), 2.0),
        ]
    )
    cfg = MiningConfig(T_seconds=2.0, max_pairs=10000, seed=0)
    pairs = mine_pairs(u, cfg)
    for s in pairs:
        t = 4 if s.clip_id == "fast" else 1
        gap = s.j - s.k
        assert (s.p == 1 and gap <= t) or (s.p == 0 and gap >= 2 * t + 1)


def test_determinism_byte_for_byte(tmp_path):
    u = make_corpus([15, 9, 22])
    cfg = MiningConfig(T_seconds=2.0, seed=11, max_pairs=60, max_triplets=60)
    for name, miner in (("p", mine_pairs), ("t", mine_triplets)):
        save_tuples(tmp_path / f"{name}1.txt", miner(u, cfg), cfg)
        save_tuples(tmp_path / f"{name}2.txt", miner(u, cfg), cfg)
        assert (tmp_path / f"{name}1.txt").read_bytes() == (tmp_path / f"{name}2.txt").read_bytes()


def test_no_cross_clip_tuples():
    u = make_corpus([10, 10, 10])
    cfg = MiningConfig(T_seconds=2.0, seed=2)
    ids = {c.clip_id for c in u.clips}
    for s in mine_pairs(u, cfg) + mine_triplets(u, cfg):
        assert s.clip_id in ids  # indices validated against clip length above


def test_mining_error_when_no_negatives_exist():
    # clips too short for the buffer gap (need length >= 2T+2 = 6)
    u = make_corpus([5, 5])
    with pytest.raises(MiningError, match="negative"):
        mine_pairs(u, MiningConfig(T_seconds=2.0))
    with pytest.raises(MiningError):
        mine_triplets(u, MiningConfig(T_seconds=2.0))


def test_mining_error_when_window_too_small():
    u = make_corpus([10], period=1.0)
    with pytest.raises(MiningError, match="positive"):
        mine_pairs(u, MiningConfig(T_seconds=0.5))  # 0-frame window


def test_short_clips_skipped_with_warning(caplog):
    u = make_corpus([2, 20])
    cfg = MiningConfig(T_seconds=2.0, seed=1)
    with caplog.at_level("WARNING"):
        mine_triplets(u, cfg)  # 2-frame clip admits no triplet
    assert any("skipped" in r.message for r in caplog.records)


def test_sample_invariants_enforced():
    with pytest.raises(ValueError):
        PairSample("c", 1, 1, 1)
    with pytest.raises(ValueError):
        PairSample("c", 2, 1, 3)
    with pytest.raises(ValueError):
        TripletSample("c", 3, 2, 4, 1)


def test_tuple_file_round_trip(tmp_path):
    u = make_corpus([15])
    cfg = MiningConfig(T_seconds=2.0, seed=4, max_pairs=20, max_triplets=20)
    pairs = mine_pairs(u, cfg)
    trips = mine_triplets(u, cfg)
    save_tuples(tmp_path / "x.txt", pairs + trips, cfg)
    p2, t2 = load_tuples(tmp_path / "x.txt")
    assert p2 == pairs and t2 == trips


@pytest.mark.parametrize("line, bad", [
    ("PAIR c 1_0 5 1", "1_0"),
    ("TRIP c \u0661 2 3 +1", "\u0661"),
    ("TRIP c 1 2 3 +1", "+1"),
    ("PAIR c 9 5 -0", "-0"),
], ids=["underscore", "arabic_indic", "plus", "minus"])
def test_tuple_file_integers_are_ascii_decimal(tmp_path, line, bad):
    # int() read "1_0" as 10, "+1" as 1, Arabic-Indic one as 1 and "-0" as 0
    path = tmp_path / "t.txt"
    path.write_text(f"PAIR c 2 1 1\n{line}\n", encoding="utf-8")
    message = f"{path}: line 2: invalid literal for int() with base 10: {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_tuples(path)


def test_load_tuples_peak_per_tuple(tmp_path):
    # slotted samples, one clip-id string per clip and a line-at-a-time
    # reader: a long_clips-shaped pair file peaks below 150 B per tuple
    n = 10000
    path = tmp_path / "pairs.txt"
    samples = [PairSample(f"clip{i % 2:04d}", i % 497 + 1 + i % 3, i % 497, i % 2) for i in range(n)]
    save_tuples(path, samples, MiningConfig(T_seconds=4.0))
    del samples
    load_tuples(path)  # warm up the code path
    tracemalloc.start()
    try:
        pairs, triplets = load_tuples(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == n and not triplets
    assert peak < 150 * n, peak / n


# ---------------------------------------------------------------------------
# the closed-form group tables and their decode

def decoded(groups, n, t):
    """Every candidate of one clip, decoded from its group tables in flat
    index order, as ``(pos, neg)`` row lists."""
    out = []
    for base, count, step in groups(n, t):
        assert (count >= 1).all()  # only groups that hold a candidate
        table = (np.zeros(len(count), dtype=np.int64), base, count, step)
        out.append(rows(_decode(table, np.arange(count.sum()))[:, 1:]))
    return out


def test_decode_reproduces_candidates_in_order():
    for n in range(1, 41):
        for t in range(6):
            assert decoded(_pair_groups, n, t) == list(map(rows, pair_candidates(n, t))), (n, t)
            assert decoded(_triplet_groups, n, t) == list(map(rows, triplet_candidates(n, t))), (n, t)
        # mining clamps a huge window to the clip length n, which admits
        # the candidates of any larger window (triplet_candidates cannot
        # take a huge one: it builds an (n, t, n) mask)
        assert decoded(_pair_groups, n, n) == list(map(rows, pair_candidates(n, 10 ** 30)))
        assert decoded(_triplet_groups, n, n) == list(map(rows, triplet_candidates(n, 2 * n)))


def materialized_mine(u, cfg, candidates, cap, ratio, seed):
    """Selection by enumerating every candidate of every clip behind a
    clip-index column, then two permutations: the reference that the group
    decode must reproduce sample for sample."""
    pos_all, neg_all = [], []
    for c, clip in enumerate(u.clips):
        pos, neg = candidates(len(clip.frames), window_frames(cfg.T_seconds, clip.frame_period))
        if len(pos):
            pos_all.append(np.column_stack((np.full(len(pos), c), pos)))
            neg_all.append(np.column_stack((np.full(len(neg), c), neg)))
    pos_all, neg_all = np.concatenate(pos_all), np.concatenate(neg_all)
    n_pos = min(len(pos_all), int(cap / (1.0 + ratio)))
    n_neg = min(len(neg_all), int(n_pos * ratio))
    rng = np.random.default_rng(seed)
    pos = pos_all[rng.permutation(len(pos_all))[:n_pos]]
    neg = neg_all[rng.permutation(len(neg_all))[:n_neg]]
    ids = [clip.clip_id for clip in u.clips]
    return [(ids[c], *t, 1) for c, *t in pos.tolist()] + [(ids[c], *t, 0) for c, *t in neg.tolist()]


def as_rows(samples):
    return [dataclasses.astuple(s) for s in samples]


@pytest.mark.parametrize("ratio", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("cap", [7, 60, 10 ** 6])
def test_mining_equals_materialized_selection(ratio, cap):
    # mixed lengths and frame periods; "c1" has a 0-frame window and "c3"
    # too few frames for a triplet, so they are skipped by one or both kinds
    lengths_periods = [(23, 1.0), (40, 4.0), (31, 0.5), (2, 1.0), (17, 0.7), (9, 1.0)]
    u = UnlabeledSet([Clip(f"c{i}", np.zeros((n, 1, 1)), period)
                      for i, (n, period) in enumerate(lengths_periods)])
    for seed in (0, 5):
        cfg = MiningConfig(T_seconds=2.0, pair_neg_ratio=ratio, triplet_neg_ratio=ratio,
                           max_pairs=cap, max_triplets=cap, seed=seed)
        assert as_rows(mine_pairs(u, cfg)) == materialized_mine(
            u, cfg, pair_candidates, cap, ratio, seed)
        assert as_rows(mine_triplets(u, cfg)) == materialized_mine(
            u, cfg, triplet_candidates, cap, ratio, seed + 1)


def test_huge_window_reaches_no_negative_error():
    u = make_corpus([12, 30])
    for miner in (mine_pairs, mine_triplets):
        with pytest.raises(MiningError, match="no clip admits a negative"):
            miner(u, MiningConfig(T_seconds=1e300))


_MINING_PEAK = """
import numpy as np
from ssfa.data import Clip, UnlabeledSet
from ssfa.mining import MiningConfig, mine_pairs, mine_triplets
cfg = MiningConfig(T_seconds=2.0, max_pairs=10000, max_triplets=10000)
small = UnlabeledSet([Clip("w", np.zeros((40, 1, 1)), 1.0)])
mine_pairs(small, cfg), mine_triplets(small, cfg)  # warm up the code paths
u = UnlabeledSet([Clip("c", np.zeros((3000, 1, 1)), 1.0)])
def status_kib(field):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))
before = status_kib("VmRSS")  # resident now, not the high-water mark
kept = len(mine_pairs(u, cfg)) + len(mine_triplets(u, cfg))
# VmHWM is this process's own peak; ru_maxrss also holds the peak of the
# process that spawned it (Linux carries it over exec)
print(kept, (status_kib("VmHWM") - before) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_mining_peak_is_one_permutation_of_the_candidates():
    # one 3000-frame clip at a 2-frame window: the largest candidate set,
    # 8.97M triplet negatives, is drawn by one 4-byte-per-candidate
    # permutation; building the candidate rows would take many times it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _MINING_PEAK], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    kept, grown = map(int, proc.stdout.split())
    assert kept == 20000
    # triplet negatives (l, l+g1, x) with x >= l+g1+4: one triangular
    # number per g1 in {1, 2}
    largest = sum((3000 - g1 - 4) * (3000 - g1 - 3) // 2 for g1 in (1, 2))
    print(f"mining peak grew {grown / 2**20:.1f} MB for {largest} candidates")
    assert grown < 4 * largest + 16 * 2**20, (grown, largest)
