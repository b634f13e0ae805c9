import numpy as np
import pytest

from ssfa.data import Clip, Frame, UnlabeledSet
from ssfa.mining import (
    MiningConfig,
    MiningError,
    PairSample,
    TripletSample,
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
        frames = [Frame(2, 2, np.full(4, (t % 7) / 7)) for t in range(n)]
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
            Clip("fast", [Frame(1, 1, [0.0]) for _ in range(12)], 0.5),
            Clip("slow", [Frame(1, 1, [0.0]) for _ in range(12)], 2.0),
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
