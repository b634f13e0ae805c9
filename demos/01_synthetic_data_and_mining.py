"""Generate synthetic moving-shape clips and mine temporal tuples.

Shows the two ingredients the regularizers train on: pairs of frames that
are temporal neighbors (within T seconds) vs. far apart, and triplets that
are evenly spaced in time vs. triplets whose last frame jumps beyond a
buffer gap. A gray zone between neighbors and non-neighbors is excluded
entirely so negatives are never "almost positive".
"""

import numpy as np

import ssfa

# 12 clips of 4 shape classes translating steadily on a 16x16 toroidal grid
cfg = ssfa.SynthConfig(grid=16, clip_len=20, num_clips=12, shapes=4, seed=42)
clips = ssfa.gen_unlabeled(cfg)
print(f"{len(clips.clips)} clips, {cfg.clip_len} frames each, period {clips.clips[0].frame_period}s")

# steady motion means each frame is an exact circular shift of the previous
c0 = clips.clips[0]
shift_exact = np.array_equal(np.sort(c0.frames[0], axis=None), np.sort(c0.frames[1], axis=None))
print(f"frame t+1 is a pixel permutation of frame t: {shift_exact}")

# text rendering of one frame: c0.frames is one (frames, height, width) array
img = c0.frames[0]
chars = " .:-=+*#%@"
for row in img[::2]:
    print("".join(chars[int(v * (len(chars) - 1))] for v in row[::1]))

# mine pairs (1 positive : 3 negatives) and triplets (1:1) with T = 2 s
mining = ssfa.MiningConfig(T_seconds=2.0, pair_neg_ratio=3, triplet_neg_ratio=1, seed=0)
pairs = ssfa.mine_pairs(clips, mining)
triplets = ssfa.mine_triplets(clips, mining)
n_pos = sum(p.p for p in pairs)
t_pos = sum(t.p for t in triplets)
print(f"\nmined {len(pairs)} pairs ({n_pos} positive), {len(triplets)} triplets ({t_pos} positive)")
print("sample pair:", pairs[0])
print("sample triplet:", triplets[-1])

# every mined pair respects the window / buffer rule; the gray zone is empty
t_frames = ssfa.window_frames(mining.T_seconds, c0.frame_period)
gaps_pos = {p.j - p.k for p in pairs if p.p == 1}
gaps_neg = {p.j - p.k for p in pairs if p.p == 0}
print(f"\npositive pair gaps (<= {t_frames}):", sorted(gaps_pos))
print(f"negative pair gaps (>= {2 * t_frames + 1}): {min(gaps_neg)}..{max(gaps_neg)}")
print("gray zone", set(range(t_frames + 1, 2 * t_frames + 1)), "appears:",
      bool((gaps_pos | gaps_neg) & set(range(t_frames + 1, 2 * t_frames + 1))))
