import tracemalloc

import numpy as np
import pytest

from ssfa.data import PREP_BLOCK_BYTES
from ssfa.rng import Xorshift64Star, derive_seed, splitmix64
from ssfa.synth import (
    _LABELED_STREAM,
    SHAPE_NAMES,
    VELOCITIES,
    SynthConfig,
    gen_labeled,
    gen_unlabeled,
    render_shape,
)


def test_rng_is_deterministic_and_uniform():
    a, b = Xorshift64Star(123), Xorshift64Star(123)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = Xorshift64Star(124)
    assert a.next_u64() != c.next_u64()
    r = Xorshift64Star(7)
    us = [r.uniform() for _ in range(2000)]
    assert all(0 <= u < 1 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.05
    ns = r.normals(2000)
    assert abs(np.mean(ns)) < 0.1 and abs(np.std(ns) - 1.0) < 0.1


def test_rng_zero_seed_is_usable():
    r = Xorshift64Star(0)
    assert r.next_u64() != 0


def test_derive_seed_separates_streams():
    seeds = {derive_seed(5, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(5, 0) != derive_seed(6, 0)


def test_splitmix_known_progression():
    s1, v1 = splitmix64(0)
    s2, v2 = splitmix64(s1)
    assert v1 != v2 and s1 != s2


# ---------------------------------------------------------------------------

def test_config_invariants():
    with pytest.raises(ValueError):
        SynthConfig(grid=4)
    with pytest.raises(ValueError):
        SynthConfig(clip_len=2)
    with pytest.raises(ValueError):
        SynthConfig(shapes=1)
    with pytest.raises(ValueError):
        SynthConfig(motion_mode="spin")


def test_zero_clips_config_is_labeled_only():
    cfg = SynthConfig(num_clips=0)
    assert len(gen_labeled(cfg, 2)) == 2 * cfg.shapes
    with pytest.raises(ValueError, match="num_clips >= 1"):
        gen_unlabeled(cfg)
    with pytest.raises(ValueError, match="num_clips must be >= 0"):
        SynthConfig(num_clips=-1)


def test_render_patterns_are_bounded_and_distinct():
    imgs = [render_shape(i, 16, 8.0, 8.0) for i in range(len(SHAPE_NAMES))]
    for img in imgs:
        assert img.shape == (16, 16)
        assert img.min() >= 0.0 and img.max() <= 1.0
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            assert not np.allclose(imgs[i], imgs[j])


def test_steady_clip_is_exact_circular_shift(monkeypatch):
    for vel, axis, amount in (((1, 0), 1, 1), ((0, 1), 0, 1), ((-2, 0), 1, -2)):
        monkeypatch.setattr("ssfa.synth.VELOCITIES", (vel,))
        u = gen_unlabeled(SynthConfig(num_clips=4, seed=11))
        for clip in u.clips:
            for t in range(len(clip.frames) - 1):
                shifted = np.roll(clip.frames[t], amount, axis=axis)
                assert np.array_equal(shifted, clip.frames[t + 1])


def test_pixel_step_is_fixed_permutation_for_steady_motion(monkeypatch):
    monkeypatch.setattr("ssfa.synth.VELOCITIES", ((1, 1),))
    u = gen_unlabeled(SynthConfig(num_clips=2, seed=3))
    clip = u.clips[0]
    # x_{t+1} rearranges x_t's pixels; sorted multisets match exactly
    for t in range(len(clip.frames) - 1):
        a = np.sort(clip.frames[t], axis=None)
        b = np.sort(clip.frames[t + 1], axis=None)
        assert np.array_equal(a, b)


def test_gen_unlabeled_deterministic_and_seed_sensitive():
    cfg = SynthConfig(num_clips=3, seed=9)
    u1, u2 = gen_unlabeled(cfg), gen_unlabeled(cfg)
    for c1, c2 in zip(u1.clips, u2.clips):
        assert c1.frames.tobytes() == c2.frames.tobytes()
    u3 = gen_unlabeled(SynthConfig(num_clips=3, seed=10))
    assert u1.clips[0].frames[0].tobytes() != u3.clips[0].frames[0].tobytes()


def test_gen_unlabeled_metadata():
    cfg = SynthConfig(num_clips=5, clip_len=7, seed=0)
    u = gen_unlabeled(cfg)
    assert len(u.clips) == 5
    for clip in u.clips:
        assert clip.frame_period == 1.0
        assert clip.frames.shape == (7, cfg.grid, cfg.grid)


def _displacement(prev, nxt):
    # exact cyclic displacement via FFT cross-correlation argmax
    corr = np.fft.ifft2(np.fft.fft2(nxt) * np.conj(np.fft.fft2(prev))).real
    dy, dx = np.unravel_index(np.argmax(corr), corr.shape)
    g = prev.shape[0]
    return ((dx + g // 2) % g - g // 2, (dy + g // 2) % g - g // 2)


def test_jerky_motion_changes_direction_often(monkeypatch):
    # vertical +-v so the motion is visible for every shape class
    monkeypatch.setattr("ssfa.synth.VELOCITIES", ((0, 2), (0, -2)))
    changed, total = 0, 0
    for seed in range(12):
        cfg = SynthConfig(num_clips=2, seed=seed, motion_mode="jerky", shapes=2)
        u = gen_unlabeled(cfg)
        for clip in u.clips:
            disps = [
                _displacement(clip.frames[t], clip.frames[t + 1])
                for t in range(len(clip.frames) - 1)
            ]
            changed += sum(d1 != d0 for d0, d1 in zip(disps, disps[1:]))
            total += len(disps) - 1
    assert changed / total >= 0.3


def test_noise_is_additive_and_clamped():
    quiet = gen_unlabeled(SynthConfig(num_clips=1, seed=5))
    noisy = gen_unlabeled(SynthConfig(num_clips=1, seed=5, noise_sigma=0.1))
    a = quiet.clips[0].frames[0]
    b = noisy.clips[0].frames[0]
    assert not np.array_equal(a, b)
    assert b.min() >= 0.0 and b.max() <= 1.0


def test_gen_labeled_balanced_classes():
    s = gen_labeled(SynthConfig(seed=4), per_class=5)
    assert len(s) == 20 and s.num_classes == 4
    counts = np.bincount(s.labels)
    assert list(counts) == [5, 5, 5, 5]


def test_gen_labeled_disjoint_across_seeds():
    a = gen_labeled(SynthConfig(seed=1), per_class=10)
    b = gen_labeled(SynthConfig(seed=2), per_class=10)
    ha = {img.tobytes() for img in a.images}
    hb = {img.tobytes() for img in b.images}
    assert not ha & hb


def test_gen_labeled_deterministic():
    a = gen_labeled(SynthConfig(seed=3), per_class=4)
    b = gen_labeled(SynthConfig(seed=3), per_class=4)
    assert a.images.tobytes() == b.images.tobytes()


# ---------------------------------------------------------------------------
# The bulk renderer against the frame-by-frame one it replaced

def _ref_render(shape_idx, grid, cx, cy):
    # render_shape for one centre, as it was before it took arrays
    def offsets(center):
        return (np.arange(grid, dtype=np.float64) - center + grid / 2.0) % grid - grid / 2.0

    dr, dc = offsets(cy)[:, None], offsets(cx)[None, :]
    name = SHAPE_NAMES[shape_idx]
    if name == "blob":
        s = grid / 6.0
        return np.exp(-(dr * dr + dc * dc) / (2.0 * s * s))
    s = grid / 12.0
    if name == "hbar":
        return np.exp(-(dr * dr) / (2.0 * s * s)) * np.ones_like(dc)
    if name == "vbar":
        return np.ones_like(dr) * np.exp(-(dc * dc) / (2.0 * s * s))
    rho = np.sqrt(dr * dr + dc * dc)
    return np.exp(-((rho - grid / 4.0) ** 2) / (2.0 * s * s))


def _ref_frame(cfg, shape_idx, cx, cy, rng):
    img = _ref_render(shape_idx, cfg.grid, cx, cy)
    if cfg.noise_sigma > 0:
        noise = np.array(rng.normals(cfg.grid * cfg.grid)).reshape(cfg.grid, cfg.grid)
        img = np.clip(img + cfg.noise_sigma * noise, 0.0, 1.0)
    return img


def _ref_clips(cfg, velocities):
    clips = []
    for i in range(cfg.num_clips):
        rng = Xorshift64Star(derive_seed(cfg.seed, i))
        x, y = float(rng.randint(cfg.grid)), float(rng.randint(cfg.grid))
        vx, vy = rng.choice(velocities)
        frames = []
        for _ in range(cfg.clip_len):
            frames.append(_ref_frame(cfg, i % cfg.shapes, x, y, rng))
            if cfg.motion_mode == "jerky":
                vx, vy = rng.choice(velocities)
            x, y = x + vx, y + vy
        clips.append(np.stack(frames))
    return clips


def _ref_labeled(cfg, per_class):
    rng = Xorshift64Star(derive_seed(cfg.seed, _LABELED_STREAM))
    images = []
    for cls in range(cfg.shapes):
        for _ in range(per_class):
            cx, cy = rng.uniform() * cfg.grid, rng.uniform() * cfg.grid
            images.append(_ref_frame(cfg, cls, cx, cy, rng))
    return np.stack(images)


@pytest.mark.parametrize("grid", [16, 32])
@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("mode, velocities", [
    ("steady", VELOCITIES), ("jerky", VELOCITIES), ("jerky", ((17, -33), (-2, 5), (0, 0))),
], ids=["steady", "jerky", "jerky_long_steps"])
def test_bulk_render_has_the_bits_of_a_frame_by_frame_render(monkeypatch, grid, noise, mode,
                                                              velocities):
    # all four shapes; the labeled centres are continuous
    monkeypatch.setattr("ssfa.synth.VELOCITIES", velocities)
    cfg = SynthConfig(grid=grid, clip_len=9, num_clips=5, motion_mode=mode, noise_sigma=noise,
                      seed=grid + 7)
    u = gen_unlabeled(cfg)
    for clip, ref in zip(u.clips, _ref_clips(cfg, velocities), strict=True):
        assert clip.frames.tobytes() == ref.tobytes(), clip.clip_id
    s = gen_labeled(cfg, 3)
    assert s.images.tobytes() == _ref_labeled(cfg, 3).tobytes()
    assert s.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_render_shape_of_centre_arrays_renders_each_centre():
    rng = np.random.default_rng(0)
    cx, cy = rng.uniform(-20, 20, (2, 6))
    for shape in range(len(SHAPE_NAMES)):
        stack = render_shape(shape, 11, cx, cy)
        assert stack.shape == (6, 11, 11)
        for k in range(6):
            assert stack[k].tobytes() == _ref_render(shape, 11, cx[k], cy[k]).tobytes()
            assert stack[k].tobytes() == render_shape(shape, 11, cx[k], cy[k]).tobytes()


def _peak_over_output(make):
    tracemalloc.start()
    try:
        result = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [c.frames for c in result.clips] if hasattr(result, "clips") else [result.images]
    output = sum(a.nbytes for a in arrays)
    return peak - output, output


@pytest.mark.parametrize("make", [
    lambda: gen_unlabeled(SynthConfig(grid=32, clip_len=400, num_clips=2)),
    lambda: gen_labeled(SynthConfig(grid=32), 300),
    lambda: gen_labeled(SynthConfig(grid=8), 3000),  # the widest offset columns per pixel
], ids=["clips", "labeled", "labeled_grid_8"])
def test_bulk_render_holds_its_output_plus_one_block(make):
    # each shift and render runs half a block of rows at a time
    over, output = _peak_over_output(make)
    assert output > 2 * PREP_BLOCK_BYTES
    assert over <= PREP_BLOCK_BYTES


def test_noisy_bulk_render_holds_its_output_plus_one_block(monkeypatch):
    # the noise is drawn into the output, and each block adds its render in
    # place; a quarter-size block keeps the pure-Python normal draws few
    block = PREP_BLOCK_BYTES // 4
    monkeypatch.setattr("ssfa.synth.PREP_BLOCK_BYTES", block)
    over, output = _peak_over_output(lambda: gen_unlabeled(
        SynthConfig(grid=16, clip_len=260, num_clips=1, noise_sigma=0.1, motion_mode="jerky")))
    assert output > 2 * block
    assert over <= block
