import numpy as np
import pytest

from ssfa.rng import Xorshift64Star, derive_seed, splitmix64
from ssfa.synth import SHAPE_NAMES, SynthConfig, gen_labeled, gen_unlabeled, render_shape


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


def test_steady_clip_is_exact_circular_shift():
    for vel, axis, amount in (((1, 0), 1, 1), ((0, 1), 0, 1), ((-2, 0), 1, -2)):
        cfg = SynthConfig(num_clips=4, seed=11, velocity_set=(vel,))
        u = gen_unlabeled(cfg)
        for clip in u.clips:
            for t in range(len(clip.frames) - 1):
                shifted = np.roll(clip.frames[t].grid(), amount, axis=axis)
                assert np.array_equal(shifted, clip.frames[t + 1].grid())


def test_pixel_step_is_fixed_permutation_for_steady_motion():
    cfg = SynthConfig(num_clips=2, seed=3, velocity_set=((1, 1),))
    u = gen_unlabeled(cfg)
    clip = u.clips[0]
    # x_{t+1} rearranges x_t's pixels; sorted multisets match exactly
    for t in range(len(clip.frames) - 1):
        a = np.sort(clip.frames[t].pixels)
        b = np.sort(clip.frames[t + 1].pixels)
        assert np.array_equal(a, b)


def test_gen_unlabeled_deterministic_and_seed_sensitive():
    cfg = SynthConfig(num_clips=3, seed=9)
    u1, u2 = gen_unlabeled(cfg), gen_unlabeled(cfg)
    for c1, c2 in zip(u1.clips, u2.clips):
        for f1, f2 in zip(c1.frames, c2.frames):
            assert f1.pixels.tobytes() == f2.pixels.tobytes()
    u3 = gen_unlabeled(SynthConfig(num_clips=3, seed=10))
    assert u1.clips[0].frames[0].pixels.tobytes() != u3.clips[0].frames[0].pixels.tobytes()


def test_gen_unlabeled_metadata():
    cfg = SynthConfig(num_clips=5, clip_len=7, seed=0)
    u = gen_unlabeled(cfg)
    assert len(u.clips) == 5
    for clip in u.clips:
        assert clip.frame_period == 1.0
        assert len(clip.frames) == 7
        assert clip.frames[0].width == cfg.grid


def _displacement(prev, nxt):
    # exact cyclic displacement via FFT cross-correlation argmax
    corr = np.fft.ifft2(np.fft.fft2(nxt) * np.conj(np.fft.fft2(prev))).real
    dy, dx = np.unravel_index(np.argmax(corr), corr.shape)
    g = prev.shape[0]
    return ((dx + g // 2) % g - g // 2, (dy + g // 2) % g - g // 2)


def test_jerky_motion_changes_direction_often():
    # vertical +-v so the motion is visible for every shape class
    vel = ((0, 2), (0, -2))
    changed, total = 0, 0
    for seed in range(12):
        cfg = SynthConfig(
            num_clips=2, seed=seed, velocity_set=vel, motion_mode="jerky", shapes=2
        )
        u = gen_unlabeled(cfg)
        for clip in u.clips:
            disps = [
                _displacement(clip.frames[t].grid(), clip.frames[t + 1].grid())
                for t in range(len(clip.frames) - 1)
            ]
            changed += sum(d1 != d0 for d0, d1 in zip(disps, disps[1:]))
            total += len(disps) - 1
    assert changed / total >= 0.3


def test_noise_is_additive_and_clamped():
    quiet = gen_unlabeled(SynthConfig(num_clips=1, seed=5))
    noisy = gen_unlabeled(SynthConfig(num_clips=1, seed=5, noise_sigma=0.1))
    a = quiet.clips[0].frames[0].pixels
    b = noisy.clips[0].frames[0].pixels
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
    ha = {img.pixels.tobytes() for img in a.images}
    hb = {img.pixels.tobytes() for img in b.images}
    assert not ha & hb


def test_gen_labeled_deterministic():
    a = gen_labeled(SynthConfig(seed=3), per_class=4)
    b = gen_labeled(SynthConfig(seed=3), per_class=4)
    for fa, fb in zip(a.images, b.images):
        assert fa.pixels.tobytes() == fb.pixels.tobytes()


@pytest.mark.parametrize("vel", [(0.5, 0.25), (1, 0.5), (float("nan"), 0), (1, float("inf"))],
                         ids=["half_cells", "fractional_y", "nan", "inf"])
def test_velocity_set_must_hold_whole_cells(vel):
    with pytest.raises(ValueError, match="whole cells"):
        SynthConfig(velocity_set=((1, 0), vel))
    # a whole cell given as a float is a cell
    assert SynthConfig(velocity_set=((1.0, -2.0),)).velocity_set == ((1.0, -2.0),)
