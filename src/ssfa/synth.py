"""Deterministic synthetic frame sequences: simple shapes translating on a
toroidal grid, with steady (constant-velocity) or jerky (resampled-velocity)
motion. Desk-scale stand-in for real video corpora.

Each image set is rendered into one preallocated array: a clip draws its
shape once and shifts it by whole cells, and a labeled class is one
render over its array of centres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Clip, LabeledSet, UnlabeledSet, _blocks
from .rng import Xorshift64Star, derive_seed

SHAPE_NAMES = ("blob", "hbar", "vbar", "ring")

# Stream tag separating gen_labeled draws from per-clip streams (clip
# streams use indices 0..num_clips-1).
_LABELED_STREAM = 0x4C41424C

# a clip's (x, y) velocities in whole cells per frame, drawn per clip (steady) or step (jerky)
VELOCITIES = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1))


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings."""

    grid: int = 16
    clip_len: int = 20
    num_clips: int = 8
    shapes: int = 4
    motion_mode: str = "steady"
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.grid < 8:
            raise ValueError("grid must be >= 8")
        if self.clip_len < 5:
            raise ValueError("clip_len must be >= 5")
        if not 2 <= self.shapes <= len(SHAPE_NAMES):
            raise ValueError(f"shapes must be in [2, {len(SHAPE_NAMES)}]")
        if self.num_clips < 0:
            raise ValueError("num_clips must be >= 0")
        if self.motion_mode not in ("steady", "jerky"):
            raise ValueError(f"unknown motion_mode {self.motion_mode!r}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _toroidal_offsets(coords: np.ndarray, center, grid: int) -> np.ndarray:
    """Signed wraparound displacement in [-grid/2, grid/2)."""
    return (coords - center + grid / 2.0) % grid - grid / 2.0


def render_shape(shape_idx: int, grid: int, cx, cy, out=None) -> np.ndarray:
    """Render one shape pattern centered at (cx, cy) on a (grid, grid)
    toroidal canvas, values in [0, 1], into ``out`` (a new array when
    None). Arrays of centres give an (n, grid, grid) stack; every operation
    is element-wise and in place on it, so each image has the bits of
    rendering its centre alone.

    Patterns depend only on wraparound offsets from the center, so moving
    the center by an integer amount circularly shifts the image exactly.
    """
    cells = np.arange(grid, dtype=np.float64)
    dr = _toroidal_offsets(cells, np.asarray(cy, dtype=np.float64)[..., None], grid)[..., :, None]
    dc = _toroidal_offsets(cells, np.asarray(cx, dtype=np.float64)[..., None], grid)[..., None, :]
    img = np.empty(np.broadcast_shapes(dr.shape, dc.shape)) if out is None else out
    name = SHAPE_NAMES[shape_idx]
    s = grid / (6.0 if name == "blob" else 12.0)
    if name in ("hbar", "vbar"):  # one Gaussian across the rows or the columns
        d = dr if name == "hbar" else dc
        img[...] = np.exp(-(d * d) / (2.0 * s * s))
        return img
    img[...] = dr * dr
    img += dc * dc
    if name == "ring":  # Gaussian shell at radius grid/4
        np.square(np.subtract(np.sqrt(img, out=img), grid / 4.0, out=img), out=img)
    np.divide(np.negative(img, out=img), 2.0 * s * s, out=img)
    return np.exp(img, out=img)


def _fill(out: np.ndarray, noise_sigma: float, render) -> None:
    """Turn the noise draws in ``out`` (zeros when noise-free) into
    clip(render + noise_sigma * noise, 0, 1), one :func:`_blocks` block of
    images (share 2) at a time. ``render(rows, dest)`` returns the render of
    those rows, written into ``dest`` when it can: without noise that is the
    block itself, since the render's values lie in [0, 1]."""
    for a, b in _blocks(len(out), out[0].nbytes, 2):
        block = out[a:b]
        if noise_sigma == 0:
            block[...] = render(slice(a, b), block)
            continue
        block *= noise_sigma
        block += render(slice(a, b), None)
        np.clip(block, 0.0, 1.0, out=block)


def _clip_frames(cfg: SynthConfig, shape_idx: int, crng: Xorshift64Star) -> np.ndarray:
    """The (clip_len, grid, grid) frames of one clip: its shape rendered
    once, at the origin, and shifted to each frame's whole cell. ``crng``
    draws as a frame-by-frame render did: the start cell and velocity, then
    per frame its noise and (jerky) the next velocity."""
    g, n = cfg.grid, cfg.clip_len
    x, y = float(crng.randint(g)), float(crng.randint(g))
    vx, vy = crng.choice(VELOCITIES)
    frames, at = np.zeros((n, g, g)), np.empty((n, 2), dtype=np.intp)
    for t in range(n):
        at[t] = y, x
        if cfg.noise_sigma > 0:
            frames[t] = np.reshape(crng.normals(g * g), (g, g))
        if cfg.motion_mode == "jerky":
            vx, vy = crng.choice(VELOCITIES)
        x, y = x + vx, y + vy
    # window (i, j) of the tiled render is the render shifted by (g - i, g - j)
    windows = sliding_window_view(np.tile(render_shape(shape_idx, g, 0.0, 0.0), (2, 2)), (g, g))
    i, j = (g - at % g).T
    _fill(frames, cfg.noise_sigma, lambda rows, dest: windows[i[rows], j[rows]])
    return frames


def gen_unlabeled(cfg: SynthConfig) -> UnlabeledSet:
    """Generate clips of one shape each, translating with wraparound.

    Shape classes cycle round-robin over clips. Steady mode holds one
    velocity for the whole clip; jerky mode resamples it every step.
    Start positions and velocities are whole cells, so steady clips are
    exact circular shifts frame to frame. frame_period is 1.0,
    so a temporal window in seconds equals the same number of frames.
    A config with num_clips = 0 (labeled images only) is a ValueError.
    """
    if cfg.num_clips < 1:
        raise ValueError("gen_unlabeled needs num_clips >= 1")
    return UnlabeledSet(tuple(
        Clip(f"clip{i:04d}", _clip_frames(cfg, i % cfg.shapes,
                                          Xorshift64Star(derive_seed(cfg.seed, i))), 1.0)
        for i in range(cfg.num_clips)))


def gen_labeled(cfg: SynthConfig, per_class: int) -> LabeledSet:
    """Single frames of each shape class at seeded random positions, class
    after class, each class rendered in one call from its centres.

    Positions are continuous (not snapped to cells), so sets generated
    from different seeds share no identical images.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    rng = Xorshift64Star(derive_seed(cfg.seed, _LABELED_STREAM))
    g = cfg.grid
    images = np.zeros((cfg.shapes * per_class, g, g))
    for cls in range(cfg.shapes):
        out = images[cls * per_class:(cls + 1) * per_class]
        centres = np.empty((per_class, 2))
        for k in range(per_class):
            centres[k] = rng.uniform() * g, rng.uniform() * g
            if cfg.noise_sigma > 0:
                out[k] = np.reshape(rng.normals(g * g), (g, g))
        cx, cy = centres.T
        _fill(out, cfg.noise_sigma,
              lambda rows, dest: render_shape(cls, g, cx[rows], cy[rows], dest))
    return LabeledSet(images, np.repeat(np.arange(cfg.shapes), per_class), cfg.shapes)


# ---------------------------------------------------------------------------
# Canonical fixture bundle used by the acceptance experiments.

def fixture_configs(base_seed: int = 7):
    """The canonical dataset configs for the desk-scale experiments:
    steady training clips, held-out steady eval clips, and labeled
    train/test/reference splits (5 per class for training)."""
    return {
        "train_clips": SynthConfig(num_clips=40, seed=base_seed),
        "eval_clips": SynthConfig(num_clips=12, seed=base_seed + 1000),
        "labeled_train": (SynthConfig(seed=base_seed + 2000), 5),
        "labeled_test": (SynthConfig(seed=base_seed + 3000), 100),
        "labeled_knn_train": (SynthConfig(seed=base_seed + 4000), 10),
        "labeled_knn_test": (SynthConfig(seed=base_seed + 5000), 500),
    }


def build_fixtures(base_seed: int = 7) -> dict:
    """Generate the canonical fixture datasets in memory."""
    cfgs = fixture_configs(base_seed)
    out = {}
    for name, cfg in cfgs.items():
        if isinstance(cfg, SynthConfig):
            out[name] = gen_unlabeled(cfg)
        else:
            synth_cfg, per_class = cfg
            out[name] = gen_labeled(synth_cfg, per_class)
    return out
