"""Deterministic synthetic frame sequences: simple shapes translating on a
toroidal grid, with steady (constant-velocity) or jerky (resampled-velocity)
motion. Desk-scale stand-in for real video corpora.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Clip, Frame, LabeledSet, UnlabeledSet
from .rng import Xorshift64Star, derive_seed

SHAPE_NAMES = ("blob", "hbar", "vbar", "ring")

# Stream tag separating gen_labeled draws from per-clip streams (clip
# streams use indices 0..num_clips-1).
_LABELED_STREAM = 0x4C41424C


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; ``velocity_set`` steps are whole cells per frame."""

    grid: int = 16
    clip_len: int = 20
    num_clips: int = 8
    shapes: int = 4
    velocity_set: tuple = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1))
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
        if not self.velocity_set:
            raise ValueError("velocity_set must be nonempty")
        vel = tuple((float(vx), float(vy)) for vx, vy in self.velocity_set)
        if not all(v.is_integer() for pair in vel for v in pair):
            raise ValueError(f"velocity_set must hold whole cells, got {self.velocity_set}")
        object.__setattr__(self, "velocity_set", vel)


def _toroidal_offsets(coords: np.ndarray, center: float, grid: int) -> np.ndarray:
    """Signed wraparound displacement in [-grid/2, grid/2)."""
    return (coords - center + grid / 2.0) % grid - grid / 2.0


def render_shape(shape_idx: int, grid: int, cx: float, cy: float) -> np.ndarray:
    """Render one shape pattern centered at (cx, cy) on a (grid, grid)
    toroidal canvas, values in [0, 1].

    Patterns depend only on wraparound offsets from the center, so moving
    the center by an integer amount circularly shifts the image exactly.
    """
    dr = _toroidal_offsets(np.arange(grid, dtype=np.float64), cy, grid)[:, None]
    dc = _toroidal_offsets(np.arange(grid, dtype=np.float64), cx, grid)[None, :]
    name = SHAPE_NAMES[shape_idx]
    if name == "blob":
        s = grid / 6.0
        return np.exp(-(dr * dr + dc * dc) / (2.0 * s * s))
    if name == "hbar":
        s = grid / 12.0
        return np.exp(-(dr * dr) / (2.0 * s * s)) * np.ones_like(dc)
    if name == "vbar":
        s = grid / 12.0
        return np.ones_like(dr) * np.exp(-(dc * dc) / (2.0 * s * s))
    # ring: Gaussian shell at radius grid/4
    rho = np.sqrt(dr * dr + dc * dc)
    s = grid / 12.0
    return np.exp(-((rho - grid / 4.0) ** 2) / (2.0 * s * s))


def _make_frame(cfg: SynthConfig, shape_idx: int, cx: float, cy: float,
                crng: Xorshift64Star) -> Frame:
    img = render_shape(shape_idx, cfg.grid, cx, cy)
    if cfg.noise_sigma > 0:
        noise = np.array(crng.normals(cfg.grid * cfg.grid)).reshape(cfg.grid, cfg.grid)
        img = np.clip(img + cfg.noise_sigma * noise, 0.0, 1.0)
    return Frame(cfg.grid, cfg.grid, img.ravel())


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
    clips = []
    for i in range(cfg.num_clips):
        crng = Xorshift64Star(derive_seed(cfg.seed, i))
        shape_idx = i % cfg.shapes
        x, y = float(crng.randint(cfg.grid)), float(crng.randint(cfg.grid))
        vx, vy = crng.choice(cfg.velocity_set)
        frames = []
        for _ in range(cfg.clip_len):
            frames.append(_make_frame(cfg, shape_idx, x, y, crng))
            if cfg.motion_mode == "jerky":
                vx, vy = crng.choice(cfg.velocity_set)
            x, y = x + vx, y + vy
        clips.append(Clip(f"clip{i:04d}", frames, 1.0))
    return UnlabeledSet(tuple(clips))


def gen_labeled(cfg: SynthConfig, per_class: int) -> LabeledSet:
    """Single frames of each shape class at seeded random positions.

    Positions are continuous (not snapped to cells), so sets generated
    from different seeds share no identical images.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    rng = Xorshift64Star(derive_seed(cfg.seed, _LABELED_STREAM))
    images, labels = [], []
    for cls in range(cfg.shapes):
        for _ in range(per_class):
            cx, cy = rng.uniform() * cfg.grid, rng.uniform() * cfg.grid
            images.append(_make_frame(cfg, cls, cx, cy, rng))
            labels.append(cls)
    return LabeledSet(tuple(images), tuple(labels), cfg.shapes)


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
