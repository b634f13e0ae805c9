"""Frames, clips, labeled/unlabeled datasets, preprocessing and on-disk formats.

Images are grayscale, stored as flat float64 arrays in row-major order.
Raw pixel values live in [0, 1]; after :func:`preprocess` they are
unbounded (zero mean, unit variance per image).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STD_FLOOR = 1e-8

_WHITESPACE = b" \t\r\n\v\f"


class PgmFormatError(ValueError):
    """Malformed PGM header or payload."""


class ManifestError(ValueError):
    """Malformed or unresolvable dataset manifest."""


@dataclass(frozen=True, eq=False)
class Frame:
    """A single grayscale image: ``pixels`` has length ``width * height``."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"frame dimensions must be >= 1, got {self.width}x{self.height}")
        px = np.array(self.pixels, dtype=np.float64).ravel()
        if px.size != self.width * self.height:
            raise ValueError(
                f"pixel count {px.size} does not match {self.width}x{self.height}"
            )
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    def grid(self) -> np.ndarray:
        """Pixels reshaped to (height, width)."""
        return self.pixels.reshape(self.height, self.width)


@dataclass(frozen=True, eq=False)
class Clip:
    """An ordered frame sequence with a fixed frame period in seconds.

    ``clip_id`` must contain no whitespace (it is used as a token in
    text serialization formats).
    """

    clip_id: str
    frames: tuple
    frame_period: float

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.clip_id or any(c.isspace() for c in self.clip_id):
            raise ValueError(f"bad clip_id {self.clip_id!r}")
        if not self.frames:
            raise ValueError(f"clip {self.clip_id!r} has no frames")
        if not self.frame_period > 0:
            raise ValueError(f"frame_period must be > 0, got {self.frame_period}")
        w, h = self.frames[0].width, self.frames[0].height
        for t, f in enumerate(self.frames):
            if f.width != w or f.height != h:
                raise ValueError(
                    f"clip {self.clip_id!r}: frame {t} is {f.width}x{f.height}, expected {w}x{h}"
                )


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Images with integer class labels in [0, num_classes)."""

    images: tuple
    labels: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "labels", tuple(int(y) for y in self.labels))
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        for y in self.labels:
            if not 0 <= y < self.num_classes:
                raise ValueError(f"label {y} out of range [0, {self.num_classes})")

    def __len__(self):
        return len(self.images)


@dataclass(frozen=True, eq=False)
class UnlabeledSet:
    """A corpus of clips with unique ids."""

    clips: tuple

    def __post_init__(self):
        object.__setattr__(self, "clips", tuple(self.clips))
        if not self.clips:
            raise ValueError("unlabeled set has no clips")
        ids = [c.clip_id for c in self.clips]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate clip ids: {dupes}")

    def clip_map(self) -> dict:
        return {c.clip_id: c for c in self.clips}


def preprocess(frame: Frame) -> Frame:
    """Per-image standardization: subtract the mean, divide by the
    population standard deviation (floored at ``STD_FLOOR``).

    Constant frames map to all zeros.
    """
    p = frame.pixels
    centered = p - p.mean()
    return Frame(frame.width, frame.height, centered / max(p.std(), STD_FLOOR))


def prep_stack(frames) -> np.ndarray:
    """Preprocess and flatten a sequence of same-sized frames into an (n, w*h) array."""
    X = np.stack([f.pixels for f in frames])
    mu = X.mean(axis=1, keepdims=True)
    sd = np.maximum(X.std(axis=1, keepdims=True), STD_FLOOR)
    return (X - mu) / sd


# ---------------------------------------------------------------------------
# Output files

def write_atomic(path, content) -> None:
    """Write ``content`` (str or bytes) to ``path`` so that readers see the
    previous file or the complete new one, never a partial write.

    The content goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``. If writing fails, the
    temporary file is removed and ``path`` is left as it was. The bytes
    written are those of ``Path.write_text`` / ``Path.write_bytes``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(content, bytes):
            tmp.write_bytes(content)
        else:
            tmp.write_text(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# PGM input/output (P5 binary preferred; P2 ASCII accepted on read)

def _next_token(data: bytes, pos: int):
    """Next whitespace-delimited token, skipping '#' comments. None at EOF."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        return None, pos
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def load_pgm(path) -> Frame:
    """Read a binary (P5) or ASCII (P2) portable graymap, scaling pixels to [0, 1]."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"{path}: unsupported magic {magic!r}")
    header = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(data, pos)
        if tok is None:
            raise PgmFormatError(f"{path}: header ends before {name}")
        try:
            header.append(int(tok))
        except ValueError:
            raise PgmFormatError(f"{path}: bad {name} token {tok!r}") from None
    width, height, maxval = header
    if width < 1 or height < 1:
        raise PgmFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise PgmFormatError(f"{path}: maxval {maxval} out of range (0, 65535]")

    count = width * height
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmFormatError(f"{path}: missing whitespace after maxval")
        pos += 1
        wide = maxval > 255
        need = count * (2 if wide else 1)
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise OSError(f"{path}: truncated P5 payload ({len(payload)} of {need} bytes)")
        arr = np.frombuffer(payload, dtype=">u2" if wide else np.uint8).astype(np.float64)
    else:
        vals = np.empty(count, dtype=np.float64)
        for i in range(count):
            tok, pos = _next_token(data, pos)
            if tok is None:
                raise OSError(f"{path}: truncated P2 payload ({i} of {count} samples)")
            try:
                vals[i] = int(tok)
            except ValueError:
                raise PgmFormatError(f"{path}: bad P2 sample {tok!r}") from None
        arr = vals
    if arr.size and arr.max() > maxval:
        raise PgmFormatError(f"{path}: sample value exceeds maxval {maxval}")
    return Frame(width, height, arr / maxval)


def save_pgm(frame: Frame, path) -> None:
    """Write a binary P5 graymap, maxval 255; pixels are clamped to [0, 1]
    and quantized by round(p * 255)."""
    q = np.rint(np.clip(frame.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + q.tobytes())


# ---------------------------------------------------------------------------
# Manifests
#
# Unlabeled: one line per clip, `clip_id<TAB>frame_period<TAB>path1,path2,...`
# Labeled:   header `classes<TAB>C`, then one `image_path<TAB>label` per line.
# Paths are relative to the manifest's directory; lines starting '#' ignored.

def _significant_lines(path: Path):
    out = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def load_manifest(path):
    """Load a manifest file, returning an UnlabeledSet or a LabeledSet.

    A leading `classes<TAB>C` header marks a labeled manifest.
    """
    path = Path(path)
    lines = _significant_lines(path)
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    if lines[0][1].split("\t")[0] == "classes":
        return _load_labeled(path, lines)
    return _load_unlabeled(path, lines)


def _resolve_frame(base: Path, rel: str, lineno: int, manifest: Path) -> Frame:
    target = base / rel
    if not target.is_file():
        raise ManifestError(f"{manifest}: line {lineno}: missing frame file {rel!r}")
    return load_pgm(target)


def _load_unlabeled(path: Path, lines) -> UnlabeledSet:
    base = path.parent
    clips = []
    seen = set()
    for lineno, line in lines:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ManifestError(f"{path}: line {lineno}: expected 3 tab-separated fields")
        clip_id, period_s, path_list = parts
        if clip_id in seen:
            raise ManifestError(f"{path}: line {lineno}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        try:
            period = float(period_s)
        except ValueError:
            raise ManifestError(
                f"{path}: line {lineno}: bad frame_period {period_s!r}"
            ) from None
        frames = [
            _resolve_frame(base, rel, lineno, path) for rel in path_list.split(",")
        ]
        try:
            clips.append(Clip(clip_id, frames, period))
        except ValueError as e:
            raise ManifestError(f"{path}: line {lineno}: {e}") from None
    return UnlabeledSet(tuple(clips))


def _load_labeled(path: Path, lines) -> LabeledSet:
    base = path.parent
    head = lines[0][1].split("\t")
    if len(head) != 2:
        raise ManifestError(f"{path}: bad classes header {lines[0][1]!r}")
    try:
        num_classes = int(head[1])
    except ValueError:
        raise ManifestError(f"{path}: bad class count {head[1]!r}") from None
    images, labels = [], []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(f"{path}: line {lineno}: expected 2 tab-separated fields")
        rel, label_s = parts
        try:
            label = int(label_s)
        except ValueError:
            raise ManifestError(f"{path}: line {lineno}: bad label {label_s!r}") from None
        if not 0 <= label < num_classes:
            raise ManifestError(
                f"{path}: line {lineno}: label {label} out of range [0, {num_classes})"
            )
        images.append(_resolve_frame(base, rel, lineno, path))
        labels.append(label)
    return LabeledSet(tuple(images), tuple(labels), num_classes)


def write_unlabeled(u: UnlabeledSet, out_dir, manifest_name="unlabeled.txt") -> Path:
    """Save every frame as PGM under ``out_dir/frames/<clip_id>/`` and write a manifest."""
    out = Path(out_dir)
    lines = []
    for clip in u.clips:
        clip_dir = out / "frames" / clip.clip_id
        clip_dir.mkdir(parents=True, exist_ok=True)
        rels = []
        for t, frame in enumerate(clip.frames):
            rel = f"frames/{clip.clip_id}/{t:04d}.pgm"
            save_pgm(frame, out / rel)
            rels.append(rel)
        lines.append(f"{clip.clip_id}\t{clip.frame_period!r}\t{','.join(rels)}")
    manifest = out / manifest_name
    write_atomic(manifest, "\n".join(lines) + "\n")
    return manifest


def write_labeled(s: LabeledSet, out_dir, manifest_name="labeled.txt", image_dir=None) -> Path:
    """Save images as PGM and write a labeled manifest with a classes header."""
    out = Path(out_dir)
    subdir = image_dir if image_dir is not None else Path(manifest_name).stem
    (out / subdir).mkdir(parents=True, exist_ok=True)
    lines = [f"classes\t{s.num_classes}"]
    for i, (img, label) in enumerate(zip(s.images, s.labels)):
        rel = f"{subdir}/{i:05d}.pgm"
        save_pgm(img, out / rel)
        lines.append(f"{rel}\t{label}")
    manifest = out / manifest_name
    write_atomic(manifest, "\n".join(lines) + "\n")
    return manifest
