"""Clips, labeled/unlabeled datasets, preprocessing and on-disk formats.

An image is a grayscale (height, width) float64 array, and an image set
(a clip's frames, a labeled set's images) is one (n, height, width)
array. Raw pixel values live in [0, 1]; after :func:`prep_stack` each
image is one flat row, unbounded (zero mean, unit variance per image).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

STD_FLOOR = 1e-8
# every memory-bounded pass cuts its rows by _blocks: PREP_BLOCK_BYTES // share bytes
# of rows per block (at least one row), and a tail under a quarter block joins the last
PREP_BLOCK_BYTES = 1 << 20

UNLABELED_MANIFEST = "unlabeled.txt"
LABELED_MANIFEST = "labeled.txt"

# one PGM token after any whitespace and comments: a '#' that starts a token
# comments out the rest of its line. The token is empty only at end of data.
# In a bytes pattern \s is the six ASCII whitespace bytes " \t\n\r\f\v".
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")

# _significant_lines splits a file's lines this many characters (through the
# next "\n") at a time, so no list of every line is built
LINE_BLOCK_CHARS = 1 << 14


class PgmFormatError(ValueError):
    """Malformed PGM header or payload."""


class ManifestError(ValueError):
    """Malformed or unresolvable dataset manifest."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _image_stack(images) -> np.ndarray:
    """``images`` (an array, viewed, or a sequence of same-sized images,
    stacked) as a read-only (n, height, width) float64 array. Any other
    shape, or an image with no pixels, is a ValueError."""
    arr = np.asarray(images, dtype=np.float64).view()
    if arr.ndim != 3 or 0 in arr.shape[1:]:
        raise ValueError(f"expected an (n, height, width) image stack, got shape {arr.shape}")
    return _read_only(arr)


@dataclass(frozen=True, eq=False)
class Clip:
    """An ordered frame sequence with a fixed frame period in seconds.

    ``frames`` is one read-only (n, height, width) array (see
    :func:`_image_stack`). ``clip_id`` must contain no whitespace (it is
    used as a token in text serialization formats).
    """

    clip_id: str
    frames: np.ndarray
    frame_period: float

    def __post_init__(self):
        object.__setattr__(self, "frames", _image_stack(self.frames))
        if not self.clip_id or any(c.isspace() for c in self.clip_id):
            raise ValueError(f"bad clip_id {self.clip_id!r}")
        if not len(self.frames):
            raise ValueError(f"clip {self.clip_id!r} has no frames")
        if not (np.isfinite(self.frame_period) and self.frame_period > 0):
            raise ValueError(f"frame_period must be finite and > 0, got {self.frame_period}")


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Images with integer class labels in [0, num_classes). ``images`` is
    one read-only (n, height, width) array, as :attr:`Clip.frames` is, and
    ``labels`` one read-only intp array of n labels. Labels of any other
    dtype (float, bool, str) or shape are a ValueError."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "images", _image_stack(self.images))
        y = np.array(self.labels)
        if y.ndim != 1 or (y.size and y.dtype.kind not in "iu"):
            raise ValueError(f"labels must be 1-D integers, got {y.dtype} of shape {y.shape}")
        if len(self.images) != len(y):
            raise ValueError(f"{len(self.images)} images vs {len(y)} labels")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        bad = y[(y < 0) | (y >= self.num_classes)]
        if bad.size:
            raise ValueError(f"label {bad[0]} out of range [0, {self.num_classes})")
        object.__setattr__(self, "labels", _read_only(y.astype(np.intp, copy=False)))

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

    @cached_property
    def starts(self) -> np.ndarray:
        """The corpus rows: clip c's frame t is row ``starts[c] + t`` of :attr:`table`,
        and ``starts[-1]`` is the frame count. Read-only intp, one per clip, plus one."""
        return _read_only(np.cumsum([0] + [len(c.frames) for c in self.clips], dtype=np.intp))

    @cached_property
    def table(self) -> np.ndarray:
        """Every frame preprocessed and flattened, one row per corpus row
        (see :attr:`starts`). Built once per corpus and read-only, so every
        resolved tuple set of this corpus shares it."""
        return _read_only(prep_stack([f for clip in self.clips for f in clip.frames]))


def _blocks(n: int, row_bytes: int, share: int = 1):
    """(start, stop) of the blocks of a pass over n rows of ``row_bytes`` each
    (see PREP_BLOCK_BYTES), each at most 1.25 shares. The tail rule keeps GEMM
    blocks long: a short one can take a BLAS kernel with other low-order bits.
    Blocks keep one pass's bits only at the shapes and kernel checked (README,
    "Bounded passes"): not at 72x72 images, 333 kNN references or Haswell."""
    rows = max(1, PREP_BLOCK_BYTES // share // max(1, row_bytes))
    edges = [0, *range(rows, n - max(1, rows // 4) + 1, rows), n] if n else [0]
    return zip(edges, edges[1:])


def prep_stack(images) -> np.ndarray:
    """Standardize and flatten same-sized images (an (n, h, w) array, or a
    sequence of (h, w) arrays) into a new (n, h*w) array: each row minus
    its mean, divided by its population standard deviation floored at
    ``STD_FLOOR``, so a constant image maps to zeros.

    The stacked array is the only full-size one: it is standardized in
    place one :func:`_blocks` block of share 8 at a time, so the
    temporaries of the std are an eighth of a block. Every operation is per
    row, so the result is bit-identical to standardizing the whole array at
    once."""
    X = np.array(images, dtype=np.float64)
    X = X.reshape(len(X), int(np.prod(X.shape[1:])))  # (0, h*w) for no images
    for a, b in _blocks(len(X), 8 * X.shape[1], 8):
        B = X[a:b]
        mu = B.mean(axis=1, keepdims=True)
        sd = np.maximum(B.std(axis=1, keepdims=True), STD_FLOOR)
        B -= mu
        B /= sd
    return X


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


def _decimal(tok) -> bool:
    """True when ``tok`` (str or bytes) is ASCII digits only: the one form of
    an integer field read from text (no sign, "_" or non-ASCII digit)."""
    return tok.isascii() and tok.isdigit()


# the one form of a real field read from text: float()'s ASCII forms (sign,
# digits, point, exponent, inf and nan), without the "_", blanks and
# non-ASCII digits that float() also takes
_REAL = re.compile(r"[+-]?(?:inf(?:inity)?|nan|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?)",
                   re.ASCII | re.IGNORECASE)


# ---------------------------------------------------------------------------
# PGM input/output (P5 binary preferred; P2 ASCII accepted on read)

def load_pgm(path) -> np.ndarray:
    """Read a binary (P5) or ASCII (P2) portable graymap as a (height, width)
    array, scaling pixels to [0, 1]."""
    data = Path(path).read_bytes()
    m = _TOKEN.match(data)
    magic, pos = m[1] or None, m.end()
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"{path}: unsupported magic {magic!r}")
    header = []
    for name in ("width", "height", "maxval"):
        m = _TOKEN.match(data, pos)
        tok, pos = m[1], m.end()
        if not tok:
            raise PgmFormatError(f"{path}: header ends before {name}")
        if not _decimal(tok):
            raise PgmFormatError(f"{path}: bad {name} token {tok!r}")
        header.append(int(tok))
    width, height, maxval = header
    if width < 1 or height < 1:
        raise PgmFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 65535:
        raise PgmFormatError(f"{path}: maxval {maxval} out of range (0, 65535]")

    count = width * height
    if magic == b"P5":
        if not data[pos : pos + 1].isspace():
            raise PgmFormatError(f"{path}: missing whitespace after maxval")
        pos += 1
        wide = maxval > 255
        need = count * (2 if wide else 1)
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise OSError(f"{path}: truncated P5 payload ({len(payload)} of {need} bytes)")
        arr = np.frombuffer(payload, dtype=">u2" if wide else np.uint8).astype(np.float64)
    else:
        # counted before any array is built: a header larger than the file sizes none
        vals = []
        for tok in [t for t in _TOKEN.findall(data, pos) if t][:count]:
            if not _decimal(tok):
                raise PgmFormatError(f"{path}: bad P2 sample {tok!r}")
            vals.append(int(tok))
        if len(vals) < count:
            raise OSError(f"{path}: truncated P2 payload ({len(vals)} of {count} samples)")
        arr = np.array(vals, dtype=np.float64)
    if arr.size and arr.max() > maxval:
        raise PgmFormatError(f"{path}: sample value exceeds maxval {maxval}")
    return (arr / maxval).reshape(height, width)


def save_pgm(image: np.ndarray, path) -> None:
    """Write a (height, width) image as a binary P5 graymap, maxval 255;
    pixels are clamped to [0, 1] and quantized by round(p * 255)."""
    height, width = np.shape(image)
    q = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    write_atomic(path, header + q.tobytes())


# ---------------------------------------------------------------------------
# Manifests
#
# Unlabeled: one line per clip, `clip_id<TAB>frame_period<TAB>path1,path2,...`
# Labeled:   header `classes<TAB>C`, then one `image_path<TAB>label` per line.
# Paths are relative to the manifest's directory; lines starting '#' ignored.

def _significant_lines(path):
    """(line number, stripped line) of each line of ``path`` that is not blank
    or a '#' comment, numbered as :meth:`str.splitlines` cuts the text and
    yielded one at a time. The file is read and decoded at call time, so a
    file that is not text is a ValueError naming ``path`` from the call."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not {e.encoding} text: {e.reason}") from None
    return _numbered_lines(text)


def _numbered_lines(text):
    """:func:`_significant_lines` of ``text``, split into lines one block at
    a time. A block ends just after a "\n", which ends a line wherever it
    stands, so the blocks' lines are the text's lines."""
    lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + LINE_BLOCK_CHARS) + 1 or len(text)
        for raw in text[start:end].splitlines():
            lineno += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line
        start = end


def _text_table(header: str, rows) -> str:
    """The text of a table: the ``header`` line, then each row's fields
    joined by commas, a float (a np.float64 too) written as
    ``repr(float(v))`` and any other field as ``str(v)``."""
    lines = [header] + [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def load_manifest(path):
    """Load a manifest file, returning an UnlabeledSet or a LabeledSet.

    A leading `classes<TAB>C` header marks a labeled manifest.
    """
    path = Path(path)
    lines = list(_significant_lines(path))
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    if lines[0][1].split("\t")[0] == "classes":
        return _load_labeled(path, lines)
    return _load_unlabeled(path, lines)


def _load_images(manifest: Path, entries) -> np.ndarray:
    """The PGMs of ``entries`` (at least one (line number, path relative to
    ``manifest``) pair) as one (n, height, width) array. A missing file, or
    one of another size than the first, is a ManifestError naming its line."""
    for i, (lineno, rel) in enumerate(entries):
        target = manifest.parent / rel
        if not target.is_file():
            raise ManifestError(f"{manifest}: line {lineno}: missing frame file {rel!r}")
        img = load_pgm(target)
        if i == 0:
            images = np.empty((len(entries),) + img.shape)
        if img.shape != images.shape[1:]:
            raise ManifestError(f"{manifest}: line {lineno}: {rel!r} is {img.shape[1]}x"
                                f"{img.shape[0]}, expected {images.shape[2]}x{images.shape[1]}")
        images[i] = img
    return images


def _load_unlabeled(path: Path, lines) -> UnlabeledSet:
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
        if not _REAL.fullmatch(period_s):
            raise ManifestError(f"{path}: line {lineno}: bad frame_period {period_s!r}")
        period = float(period_s)
        frames = _load_images(path, [(lineno, rel) for rel in path_list.split(",")])
        try:
            clips.append(Clip(clip_id, frames, period))
        except ValueError as e:
            raise ManifestError(f"{path}: line {lineno}: {e}") from None
    return UnlabeledSet(tuple(clips))


def _load_labeled(path: Path, lines) -> LabeledSet:
    head = lines[0][1].split("\t")
    if len(head) != 2:
        raise ManifestError(f"{path}: bad classes header {lines[0][1]!r}")
    if not _decimal(head[1]):
        raise ManifestError(f"{path}: bad class count {head[1]!r}")
    num_classes = int(head[1])
    entries, labels = [], []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 2:
            raise ManifestError(f"{path}: line {lineno}: expected 2 tab-separated fields")
        rel, label_s = parts
        if not _decimal(label_s):
            raise ManifestError(f"{path}: line {lineno}: bad label {label_s!r}")
        label = int(label_s)
        if not 0 <= label < num_classes:
            raise ManifestError(
                f"{path}: line {lineno}: label {label} out of range [0, {num_classes})"
            )
        entries.append((lineno, rel))
        labels.append(label)
    if not entries:
        raise ManifestError(f"{path}: labeled set is empty")
    return LabeledSet(_load_images(path, entries), labels, num_classes)


def write_unlabeled(u: UnlabeledSet, out_dir) -> Path:
    """Save frames as PGM under ``out_dir/frames/<clip_id>/`` and write ``unlabeled.txt``.
    A clip id that the manifest cannot read back is a ValueError before
    anything is written: one holding the frame list separator ",", one
    starting a comment line ("#"), and one that is not a directory name
    (holding "/" or NUL, or "." or "..")."""
    for clip in u.clips:
        cid = clip.clip_id
        if any(c in cid for c in ",/\0") or cid.startswith("#") or cid in (".", ".."):
            raise ValueError(f"clip {cid!r}: id cannot name a manifest frame directory")
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
    manifest = out / UNLABELED_MANIFEST
    write_atomic(manifest, "\n".join(lines) + "\n")
    return manifest


def write_labeled(s: LabeledSet, out_dir) -> Path:
    """Save images as PGM under ``out_dir/labeled/`` and write the manifest ``labeled.txt``."""
    out = Path(out_dir)
    (out / "labeled").mkdir(parents=True, exist_ok=True)
    lines = [f"classes\t{s.num_classes}"]
    for i, (img, label) in enumerate(zip(s.images, s.labels)):
        rel = f"labeled/{i:05d}.pgm"
        save_pgm(img, out / rel)
        lines.append(f"{rel}\t{label}")
    manifest = out / LABELED_MANIFEST
    write_atomic(manifest, "\n".join(lines) + "\n")
    return manifest
