import random
import re

import numpy as np
import pytest

from ssfa.data import (
    LINE_BLOCK_CHARS,
    PREP_BLOCK_BYTES,
    STD_FLOOR,
    Clip,
    LabeledSet,
    ManifestError,
    PgmFormatError,
    UnlabeledSet,
    _significant_lines,
    load_manifest,
    load_pgm,
    prep_stack,
    save_pgm,
    write_labeled,
    write_unlabeled,
)


def test_image_sets_validate_their_shape():
    assert Clip("c", [[[0.0, 0.1], [0.2, 0.3]]], 1.0).frames.shape == (1, 2, 2)
    for bad in ([0.0, 0.1], np.zeros((2, 2)), np.zeros((1, 0, 2)), np.zeros((1, 2, 2, 1))):
        with pytest.raises(ValueError, match="image stack"):
            Clip("c", bad, 1.0)
        with pytest.raises(ValueError, match="image stack"):
            LabeledSet(bad, [0] * len(bad), 1)
    assert len(LabeledSet(np.zeros((0, 3, 2)), [], 2)) == 0


def test_image_sets_are_read_only():
    # views of the array they are given, so the caller's array stays writable
    px = np.zeros((2, 1, 2))
    clip, s = Clip("c", px, 1.0), LabeledSet(px, [0, 1], 2)
    for arr in (clip.frames, s.images):
        assert np.shares_memory(arr, px)
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 5.0
    px[0, 0, 0] = 0.5
    assert clip.frames[0, 0, 0] == s.images[0, 0, 0] == 0.5


def test_clip_rejects_mixed_dims_and_bad_period():
    a = np.zeros((2, 2))
    b = np.zeros((1, 2))
    with pytest.raises(ValueError):
        Clip("c", [a, b], 1.0)
    with pytest.raises(ValueError):
        Clip("c", [a], 0.0)
    with pytest.raises(ValueError):
        Clip("bad id", [a], 1.0)


@pytest.mark.parametrize("period", ["inf", "1e999", "-inf"])
def test_manifest_frame_period_must_be_finite(tmp_path, period):
    # an infinite period used to load, and mining then dropped the clip
    # with only a warning
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "u.txt"
    m.write_text(f"clipA\t1.0\t{paths[0]}\n# c\nclipB\t{period}\t{paths[1]}\n")
    message = f"{m}: line 3: frame_period must be finite and > 0, got {float(period)}"
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(m)


def test_labeled_set_bounds():
    img = np.array([[0.5]])
    s = LabeledSet([img, img], [0, 1], 2)
    with pytest.raises(ValueError):
        LabeledSet([img], [2], 2)
    with pytest.raises(ValueError):
        LabeledSet([img, img], [0], 2)
    with pytest.raises(ValueError, match="num_classes must be >= 1"):
        LabeledSet([img], [0], 0)
    # labels were read with int(): 0.7 and 1.9 became 0 and 1, "1" and True both 1
    for labels in ([0.7, 1.9], ["1", True], [True, False], [[0, 1]]):
        with pytest.raises(ValueError, match="labels must be 1-D integers"):
            LabeledSet([img, img], labels, 2)
    assert s.labels.dtype == np.intp and not s.labels.flags.writeable


def test_unlabeled_set_unique_ids():
    f = np.zeros((1, 1))
    c = Clip("a", [f], 1.0)
    with pytest.raises(ValueError):
        UnlabeledSet([c, Clip("a", [f], 1.0)])


# ---------------------------------------------------------------------------
# PGM

def test_load_pgm_p5_exact_values(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    f = load_pgm(p)
    assert f.shape == (2, 2)
    np.testing.assert_allclose(f, [[0.0, 1.0], [128 / 255, 64 / 255]])


def test_load_pgm_p2_and_comments(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_text("P2\n# a comment\n2 1\n# another\n4\n0 4\n")
    f = load_pgm(p)
    np.testing.assert_allclose(f, [[0.0, 1.0]])


def test_load_pgm_p2_comment_rule_and_errors(tmp_path):
    # a '#' that starts a token comments out the rest of its line; one
    # inside a token is part of the sample
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2 3 1 9\r\n1 #2\r\n\t#x 3\n2\v9 junk past the raster")
    np.testing.assert_allclose(load_pgm(p), [[1 / 9, 2 / 9, 1.0]])
    p.write_bytes(b"P2 2 1 9\n1 2#x\n")
    with pytest.raises(PgmFormatError, match=r"bad P2 sample b'2#x'"):
        load_pgm(p)
    p.write_bytes(b"P2 2 2 9\n1 #c 2\n3\n")
    with pytest.raises(OSError, match=r"truncated P2 payload \(2 of 4 samples\)"):
        load_pgm(p)


# a 20-byte P2 file whose header claims 10^10 samples
HUGE_P2_HEADER = b"P2 100000 100000 9 1"


def test_load_pgm_p2_header_larger_than_file_allocates_nothing(tmp_path):
    import tracemalloc

    p = tmp_path / "huge.pgm"
    p.write_bytes(HUGE_P2_HEADER)
    assert len(HUGE_P2_HEADER) == 20
    tracemalloc.start()
    try:
        with pytest.raises(OSError, match=r"truncated P2 payload \(1 of 10000000000 samples\)"):
            load_pgm(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# The PGM reader before its header and raster shared one tokenizer: a
# hand-written header scan and a comment-stripping split of the raster. The
# fuzz test below holds load_pgm to it.
_REF_WHITESPACE = b" \t\r\n\v\f"
_REF_COMMENT = re.compile(rb"(?<![^ \t\r\n\v\f])#[^\r\n]*")


def _ref_next_token(data, pos):
    n = len(data)
    while pos < n:
        c = data[pos]
        if c == 0x23:  # '#'
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        elif c in _REF_WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        return None, pos
    start = pos
    while pos < n and data[pos] not in _REF_WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _ref_load_pgm(path):
    data = path.read_bytes()
    magic, pos = _ref_next_token(data, 0)
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"{path}: unsupported magic {magic!r}")
    header = []
    for name in ("width", "height", "maxval"):
        tok, pos = _ref_next_token(data, pos)
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
        if pos >= len(data) or data[pos] not in _REF_WHITESPACE:
            raise PgmFormatError(f"{path}: missing whitespace after maxval")
        pos += 1
        wide = maxval > 255
        need = count * (2 if wide else 1)
        payload = data[pos : pos + need]
        if len(payload) < need:
            raise OSError(f"{path}: truncated P5 payload ({len(payload)} of {need} bytes)")
        arr = np.frombuffer(payload, dtype=">u2" if wide else np.uint8).astype(np.float64)
    else:
        vals = []
        for tok in _REF_COMMENT.sub(b"", data[pos:]).split()[:count]:
            try:
                vals.append(int(tok))
            except ValueError:
                raise PgmFormatError(f"{path}: bad P2 sample {tok!r}") from None
        if len(vals) < count:
            raise OSError(f"{path}: truncated P2 payload ({len(vals)} of {count} samples)")
        arr = np.array(vals, dtype=np.float64)
    if arr.size and arr.max() > maxval:
        raise PgmFormatError(f"{path}: sample value exceeds maxval {maxval}")
    return (arr / maxval).reshape(height, width)


def _fuzz_pgm(rng):
    """Short PGM-like bytes: a magic and three header tokens, then a P2
    or P5 raster, joined by runs of the six whitespace bytes and '#'
    comments. Each part is usually well formed, so most cases reach the
    raster; some are cut short."""

    def either(good, bad):
        return rng.choice(good if rng.random() < 0.9 else bad)

    def sep():
        parts = [rng.choice(_REF_WHITESPACE)] if rng.random() < 0.9 else []
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.4:
                text = bytes(rng.choices(b"ab9 #\t", k=rng.randrange(4)))
                parts.append(ord("#"))
                parts.extend(text + rng.choice([b"\n", b"\r", b"\r\n", b"\n", b""]))
            else:
                parts.append(rng.choice(_REF_WHITESPACE))
        return bytes(parts)

    magic = either([b"P2", b"P5"], [b"P6", b"p2", b"P", b""])
    header = [either([b"1", b"2", b"3", b"02"], [b"0", b"x", b"1#"]) for _ in range(2)]
    header.append(either([b"255", b"255", b"9", b"256"], [b"0", b"65536", b"7a"]))
    if (magic == b"P5") == (rng.random() < 0.9):
        raster = sep() + rng.randbytes(rng.randrange(20))
    else:
        samples = [either([b"0", b"1", b"7", b"12"], [b"300", b"a", b"3#"])
                   for _ in range(rng.randrange(12))]
        raster = b"".join(sep() + t for t in samples) + sep()
    data = magic + b"".join(sep() + t for t in header) + raster
    return data[: rng.randrange(len(data) + 1)] if rng.random() < 0.2 else data


def test_load_pgm_reads_like_the_reference_reader(tmp_path):
    rng = random.Random(2024)
    p = tmp_path / "f.pgm"
    read = 0
    for _ in range(3000):
        data = _fuzz_pgm(rng)
        p.write_bytes(data)
        results = []
        for reader in (load_pgm, _ref_load_pgm):
            try:
                f = reader(p)
                results.append((f.shape, f.tolist()))
            except (ValueError, OSError) as e:
                results.append((type(e), str(e)))
        assert results[0] == results[1], data
        read += isinstance(results[0][0], tuple)
    assert read >= 400, read  # 422 of the 3000 cases read a frame


def test_load_pgm_16bit(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n" + (30000).to_bytes(2, "big"))
    f = load_pgm(p)
    np.testing.assert_allclose(f, [[30000 / 65535]])


def test_load_pgm_unsupported_magic(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(PgmFormatError):
        load_pgm(p)


def test_load_pgm_truncated_is_io_error(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(OSError):
        load_pgm(p)


def test_load_pgm_malformed_header(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\ntwo 2\n255\n" + bytes(4))
    with pytest.raises(PgmFormatError):
        load_pgm(p)


def test_save_pgm_extreme_payloads(tmp_path):
    zero = np.zeros((2, 2))
    one = np.ones((2, 2))
    save_pgm(zero, tmp_path / "z.pgm")
    save_pgm(one, tmp_path / "o.pgm")
    assert (tmp_path / "z.pgm").read_bytes().endswith(b"\x00" * 4)
    assert (tmp_path / "o.pgm").read_bytes().endswith(b"\xff" * 4)


def test_pgm_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(30):
        f = rng.uniform(0, 1, size=(4, 5))
        save_pgm(f, tmp_path / "r.pgm")
        g = load_pgm(tmp_path / "r.pgm")
        assert g.shape == (4, 5)
        assert np.max(np.abs(f - g)) <= 1 / 510 + 1e-12


# ---------------------------------------------------------------------------
# per-image standardization

def _standardize(f):
    return prep_stack([f])[0]


def test_preprocess_constant_frame_is_zero():
    f = np.full((2, 2), 0.5)
    np.testing.assert_array_equal(_standardize(f), np.zeros(4))


def test_preprocess_two_pixel_frame():
    # mean 0.5, population std 0.5 -> (-1, +1)
    f = np.array([[0.0, 1.0]])
    np.testing.assert_allclose(_standardize(f), [-1.0, 1.0])


def test_preprocess_zero_mean_unit_std():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.uniform(0, 1, (4, 4))
        out = _standardize(f)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-9


def test_preprocess_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = rng.uniform(0, 1, (4, 4))
        once = _standardize(f)
        twice = _standardize(once.reshape(4, 4))
        assert np.max(np.abs(twice - once)) < 1e-9


def test_prep_stack_matches_preprocess():
    # a stacked batch standardizes each row as it would alone
    rng = np.random.default_rng(3)
    frames = rng.uniform(0, 1, (5, 3, 3))
    X = prep_stack(frames)
    for i, f in enumerate(frames):
        np.testing.assert_allclose(X[i], _standardize(f), atol=1e-15)
    assert X.tobytes() == prep_stack(list(frames)).tobytes()  # a sequence of images
    assert not np.shares_memory(X, frames)


def _prep_stack_one_shot(frames):
    # the whole-array standardization that the blocked prep_stack replaces
    X = frames.reshape(len(frames), -1).copy()
    mu = X.mean(axis=1, keepdims=True)
    sd = np.maximum(X.std(axis=1, keepdims=True), STD_FLOOR)
    X -= mu
    X /= sd
    return X


SMALL_BLOCK = 1 << 13  # 1024 float64 pixels: keeps the stacks of narrow frames small


@pytest.mark.parametrize("width", [1, 25, 256, 1024, 1025])
def test_prep_stack_blocks_are_bit_identical(monkeypatch, width):
    # row counts around the block edges (an eighth of PREP_BLOCK_BYTES); a
    # block of 128- or more-pixel frames is one row, and a 1025-pixel row is
    # wider than the whole block
    monkeypatch.setattr("ssfa.data.PREP_BLOCK_BYTES", SMALL_BLOCK)
    rng = np.random.default_rng(width)
    block = max(1, SMALL_BLOCK // 8 // (8 * width))
    for n in (1, max(1, block - 1), block, block + 1, 3 * block + 7):
        px = rng.uniform(0, 1, (n, width))
        px[n // 2] = 0.25                                  # constant
        px[-1] = 0.5 + 1e-10 * rng.standard_normal(width)  # std below STD_FLOOR
        frames = px[:, None, :]
        assert prep_stack(frames).tobytes() == _prep_stack_one_shot(frames).tobytes(), n


def test_prep_stack_holds_one_full_size_array():
    # the one-shot std allocated a second array the size of the result
    import tracemalloc

    frames = np.random.default_rng(5).uniform(0, 1, (256, 64, 64))
    tracemalloc.start()
    try:
        X = prep_stack(frames)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.nbytes >= 8 << 20
    # on top of the std's temporaries (an eighth of a block), numpy's
    # broadcast ops (the std's and the in-place subtract's) take a ufunc
    # buffer of np.getbufsize() float64s, 64 KiB
    assert peak <= X.nbytes + PREP_BLOCK_BYTES // 8 + (128 << 10)
    assert X.tobytes() == _prep_stack_one_shot(frames).tobytes()


# ---------------------------------------------------------------------------
# manifests

def _mini_clip_files(tmp_path):
    rng = np.random.default_rng(4)
    paths = []
    for t in range(3):
        f = np.full((2, 2), t / 3)  # distinguishable by value
        p = tmp_path / f"f{t}.pgm"
        save_pgm(f, p)
        paths.append(p.name)
    return paths


def test_unlabeled_manifest_round_trip(tmp_path):
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "u.txt"
    m.write_text("# comment line\nclipA\t0.5\t" + ",".join(paths) + "\n")
    u = load_manifest(m)
    assert isinstance(u, UnlabeledSet)
    clip = u.clips[0]
    assert clip.clip_id == "clipA" and clip.frame_period == 0.5
    assert len(clip.frames) == 3
    # frame order preserved exactly
    assert clip.frames.shape == (3, 2, 2)
    for t, frame in enumerate(clip.frames):
        assert abs(frame[0, 0] - round(t / 3 * 255) / 255) < 1e-12


def test_unlabeled_manifest_missing_file_names_it(tmp_path):
    m = tmp_path / "u.txt"
    m.write_text("clipA\t1.0\tnope.pgm\n")
    with pytest.raises(ManifestError, match="nope.pgm"):
        load_manifest(m)


def test_unlabeled_manifest_duplicate_clip_id(tmp_path):
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "u.txt"
    line = "clipA\t1.0\t" + paths[0]
    m.write_text(line + "\n" + line + "\n")
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(m)


def test_labeled_manifest_round_trip(tmp_path):
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "s.txt"
    m.write_text("classes\t2\n" + f"{paths[0]}\t0\n{paths[1]}\t1\n")
    s = load_manifest(m)
    assert isinstance(s, LabeledSet)
    assert (len(s), s.num_classes, s.labels.tolist()) == (2, 2, [0, 1])


def test_labeled_manifest_label_out_of_range(tmp_path):
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "s.txt"
    m.write_text("classes\t2\n" + f"{paths[0]}\t2\n")
    with pytest.raises(ManifestError, match="out of range"):
        load_manifest(m)


def test_manifest_clip_frames_of_another_size_name_their_line(tmp_path):
    # a clip is one array, so each frame must have the first frame's size
    paths = _mini_clip_files(tmp_path)
    save_pgm(np.zeros((3, 2)), tmp_path / "tall.pgm")
    m = tmp_path / "u.txt"
    m.write_text(f"clipA\t1.0\t{paths[0]}\n# c\nclipB\t1.0\t{paths[1]},tall.pgm\n")
    with pytest.raises(ManifestError, match=re.escape(f"{m}: line 3: ") + ".* 2x3, expected 2x2"):
        load_manifest(m)


def test_labeled_manifest_images_of_another_size_name_their_line(tmp_path):
    # a mixed-size labeled set used to load and fail when it was stacked
    paths = _mini_clip_files(tmp_path)
    save_pgm(np.zeros((3, 2)), tmp_path / "tall.pgm")
    m = tmp_path / "s.txt"
    m.write_text(f"classes\t2\n{paths[0]}\t0\n{paths[1]}\t1\ntall.pgm\t1\n")
    with pytest.raises(ManifestError,
                       match=re.escape(f"{m}: line 4: 'tall.pgm' is 2x3, expected 2x2")):
        load_manifest(m)


def test_header_only_labeled_manifest_is_a_manifest_error(tmp_path):
    m = tmp_path / "s.txt"
    m.write_text("classes\t2\n# no images\n")
    with pytest.raises(ManifestError, match=re.escape(f"{m}: labeled set is empty")):
        load_manifest(m)


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n\n", "empty manifest"),
    ("classes\t2\tx\nIMG\t0\n", "bad classes header 'classes\\t2\\tx'"),
    ("classes\t2\nIMG\t0\nIMG\n", "line 3: expected 2 tab-separated fields"),
], ids=["empty", "classes_header", "labeled_line_fields"])
def test_manifest_format_errors_name_the_file(tmp_path, text, message):
    m = tmp_path / "s.txt"
    m.write_text(text.replace("IMG", _mini_clip_files(tmp_path)[0]))
    with pytest.raises(ManifestError) as err:
        load_manifest(m)
    assert str(err.value) == f"{m}: {message}"


@pytest.mark.parametrize("period", ["1_0", "\u0661.\u0665", " 1.0", "0x1p0", "1.0f", ""],
                         ids=["underscore", "arabic_indic", "blank", "hex", "suffix", "empty"])
def test_manifest_frame_period_is_ascii(tmp_path, period):
    # float() read "1_0" as 10.0 and Arabic-Indic "1.5" as 1.5
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "u.txt"
    m.write_text(f"clipA\t1.0\t{paths[0]}\nclipB\t{period}\t{paths[1]}\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(f"{m}: line 2: bad frame_period {period!r}")):
        load_manifest(m)


@pytest.mark.parametrize("raw, message", [
    (b"P2 1 1 255\n-5\n", "bad P2 sample b'-5'"),
    (b"P2 2 1 255\n1 1_0\n", "bad P2 sample b'1_0'"),
    (b"P2 1 1 255\n+7\n", "bad P2 sample b'+7'"),
    (b"P5 +2 1 255\n\0\0", "bad width token b'+2'"),
    (b"P5 2 1 2_55\n\0\0", "bad maxval token b'2_55'"),
], ids=["p2_minus", "p2_underscore", "p2_plus", "width_plus", "maxval_underscore"])
def test_pgm_integer_fields_are_ascii_decimal(tmp_path, raw, message):
    # int() read a sign and "_": -5 loaded as a negative pixel, 1_0 as 10
    p = tmp_path / "f.pgm"
    p.write_bytes(raw)
    with pytest.raises(PgmFormatError, match=re.escape(f"{p}: {message}")):
        load_pgm(p)


@pytest.mark.parametrize("head, label, message", [
    ("1_0", "0", "bad class count '1_0'"),
    ("+4", "0", "bad class count '+4'"),
    ("4", "+1", "line 2: bad label '+1'"),
    ("4", "\u0663", "line 2: bad label '\u0663'"),
    ("4", " 1", "line 2: bad label ' 1'"),
], ids=["count_underscore", "count_plus", "label_plus", "label_arabic_indic", "label_blank"])
def test_labeled_manifest_integers_are_ascii_decimal(tmp_path, head, label, message):
    # int() read "1_0" as 10 classes and the labels "+1", Arabic-Indic
    # three and " 1" as 1, 3 and 1
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "s.txt"
    m.write_text(f"classes\t{head}\n{paths[0]}\t{label}\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=re.escape(f"{m}: {message}")):
        load_manifest(m)


@pytest.mark.parametrize("bad_id", ["a,b", "../esc", "..", ".", "#a", "a\0b"])
def test_write_unlabeled_refuses_ids_it_cannot_read_back(tmp_path, bad_id):
    # "," split the id on reload (missing frame file 'frames/a'), "/" or a
    # dot directory put the frames outside frames/<clip_id>/ ("../esc" wrote
    # out/esc/), "#a" made a comment line that reloads without the clip,
    # and NUL failed in mkdir after the clips before it were written; the
    # good clip first shows that nothing is written
    frames = [[[0.0, 1.0]]]
    u = UnlabeledSet([Clip("ok_1", frames, 0.5), Clip(bad_id, frames, 0.5)])
    with pytest.raises(ValueError, match=re.escape(f"clip {bad_id!r}")):
        write_unlabeled(u, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []
    u = UnlabeledSet([Clip("a.b-c_1", frames, 0.5)])
    assert load_manifest(write_unlabeled(u, tmp_path / "out")).clips[0].clip_id == "a.b-c_1"


def test_writers_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    clips = [
        Clip(f"c{i}", rng.uniform(0, 1, (4, 2, 3)), 1.0)
        for i in range(3)
    ]
    u = UnlabeledSet(clips)
    manifest = write_unlabeled(u, tmp_path / "out")
    u2 = load_manifest(manifest)
    assert [c.clip_id for c in u2.clips] == [c.clip_id for c in u.clips]
    for c, c2 in zip(u.clips, u2.clips):
        assert c2.frames.shape == c.frames.shape
        assert np.max(np.abs(c.frames - c2.frames)) <= 1 / 510 + 1e-12

    s = LabeledSet([clips[0].frames[0], clips[1].frames[1]], [0, 1], 2)
    manifest = write_labeled(s, tmp_path / "out2")
    s2 = load_manifest(manifest)
    assert np.array_equal(s2.labels, s.labels) and s2.num_classes == 2
    assert s2.images.shape == (2, 2, 3)
    assert np.max(np.abs(s.images - s2.images)) <= 1 / 510 + 1e-12


@pytest.mark.parametrize("block", [1, 2, 5, LINE_BLOCK_CHARS])
def test_significant_lines_cut_and_number_as_splitlines(tmp_path, monkeypatch, block):
    # the block-wise line reader keeps str.splitlines' cuts (every line
    # break it knows) and numbering, wherever the blocks end; the file is
    # read through universal newlines
    monkeypatch.setattr("ssfa.data.LINE_BLOCK_CHARS", block)
    pieces = ["a", "b c", " ", "\t", "#", "\n", "\r", "\r\n", "\v", "\f",
              "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
    rnd = random.Random(3)
    path = tmp_path / "lines.txt"
    for _ in range(500):
        text = "".join(rnd.choice(pieces) for _ in range(rnd.randrange(16)))
        path.write_bytes(text.encode())
        lines = enumerate(path.read_text().splitlines(), start=1)
        want = [(n, s.strip()) for n, s in lines if s.strip() and not s.strip().startswith("#")]
        assert list(_significant_lines(path)) == want, repr(text)


def test_significant_lines_rejects_non_text_at_call(tmp_path):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(ValueError, match="not utf-8 text"):
        _significant_lines(path)  # before any line is drawn
