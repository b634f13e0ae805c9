import numpy as np
import pytest

from ssfa.data import (
    Clip,
    Frame,
    LabeledSet,
    ManifestError,
    PgmFormatError,
    UnlabeledSet,
    load_manifest,
    load_pgm,
    prep_stack,
    save_pgm,
    write_labeled,
    write_unlabeled,
)


def test_frame_validates_pixel_count():
    Frame(2, 2, [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        Frame(2, 2, [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        Frame(0, 2, [])


def test_frame_pixels_are_read_only():
    f = Frame(2, 1, [0.1, 0.2])
    with pytest.raises(ValueError):
        f.pixels[0] = 5.0


def test_clip_rejects_mixed_dims_and_bad_period():
    a = Frame(2, 2, np.zeros(4))
    b = Frame(2, 1, np.zeros(2))
    with pytest.raises(ValueError):
        Clip("c", [a, b], 1.0)
    with pytest.raises(ValueError):
        Clip("c", [a], 0.0)
    with pytest.raises(ValueError):
        Clip("bad id", [a], 1.0)


def test_labeled_set_bounds():
    img = Frame(1, 1, [0.5])
    LabeledSet([img, img], [0, 1], 2)
    with pytest.raises(ValueError):
        LabeledSet([img], [2], 2)
    with pytest.raises(ValueError):
        LabeledSet([img, img], [0], 2)


def test_unlabeled_set_unique_ids():
    f = Frame(1, 1, [0.0])
    c = Clip("a", [f], 1.0)
    with pytest.raises(ValueError):
        UnlabeledSet([c, Clip("a", [f], 1.0)])


# ---------------------------------------------------------------------------
# PGM

def test_load_pgm_p5_exact_values(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    f = load_pgm(p)
    assert (f.width, f.height) == (2, 2)
    np.testing.assert_allclose(f.pixels, [0.0, 1.0, 128 / 255, 64 / 255])


def test_load_pgm_p2_and_comments(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_text("P2\n# a comment\n2 1\n# another\n4\n0 4\n")
    f = load_pgm(p)
    np.testing.assert_allclose(f.pixels, [0.0, 1.0])


def test_load_pgm_p2_comment_rule_and_errors(tmp_path):
    # a '#' that starts a token comments out the rest of its line; one
    # inside a token is part of the sample
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2 3 1 9\r\n1 #2\r\n\t#x 3\n2\v9 junk past the raster")
    np.testing.assert_allclose(load_pgm(p).pixels, [1 / 9, 2 / 9, 1.0])
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


def test_load_pgm_16bit(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n" + (30000).to_bytes(2, "big"))
    f = load_pgm(p)
    np.testing.assert_allclose(f.pixels, [30000 / 65535])


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
    zero = Frame(2, 2, np.zeros(4))
    one = Frame(2, 2, np.ones(4))
    save_pgm(zero, tmp_path / "z.pgm")
    save_pgm(one, tmp_path / "o.pgm")
    assert (tmp_path / "z.pgm").read_bytes().endswith(b"\x00" * 4)
    assert (tmp_path / "o.pgm").read_bytes().endswith(b"\xff" * 4)


def test_pgm_round_trip_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(30):
        f = Frame(5, 4, rng.uniform(0, 1, size=20))
        save_pgm(f, tmp_path / "r.pgm")
        g = load_pgm(tmp_path / "r.pgm")
        assert np.max(np.abs(f.pixels - g.pixels)) <= 1 / 510 + 1e-12


# ---------------------------------------------------------------------------
# per-image standardization

def _standardize(f):
    return prep_stack([f])[0]


def test_preprocess_constant_frame_is_zero():
    f = Frame(2, 2, np.full(4, 0.5))
    np.testing.assert_array_equal(_standardize(f), np.zeros(4))


def test_preprocess_two_pixel_frame():
    # mean 0.5, population std 0.5 -> (-1, +1)
    f = Frame(2, 1, [0.0, 1.0])
    np.testing.assert_allclose(_standardize(f), [-1.0, 1.0])


def test_preprocess_zero_mean_unit_std():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = Frame(4, 4, rng.uniform(0, 1, 16))
        out = _standardize(f)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1.0) < 1e-9


def test_preprocess_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = Frame(4, 4, rng.uniform(0, 1, 16))
        once = _standardize(f)
        twice = _standardize(Frame(4, 4, once))
        assert np.max(np.abs(twice - once)) < 1e-9


def test_prep_stack_matches_preprocess():
    # a stacked batch standardizes each row as it would alone
    rng = np.random.default_rng(3)
    frames = [Frame(3, 3, rng.uniform(0, 1, 9)) for _ in range(5)]
    X = prep_stack(frames)
    for i, f in enumerate(frames):
        np.testing.assert_allclose(X[i], _standardize(f), atol=1e-15)


# ---------------------------------------------------------------------------
# manifests

def _mini_clip_files(tmp_path):
    rng = np.random.default_rng(4)
    paths = []
    for t in range(3):
        f = Frame(2, 2, np.full(4, t / 3))  # distinguishable by value
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
    for t, frame in enumerate(clip.frames):
        assert abs(frame.pixels[0] - round(t / 3 * 255) / 255) < 1e-12


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
    assert (len(s), s.num_classes, s.labels) == (2, 2, (0, 1))


def test_labeled_manifest_label_out_of_range(tmp_path):
    paths = _mini_clip_files(tmp_path)
    m = tmp_path / "s.txt"
    m.write_text("classes\t2\n" + f"{paths[0]}\t2\n")
    with pytest.raises(ManifestError, match="out of range"):
        load_manifest(m)


def test_writers_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    clips = [
        Clip(f"c{i}", [Frame(3, 2, rng.uniform(0, 1, 6)) for _ in range(4)], 1.0)
        for i in range(3)
    ]
    u = UnlabeledSet(clips)
    manifest = write_unlabeled(u, tmp_path / "out")
    u2 = load_manifest(manifest)
    assert [c.clip_id for c in u2.clips] == [c.clip_id for c in u.clips]
    for c, c2 in zip(u.clips, u2.clips):
        for f, f2 in zip(c.frames, c2.frames):
            assert np.max(np.abs(f.pixels - f2.pixels)) <= 1 / 510 + 1e-12

    s = LabeledSet([clips[0].frames[0], clips[1].frames[1]], [0, 1], 2)
    manifest = write_labeled(s, tmp_path / "out2")
    s2 = load_manifest(manifest)
    assert s2.labels == s.labels and s2.num_classes == 2
