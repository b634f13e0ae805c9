import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ssfa import network
from ssfa.data import LabeledSet
from ssfa.evaluate import linear_accuracy
from ssfa.network import (
    ActivationTape,
    LayerSpec,
    NetworkParams,
    backward,
    forward,
    init_classifier,
    init_glorot,
    load_checkpoint,
    save_checkpoint,
)


def _params(weights, biases):
    """NetworkParams holding the given per-layer weights and biases."""
    spec = LayerSpec((np.shape(weights[0])[1],) + tuple(len(w) for w in weights))
    blocks = [np.ravel(a) for wb in zip(weights, biases) for a in wb]
    return NetworkParams(spec, np.concatenate(blocks, dtype=np.float64))


def test_layer_spec_validation():
    LayerSpec((4, 3))
    with pytest.raises(ValueError):
        LayerSpec((4,))
    with pytest.raises(ValueError):
        LayerSpec((4, 0))


def test_glorot_bound_and_zero_biases():
    spec = LayerSpec((25, 25))
    params = init_glorot(spec, 0)
    bound = math.sqrt(6 / 50)
    assert np.all(np.abs(params.weights[0]) <= bound)
    assert np.abs(params.weights[0]).max() > 0.5 * bound  # actually spread out
    np.testing.assert_array_equal(params.biases[0], np.zeros(25))


def test_glorot_deterministic_per_seed():
    spec = LayerSpec((6, 4, 3))
    a = init_glorot(spec, 42)
    b = init_glorot(spec, 42)
    c = init_glorot(spec, 43)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_forward_zero_params_is_zero_map():
    params = _params([np.zeros((3, 4)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])
    z, _ = forward(params, np.ones((1, 4)))
    np.testing.assert_array_equal(z, np.zeros((1, 2)))


def test_forward_relu_cases_on_chain_of_ones():
    # 1 -> 1 -> 1 net, weights 1, biases 0: hidden ReLU clips negatives
    params = _params([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
    z_neg, _ = forward(params, np.array([[-2.0]]))
    z_pos, _ = forward(params, np.array([[3.0]]))
    assert z_neg[0, 0] == 0.0
    assert z_pos[0, 0] == 3.0


def _oracle_forward(params, x):
    # independent implementation: explicit loops, no matrix ops
    h = list(x)
    last = len(params.weights) - 1
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for r in range(w.shape[0]):
            acc = b[r]
            for c in range(w.shape[1]):
                acc += w[r, c] * h[c]
            if li < last and acc < 0:
                acc = 0.0
            out.append(acc)
        h = out
    return np.array(h)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(7)
    spec = LayerSpec((5, 4, 3))
    for _ in range(10):
        params = init_glorot(spec, int(rng.integers(1 << 30)))
        x = rng.normal(size=5)
        z, _ = forward(params, x[None])
        np.testing.assert_allclose(z[0], _oracle_forward(params, x), atol=1e-12)


def test_forward_batch_matches_single():
    # a batch agrees with its rows passed as one-row batches (up to BLAS
    # kernel rounding)
    rng = np.random.default_rng(8)
    params = init_glorot(LayerSpec((5, 4, 3)), 1)
    X = rng.normal(size=(6, 5))
    Z, _ = forward(params, X)
    for i in range(6):
        z, _ = forward(params, X[i : i + 1])
        np.testing.assert_allclose(Z[i], z[0], rtol=1e-12, atol=1e-14)


def test_forward_shape_error():
    params = init_glorot(LayerSpec((5, 3)), 0)
    for shape in ((2, 4), (5,), (1, 1, 5)):
        with pytest.raises(ValueError):
            forward(params, np.zeros(shape))


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(9)
    params = init_glorot(LayerSpec((5, 4, 3)), 2)
    z, tape = forward(params, rng.normal(size=(1, 5)))
    grads = backward(params, tape, np.zeros((1, 3)))
    for w in grads.weights + grads.biases:
        np.testing.assert_array_equal(w, np.zeros_like(w))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    spec = LayerSpec((4, 3, 2))
    h = 1e-5
    for _ in range(10):
        params = init_glorot(spec, int(rng.integers(1 << 30)))
        x = rng.normal(size=(1, 4))
        dz = rng.normal(size=(1, 2))
        _, tape = forward(params, x)
        grads = backward(params, tape, dz)

        def value():
            z, _ = forward(params, x)
            return float(np.sum(z * dz))

        for arr, g in zip(params.weights + params.biases, grads.weights + grads.biases):
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f1 = value()
                flat[i] = orig - h
                f0 = value()
                flat[i] = orig
                num = (f1 - f0) / (2 * h)
                assert abs(gflat[i] - num) / max(1.0, abs(num)) < 1e-6


def _backward_with_dx(params, tape, dz):
    """Reference: the full backward pass, which also forms the input
    gradient and masks with hidden pre-activations it recomputes from the
    params; returns (flat parameter gradient, dx)."""
    grads, delta = [], dz
    inputs = [tape.x] + tape.post[:-1]
    for i in reversed(range(len(params.weights))):
        grads[:0] = [delta.T @ inputs[i], delta.sum(axis=0)]
        delta = delta @ params.weights[i]
        if i > 0:
            pre = inputs[i - 1] @ params.weights[i - 1].T + params.biases[i - 1]
            delta = delta * (pre > 0.0)
    return np.concatenate([g.ravel() for g in grads]), delta


@pytest.mark.parametrize("sizes", [(5, 4, 3), (64, 9, 7, 5)])
@pytest.mark.parametrize("rows", [None, 1, 6])
@pytest.mark.parametrize("use_out", [False, True])
def test_backward_without_input_grad_is_bit_identical(sizes, rows, use_out):
    # backward stops after layer 0's parameter gradient; a full pass that
    # also forms dx gives the same bits. rows=None: one image, as x[None].
    # backward consumes the tape's hidden outputs, so the reference is first.
    rng = np.random.default_rng(sum(sizes) + (rows or 0))
    spec = LayerSpec(sizes)
    params = init_glorot(spec, 3)
    if rows is None:
        x = rng.normal(size=spec.in_dim)[None]
    else:
        x = rng.normal(size=(rows, spec.in_dim))
    z, tape = forward(params, x)
    dz = rng.normal(size=z.shape)
    out = np.full(spec.param_count, np.nan) if use_out else None
    full, dx = _backward_with_dx(params, tape, dz)
    grad = backward(params, tape, dz, out)
    assert dx.shape == x.shape
    assert grad.flat.tobytes() == full.tobytes()
    if use_out:
        assert grad.flat is out


@pytest.mark.parametrize("sizes", [(5, 3), (5, 4, 3), (64, 9, 7, 5)])
def test_backward_into_its_own_parameters_gives_the_bits_of_a_fresh_vector(sizes):
    # the step loop writes the gradient over the point it was taken at:
    # backward must read each layer's weights before it writes their gradient
    rng = np.random.default_rng(sum(sizes) + 1)
    spec = LayerSpec(sizes)
    params = NetworkParams(spec, rng.normal(size=spec.param_count))
    x = rng.normal(size=(6, spec.in_dim))
    dz = rng.normal(size=(6, spec.out_dim))
    fresh = backward(params, forward(params, x)[1], dz)
    _, tape = forward(params, x)
    grad = backward(params, tape, dz, out=params.flat)
    assert grad.flat is params.flat
    assert params.flat.tobytes() == fresh.flat.tobytes()


@pytest.mark.parametrize("sizes", [(5, 4, 3), (64, 9, 7, 5)])
def test_forward_into_an_oversized_tape_is_bit_identical(sizes):
    # forward's default tape is sized for the batch; a buffer tape with spare
    # rows gives the same features, activations and gradients
    rng = np.random.default_rng(sum(sizes))
    spec = LayerSpec(sizes)
    params = init_glorot(spec, 5)
    x = rng.normal(size=(6, spec.in_dim))
    dz = rng.normal(size=(6, spec.out_dim))
    z, tape = forward(params, x)
    z_buf, tape_buf = forward(params, x, out=ActivationTape.buffers(spec, 11))
    assert z.tobytes() == z_buf.tobytes()
    for a, b in zip(tape.post, tape_buf.post):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    grad = backward(params, tape, dz)
    assert grad.flat.tobytes() == backward(params, tape_buf, dz).flat.tobytes()


@pytest.mark.parametrize("sizes", [(5, 3), (5, 4, 3), (64, 9, 7, 5)])
def test_backward_consumes_only_the_hidden_rows_of_its_pass(sizes):
    # backward overwrites the n hidden output rows of a buffer tape with its
    # deltas; the input, Z and the rows past n stay, and the step loop's
    # pattern, a fresh forward into the same buffers then backward, gives
    # the gradient of a one-shot tape every time
    rng = np.random.default_rng(sum(sizes))
    spec = LayerSpec(sizes)
    buf = ActivationTape.buffers(spec, 9)
    for a in buf.post:
        a[...] = rng.normal(size=a.shape)
    spare = [a[6:].copy() for a in buf.post]
    for step in range(3):
        params = init_glorot(spec, step)
        x = rng.normal(size=(6, spec.in_dim))
        dz = rng.normal(size=(6, spec.out_dim))
        z, tape = forward(params, x, out=buf)
        x_was, z_was = x.copy(), z.copy()
        grad = backward(params, tape, dz)
        assert tape.x is x and x.tobytes() == x_was.tobytes()
        assert tape.post[-1].tobytes() == z.tobytes() == z_was.tobytes()
        assert all(a[6:].tobytes() == b.tobytes() for a, b in zip(buf.post, spare))
        assert grad.flat.tobytes() == backward(params, forward(params, x)[1], dz).flat.tobytes()


def test_dead_relu_blocks_gradient():
    # single hidden unit forced negative: no gradient reaches its weights
    params = _params([[[1.0]], [[1.0]]], [[-10.0], [0.0]])
    _, tape = forward(params, np.array([[1.0]]))
    grads = backward(params, tape, np.array([[1.0]]))
    assert grads.weights[0][0, 0] == 0.0


def test_relu_subgradient_zero_at_exact_zero():
    # hidden pre-activation x * w + b exactly 0: 1 * 1 - 1, and 0 * -1 + -0.0
    # (-0.0 in exact arithmetic; the BLAS sum may round it to +0.0). No
    # gradient reaches the hidden unit's weight or bias.
    for x, w, b in ((1.0, 1.0, -1.0), (0.0, -1.0, -0.0)):
        params = _params([[[w]], [[1.0]]], [[b], [0.0]])
        _, tape = forward(params, np.array([[x]]))
        assert tape.post[0][0, 0] == 0.0
        grads = backward(params, tape, np.array([[1.0]]))
        assert grads.weights[0][0, 0] == 0.0 and grads.biases[0][0] == 0.0
    # a hidden output of exactly -0.0 masks like +0.0
    tape.post[0][0, 0] = -0.0
    assert backward(params, tape, np.array([[1.0]])).biases[0][0] == 0.0


def classify(W, z):
    """Per-class hit rates of linear_accuracy for an embedding fixed at z:
    1.0 at the predicted class, 0.0 elsewhere."""
    # one layer with zero weights maps every image to its bias, z
    net = _params([np.zeros((len(z), 1))], [z])
    image = np.zeros((1, 1))
    return [linear_accuracy(net, W, LabeledSet([image], [c], len(W))) for c in range(len(W))]


def test_classify_tie_and_example():
    hits = classify(np.zeros((3, 2)), np.array([0.3, 0.4]))
    assert hits == [1.0, 0.0, 0.0]  # all logits tie: smallest index wins
    W = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert classify(W, np.array([0.2, 0.9])) == [0.0, 1.0]


def test_classify_scale_invariance():
    rng = np.random.default_rng(11)
    W = rng.normal(size=(4, 6))
    z = rng.normal(size=6)
    assert classify(W, z) == classify(W, 17.3 * z)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    params = init_glorot(LayerSpec((6, 5, 4)), 3)
    W = init_classifier(3, 4, 4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, W)
    params2, W2 = load_checkpoint(path)
    assert W.tobytes() == W2.tobytes()
    for a, b in zip(params.weights + params.biases, params2.weights + params2.biases):
        assert a.tobytes() == b.tobytes()
    # header is the documented text
    head = path.read_bytes().split(b"\n")[:3]
    assert head == [b"SSFA-CKPT v1", b"layers 6 5 4", b"classes 3"]


def test_checkpoint_body_is_flat_params_then_classifier(tmp_path):
    params = init_glorot(LayerSpec((6, 5, 4)), 3)
    W = init_classifier(3, 4, 4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, W)
    body = path.read_bytes().split(b"\n", 3)[3]
    assert body == params.flat.tobytes() + W.tobytes()


def test_params_are_views_of_one_flat_vector():
    weights = [np.arange(12.0).reshape(3, 4), np.arange(6.0).reshape(2, 3) + 20]
    biases = [np.array([-1.0, -2.0, -3.0]), np.array([-4.0, -5.0])]
    flat = np.concatenate([weights[0].ravel(), biases[0], weights[1].ravel(), biases[1]])
    params = NetworkParams(LayerSpec((4, 3, 2)), flat)
    assert params.flat is flat
    assert params.flat.size == params.layer_spec().param_count
    for got, want in zip(params.weights + params.biases, weights + biases):
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert np.shares_memory(got, params.flat)
    params.flat[:] = 0.0
    assert not any(a.any() for a in params.weights + params.biases)
    for bad in (np.zeros(14), np.zeros(15, dtype=np.float32)):
        with pytest.raises(ValueError):
            NetworkParams(LayerSpec((4, 3)), bad)


@pytest.mark.parametrize("flat", [[0.0] * 15, (0.0,) * 15, None], ids=["list", "tuple", "none"])
def test_params_reject_a_flat_that_is_not_an_ndarray(flat):
    # a list used to raise AttributeError ('list' object has no attribute 'dtype')
    with pytest.raises(ValueError, match=r"flat parameters \w+ != float64 \(15,\)"):
        NetworkParams(LayerSpec((4, 3)), flat)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE\nlayers 2 2\nclasses 1\n" + bytes(8 * 8))
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(p)
    params = init_glorot(LayerSpec((2, 2)), 0)
    save_checkpoint(p, params, np.zeros((1, 2)))
    body = p.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(body[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.ckpt")
    for name, data, message in (("cut.ckpt", body[: body.index(b"classes")],
                                 "truncated checkpoint header"),
                                ("long.ckpt", body + bytes(3), "3 trailing bytes in checkpoint")):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_checkpoint(tmp_path / name)
        assert str(err.value) == f"{tmp_path / name}: {message}"


@pytest.mark.parametrize("kind, line", [
    ("layers", b"layers 2 x"),
    ("layers", b"layers 2 0"),
    ("layers", b"layers 2"),
    ("layers", b"layers -2 2"),
    ("layers", b"sizes 2 2"),
    ("classes", b"classes q"),
    ("classes", b"classes -1"),
    ("classes", b"classes"),
    ("classes", b"classes 1 1"),
])
def test_checkpoint_bad_header_value_names_file_and_line(tmp_path, kind, line):
    # "layers 2 x" raised a bare int() error, "layers 2 0" a LayerSpec
    # error, "classes -1" a flat-parameter size error
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, init_glorot(LayerSpec((2, 2)), 0), np.zeros((1, 2)))
    head = p.read_bytes().split(b"\n", 3)
    head[1 if kind == "layers" else 2] = line
    p.write_bytes(b"\n".join(head))
    with pytest.raises(ValueError) as err:
        load_checkpoint(p)
    assert str(err.value) == f"{p}: bad {kind} line {line!r}"


def test_checkpoint_with_no_classes_round_trips(tmp_path):
    p = tmp_path / "m.ckpt"
    params = init_glorot(LayerSpec((3, 2)), 0)
    save_checkpoint(p, params, np.zeros((0, 2)))
    params2, W2 = load_checkpoint(p)
    assert W2.shape == (0, 2) and params2.flat.tobytes() == params.flat.tobytes()


@pytest.mark.parametrize("sizes", [(5, 3), (5, 4, 3), (64, 9, 7, 5)])
def test_tape_buffers_hold_one_array_per_layer(sizes):
    # each layer's output is its only activation array: no separate
    # pre-activation copy, no delta or mask scratch, and nothing aliased
    spec = LayerSpec(sizes)
    tape = ActivationTape.buffers(spec, 6)
    assert tape.x is None
    assert list(vars(tape)) == ["x", "post"]
    assert [a.shape for a in tape.post] == [(6, w) for w in sizes[1:]]
    assert all(a.dtype == np.float64 for a in tape.post)
    arrays = tape.post
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    assert sum(a.nbytes for a in arrays) == 6 * 8 * sum(sizes[1:])


def test_backward_rejects_a_dz_of_another_shape():
    params = init_glorot(LayerSpec((6, 5, 4)), 0)
    _, tape = forward(params, np.zeros((3, 6)))
    with pytest.raises(ValueError, match=r"dZ shape \(3, 5\) != output shape \(3, 4\)"):
        backward(params, tape, np.zeros((3, 5)))


def test_save_checkpoint_rejects_a_classifier_of_another_width(tmp_path):
    path = tmp_path / "c.ckpt"
    with pytest.raises(ValueError, match=r"classifier shape \(3, 5\) incompatible"):
        save_checkpoint(path, init_glorot(LayerSpec((6, 5, 4)), 0), np.zeros((3, 5)))
    assert not path.exists()


# ---------------------------------------------------------------------------
# Split passes


def _count_halves(monkeypatch):
    """The sizes that ``network._halves`` splits from now on."""
    calls, halves = [], network._halves

    def counting(n, fn, split=True):
        if split:
            calls.append(n)
        return halves(n, fn, split)

    monkeypatch.setattr(network, "_halves", counting)
    return calls


@pytest.fixture
def fresh_helper(monkeypatch):
    """Splits on, and no helper thread until the test's first split; the
    helper that the test starts is left blocked, and the old one restored."""
    monkeypatch.setattr(network, "_SPLIT_POOL", True)
    kept = network._helper[:]
    network._helper.clear()  # in place: the at-fork reset clears this list
    yield
    network._helper[:] = kept


def _pass(params, X, dZ, out=None):
    """One forward and backward pass: (Z, the tape after forward, the tape
    after backward, the gradient), each copied."""
    Z, tape = forward(params, X, out=out)
    posts = [a.copy() for a in tape.post]
    grad = backward(params, tape, dZ).flat
    return Z.copy(), posts, [a.copy() for a in tape.post], grad


def _split_bits(sizes, counts):
    """Run a forward and backward pass of each row count in ``counts`` at layer widths
    ``sizes`` with splits on and off, and assert that Z, the tape and the gradient keep
    their bits."""
    rng = np.random.default_rng(sum(sizes))
    params = init_glorot(LayerSpec(sizes), 0)
    params.flat[:] = rng.normal(scale=0.1, size=params.flat.shape)
    X, dZ = rng.normal(size=(1312, sizes[0])), rng.normal(size=(1312, sizes[-1]))
    buffers = ActivationTape.buffers(params.layer_spec(), 1312)
    kept = network._SPLIT_POOL
    try:
        for rows in counts:
            passes = []
            for pool in (True, False):
                network._SPLIT_POOL = pool
                for a in buffers.post:
                    a.fill(np.nan)
                passes.append(_pass(params, X[:rows], dZ[:rows], buffers))
            (Z, *tapes, grad), (Z1, *tapes1, grad1) = passes
            assert np.array_equal(Z, Z1) and np.array_equal(grad, grad1), rows
            assert all(np.array_equal(a, b) for t, t1 in zip(tapes, tapes1) for a, b in zip(t, t1))
    finally:
        network._SPLIT_POOL = kept


_SPLIT_COUNTS = (599, 600, 672, 1312)  # the row counts that split at 1024->256->64


@pytest.mark.parametrize("sizes", [(256, 25, 25), (256, 25, 16), (1024, 256, 64), (512, 64, 16)])
def test_split_passes_give_the_bits_of_whole_ones(sizes, monkeypatch):
    # a pass splits when each of its products has at least 2**23
    # multiply-adds and each half keeps 64 rows and 64 hidden units: forward
    # by rows, backward by hidden units. Every output element keeps its
    # operands and k-order, so Z, the tape and the gradient equal those of
    # the whole pass bit for bit. Only 1024->256->64 at 512 rows or more
    # reaches the bound (its layer 1 has 16384 multiply-adds per row).
    calls = _count_halves(monkeypatch)
    _split_bits(sizes, [*range(1, 301), *_SPLIT_COUNTS])
    split = _SPLIT_COUNTS if sizes == (1024, 256, 64) else ()
    assert calls == [n for rows in split for n in (rows, sizes[1])]


_KERNEL_BITS = """
import ctypes, sys
sys.path.insert(0, sys.argv[1])
from test_network import _SPLIT_COUNTS, _split_bits, network
network._BLAS.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
print(network._BLAS.scipy_openblas_get_corename64_().decode(), flush=True)
_split_bits((1024, 256, 64), _SPLIT_COUNTS)
"""


@pytest.mark.skipif(network._BLAS is None, reason="needs numpy's bundled OpenBLAS")
@pytest.mark.parametrize("kernel", ["Haswell", "SandyBridge", "Nehalem"])
def test_split_passes_keep_their_bits_under_other_blas_kernels(kernel):
    # OPENBLAS_CORETYPE makes this OpenBLAS load another kernel where the
    # CPU runs it. Under Haswell and Nehalem a cut at 599 // 2 gave the
    # 299-row half other bits, so the split's first half ends on a
    # multiple of 8 rows
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               OPENBLAS_CORETYPE=kernel, PYTHONPATH=os.pathsep.join(
                   filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _KERNEL_BITS, str(root / "tests")], env=env,
                          capture_output=True, text=True, timeout=300)
    name = proc.stdout.split()[0] if proc.stdout.split() else None
    if name is not None and name.lower() != kernel.lower():
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} runs the {name} kernel on this host")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("env, split", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": " 1 "}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "²", "OMP_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "¹"}, False),
])
def test_products_split_only_when_numpy_loaded_one_blas_thread(env, split):
    # the split reads the live pool, which OpenBLAS sized when numpy loaded:
    # the first positive of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    # OMP_NUM_THREADS, else one thread per core (these cases assume two or
    # more); a value that is not ASCII digits ("²") counts as unset (atoi)
    root = Path(__file__).resolve().parents[1]
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas_vars}
    proc = subprocess.run([sys.executable, "-c", "from ssfa import network; print(network._SPLIT_POOL)"],
                          env={**base, **env, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == str(split)


def test_one_helper_thread_runs_every_first_half(fresh_helper):
    # the helper starts at the first split and serves every later one
    before, firsts, seconds = threading.active_count(), set(), set()

    def half(i, j):
        (firsts if i == 0 else seconds).add(threading.get_ident())

    for _ in range(100):
        network._halves(9, half)
    assert threading.active_count() == before + 1
    assert len(firsts) == 1 and seconds == {threading.get_ident()} != firsts


def test_splits_from_many_threads_each_run_both_halves(fresh_helper):
    # the one helper serves one split at a time: a split on another thread
    # waits its turn, and every split runs both of its own halves
    seen, switch = {k: [] for k in range(4)}, sys.getswitchinterval()

    def caller(k):
        for _ in range(200):
            got = []
            network._halves(8, lambda i, j: got.append((i, j)))
            seen[k].append(sorted(got))

    threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert all(v == [[(0, 4), (4, 8)]] * 200 for v in seen.values())


def test_the_helper_stops_polling_when_idle(fresh_helper):
    # between splits the helper polls for the next half, but only for
    # network._POLL_S: then it blocks and takes no CPU time
    network._halves(2, lambda i, j: None)
    time.sleep(10 * network._POLL_S)
    start = time.process_time()
    time.sleep(0.2)
    assert time.process_time() - start < 0.005


def test_a_split_whose_halves_both_raise_leaves_no_error_behind(fresh_helper):
    # the caller's exception is raised and the helper's is dropped with it,
    # so the next split, whose halves both succeed, does not raise it again
    def both_fail(i, j):
        raise ValueError(f"half {i}:{j}")

    with pytest.raises(ValueError, match="half 2:4"):
        network._halves(4, both_fail)
    network._halves(4, lambda i, j: None)


def test_threads_that_split_first_at_once_start_one_helper(fresh_helper):
    # the first split starts the helper under the split lock, so threads
    # released together into their first split share one helper thread
    before, barrier, switch = threading.active_count(), threading.Barrier(8), sys.getswitchinterval()

    def first_split():
        barrier.wait()
        network._halves(2, lambda i, j: None)

    threads = [threading.Thread(target=first_split, daemon=True) for _ in range(8)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(network._helper) == 1 and threading.active_count() == before + 1


def _wide_pass(rows=600):
    """(params, X, dZ) of a 1024->256->64 pass of ``rows`` rows, which splits."""
    rng = np.random.default_rng(rows)
    params = init_glorot(LayerSpec((1024, 256, 64)), 0)
    return params, rng.normal(size=(rows, 1024)), rng.normal(size=(rows, 64))


def test_split_pass_raises_the_helper_threads_error(fresh_helper, monkeypatch):
    # the first half fails on the helper thread: the caller's half still
    # runs, the first half has ended, and its exception reaches the caller
    failed = []

    def matmul(a, b, out):
        if threading.current_thread() is not threading.main_thread():
            failed.append(threading.get_ident())
            raise RuntimeError("first half failed")
        return np.matmul(a, b, out=out)

    params, X, _ = _wide_pass()
    Z, _ = forward(params, X)
    out = ActivationTape.buffers(params.layer_spec(), 600)
    for a in out.post:
        a.fill(np.nan)
    monkeypatch.setattr(network, "np", SimpleNamespace(
        asarray=np.asarray, float64=np.float64, maximum=np.maximum, matmul=matmul))
    with pytest.raises(RuntimeError, match="first half failed"):
        forward(params, X, out=out)
    assert np.isnan(out.post[0][:296]).all() and np.array_equal(out.post[1][296:], Z[296:])
    # the same helper thread runs the next split
    count, firsts = threading.active_count(), []
    network._halves(2, lambda i, j: firsts.append(threading.get_ident()) if i == 0 else None)
    assert firsts == failed and threading.active_count() == count


def test_split_pass_keeps_the_callers_errstate(monkeypatch):
    # the helper runs in the caller's context, so an overflow in the first
    # half is silenced by the caller's np.errstate like one in the second
    monkeypatch.setattr(network, "_SPLIT_POOL", True)
    params, X, _ = _wide_pass()
    params.flat.fill(1.0)
    X[:64] = X[-64:] = 1e306  # layer 0 sums 1024 of them
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        Z, _ = forward(params, X)
    assert (Z[:64] == np.inf).all() and (Z[-64:] == np.inf).all()
    assert np.isfinite(Z[64:-64]).all()


def _split_pass_in_child():
    params, X, dZ = _wide_pass()
    split = _pass(params, X, dZ)
    network._SPLIT_POOL = False
    whole = _pass(params, X, dZ)
    assert np.array_equal(split[0], whole[0]) and np.array_equal(split[-1], whole[-1])


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_a_forked_child_runs_a_split_pass(monkeypatch):
    # a forked child has no copy of the parent's helper thread: it drops the
    # parent's helper and its first split starts its own
    monkeypatch.setattr(network, "_SPLIT_POOL", True)
    params, X, dZ = _wide_pass()
    _pass(params, X, dZ)
    child = multiprocessing.get_context("fork").Process(target=_split_pass_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.terminate()
        child.join()
    assert child.exitcode == 0


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_a_child_forked_while_the_split_lock_is_held_runs_a_split_pass(monkeypatch):
    # a fork while a split holds the lock: the child's copy of the lock is
    # reset, so the child's first split does not wait on it forever
    monkeypatch.setattr(network, "_SPLIT_POOL", True)
    with network._lock:  # as a split on another thread holds it
        child = multiprocessing.get_context("fork").Process(target=_split_pass_in_child)
        child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.terminate()
        child.join()
    assert child.exitcode == 0


def _wide_data():
    """(labeled set, resolved pairs, resolved triplets, config) of a 1024->256->64
    training run whose every step stacks 554 to 585 rows."""
    from ssfa.mining import MiningConfig, mine_pairs, mine_triplets
    from ssfa.synth import SynthConfig, gen_labeled, gen_unlabeled
    from ssfa.trainer import TrainConfig, resolve_pairs, resolve_triplets

    u = gen_unlabeled(SynthConfig(grid=32, clip_len=40, num_clips=16, seed=1))
    labeled = gen_labeled(SynthConfig(grid=32, seed=51), 10)
    mc = MiningConfig(T_seconds=2.0, seed=0, max_pairs=512, max_triplets=512)
    cfg = TrainConfig(lr=0.01, lam=1.0, lam_prime=0.5, batch_labeled=16, batch_pairs=256,
                      batch_triplets=256, max_epochs=3, patience=3, seed=0)
    return (labeled, resolve_pairs(u, mine_pairs(u, mc)), resolve_triplets(u, mine_triplets(u, mc)),
            cfg)


def _wide_training_digests():
    """sha256 of the parameters that ``train`` (3 epochs) and
    ``train_unsupervised`` (2 passes) give at 1024->256->64, with the
    splits and with every split turned off. Every step splits its
    forward and backward pass, the table gather and the Nesterov
    lookahead and update."""
    from ssfa.trainer import train, train_unsupervised

    spec = LayerSpec((1024, 256, 64))
    labeled, pairs, triplets, cfg = _wide_data()

    def digest():
        params, W, _ = train(labeled, pairs, triplets, spec, cfg)
        init, snapshots, _ = train_unsupervised(pairs, triplets, spec, cfg, passes=2)
        arrays = (params.flat, W, init.flat, *(s.flat for s in snapshots))
        return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    split, pool = digest(), network._SPLIT_POOL
    network._SPLIT_POOL = False
    try:
        return split, digest()
    finally:
        network._SPLIT_POOL = pool


def test_a_wide_step_makes_five_hand_offs_and_a_desk_step_none(monkeypatch):
    # one step of 1024->256->64 hands the helper its lookahead, table
    # gather, forward pass, backward pass and update; at the desk and
    # long_clips shape and batch sizes nothing reaches a bound
    from ssfa.mining import MiningConfig, mine_pairs, mine_triplets
    from ssfa.synth import SynthConfig, gen_labeled, gen_unlabeled
    from ssfa.trainer import TrainConfig, resolve_pairs, resolve_triplets, train

    monkeypatch.setattr(network, "_SPLIT_POOL", True)
    calls = _count_halves(monkeypatch)
    labeled, pairs, triplets, cfg = _wide_data()
    spec = LayerSpec((1024, 256, 64))
    train(labeled, pairs, triplets, spec, replace(cfg, batch_labeled=64, max_epochs=1))
    theta, lead = spec.param_count + labeled.num_classes * 64, 32  # 32 training images
    assert calls == [theta, calls[1], calls[1] + lead, 256, theta] and calls[1] + lead >= 512

    calls.clear()
    u = gen_unlabeled(SynthConfig(clip_len=200, num_clips=2, seed=7))
    mc = MiningConfig(T_seconds=2.0, seed=7)
    pairs, triplets = resolve_pairs(u, mine_pairs(u, mc)), resolve_triplets(u, mine_triplets(u, mc))
    for batches in ((4, 64, 64), (16, 32, 32)):  # desk, long_clips
        desk = TrainConfig(0.01, lam=3.0, lam_prime=0.3, max_epochs=1, seed=1,
                           **dict(zip(("batch_labeled", "batch_pairs", "batch_triplets"), batches)))
        train(gen_labeled(SynthConfig(seed=7), 25), pairs, triplets, LayerSpec((256, 25, 25)), desk)
    assert calls == []


_PINNED_DIGESTS = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[1])
from test_network import _wide_training_digests, network
assert network._SPLIT_POOL
print(*_wide_training_digests())
"""


def test_wide_training_with_split_products_keeps_its_bits(monkeypatch):
    monkeypatch.setattr(network, "_SPLIT_POOL", True)
    split, whole = _wide_training_digests()
    assert split == whole


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_wide_training_on_one_cpu_keeps_its_bits():
    # both halves share one CPU, so the helper may run before, after or
    # between slices of the caller's half: the bits do not depend on it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PINNED_DIGESTS, str(root / "tests")], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    split, whole = proc.stdout.split()
    assert split == whole
