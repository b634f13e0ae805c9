import math

import numpy as np
import pytest

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
    for a in buf.post + buf.mask:
        a[...] = rng.normal(size=a.shape) > 0 if a.dtype == bool else rng.normal(size=a.shape)
    spare = [a[6:].copy() for a in buf.post + buf.mask]
    for step in range(3):
        params = init_glorot(spec, step)
        x = rng.normal(size=(6, spec.in_dim))
        dz = rng.normal(size=(6, spec.out_dim))
        z, tape = forward(params, x, out=buf)
        x_was, z_was = x.copy(), z.copy()
        grad = backward(params, tape, dz)
        assert tape.x is x and x.tobytes() == x_was.tobytes()
        assert tape.post[-1].tobytes() == z.tobytes() == z_was.tobytes()
        assert all(a[6:].tobytes() == b.tobytes() for a, b in zip(buf.post + buf.mask, spare))
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
    # pre-activation copy, no delta scratch, and nothing aliased
    spec = LayerSpec(sizes)
    tape = ActivationTape.buffers(spec, 6)
    hidden = list(sizes[1:-1])
    assert tape.x is None
    assert list(vars(tape)) == ["x", "post", "mask"]
    assert [a.shape for a in tape.post] == [(6, w) for w in sizes[1:]]
    assert [a.shape for a in tape.mask] == [(6, w) for w in hidden]
    assert all(a.dtype == np.float64 for a in tape.post)
    assert all(a.dtype == bool for a in tape.mask)
    arrays = tape.post + tape.mask
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
    assert sum(a.nbytes for a in arrays) == 6 * (8 * sum(sizes[1:]) + sum(hidden))
