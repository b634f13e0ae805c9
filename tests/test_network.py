import math

import numpy as np
import pytest

from ssfa.data import Frame, LabeledSet
from ssfa.evaluate import linear_accuracy
from ssfa.network import (
    LayerSpec,
    NetworkParams,
    backward,
    forward,
    init_classifier,
    init_glorot,
    load_checkpoint,
    save_checkpoint,
)


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
    params = NetworkParams([np.zeros((3, 4)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])
    z, _ = forward(params, np.ones(4))
    np.testing.assert_array_equal(z, np.zeros(2))


def test_forward_relu_cases_on_chain_of_ones():
    # 1 -> 1 -> 1 net, weights 1, biases 0: hidden ReLU clips negatives
    params = NetworkParams([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
    z_neg, _ = forward(params, np.array([-2.0]))
    z_pos, _ = forward(params, np.array([3.0]))
    assert z_neg[0] == 0.0
    assert z_pos[0] == 3.0


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
        z, _ = forward(params, x)
        np.testing.assert_allclose(z, _oracle_forward(params, x), atol=1e-12)


def test_forward_batch_matches_single():
    # batched and single-sample paths agree (up to BLAS kernel rounding)
    rng = np.random.default_rng(8)
    params = init_glorot(LayerSpec((5, 4, 3)), 1)
    X = rng.normal(size=(6, 5))
    Z, _ = forward(params, X)
    for i in range(6):
        z, _ = forward(params, X[i])
        np.testing.assert_allclose(Z[i], z, rtol=1e-12, atol=1e-14)


def test_forward_shape_error():
    params = init_glorot(LayerSpec((5, 3)), 0)
    with pytest.raises(ValueError):
        forward(params, np.zeros(4))


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(9)
    params = init_glorot(LayerSpec((5, 4, 3)), 2)
    z, tape = forward(params, rng.normal(size=5))
    grads, dx = backward(params, tape, np.zeros(3))
    for w in grads.weights + grads.biases:
        np.testing.assert_array_equal(w, np.zeros_like(w))
    np.testing.assert_array_equal(dx, np.zeros(5))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(10)
    spec = LayerSpec((4, 3, 2))
    h = 1e-5
    for _ in range(10):
        params = init_glorot(spec, int(rng.integers(1 << 30)))
        x = rng.normal(size=4)
        dz = rng.normal(size=2)
        _, tape = forward(params, x)
        grads, dx = backward(params, tape, dz)

        def value():
            z, _ = forward(params, x)
            return float(z @ dz)

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
        # input gradient
        for i in range(4):
            orig = x[i]
            x[i] = orig + h
            f1 = value()
            x[i] = orig - h
            f0 = value()
            x[i] = orig
            num = (f1 - f0) / (2 * h)
            assert abs(dx[i] - num) / max(1.0, abs(num)) < 1e-6


@pytest.mark.parametrize("sizes", [(5, 4, 3), (64, 9, 7, 5)])
@pytest.mark.parametrize("rows", [None, 1, 6])
@pytest.mark.parametrize("use_out", [False, True])
def test_backward_without_input_grad_is_bit_identical(sizes, rows, use_out):
    rng = np.random.default_rng(sum(sizes) + (rows or 0))
    spec = LayerSpec(sizes)
    params = init_glorot(spec, 3)
    shape = (spec.in_dim,) if rows is None else (rows, spec.in_dim)
    x = rng.normal(size=shape)
    z, tape = forward(params, x)
    dz = rng.normal(size=z.shape)
    full, dx = backward(params, tape, dz, np.empty(spec.param_count) if use_out else None)
    out = np.full(spec.param_count, np.nan) if use_out else None
    grad, none = backward(params, tape, dz, out, input_grad=False)
    assert none is None
    assert dx.shape == x.shape
    assert grad.flat.tobytes() == full.flat.tobytes()
    if use_out:
        assert grad.flat is out


def test_dead_relu_blocks_gradient():
    # single hidden unit forced negative: no gradient reaches its weights
    params = NetworkParams(
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([-10.0]), np.array([0.0])],
    )
    _, tape = forward(params, np.array([1.0]))
    grads, dx = backward(params, tape, np.array([1.0]))
    assert grads.weights[0][0, 0] == 0.0
    assert dx[0] == 0.0


def test_relu_subgradient_zero_at_exact_zero():
    # pre-activation exactly 0 at the hidden unit
    params = NetworkParams(
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([-1.0]), np.array([0.0])],
    )
    _, tape = forward(params, np.array([1.0]))
    assert tape.pre[0][0, 0] == 0.0
    grads, dx = backward(params, tape, np.array([1.0]))
    assert grads.weights[0][0, 0] == 0.0
    assert dx[0] == 0.0


def classify(W, z):
    """Per-class hit rates of linear_accuracy for an embedding fixed at z:
    1.0 at the predicted class, 0.0 elsewhere."""
    # one layer with zero weights maps every image to its bias, z
    net = NetworkParams([np.zeros((len(z), 1))], [z])
    image = Frame(1, 1, [0.0])
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
    params = NetworkParams(weights, biases)
    expect = np.concatenate([weights[0].ravel(), biases[0], weights[1].ravel(), biases[1]])
    assert params.flat.tobytes() == expect.tobytes()
    assert params.flat.size == params.layer_spec().param_count
    for arr in params.weights + params.biases:
        assert np.shares_memory(arr, params.flat)
    params.flat[:] = 0.0
    assert not any(a.any() for a in params.weights + params.biases)
    with pytest.raises(ValueError):
        NetworkParams.from_flat(LayerSpec((4, 3)), np.zeros(14))


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
