import math

import numpy as np
import pytest

from ssfa.losses import (
    LossValue,
    Margins,
    Workspace,
    _softmax,
    coherence_objective,
    pair_loss,
    softmax_loss,
    total_objective,
    triplet_loss,
)
from ssfa.network import LayerSpec, init_classifier, init_glorot, split_model

M = Margins()


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform_when_classifier_zero():
    for C in (2, 5, 25):
        lv = softmax_loss(np.zeros((C, 3)), np.ones((4, 3)), np.zeros(4, dtype=int))
        assert abs(lv.value - math.log(C)) < 1e-12


def test_softmax_single_sample_value():
    # logits (1, 0), correct class 0 -> ln(1 + e^-1)
    W = np.array([[1.0, 0.0], [0.0, 0.0]])
    lv = softmax_loss(W, np.array([[1.0, 0.0]]), [0])
    assert abs(lv.value - math.log(1 + math.exp(-1))) < 1e-12


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(20):
        n, d, C = rng.integers(1, 5), rng.integers(2, 5), rng.integers(2, 5)
        W = rng.normal(size=(C, d))
        zs = rng.normal(size=(n, d))
        ys = rng.integers(0, C, size=n)
        lv = softmax_loss(W, zs, ys)
        for arr, g in ((W, lv.grads["W"]), (zs, lv.grads["z"])):
            flat, gflat = arr.reshape(-1), np.asarray(g).reshape(-1)
            for i in range(flat.size):
                o = flat[i]
                flat[i] = o + h
                f1 = softmax_loss(W, zs, ys).value
                flat[i] = o - h
                f0 = softmax_loss(W, zs, ys).value
                flat[i] = o
                num = (f1 - f0) / (2 * h)
                assert abs(gflat[i] - num) / max(1, abs(num)) < 1e-6


def test_softmax_empty_batch_rejected():
    with pytest.raises(ValueError):
        softmax_loss(np.zeros((2, 3)), np.zeros((0, 3)), [])


def test_softmax_batch_shape_and_label_range_rejected():
    W, zs = np.zeros((3, 2)), np.zeros((2, 2))
    with pytest.raises(ValueError, match="batch shapes"):
        softmax_loss(W, zs, [0])
    with pytest.raises(ValueError, match="label out of range"):
        softmax_loss(W, zs, [0, 3])


def test_softmax_stable_for_huge_logits():
    W = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    lv = softmax_loss(W, np.array([[1.0, 0.0]]), [0])
    assert np.isfinite(lv.value) and lv.value >= 0


# ---------------------------------------------------------------------------
# contrastive form, on batches of one pair


def contrastive(a, b, p, margins):
    """pair_loss on a one-pair batch; gradients are that pair's rows."""
    lv = pair_loss(np.atleast_2d(a), np.atleast_2d(b), [p], margins)
    return LossValue(lv.value, {k: g[0] for k, g in lv.grads.items()})


def test_contrastive_zero_distance_positive():
    a = np.array([0.3, -0.2])
    lv = contrastive(a, a.copy(), 1, M)
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.grads["a"], np.zeros(2))


def test_contrastive_negative_inside_margin():
    lv = contrastive(np.zeros(2), np.array([3.0, 4.0]), 0, Margins(delta_pair=6.0))
    assert abs(lv.value - 1.0) < 1e-15


def test_contrastive_satisfied_margin_is_flat():
    lv = contrastive(np.zeros(2), np.array([3.0, 4.0]), 0, Margins(delta_pair=2.0))
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.grads["a"], np.zeros(2))
    np.testing.assert_array_equal(lv.grads["b"], np.zeros(2))


def test_contrastive_hinge_boundary_gradient_zero():
    lv = contrastive(np.zeros(2), np.array([0.0, 1.0]), 0, Margins(delta_pair=1.0))
    assert lv.value == 0.0
    np.testing.assert_array_equal(lv.grads["a"], np.zeros(2))


def test_contrastive_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = rng.normal(size=4), rng.normal(size=4)
        p = int(rng.integers(0, 2))
        m = Margins(metric="l1" if rng.integers(0, 2) else "l2")
        assert contrastive(a, b, p, m).value == contrastive(b, a, p, m).value


def test_contrastive_l1_metric():
    m = Margins(delta_pair=5.0, metric="l1")
    lv = contrastive(np.array([1.0, -1.0]), np.array([0.0, 1.0]), 1, m)
    assert abs(lv.value - 3.0) < 1e-15
    np.testing.assert_array_equal(lv.grads["a"], [1.0, -1.0])


def test_contrastive_dim_mismatch():
    with pytest.raises(ValueError):
        contrastive(np.zeros(2), np.zeros(3), 1, M)


# ---------------------------------------------------------------------------
# pair loss (slowness)

def test_pair_loss_zero_for_coincident_positives():
    z = np.ones((5, 3))
    lv = pair_loss(z, z.copy(), np.ones(5), M)
    assert lv.value == 0.0


def test_pair_loss_constant_map_pays_margin_per_negative():
    # all features identical, batch half negative -> value = delta * neg_fraction
    z = np.full((8, 4), 0.7)
    p = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    lv = pair_loss(z, z.copy(), p, Margins(delta_pair=1.0))
    assert lv.value == 0.5


def test_pair_loss_single_pair_reduces_to_contrastive():
    # a negative pair pays max(delta - d, 0), gradient -(a - b) / d inside the margin
    rng = np.random.default_rng(2)
    for delta in (1.0, 10.0):  # the pair lies outside, then inside, the margin
        m = Margins(delta_pair=delta)
        a, b = rng.normal(size=3), rng.normal(size=3)
        single = pair_loss(a[None], b[None], np.array([0]), m)
        d = np.sqrt(np.sum((a - b) ** 2))
        assert abs(single.value - max(delta - d, 0.0)) < 1e-15
        expect = -(a - b) / d if d < delta else np.zeros(3)
        np.testing.assert_allclose(single.grads["a"][0], expect, rtol=1e-15)


def test_pair_loss_empty_batch_rejected():
    with pytest.raises(ValueError):
        pair_loss(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0), M)


# ---------------------------------------------------------------------------
# triplet loss (steadiness)

def test_triplet_loss_zero_for_collinear_equal_spacing():
    zl = np.array([[0.0, 0.0]])
    zm = np.array([[1.0, 1.0]])
    zn = np.array([[2.0, 2.0]])
    lv = triplet_loss(zl, zm, zn, np.array([1]), M)
    assert lv.value == 0.0


def test_triplet_loss_hand_value():
    # differences (-1, 0) and (0, -1): distance sqrt(2)
    lv = triplet_loss(
        np.array([[0.0, 0.0]]),
        np.array([[1.0, 0.0]]),
        np.array([[1.0, 1.0]]),
        np.array([1]),
        M,
    )
    assert abs(lv.value - math.sqrt(2)) < 1e-15


def test_triplet_loss_satisfied_negative_is_flat():
    zl = np.array([[0.0, 0.0]])
    zm = np.array([[5.0, 0.0]])
    zn = np.array([[0.0, 0.0]])
    # differences (-5,0), (5,0): distance 10 >= delta
    lv = triplet_loss(zl, zm, zn, np.array([0]), Margins(delta_triplet=1.0))
    assert lv.value == 0.0
    for k in ("l", "m", "n"):
        np.testing.assert_array_equal(lv.grads[k], np.zeros((1, 2)))


def test_triplet_loss_translation_invariance_of_positives():
    rng = np.random.default_rng(3)
    for _ in range(20):
        zl, zm, zn = rng.normal(size=(3, 2, 4))
        c = rng.normal(size=4)
        p = np.ones(2)
        v0 = triplet_loss(zl, zm, zn, p, M).value
        v1 = triplet_loss(zl + c, zm + c, zn + c, p, M).value
        assert abs(v0 - v1) < 1e-12


def test_zero_feature_map_is_penalized():
    # degenerate constant embedding: positives free, each negative pays delta
    z = np.zeros((10, 4))
    p = np.array([1] * 6 + [0] * 4)
    lv = pair_loss(z, z.copy(), p, Margins(delta_pair=1.0))
    assert lv.value >= 1.0 * (4 / 10)
    assert lv.value > 0.0


def test_losses_are_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        za, zb = rng.normal(size=(2, n, 3))
        p = rng.integers(0, 2, n)
        m = Margins(
            delta_pair=float(rng.uniform(0, 2)),
            delta_triplet=float(rng.uniform(0, 2)),
            metric="l1" if rng.integers(0, 2) else "l2",
        )
        assert pair_loss(za, zb, p, m).value >= 0
        zl, zm, zn = rng.normal(size=(3, n, 3))
        assert triplet_loss(zl, zm, zn, p, m).value >= 0
        W = rng.normal(size=(3, 4))
        zs = rng.normal(size=(n, 4))
        assert softmax_loss(W, zs, rng.integers(0, 3, n)).value >= 0


# ---------------------------------------------------------------------------
# the stacked kernels against the per-term code they replaced


def _ref_distance_rows(a, b, metric):
    diff = a - b
    if metric == "l2":
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        safe = np.where(d > 0.0, d, 1.0)
        unit = diff / safe[..., None]
        unit[d == 0.0] = 0.0
    else:
        d = np.sum(np.abs(diff), axis=-1)
        unit = np.sign(diff)
    return d, unit


def _ref_contrastive_rows(a, b, p, delta, metric):
    d, unit = _ref_distance_rows(a, b, metric)
    pos = p.astype(bool)
    hinge = delta - d
    active = (~pos) & (hinge > 0.0)
    values = np.where(pos, d, np.where(active, hinge, 0.0))
    coeff = np.where(pos, 1.0, np.where(active, -1.0, 0.0))
    return values, coeff[..., None] * unit


def _ref_pair_loss(za, zb, p, margins):
    values, da = _ref_contrastive_rows(za, zb, p, margins.delta_pair, margins.metric)
    ga = da / len(p)
    return LossValue(float(values.mean()), {"a": ga, "b": -ga})


def _ref_triplet_loss(zl, zm, zn, p, margins):
    values, du = _ref_contrastive_rows(zl - zm, zm - zn, p, margins.delta_triplet,
                                       margins.metric)
    du = du / len(p)
    dv = -du
    return LossValue(float(values.mean()), {"l": du, "m": dv - du, "n": -dv})


def _ref_unsupervised_loss(pairs, triplets, lam_prime, margins):
    value, grads, terms = 0.0, {}, {"slow": 0.0, "steady": 0.0}
    if pairs is not None:
        r2 = _ref_pair_loss(*pairs, margins)
        value += r2.value
        terms["slow"] = r2.value
        grads["pair_a"], grads["pair_b"] = r2.grads["a"], r2.grads["b"]
    if triplets is not None:
        r3 = _ref_triplet_loss(*triplets, margins)
        value += lam_prime * r3.value
        terms["steady"] = r3.value
        for k in "lmn":
            grads[f"trip_{k}"] = lam_prime * r3.grads[k]
    return LossValue(value, grads, terms)


def _kinked_batch(rng, members, delta, labels):
    """Six tuples of width 4 whose contrast rows are: coincident (d == 0),
    nonzero with squares that underflow, exactly at the margin ``delta``,
    then random at three scales. ``labels`` "mixed" makes the margin row a
    negative."""
    zs = rng.normal(size=(members, 6, 4)) * np.array([1, 1, 1, 0.05, 0.4, 3.0])[:, None]
    zs[:, 0] = zs[0, 0]
    zs[:, 1:3] = 0.0
    zs[0, 1] = 1e-170 * rng.normal(size=4)
    zs[-1, 2, 0] = delta  # contrast -delta * e0 for a pair, +delta * e0 for a triplet
    p = {"mixed": np.array([1, 0, 0, 1, 0, 0]), "pos": np.ones(6, dtype=int),
         "neg": np.zeros(6, dtype=int)}[labels]
    return (*zs, p)


def _same_bits(got: LossValue, ref: LossValue):
    assert np.float64(got.value).tobytes() == np.float64(ref.value).tobytes()
    assert got.terms == ref.terms
    assert list(got.grads) == list(ref.grads)
    for k, g in ref.grads.items():
        assert got.grads[k].tobytes() == g.tobytes(), k


@pytest.mark.parametrize("labels", ["mixed", "pos", "neg"])
@pytest.mark.parametrize("metric", ["l2", "l1"])
def test_contrastive_kernel_keeps_the_bits_of_the_per_term_code(metric, labels):
    from ssfa.losses import _contrastive

    rng = np.random.default_rng(12)
    margins = Margins(delta_pair=1.0, delta_triplet=1.5, metric=metric)
    pairs = _kinked_batch(rng, 2, margins.delta_pair, labels)
    triplets = _kinked_batch(rng, 3, margins.delta_triplet, labels)
    d = _ref_distance_rows(pairs[0], pairs[1], metric)[0]
    if metric == "l2":
        assert d[0] == 0.0 and d[1] == 0.0 and pairs[0][1].any()  # the underflowing row
    assert d[2] == margins.delta_pair

    _same_bits(pair_loss(*pairs, margins), _ref_pair_loss(*pairs, margins))
    _same_bits(triplet_loss(*triplets, margins), _ref_triplet_loss(*triplets, margins))
    for pb, tb, lam_prime in ((pairs, triplets, 0.7), (pairs, triplets, 0.0),
                              (pairs, None, 0.7), (None, triplets, 0.3)):
        ref = _ref_unsupervised_loss(pb, tb, lam_prime, margins)
        # the training step's call: lam-scaled gradients written over the member block
        for lam in (1.0, 3.0):
            block = np.concatenate([z for b in (pb, tb) if b is not None for z in b[:-1]])
            no_labels = np.zeros(0, dtype=int)
            value, terms = _contrastive(block, no_labels if pb is None else pb[-1],
                                        no_labels if tb is None else tb[-1], lam, lam_prime,
                                        margins)
            expect = np.concatenate(list(ref.grads.values()))
            expect *= lam
            assert block.tobytes() == expect.tobytes()
            assert (value, terms) == (ref.value, ref.terms)


def test_softmax_kernel_keeps_the_bits_of_the_unbuffered_code():
    rng = np.random.default_rng(13)
    for scale in (1.0, 1e3):
        W, zs = rng.normal(size=(5, 4)) * scale, rng.normal(size=(7, 4))
        ys = rng.integers(0, 5, 7)
        logits = zs @ W.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        G = np.exp(logp)
        G[np.arange(7), ys] -= 1.0
        G /= 7
        lv = softmax_loss(W, zs, ys)
        assert lv.value == float(-logp[np.arange(7), ys].mean())
        assert lv.grads["W"].tobytes() == (G.T @ zs).tobytes()
        assert lv.grads["z"].tobytes() == (G @ W).tobytes()


def test_softmax_value_alone_has_the_bits_of_softmax_loss():
    # validation's call: no gradient outputs, so no gradient GEMM
    rng = np.random.default_rng(17)
    for n, classes in ((1, 2), (9, 4), (40, 7)):
        W, zs = rng.normal(size=(classes, 5)) * 30.0, rng.normal(size=(n, 5))
        ys = rng.integers(0, classes, n)
        assert _softmax(W, zs, ys, None, None) == softmax_loss(W, zs, ys).value


# ---------------------------------------------------------------------------
# objectives through the network

def _setup_objective(seed):
    rng = np.random.default_rng(seed)
    spec = LayerSpec((6, 5, 4))
    params = init_glorot(spec, seed)
    W = init_classifier(3, 4, seed + 1)
    bx = rng.normal(size=(4, 6))
    by = rng.integers(0, 3, 4)
    # resolved tuples over one 8-row frame table, so members share rows
    frames = rng.normal(size=(8, 6))
    pairs = (frames, rng.integers(0, 8, (5, 2)), rng.integers(0, 2, 5))
    triplets = (frames, rng.integers(0, 8, (5, 3)), rng.integers(0, 2, 5))
    return spec, params, W, bx, by, pairs, triplets


def test_total_objective_lam_zero_is_pure_supervised():
    from ssfa.network import backward, forward

    spec, params, W, bx, by, pairs, triplets = _setup_objective(7)
    lv = total_objective(bx, by, pairs, triplets, params, W, 0.0, 1.0, M)
    zs, tape = forward(params, bx)
    sup = softmax_loss(W, zs, by)
    assert lv.value == sup.value
    ref = backward(params, tape, sup.grads["z"])
    for a, b in zip(split_model(spec, lv.grads["flat"])[0].weights, ref.weights):
        np.testing.assert_array_equal(a, b)
    assert lv.terms["slow"] == 0.0 and lv.terms["steady"] == 0.0


def test_total_objective_gradient_is_monolithic_sum():
    # grad(total) == grad(sup) + lam*grad(slow) + lam*lam_prime*grad(steady)
    from ssfa.network import backward, forward

    spec, params, W, bx, by, pairs, triplets = _setup_objective(8)
    lam, lam_prime = 0.7, 0.3
    lv = total_objective(bx, by, pairs, triplets, params, W, lam, lam_prime, M)

    zs, tape = forward(params, bx)
    sup = softmax_loss(W, zs, by)
    acc = backward(params, tape, sup.grads["z"])

    frames = pairs[0]
    za, ta = forward(params, frames[pairs[1][:, 0]])
    zb, tb = forward(params, frames[pairs[1][:, 1]])
    r2 = pair_loss(za, zb, pairs[2], M)

    def add(dst, src, s):
        for d, x in zip(dst.weights, src.weights):
            d += s * x
        for d, x in zip(dst.biases, src.biases):
            d += s * x

    add(acc, backward(params, ta, r2.grads["a"]), lam)
    add(acc, backward(params, tb, r2.grads["b"]), lam)
    zl, tl = forward(params, frames[triplets[1][:, 0]])
    zm, tm = forward(params, frames[triplets[1][:, 1]])
    zn, tn = forward(params, frames[triplets[1][:, 2]])
    r3 = triplet_loss(zl, zm, zn, triplets[2], M)
    add(acc, backward(params, tl, r3.grads["l"]), lam * lam_prime)
    add(acc, backward(params, tm, r3.grads["m"]), lam * lam_prime)
    add(acc, backward(params, tn, r3.grads["n"]), lam * lam_prime)

    dtheta, _ = split_model(spec, lv.grads["flat"])
    for a, b in zip(dtheta.weights + dtheta.biases, acc.weights + acc.biases):
        np.testing.assert_allclose(a, b, atol=1e-12)
    expect = sup.value + lam * r2.value + lam * lam_prime * r3.value
    assert abs(lv.value - expect) < 1e-12


def test_total_objective_accepts_reference_weight_settings():
    # the validated weight combinations are legal configurations
    _, params, W, bx, by, pairs, triplets = _setup_objective(9)
    for lam, lam_prime in ((0.1, 0.3), (3.0, 0.1), (0.3, 1.0)):
        lv = total_objective(bx, by, pairs, triplets, params, W, lam, lam_prime, M)
        assert np.isfinite(lv.value)


def test_reused_workspace_gives_the_bits_of_a_fresh_one():
    # a run's workspace is sized for its largest step and reused: a smaller
    # step after a larger one must not read the larger one's leftover rows
    spec, params, W, bx, by, pairs, triplets = _setup_objective(11)
    rng = np.random.default_rng(11)
    work = Workspace(spec, len(bx), pairs, triplets)
    co_work = Workspace(spec, 0, pairs, triplets)
    for n_lead, n_tuples in ((4, 5), (2, 3), (4, 1), (1, 5)):
        pb = (pairs[0], pairs[1][:n_tuples], pairs[2][:n_tuples])
        tb = (triplets[0], rng.integers(0, 8, (n_tuples, 3)), triplets[2][:n_tuples])
        args = (bx[:n_lead], by[:n_lead], pb, tb, params, W, 0.7, 0.3, M)
        out = np.empty(spec.param_count + W.size)
        fresh, reused = total_objective(*args), total_objective(*args, work=work, out=out)
        assert reused.grads["flat"] is out
        assert not work.pos.any()  # the row-position map is clear between calls
        assert reused.grads["flat"].tobytes() == fresh.grads["flat"].tobytes()
        assert (reused.value, reused.terms) == (fresh.value, fresh.terms)
        fresh = coherence_objective(pb, tb, params, 0.3, M)
        reused = total_objective(None, None, pb, tb, params, np.empty((0, spec.out_dim)), 1.0,
                                 0.3, M, work=co_work)
        assert reused.grads["flat"].tobytes() == fresh.grads["flat"].tobytes()
        assert (reused.value, reused.terms) == (fresh.value, fresh.terms)


@pytest.mark.parametrize("supervised", [True, False])
def test_total_objective_into_the_vector_of_its_parameters_keeps_the_bits(supervised):
    # the step loop passes the lookahead vector as out=, with the parameters
    # and the classifier as its views: the gradient overwrites the point it
    # was taken at and must equal a fresh call's
    spec, params, W, bx, by, pairs, triplets = _setup_objective(12)
    if not supervised:
        bx, by, W = None, None, np.empty((0, spec.out_dim))
    args = (bx, by, pairs, triplets)
    fresh = total_objective(*args, params, W, 0.7, 0.3, M)
    v = np.concatenate([params.flat, W.ravel()])
    at_params, at_W = split_model(spec, v)
    lv = total_objective(*args, at_params, at_W, 0.7, 0.3, M, out=v)
    assert lv.grads["flat"] is v
    dtheta, dW = split_model(spec, lv.grads["flat"])
    assert dtheta.flat.base is v and dW.base is v
    assert v.tobytes() == fresh.grads["flat"].tobytes()
    assert (lv.value, lv.terms) == (fresh.value, fresh.terms)


def test_coherence_objective_requires_tuples():
    _, params, *_ = _setup_objective(10)
    with pytest.raises(ValueError):
        coherence_objective(None, None, params, 1.0, M)


@pytest.mark.parametrize("field", ["delta_pair", "delta_triplet"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_margins_reject_non_finite_values(field, value):
    # a NaN margin made every negative hinge `> 0` test false
    with pytest.raises(ValueError, match="finite"):
        Margins(**{field: value})


def test_margins_reject_an_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'l3'"):
        Margins(metric="l3")
