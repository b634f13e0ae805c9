"""Objective terms and their exact gradients.

The supervised term is a mean softmax loss over a labeled batch. The
unsupervised terms are contrastive: a pair loss that penalizes feature
distance between temporal neighbors and pushes non-neighbors apart up to a
margin (slowness), and a triplet loss applying the same contrastive form to
the two consecutive difference vectors of a frame triplet, which drives
positive triplets toward collinear, evenly spaced embeddings (steadiness).

Batch losses are means, not sums, so the regularization weights are
independent of batch-size choices. Distances default to unsquared
Euclidean ("l2"); "l1" is available. Subgradient conventions: the l2
distance gradient at coincident points is 0, the hinge gradient exactly at
the margin is 0, and sign(0) = 0 for l1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import NetworkParams, backward, forward, split_model


@dataclass(frozen=True)
class Margins:
    """Contrastive margins and the distance metric ("l2" or "l1")."""

    delta_pair: float = 1.0
    delta_triplet: float = 1.0
    metric: str = "l2"

    def __post_init__(self):
        if self.delta_pair < 0 or self.delta_triplet < 0:
            raise ValueError("margins must be >= 0")
        if self.metric not in ("l2", "l1"):
            raise ValueError(f"unknown metric {self.metric!r}")


@dataclass
class LossValue:
    """A scalar loss plus gradients w.r.t. its inputs.

    ``grads`` keys depend on the operation:
      softmax_loss      "W", "z"
      pair_loss         "a", "b"              (per-row gradients)
      triplet_loss      "l", "m", "n"
      unsupervised_loss "pair_a", "pair_b", "trip_l", "trip_m", "trip_n"
      coherence_objective "theta" (NetworkParams)
      total_objective   "theta" (NetworkParams), "W", "flat" (theta then W)
    ``terms`` carries the sub-loss values ("sup", "slow", "steady") where
    applicable.
    """

    value: float
    grads: dict
    terms: dict = field(default_factory=dict)


def _distance_rows(a: np.ndarray, b: np.ndarray, metric: str):
    """Row-wise distance d(a, b) and its gradient w.r.t. a (shape of a)."""
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


def _contrastive_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray, delta: float, metric: str):
    """Vectorized contrastive loss over rows; returns (values, da rows).
    db = -da always, since both branches depend only on a - b."""
    d, unit = _distance_rows(a, b, metric)
    pos = p.astype(bool)
    hinge = delta - d
    active = (~pos) & (hinge > 0.0)
    values = np.where(pos, d, np.where(active, hinge, 0.0))
    coeff = np.where(pos, 1.0, np.where(active, -1.0, 0.0))
    return values, coeff[..., None] * unit


def pair_loss(za, zb, p, margins: Margins) -> LossValue:
    """Mean contrastive loss over a batch of feature pairs (slowness term)."""
    za = np.atleast_2d(np.asarray(za, dtype=np.float64))
    zb = np.atleast_2d(np.asarray(zb, dtype=np.float64))
    p = np.asarray(p)
    if len(p) == 0:
        raise ValueError("empty pair batch")
    if za.shape != zb.shape or za.shape[0] != len(p):
        raise ValueError(f"pair batch shapes {za.shape}, {zb.shape}, {p.shape} disagree")
    values, da = _contrastive_rows(za, zb, p, margins.delta_pair, margins.metric)
    n = len(p)
    ga = da / n
    return LossValue(float(values.mean()), {"a": ga, "b": -ga})


def triplet_loss(zl, zm, zn, p, margins: Margins) -> LossValue:
    """Mean contrastive loss over the two difference vectors of each
    triplet (steadiness term). Positive triplets are penalized toward
    zl - zm == zm - zn, i.e. collinear equally spaced features."""
    zl = np.atleast_2d(np.asarray(zl, dtype=np.float64))
    zm = np.atleast_2d(np.asarray(zm, dtype=np.float64))
    zn = np.atleast_2d(np.asarray(zn, dtype=np.float64))
    p = np.asarray(p)
    if len(p) == 0:
        raise ValueError("empty triplet batch")
    if not (zl.shape == zm.shape == zn.shape) or zl.shape[0] != len(p):
        raise ValueError("triplet batch shapes disagree")
    u = zl - zm
    v = zm - zn
    values, du = _contrastive_rows(u, v, p, margins.delta_triplet, margins.metric)
    n = len(p)
    du = du / n
    dv = -du
    return LossValue(
        float(values.mean()),
        {"l": du, "m": dv - du, "n": -dv},
    )


def softmax_loss(W, zs, ys) -> LossValue:
    """Mean negative log softmax probability of the correct class,
    computed max-shifted for stability. Gradients w.r.t. W and each
    feature vector."""
    W = np.asarray(W, dtype=np.float64)
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    ys = np.asarray(ys, dtype=np.intp).ravel()
    n = zs.shape[0]
    if n == 0 or len(ys) == 0:
        raise ValueError("empty labeled batch")
    if len(ys) != n or zs.shape[1] != W.shape[1]:
        raise ValueError(f"batch shapes {zs.shape}, {ys.shape} incompatible with W {W.shape}")
    if ys.min() < 0 or ys.max() >= W.shape[0]:
        raise ValueError("label out of range")
    logits = zs @ W.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = -logp[np.arange(n), ys].mean()
    G = np.exp(logp)
    G[np.arange(n), ys] -= 1.0
    G /= n
    return LossValue(float(value), {"W": G.T @ zs, "z": G @ W})


def unsupervised_loss(pairs, triplets, lam_prime: float, margins: Margins) -> LossValue:
    """Combined coherence loss on feature vectors:
    pair term + lam_prime * triplet term. A missing side contributes 0.

    ``pairs`` is (za, zb, p) and ``triplets`` is (zl, zm, zn, p); either
    may be None or empty, but not both.
    """
    have_pairs = pairs is not None and len(pairs[-1]) > 0
    have_triplets = triplets is not None and len(triplets[-1]) > 0
    if not have_pairs and not have_triplets:
        raise ValueError("need at least one of pairs/triplets")
    value = 0.0
    grads, terms = {}, {"slow": 0.0, "steady": 0.0}
    if have_pairs:
        r2 = pair_loss(*pairs, margins)
        value += r2.value
        terms["slow"] = r2.value
        grads["pair_a"] = r2.grads["a"]
        grads["pair_b"] = r2.grads["b"]
    if have_triplets:
        r3 = triplet_loss(*triplets, margins)
        value += lam_prime * r3.value
        terms["steady"] = r3.value
        grads["trip_l"] = lam_prime * r3.grads["l"]
        grads["trip_m"] = lam_prime * r3.grads["m"]
        grads["trip_n"] = lam_prime * r3.grads["n"]
    return LossValue(value, grads, terms)


def coherence_objective(pairs, triplets, params: NetworkParams,
                        lam_prime: float, margins: Margins) -> LossValue:
    """Unsupervised coherence loss composed through the network.

    ``pairs`` is (xa, xb, p) and ``triplets`` is (xl, xm, xn, p) of raw
    (preprocessed, flattened) inputs. The returned gradient is w.r.t. the
    single shared parameter set: every tuple member is embedded by the
    same network and each branch gradient, scaled after backward, is added
    into one flat gradient vector. The triplet side is skipped entirely
    when lam_prime is 0.
    """
    have_pairs = pairs is not None and len(pairs[-1]) > 0
    present_triplets = triplets is not None and len(triplets[-1]) > 0
    if not have_pairs and not present_triplets:
        raise ValueError("need at least one of pairs/triplets")
    have_triplets = present_triplets and lam_prime != 0.0
    dtheta = NetworkParams.from_flat(params.layer_spec(), np.zeros_like(params.flat))
    value = 0.0
    terms = {"slow": 0.0, "steady": 0.0}
    if have_pairs:
        xa, xb, p = pairs
        za, ta = forward(params, xa)
        zb, tb = forward(params, xb)
        r2 = pair_loss(za, zb, p, margins)
        value += r2.value
        terms["slow"] = r2.value
        dtheta.flat += backward(params, ta, r2.grads["a"], input_grad=False)[0].flat
        dtheta.flat += backward(params, tb, r2.grads["b"], input_grad=False)[0].flat
    if have_triplets:
        xl, xm, xn, p = triplets
        zl, tl = forward(params, xl)
        zm, tm = forward(params, xm)
        zn, tn = forward(params, xn)
        r3 = triplet_loss(zl, zm, zn, p, margins)
        value += lam_prime * r3.value
        terms["steady"] = r3.value
        dtheta.flat += lam_prime * backward(params, tl, r3.grads["l"], input_grad=False)[0].flat
        dtheta.flat += lam_prime * backward(params, tm, r3.grads["m"], input_grad=False)[0].flat
        dtheta.flat += lam_prime * backward(params, tn, r3.grads["n"], input_grad=False)[0].flat
    return LossValue(value, {"theta": dtheta}, terms)


def total_objective(batch_x, batch_y, pairs, triplets, params: NetworkParams,
                    W, lam: float, lam_prime: float, margins: Margins) -> LossValue:
    """Joint objective: supervised softmax loss plus lam times the
    coherence loss, all through the shared network.

    The parameter gradient is the exact sum grad(sup) + lam * grad(slow)
    + lam * lam_prime * grad(steady) accumulated into one parameter set;
    the classifier gradient comes from the supervised term only. Both live
    in one vector ``grads["flat"]`` (theta.flat followed by W, row-major)
    that ``grads["theta"]`` and ``grads["W"]`` view. With lam = 0 the
    tuple inputs are ignored.
    """
    W = np.asarray(W, dtype=np.float64)
    zs, tape = forward(params, batch_x)
    sup = softmax_loss(W, zs, batch_y)
    flat = np.empty(params.flat.size + W.size)
    dtheta, dW = split_model(params.layer_spec(), flat)
    backward(params, tape, sup.grads["z"], dtheta.flat, input_grad=False)
    dW[...] = sup.grads["W"]
    value = sup.value
    terms = {"sup": sup.value, "slow": 0.0, "steady": 0.0}
    have_pairs = pairs is not None and len(pairs[-1]) > 0
    have_triplets = triplets is not None and len(triplets[-1]) > 0
    if lam != 0.0 and (have_pairs or have_triplets):
        co = coherence_objective(pairs, triplets, params, lam_prime, margins)
        value += lam * co.value
        terms["slow"] = co.terms["slow"]
        terms["steady"] = co.terms["steady"]
        dtheta.flat += lam * co.grads["theta"].flat
    return LossValue(value, {"theta": dtheta, "W": dW, "flat": flat}, terms)
