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
      coherence_objective "theta" (NetworkParams, from one fused backward)
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


def has_tuples(batch) -> bool:
    """True when ``batch`` (tuple arrays with the labels last, or None)
    holds at least one tuple."""
    return batch is not None and len(batch[-1]) > 0


def unsupervised_loss(pairs, triplets, lam_prime: float, margins: Margins) -> LossValue:
    """Combined coherence loss on feature vectors:
    pair term + lam_prime * triplet term. A missing side contributes 0.

    ``pairs`` is (za, zb, p) and ``triplets`` is (zl, zm, zn, p); either
    may be None or empty, but not both.
    """
    have_pairs, have_triplets = has_tuples(pairs), has_tuples(triplets)
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


def _fused(params: NetworkParams, lead_x, pairs, triplets, lam: float, lam_prime: float,
           margins: Margins):
    """The one forward pass behind both objectives, over ``lead_x`` (None:
    no lead rows) stacked on the unique table rows that the tuples' members
    name; triplets count only when lam_prime != 0. Returns (Z, tape,
    coherence LossValue, dZ), dZ holding lam times each member's feature
    gradient added onto its row, zeros elsewhere."""
    if lam_prime == 0.0:
        triplets = None
    batches = [b for b in (pairs, triplets) if has_tuples(b)]
    if not batches:
        if lead_x is None:
            raise ValueError("need at least one of pairs/triplets")
        Z, tape = forward(params, lead_x)
        return Z, tape, LossValue(0.0, {}, {"slow": 0.0, "steady": 0.0}), np.zeros_like(Z)
    frames = batches[0][0]
    if any(b[0] is not frames for b in batches):
        raise ValueError("pairs and triplets must index one frame table")
    # every member's table row: pair column j, then k, then triplet l, m, n
    members = np.concatenate([idx.T.ravel() for _, idx, _ in batches])
    rows, inv = np.unique(members, return_inverse=True)
    X = frames[rows] if lead_x is None else np.concatenate((lead_x, frames[rows]))
    Z, tape = forward(params, X)
    at = len(X) - len(rows) + inv  # the Z row of each member, in the order of members
    zs, feats, start = Z[at], [], 0
    for b in (pairs, triplets):
        size = b[1].size if has_tuples(b) else 0
        feats.append((*zs[start : start + size].reshape(b[1].shape[1], len(b[1]), -1), b[2])
                     if size else None)
        start += size
    co = unsupervised_loss(*feats, lam_prime, margins)
    # co.grads holds one gradient per member, lam_prime applied, in the order of members;
    # np.add.at over flat element indices takes numpy's fast path, row indices do not
    dZ, k = np.zeros_like(Z), Z.shape[1]
    np.add.at(dZ.ravel(), (at[:, None] * k + np.arange(k)).ravel(),
              lam * np.concatenate(list(co.grads.values())).ravel())
    return Z, tape, co, dZ


def coherence_objective(pairs, triplets, params: NetworkParams,
                        lam_prime: float, margins: Margins) -> LossValue:
    """Unsupervised coherence loss through the network: the fused pass with
    no labeled rows, over resolved (frames, idx, p) tuples on one frame
    table. ``grads["theta"]`` is w.r.t. the one shared parameter set. The
    triplet side is skipped entirely when lam_prime is 0."""
    _, tape, co, dZ = _fused(params, None, pairs, triplets, 1.0, lam_prime, margins)
    return LossValue(co.value, {"theta": backward(params, tape, dZ)}, co.terms)


def total_objective(batch_x, batch_y, pairs, triplets, params: NetworkParams,
                    W, lam: float, lam_prime: float, margins: Margins) -> LossValue:
    """Joint objective: supervised softmax loss on the labeled batch plus
    lam times the coherence loss, in one fused forward and backward pass.

    The parameter gradient is the exact sum grad(sup) + lam * grad(slow)
    + lam * lam_prime * grad(steady); the classifier gradient comes from
    the supervised term only. Both live in one vector ``grads["flat"]``
    (theta.flat followed by W, row-major) that ``grads["theta"]`` and
    ``grads["W"]`` view. With lam = 0 the tuple inputs are ignored.
    """
    W = np.asarray(W, dtype=np.float64)
    if lam == 0.0:
        pairs = triplets = None
    Z, tape, co, dZ = _fused(params, batch_x, pairs, triplets, lam, lam_prime, margins)
    sup = softmax_loss(W, Z[: len(batch_x)], batch_y)
    dZ[: len(batch_x)] = sup.grads["z"]
    flat = np.empty(params.flat.size + W.size)
    dtheta, dW = split_model(params.layer_spec(), flat)
    backward(params, tape, dZ, dtheta.flat)
    dW[...] = sup.grads["W"]
    return LossValue(sup.value + lam * co.value, {"theta": dtheta, "W": dW, "flat": flat},
                     {"sup": sup.value, **co.terms})
