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

import math
from dataclasses import dataclass, field

import numpy as np

from .network import ActivationTape, LayerSpec, NetworkParams, backward, forward, split_model


@dataclass(frozen=True)
class Margins:
    """Contrastive margins and the distance metric ("l2" or "l1")."""

    delta_pair: float = 1.0
    delta_triplet: float = 1.0
    metric: str = "l2"

    def __post_init__(self):
        if not all(math.isfinite(d) and d >= 0 for d in (self.delta_pair, self.delta_triplet)):
            raise ValueError("margins must be finite and >= 0, got "
                             f"delta_pair={self.delta_pair}, delta_triplet={self.delta_triplet}")
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


class Workspace:
    """The buffers of the fused pass, sized once and reused by every
    objective call that passes it as ``work``: the stacked batch X (``lead``
    labeled rows plus at most min(``table_rows``, ``members``) unique table
    rows), the forward tape with backward's scratch, dZ, the member block
    (each member's feature row, then its gradient), a table-sized
    row-position map, and the flat gradient (network parameters followed by
    a ``classes`` x k classifier) with its ``split_model`` views. The
    gradients an objective returns view these buffers, so the next call
    with the same workspace overwrites them.
    """

    def __init__(self, spec: LayerSpec, lead: int, table_rows: int, members: int,
                 classes: int = 0):
        rows, k = lead + min(table_rows, members), spec.out_dim
        self.X = np.empty((rows, spec.in_dim))
        self.tape = ActivationTape.buffers(spec, rows)
        self.dZ = np.empty((rows, k))
        self.member = np.empty((members, k))
        self.member_at = np.empty((members, k), dtype=np.intp)
        self.pos = np.zeros(table_rows, dtype=np.intp)  # all zero between calls
        self.cols = np.arange(k)
        self.flat = np.empty(spec.param_count + classes * k)
        self.dtheta, self.dW = split_model(spec, self.flat)

    @classmethod
    def fitting(cls, spec: LayerSpec, lead: int, pairs, triplets, classes: int = 0):
        """A workspace sized for exactly these (``_tuples``-checked) batches."""
        batches = [b for b in (pairs, triplets) if b is not None]
        return cls(spec, lead, len(batches[0][0]) if batches else 0,
                   sum(b[1].size for b in batches), classes)


def _tuples(pairs, triplets, lam_prime: float):
    """(pairs, triplets) as the fused pass takes them: a side without tuples
    is None, and so are the triplets when lam_prime is 0. Both must index
    one frame table."""
    pairs, triplets = (b if has_tuples(b) else None
                       for b in (pairs, triplets if lam_prime != 0.0 else None))
    if pairs is not None and triplets is not None and pairs[0] is not triplets[0]:
        raise ValueError("pairs and triplets must index one frame table")
    return pairs, triplets


def _fused(ws: Workspace, params: NetworkParams, lead_x, pairs, triplets, lam: float,
           lam_prime: float, margins: Margins):
    """The one forward pass behind both objectives, over ``lead_x`` (None:
    no lead rows) stacked on the unique table rows that the tuples' members
    name. Returns (Z, tape, coherence LossValue, dZ), the arrays in ``ws``;
    dZ holds lam times each member's feature gradient added onto its row,
    zeros elsewhere."""
    lead = 0 if lead_x is None else len(lead_x)
    batches = [b for b in (pairs, triplets) if b is not None]
    if not batches:
        if lead_x is None:
            raise ValueError("need at least one of pairs/triplets")
        Z, tape = forward(params, lead_x, out=ws.tape)
        dZ = ws.dZ[:lead]
        dZ.fill(0.0)
        return Z, tape, LossValue(0.0, {}, {"slow": 0.0, "steady": 0.0}), dZ
    # every member's table row: pair column j, then k, then triplet l, m, n
    members = np.concatenate([idx.T.ravel() for _, idx, _ in batches])
    # the sorted unique rows, and the X row of each member, from the position map
    ws.pos[members] = 1
    rows = np.flatnonzero(ws.pos)
    ws.pos[rows] = np.arange(lead, lead + len(rows))
    at = ws.pos[members]
    ws.pos[rows] = 0
    X = ws.X[: lead + len(rows)]
    if lead:
        X[:lead] = lead_x
    # both index arrays are in range (they come from the table-sized map), and
    # np.take's default mode="raise" would copy through a temporary instead of into out
    np.take(batches[0][0], rows, axis=0, out=X[lead:], mode="clip")
    Z, tape = forward(params, X, out=ws.tape)
    block = np.take(Z, at, axis=0, out=ws.member[: len(members)], mode="clip")
    feats, start = [], 0
    for b in (pairs, triplets):
        size = 0 if b is None else b[1].size
        feats.append((*block[start : start + size].reshape(b[1].shape[1], len(b[1]), -1), b[2])
                     if size else None)
        start += size
    co = unsupervised_loss(*feats, lam_prime, margins)
    # co.grads holds one gradient per member, lam_prime applied, in the order of members;
    # they replace the features in the block. np.add.at over flat element indices takes
    # numpy's fast path, row indices do not
    np.concatenate(list(co.grads.values()), out=block)
    block *= lam
    flat_at = np.add(at[:, None] * Z.shape[1], ws.cols, out=ws.member_at[: len(members)])
    dZ = ws.dZ[: len(X)]
    dZ.fill(0.0)
    np.add.at(dZ.ravel(), flat_at.ravel(), block.ravel())
    return Z, tape, co, dZ


def coherence_objective(pairs, triplets, params: NetworkParams, lam_prime: float,
                        margins: Margins, *, work: Workspace = None) -> LossValue:
    """Unsupervised coherence loss through the network: the fused pass with
    no labeled rows, over resolved (frames, idx, p) tuples on one frame
    table. ``grads["theta"]`` is w.r.t. the one shared parameter set. The
    triplet side is skipped entirely when lam_prime is 0. ``work`` (a
    :class:`Workspace` with room for the batches) holds the pass's arrays
    and the gradient; None sizes one for this call."""
    pairs, triplets = _tuples(pairs, triplets, lam_prime)
    ws = Workspace.fitting(params.layer_spec(), 0, pairs, triplets) if work is None else work
    _, tape, co, dZ = _fused(ws, params, None, pairs, triplets, 1.0, lam_prime, margins)
    return LossValue(co.value, {"theta": backward(params, tape, dZ, ws.dtheta.flat)}, co.terms)


def total_objective(batch_x, batch_y, pairs, triplets, params: NetworkParams, W, lam: float,
                    lam_prime: float, margins: Margins, *, work: Workspace = None) -> LossValue:
    """Joint objective: supervised softmax loss on the labeled batch plus
    lam times the coherence loss, in one fused forward and backward pass.

    The parameter gradient is the exact sum grad(sup) + lam * grad(slow)
    + lam * lam_prime * grad(steady); the classifier gradient comes from
    the supervised term only. Both live in one vector ``grads["flat"]``
    (theta.flat followed by W, row-major) that ``grads["theta"]`` and
    ``grads["W"]`` view. With lam = 0 the tuple inputs are ignored.
    ``work`` (a :class:`Workspace` with room for the batch and W's rows)
    holds the pass's arrays and the gradient; None sizes one for this call.
    """
    W = np.asarray(W, dtype=np.float64)
    pairs, triplets = _tuples(pairs, triplets, lam_prime) if lam != 0.0 else (None, None)
    lead = len(batch_x)
    ws = (Workspace.fitting(params.layer_spec(), lead, pairs, triplets, len(W))
          if work is None else work)
    Z, tape, co, dZ = _fused(ws, params, batch_x, pairs, triplets, lam, lam_prime, margins)
    sup = softmax_loss(W, Z[:lead], batch_y)
    dZ[:lead] = sup.grads["z"]
    backward(params, tape, dZ, ws.dtheta.flat)
    ws.dW[...] = sup.grads["W"]
    return LossValue(sup.value + lam * co.value, {"theta": ws.dtheta, "W": ws.dW, "flat": ws.flat},
                     {"sup": sup.value, **co.terms})
