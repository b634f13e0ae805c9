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

Both contrastive terms run through one private kernel over stacked contrast
rows, and both softmax callers through one softmax kernel; each kernel
allocates its own scratch on every call. The public losses wrap them for
feature batches, and the one objective runs them on the rows of a
:class:`Workspace`, so the finite-difference audit of the public losses
checks the code that training runs. The coherence objective is that
objective with no labeled rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import network
from .network import ActivationTape, LayerSpec, NetworkParams, backward, forward


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
      total_objective   "flat": theta.flat then W, row-major, one vector
                        from one fused backward (``split_model`` views it)
      coherence_objective "flat": theta.flat
    ``terms`` carries the sub-loss values ("sup", "slow", "steady") where
    applicable.
    """

    value: float
    grads: dict
    terms: dict = field(default_factory=dict)


_NO_LABELS = np.zeros(0, dtype=np.intp)


def _contrastive(block, p_pair, p_trip, lam: float, lam_prime: float, margins: Margins):
    """The one contrastive kernel behind every coherence term.

    ``block`` holds the members' feature rows: the pairs' a then b, then
    the triplets' l, m and n, with ``p_pair`` / ``p_trip`` their labels
    (either may be empty). One contrast row per tuple, a - b for a pair and
    (l - m) - (m - n) for a triplet, goes through one pass over the stacked
    rows: the distance d, the unit row, the hinge, the value and the
    coefficient (+1 positive, -1 negative inside the margin, else 0), and
    g = (coeff * unit) / n, n being the row's own batch size. The members'
    gradients then replace their features in ``block``: g and -g for a
    pair, lam_prime * g, lam_prime * ((-g) - g) and lam_prime * g for a
    triplet, each times lam. Returns (value, terms): the pair mean plus
    lam_prime times the triplet mean, and each mean as "slow" / "steady"
    (0.0 for a side without tuples). The kernel's scratch is the contrast
    rows, their unit rows (first their squares or absolute values), five
    per-row float vectors and three per-row masks, which every operation
    writes through ``out=``.
    """
    n_p, n_t, k = len(p_pair), len(p_trip), block.shape[1]
    rows = n_p + n_t
    a, b = block[: 2 * n_p].reshape(2, n_p, k)
    l, m, n = block[2 * n_p : 2 * n_p + 3 * n_t].reshape(3, n_t, k)
    c, u = np.empty((rows, k)), np.empty((rows, k))
    d, hinge, values, coeff, safe = np.empty((5, rows))
    neg, act, zero = np.empty((3, rows), dtype=bool)
    np.subtract(a, b, out=c[:n_p])
    np.subtract(l, m, out=c[n_p:])
    c[n_p:] -= np.subtract(m, n, out=u[n_p:])
    if margins.metric == "l2":
        np.sqrt(np.add.reduce(np.multiply(c, c, out=u), axis=1, out=d), out=d)
        # a row at d == 0 (coincident, or with squares that underflow) has a zero unit
        np.equal(d, 0.0, out=zero)
        np.divide(c, np.add(d, zero, out=safe)[:, None], out=u)
        np.copyto(u, 0.0, where=zero[:, None])
    else:
        np.add.reduce(np.abs(c, out=u), axis=1, out=d)
        np.sign(c, out=u)
    np.subtract(margins.delta_pair, d[:n_p], out=hinge[:n_p])
    np.subtract(margins.delta_triplet, d[n_p:], out=hinge[n_p:])
    np.equal(p_pair, 0, out=neg[:n_p])
    np.equal(p_trip, 0, out=neg[n_p:])
    # a negative is active strictly inside its margin: the gradient at the margin is 0
    np.greater(hinge, 0.0, out=act)
    act &= neg
    np.copyto(values, d)
    np.copyto(values, 0.0, where=neg)
    np.copyto(values, hinge, where=act)
    np.subtract(1.0, neg, out=coeff)
    coeff -= act
    u *= coeff[:, None]
    u[:n_p] /= n_p
    u[n_p:] /= n_t
    np.copyto(a, u[:n_p])
    np.negative(u[:n_p], out=b)
    g = u[n_p:]
    np.multiply(lam_prime, g, out=l)
    np.subtract(np.negative(g, out=m), g, out=m)
    m *= lam_prime
    np.copyto(n, l)
    block *= lam
    slow = float(np.add.reduce(values[:n_p]) / n_p) if n_p else 0.0
    steady = float(np.add.reduce(values[n_p:]) / n_t) if n_t else 0.0
    value = 0.0
    if n_p:
        value += slow
    if n_t:
        value += lam_prime * steady
    return value, {"slow": slow, "steady": steady}


def _tuple_loss(zs, p, margins: Margins):
    """The kernel on one checked batch of feature tuples: ``zs`` the members
    (a, b of pairs or l, m, n of triplets), one row per label in ``p``.
    Returns (mean loss, member gradients as views of one block)."""
    kind = "pair" if len(zs) == 2 else "triplet"
    zs = [np.atleast_2d(np.asarray(z, dtype=np.float64)) for z in zs]
    p = np.asarray(p)
    if len(p) == 0:
        raise ValueError(f"empty {kind} batch")
    if any(z.shape != zs[0].shape for z in zs) or zs[0].shape[0] != len(p):
        raise ValueError(f"{kind} batch shapes {[z.shape for z in zs]}, {p.shape} disagree")
    block = np.concatenate(zs)
    labels = (p, _NO_LABELS) if kind == "pair" else (_NO_LABELS, p)
    value, _ = _contrastive(block, *labels, 1.0, 1.0, margins)
    return value, np.split(block, len(zs))


def pair_loss(za, zb, p, margins: Margins) -> LossValue:
    """Mean contrastive loss over a batch of feature pairs (slowness term)."""
    value, (ga, gb) = _tuple_loss((za, zb), p, margins)
    return LossValue(value, {"a": ga, "b": gb})


def triplet_loss(zl, zm, zn, p, margins: Margins) -> LossValue:
    """Mean contrastive loss over the two difference vectors of each
    triplet (steadiness term). Positive triplets are penalized toward
    zl - zm == zm - zn, i.e. collinear equally spaced features."""
    value, (gl, gm, gn) = _tuple_loss((zl, zm, zn), p, margins)
    return LossValue(value, {"l": gl, "m": gm, "n": gn})


def _labeled_batch(W, zs, ys):
    """The labels of a softmax batch as intp, checked against the features
    ``zs`` and the classifier ``W``."""
    ys = np.asarray(ys, dtype=np.intp).ravel()
    n = zs.shape[0]
    if n == 0 or len(ys) == 0:
        raise ValueError("empty labeled batch")
    if len(ys) != n or zs.shape[1] != W.shape[1]:
        raise ValueError(f"batch shapes {zs.shape}, {ys.shape} incompatible with W {W.shape}")
    if ys.min() < 0 or ys.max() >= W.shape[0]:
        raise ValueError("label out of range")
    return ys


def _softmax(W, zs, ys, dz, dW) -> float:
    """The softmax kernel on checked inputs: returns the mean loss and
    writes the feature gradient G @ W into ``dz`` and the classifier
    gradient G.T @ zs into ``dW``. With ``dz`` and ``dW`` None it returns
    the loss alone and runs no gradient GEMM."""
    n = len(zs)
    logits = zs @ W.T
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = (np.arange(n), ys)
    value = float(-logp[picked].mean())
    if dz is None:
        return value
    G = np.exp(logp)
    G[picked] -= 1.0
    G /= n
    # dz first: in the training step dW is a view of the vector that W views,
    # so writing dW overwrites the W that G @ W reads
    np.matmul(G, W, out=dz)
    np.matmul(G.T, zs, out=dW)
    return value


def softmax_loss(W, zs, ys) -> LossValue:
    """Mean negative log softmax probability of the correct class,
    computed max-shifted for stability. Gradients w.r.t. W and each
    feature vector."""
    W = np.asarray(W, dtype=np.float64)
    zs = np.atleast_2d(np.asarray(zs, dtype=np.float64))
    ys = _labeled_batch(W, zs, ys)
    dz, dW = np.empty(zs.shape), np.empty(W.shape)
    value = _softmax(W, zs, ys, dz, dW)
    return LossValue(value, {"W": dW, "z": dz})


def has_tuples(batch) -> bool:
    """True when ``batch`` (tuple arrays with the labels last, or None)
    holds at least one tuple."""
    return batch is not None and len(batch[-1]) > 0


class Workspace:
    """The arrays of one fused pass, reused by every objective call that
    passes it as ``work``. They are sized for ``lead`` labeled rows and the
    largest ``pairs`` and ``triplets`` batches (None, or a frame table and
    idx rows first): the stacked batch X, the forward tape, dZ, the member
    block (each idx entry's feature row, then its gradient) with its flat
    element indices, a table-sized row-position map and the column index.
    The next call with the same workspace overwrites them. The loss
    kernels' scratch is not among them, nor is the gradient: it goes into
    the objective's ``out``.
    """

    def __init__(self, spec: LayerSpec, lead: int, pairs, triplets):
        batches = [b for b in (pairs, triplets) if b is not None]
        table_rows = len(batches[0][0]) if batches else 0
        members = sum(b[1].size for b in batches)
        rows, k = lead + min(table_rows, members), spec.out_dim
        self.X = np.empty((rows, spec.in_dim))
        self.tape = ActivationTape.buffers(spec, rows)
        self.dZ = np.empty((rows, k))
        self.member = np.empty((members, k))
        self.member_at = np.empty((members, k), dtype=np.intp)
        self.pos = np.zeros(table_rows, dtype=np.intp)  # all zero between calls
        self.cols = np.arange(k)


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
    """The one forward pass of :func:`total_objective`, over ``lead_x`` (None:
    no lead rows) stacked on the unique table rows that the tuples' members
    name. Returns (Z, tape, coherence value, terms, dZ), the arrays in
    ``ws``; dZ holds lam times each member's feature gradient added onto
    its row, zeros elsewhere."""
    lead = 0 if lead_x is None else len(lead_x)
    batches = [b for b in (pairs, triplets) if b is not None]
    if not batches:
        if lead_x is None:
            raise ValueError("need at least one of pairs/triplets")
        Z, tape = forward(params, lead_x, out=ws.tape)
        dZ = ws.dZ[:lead]
        dZ.fill(0.0)
        return Z, tape, 0.0, {"slow": 0.0, "steady": 0.0}, dZ
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
    network._halves(len(rows), lambda i, j: np.take(
        batches[0][0], rows[i:j], axis=0, out=X[lead + i : lead + j], mode="clip"),
        network._split_elems(rows.size * X.shape[1]))
    Z, tape = forward(params, X, out=ws.tape)
    block = np.take(Z, at, axis=0, out=ws.member[: len(members)], mode="clip")
    labels = [_NO_LABELS if b is None else b[2] for b in (pairs, triplets)]
    value, terms = _contrastive(block, *labels, lam, lam_prime, margins)
    # the block now holds each member's gradient; np.add.at over flat element
    # indices takes numpy's fast path, row indices do not
    flat_at = np.add(at[:, None] * Z.shape[1], ws.cols, out=ws.member_at[: len(members)])
    dZ = ws.dZ[: len(X)]
    dZ.fill(0.0)
    np.add.at(dZ.ravel(), flat_at.ravel(), block.ravel())
    return Z, tape, value, terms, dZ


def coherence_objective(pairs, triplets, params: NetworkParams, lam_prime: float,
                        margins: Margins) -> LossValue:
    """Unsupervised coherence loss through the network: the joint objective
    with no labeled rows, a 0 x k classifier and lam = 1, over resolved
    (frames, idx, p) tuples on one frame table, so ``terms`` holds "slow"
    and "steady" and ``grads["flat"]`` is theta.flat. The triplet side is
    skipped entirely when lam_prime is 0."""
    return total_objective(None, None, pairs, triplets, params,
                           np.empty((0, params.layer_spec().out_dim)), 1.0, lam_prime, margins)


def total_objective(batch_x, batch_y, pairs, triplets, params: NetworkParams, W, lam: float,
                    lam_prime: float, margins: Margins, *, work: Workspace = None,
                    out: np.ndarray = None) -> LossValue:
    """Joint objective: supervised softmax loss on the labeled batch plus
    lam times the coherence loss, in one fused forward and backward pass.

    The parameter gradient is the exact sum grad(sup) + lam * grad(slow)
    + lam * lam_prime * grad(steady); the classifier gradient comes from
    the supervised term only. Both live in one vector ``grads["flat"]``:
    theta.flat followed by W, row-major. With lam = 0 the tuple inputs
    are ignored; with ``batch_x`` None there is no supervised term:
    ``terms`` has no "sup" and the classifier gradient is zero.
    ``work`` (a :class:`Workspace` with room for the batch) holds the
    pass's arrays; None sizes one for this call. ``out`` (None: a
    fresh vector) takes the gradient; ``params`` and ``W`` may view it.
    """
    W = np.asarray(W, dtype=np.float64)
    pairs, triplets = _tuples(pairs, triplets, lam_prime) if lam != 0.0 else (None, None)
    lead, spec = 0 if batch_x is None else len(batch_x), params.layer_spec()
    ws = Workspace(spec, lead, pairs, triplets) if work is None else work
    flat = np.empty(spec.param_count + W.size) if out is None else out
    dW = flat[spec.param_count :].reshape(W.shape)
    Z, tape, value, terms, dZ = _fused(ws, params, batch_x, pairs, triplets, lam, lam_prime,
                                       margins)
    if batch_x is None:
        dW.fill(0.0)
    else:
        zs = Z[:lead]
        sup = _softmax(W, zs, _labeled_batch(W, zs, batch_y), dZ[:lead], dW)
        value, terms = sup + lam * value, {"sup": sup, **terms}
    backward(params, tape, dZ, flat[: spec.param_count])
    return LossValue(value, {"flat": flat}, terms)
