"""Finite-difference verification of every analytic gradient.

Central differences with h = 1e-5 in double precision; the error measure
is max over coordinates of |analytic - numeric| / max(1, |numeric|).
Random tuples are resampled until every distance is more than 1e-3 away
from 0 and, for negatives, from the hinge margin, where the loss is
non-differentiable; under the l1 metric, every contrast coordinate too.
Direct loss gradients are held to 1e-6; gradients composed through the
network to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _text_table
from .losses import Margins, Workspace, pair_loss, softmax_loss, total_objective, triplet_loss
from .network import LayerSpec, forward, init_classifier, init_glorot, split_model

H = 1e-5
TOL_DIRECT = 1e-6
TOL_COMPOSED = 1e-4
HINGE_GAP = 1e-3
# the margins and metric that the pair, triplet and total checks audit
MARGINS = Margins()


def central_diff(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences (step H) of a scalar function over every entry of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        f_plus = f(x)
        flat[i] = orig - H
        f_minus = f(x)
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * H)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max_i |analytic_i - numeric_i| / max(1, |numeric_i|)."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))


def _contrast(zs) -> np.ndarray:
    """The vector whose distance a contrastive loss measures: a - b for a
    pair (a, b), (l - m) - (m - n) for a triplet (l, m, n)."""
    return zs[0] - zs[1] if len(zs) == 2 else (zs[0] - zs[1]) - (zs[1] - zs[2])


def _smooth(contrast: np.ndarray, p: np.ndarray, delta: float, metric: str) -> bool:
    """True when every distance is more than HINGE_GAP from 0 and, for
    negatives (p == 0), from the margin ``delta``; under l1, whose distance
    has a kink wherever a coordinate is 0, also every contrast coordinate."""
    if metric == "l2":
        d = np.linalg.norm(contrast, axis=1)
    elif np.any(np.abs(contrast) <= HINGE_GAP):
        return False
    else:
        d = np.sum(np.abs(contrast), axis=1)
    return bool(np.all(np.abs(d[p == 0] - delta) > HINGE_GAP) and np.all(d > HINGE_GAP))


def _sample_tuples(rng, members: int, n: int, dim: int, margins: Margins):
    """Draw ``members`` (n, dim) feature arrays and n labels until the
    batch is smooth; returns (*members, p)."""
    delta = margins.delta_pair if members == 2 else margins.delta_triplet
    while True:
        zs = [rng.normal(size=(n, dim)) for _ in range(members)]
        p = rng.integers(0, 2, size=n)
        if _smooth(_contrast(zs), p, delta, margins.metric):
            return (*zs, p)


def _max_fd_error(rng, points: int, draw) -> float:
    """Max relative FD error over ``points`` draws. ``draw(rng)`` returns
    (loss, args, grads): a scalar function, its array arguments by name in
    call order, and the analytic gradient of each argument by name."""
    worst = 0.0
    for _ in range(points):
        loss, args, grads = draw(rng)
        for name, x in args.items():

            def f(v, _name=name):
                return loss(*{**args, _name: v}.values())

            worst = max(worst, rel_error(grads[name], central_diff(f, x.copy())))
    return worst


def check_softmax(rng, points: int = 100) -> float:
    """Max relative FD error of softmax gradients (W and features)."""

    def draw(rng):
        n, dim, classes = int(rng.integers(1, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        W = rng.normal(size=(classes, dim))
        zs = rng.normal(size=(n, dim))
        ys = rng.integers(0, classes, size=n)
        return (lambda W_, z_: softmax_loss(W_, z_, ys).value,
                {"W": W, "z": zs}, softmax_loss(W, zs, ys).grads)

    return _max_fd_error(rng, points, draw)


def _check_tuples(rng, points, loss_fn, names):
    """Max relative FD error of a contrastive loss over tuples whose
    members are named by the characters of ``names``."""

    def draw(rng):
        n, dim = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        *zs, p = _sample_tuples(rng, len(names), n, dim, MARGINS)
        return (lambda *z: loss_fn(*z, p, MARGINS).value,
                dict(zip(names, zs)), loss_fn(*zs, p, MARGINS).grads)

    return _max_fd_error(rng, points, draw)


def check_pair(rng, points: int = 100) -> float:
    """Max relative FD error of the pair (slowness) loss gradients."""
    return _check_tuples(rng, points, pair_loss, "ab")


def check_triplet(rng, points: int = 100) -> float:
    """Max relative FD error of the triplet (steadiness) loss gradients."""
    return _check_tuples(rng, points, triplet_loss, "lmn")


def check_total(rng, points: int = 100) -> float:
    """Max relative FD error of the full objective gradient through a
    1-hidden-layer network, over the one vector of all network parameters
    followed by the classifier (the layout of ``split_model``). The tuples
    are resolved: one table of the stacked member rows, indexed by an
    ``arange``.

    Sampled configurations are rejected when any hidden pre-activation (formed
    here with forward's ops) or contrastive distance sits within the reach of
    a kink (ReLU corner or hinge margin), where the loss is non-differentiable.
    """
    spec = LayerSpec((6, 5, 4))

    def draw(rng):
        params = init_glorot(spec, int(rng.integers(1 << 31)))
        W = init_classifier(3, spec.out_dim, int(rng.integers(1 << 31)))
        lam = float(rng.uniform(0.1, 2.0))
        lam_prime = float(rng.uniform(0.1, 2.0))

        # member k of tuple i is table row 3 * k + i: pairs k = 0, 1, triplets k = 2, 3, 4
        idx = np.arange(15).reshape(5, 3).T
        while True:
            bx = rng.normal(size=(3, spec.in_dim))
            by = rng.integers(0, 3, size=3)
            pair_x = [rng.normal(size=(3, 6)) for _ in range(2)]
            pair_p = rng.integers(0, 2, 3)
            trip_x = [rng.normal(size=(3, 6)) for _ in range(3)]
            trip_p = rng.integers(0, 2, 3)
            table = np.vstack(pair_x + trip_x)
            pb, tb = (table, idx[:, :2], pair_p), (table, idx[:, 2:], trip_p)
            X = np.vstack([bx, table])
            Z, _ = forward(params, X)
            pre = X @ params.weights[0].T + params.biases[0]  # forward's layer-0 ops
            if np.min(np.abs(pre)) > HINGE_GAP and all(
                _smooth(_contrast(Z[3 + batch[1].T]), batch[2], delta, MARGINS.metric)
                for batch, delta in ((pb, MARGINS.delta_pair), (tb, MARGINS.delta_triplet))
            ):
                break

        work = Workspace(spec, len(bx), pb, tb)

        def loss(vec):
            theta, W_ = split_model(spec, vec)
            return total_objective(bx, by, pb, tb, theta, W_, lam, lam_prime, MARGINS, work=work)

        vec = np.concatenate((params.flat, W.ravel()))
        return (lambda v: loss(v).value), {"flat": vec}, {"flat": loss(vec).grads["flat"]}

    return _max_fd_error(rng, points, draw)


@dataclass
class GradCheckRow:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= self.tolerance


def run_gradcheck(seed: int = 0, points: int = 100):
    """Run every check; returns (rows, all_ok). ``points`` < 1 would check
    nothing and is a ValueError."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    rng = np.random.default_rng(seed)
    rows = [
        GradCheckRow("softmax", check_softmax(rng, points), TOL_DIRECT),
        GradCheckRow("pair", check_pair(rng, points), TOL_DIRECT),
        GradCheckRow("triplet", check_triplet(rng, points), TOL_DIRECT),
        GradCheckRow("total_objective", check_total(rng, points), TOL_COMPOSED),
    ]
    return rows, all(r.ok for r in rows)


def format_report(rows) -> str:
    return _text_table("loss,max_rel_error,tolerance,status",
                       ((r.name, r.max_rel_error, r.tolerance, "pass" if r.ok else "FAIL")
                        for r in rows))
