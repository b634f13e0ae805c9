"""Finite-difference verification of every analytic gradient.

Central differences with h = 1e-5 in double precision; the error measure
is max over coordinates of |analytic - numeric| / max(1, |numeric|).
Random negative tuples are resampled until their distance is at least
1e-3 away from the hinge margin, where the loss is non-differentiable.
Direct loss gradients are held to 1e-6; gradients composed through the
network to 1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import Margins, pair_loss, softmax_loss, total_objective, triplet_loss
from .network import LayerSpec, init_classifier, init_glorot

H = 1e-5
TOL_DIRECT = 1e-6
TOL_COMPOSED = 1e-4
HINGE_GAP = 1e-3


def central_diff(f, x: np.ndarray, h: float = H) -> np.ndarray:
    """Central finite differences of a scalar function over every entry of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f(x)
        flat[i] = orig - h
        f_minus = f(x)
        flat[i] = orig
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max_i |analytic_i - numeric_i| / max(1, |numeric_i|)."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))


def _away_from_hinge(d: np.ndarray, p: np.ndarray, delta: float) -> bool:
    neg = p == 0
    return bool(np.all(np.abs(d[neg] - delta) > HINGE_GAP))


def _sample_pair_batch(rng, n, dim, margins):
    while True:
        za = rng.normal(size=(n, dim))
        zb = rng.normal(size=(n, dim))
        p = rng.integers(0, 2, size=n)
        if margins.metric == "l2":
            d = np.linalg.norm(za - zb, axis=1)
        else:
            d = np.sum(np.abs(za - zb), axis=1)
        if _away_from_hinge(d, p, margins.delta_pair) and np.all(d > HINGE_GAP):
            return za, zb, p


def _sample_triplet_batch(rng, n, dim, margins):
    while True:
        zl = rng.normal(size=(n, dim))
        zm = rng.normal(size=(n, dim))
        zn = rng.normal(size=(n, dim))
        p = rng.integers(0, 2, size=n)
        u, v = zl - zm, zm - zn
        if margins.metric == "l2":
            d = np.linalg.norm(u - v, axis=1)
        else:
            d = np.sum(np.abs(u - v), axis=1)
        if _away_from_hinge(d, p, margins.delta_triplet) and np.all(d > HINGE_GAP):
            return zl, zm, zn, p


def check_softmax(rng, points: int = 100) -> float:
    """Max relative FD error of softmax gradients (W and features)."""
    worst = 0.0
    for _ in range(points):
        n, dim, classes = int(rng.integers(1, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        W = rng.normal(size=(classes, dim))
        zs = rng.normal(size=(n, dim))
        ys = rng.integers(0, classes, size=n)
        lv = softmax_loss(W, zs, ys)
        num_W = central_diff(lambda W_: softmax_loss(W_, zs, ys).value, W.copy())
        num_z = central_diff(lambda z_: softmax_loss(W, z_, ys).value, zs.copy())
        worst = max(worst, rel_error(lv.grads["W"], num_W), rel_error(lv.grads["z"], num_z))
    return worst


def check_pair(rng, points: int = 100, margins: Margins = None) -> float:
    """Max relative FD error of the pair (slowness) loss gradients."""
    margins = margins or Margins()
    worst = 0.0
    for _ in range(points):
        n, dim = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        za, zb, p = _sample_pair_batch(rng, n, dim, margins)
        lv = pair_loss(za, zb, p, margins)
        num_a = central_diff(lambda a: pair_loss(a, zb, p, margins).value, za.copy())
        num_b = central_diff(lambda b: pair_loss(za, b, p, margins).value, zb.copy())
        worst = max(worst, rel_error(lv.grads["a"], num_a), rel_error(lv.grads["b"], num_b))
    return worst


def check_triplet(rng, points: int = 100, margins: Margins = None) -> float:
    """Max relative FD error of the triplet (steadiness) loss gradients."""
    margins = margins or Margins()
    worst = 0.0
    for _ in range(points):
        n, dim = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        zl, zm, zn, p = _sample_triplet_batch(rng, n, dim, margins)
        lv = triplet_loss(zl, zm, zn, p, margins)
        for name, arr in (("l", zl), ("m", zm), ("n", zn)):
            kw = {"zl": zl, "zm": zm, "zn": zn}

            def f(x, _name=name):
                kw2 = dict(kw)
                kw2["z" + _name] = x
                return triplet_loss(kw2["zl"], kw2["zm"], kw2["zn"], p, margins).value

            worst = max(worst, rel_error(lv.grads[name], central_diff(f, arr.copy())))
    return worst


def check_total(rng, points: int = 100, margins: Margins = None, corrupt=None) -> float:
    """Max relative FD error of the full objective gradient (all network
    parameters and the classifier) through a 1-hidden-layer network.

    Sampled configurations are rejected when any hidden pre-activation or
    contrastive distance sits within the perturbation reach of a kink
    (ReLU corner or hinge margin), where the loss is non-differentiable.
    """
    from .network import forward

    margins = margins or Margins()
    spec = LayerSpec((6, 5, 4))
    worst = 0.0
    for _ in range(points):
        params = init_glorot(spec, int(rng.integers(1 << 31)))
        W = init_classifier(3, spec.out_dim, int(rng.integers(1 << 31)))
        lam = float(rng.uniform(0.1, 2.0))
        lam_prime = float(rng.uniform(0.1, 2.0))

        def smooth_here(bx, pb, tb):
            inputs = np.vstack([bx, pb[0], pb[1], tb[0], tb[1], tb[2]])
            _, tape = forward(params, inputs)
            if np.min(np.abs(tape.pre[0])) <= HINGE_GAP:
                return False
            za, _ = forward(params, pb[0])
            zb, _ = forward(params, pb[1])
            d_pair = np.linalg.norm(za - zb, axis=1)
            zl, _ = forward(params, tb[0])
            zm, _ = forward(params, tb[1])
            zn, _ = forward(params, tb[2])
            d_trip = np.linalg.norm((zl - zm) - (zm - zn), axis=1)
            return (
                _away_from_hinge(d_pair, pb[2], margins.delta_pair)
                and _away_from_hinge(d_trip, tb[3], margins.delta_triplet)
                and np.all(d_pair > HINGE_GAP)
                and np.all(d_trip > HINGE_GAP)
            )

        while True:
            bx = rng.normal(size=(3, spec.in_dim))
            by = rng.integers(0, 3, size=3)
            pb = (rng.normal(size=(3, 6)), rng.normal(size=(3, 6)), rng.integers(0, 2, 3))
            tb = (
                rng.normal(size=(3, 6)),
                rng.normal(size=(3, 6)),
                rng.normal(size=(3, 6)),
                rng.integers(0, 2, 3),
            )
            if smooth_here(bx, pb, tb):
                break

        lv = total_objective(bx, by, pb, tb, params, W, lam, lam_prime, margins)
        grads = {"theta": lv.grads["theta"], "W": lv.grads["W"]}
        if corrupt is not None:
            grads = corrupt(grads)

        def value_at(_x):
            return total_objective(bx, by, pb, tb, params, W, lam, lam_prime, margins).value

        # central_diff perturbs the array in place, so value_at() (which
        # closes over params, whose weights and biases view params.flat,
        # and W) sees each nudge.
        num_theta = central_diff(value_at, params.flat)
        num_W = central_diff(value_at, W)
        worst = max(
            worst,
            rel_error(grads["theta"].flat, num_theta),
            rel_error(grads["W"], num_W),
        )
    return worst


@dataclass
class GradCheckRow:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= self.tolerance


def run_gradcheck(seed: int = 0, points: int = 100, corrupt=None):
    """Run every check; returns (rows, all_ok). ``corrupt`` is a test-only
    hook applied to the analytic gradients of the total objective, a dict
    {"theta": NetworkParams, "W": array}."""
    rng = np.random.default_rng(seed)
    rows = [
        GradCheckRow("softmax", check_softmax(rng, points), TOL_DIRECT),
        GradCheckRow("pair", check_pair(rng, points), TOL_DIRECT),
        GradCheckRow("triplet", check_triplet(rng, points), TOL_DIRECT),
        GradCheckRow("total_objective", check_total(rng, points, corrupt=corrupt), TOL_COMPOSED),
    ]
    return rows, all(r.ok for r in rows)


def format_report(rows) -> str:
    lines = ["loss,max_rel_error,tolerance,status"]
    for r in rows:
        lines.append(
            f"{r.name},{r.max_rel_error!r},{r.tolerance!r},{'pass' if r.ok else 'FAIL'}"
        )
    return "\n".join(lines) + "\n"
