"""Fully connected feature map with explicit forward/backward passes, plus
the bias-free linear classifier.

The network is a chain of affine layers with ReLU after every layer except
the last (identity output). Everything is float64; forward works on a single
flattened image or a batch (rows are samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import write_atomic

CHECKPOINT_MAGIC = "SSFA-CKPT v1"


@dataclass(frozen=True)
class LayerSpec:
    """Layer widths: (input dim, hidden dims..., feature dim)."""

    sizes: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) < 2:
            raise ValueError("need at least input and output widths")
        if min(self.sizes) < 1:
            raise ValueError("all layer widths must be >= 1")

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    @cached_property
    def param_count(self) -> int:
        """Length of the flat parameter vector (all weights and biases)."""
        return sum(o * (i + 1) for i, o in zip(self.sizes[:-1], self.sizes[1:]))


class NetworkParams:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors.

    All parameters live in one contiguous float64 vector ``flat``, layer by
    layer, weight matrix (row-major) then bias vector; ``weights`` and
    ``biases`` are views into it. This is the checkpoint body order.
    """

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if len(weights) != len(biases) or not weights:
            raise ValueError("weights and biases must be nonempty and aligned")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != weights[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i}: fan_in {w.shape[1]} != previous fan_out {weights[i - 1].shape[0]}"
                )
        spec = LayerSpec((weights[0].shape[1],) + tuple(w.shape[0] for w in weights))
        flat = np.concatenate([a.ravel() for wb in zip(weights, biases) for a in wb])
        self._bind(spec, flat)

    @classmethod
    def from_flat(cls, spec: LayerSpec, flat: np.ndarray) -> "NetworkParams":
        """Parameters that view ``flat`` (no copy); writes go through."""
        obj = cls.__new__(cls)
        obj._bind(spec, flat)
        return obj

    def _bind(self, spec: LayerSpec, flat: np.ndarray) -> None:
        if flat.dtype != np.float64 or flat.shape != (spec.param_count,):
            raise ValueError(
                f"flat parameters {flat.dtype}{flat.shape} != float64 ({spec.param_count},)"
            )
        self._spec = spec
        self.flat = flat
        self.weights, self.biases = [], []
        offset = 0
        for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
            self.weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            self.biases.append(flat[offset : offset + fan_out])
            offset += fan_out

    def layer_spec(self) -> LayerSpec:
        return self._spec

    def copy(self) -> "NetworkParams":
        return NetworkParams.from_flat(self._spec, self.flat.copy())


@dataclass
class ActivationTape:
    """Intermediates of one forward pass, consumed by backward()."""

    x: np.ndarray
    pre: list
    post: list
    single: bool


def glorot_uniform(rng, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_glorot(spec: LayerSpec, seed) -> NetworkParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
        weights.append(glorot_uniform(rng, fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return NetworkParams(weights, biases)


def split_model(spec: LayerSpec, vec: np.ndarray):
    """Views (params, W) of one vector holding params.flat followed by the
    row-major classifier W: the checkpoint body and optimizer layout."""
    n_params = spec.param_count
    return NetworkParams.from_flat(spec, vec[:n_params]), vec[n_params:].reshape(-1, spec.out_dim)


def init_classifier(num_classes: int, dim: int, seed) -> np.ndarray:
    """Glorot-uniform (num_classes x dim) classifier matrix, no bias."""
    return glorot_uniform(np.random.default_rng(seed), num_classes, dim)


def forward(params: NetworkParams, x):
    """Map input(s) to feature vector(s).

    Parameters
    ----------
    x : (d,) or (n, d) array of preprocessed, flattened images.

    Returns
    -------
    (z, tape) : features with the same leading shape as ``x``, plus the
    activation tape for backward().
    """
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    X2 = X[None, :] if single else X
    if X2.ndim != 2 or X2.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"input dim {X2.shape[-1]} != network input dim {params.weights[0].shape[1]}"
        )
    pre, post = [], []
    h = X2
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = h @ w.T + b
        pre.append(a)
        h = np.maximum(a, 0.0) if i < last else a
        post.append(h)
    z = post[-1][0] if single else post[-1]
    return z, ActivationTape(X2, pre, post, single)


def backward(params: NetworkParams, tape: ActivationTape, dz, out=None, *, input_grad=True):
    """Backpropagate a feature-space gradient through the tape.

    Returns (d_params, dx): the parameter gradient, written into the flat
    vector ``out`` (a fresh one when None), and the gradient w.r.t. the
    input. The input gradient is optional: with ``input_grad=False`` the
    pass stops after layer 0's parameter gradient, skips the product with
    the first weight matrix (the widest GEMM of the pass) and returns
    ``dx = None``; the parameter gradient is bit-identical either way.
    Training never needs ``dx``, so the objectives in ``losses`` pass False.
    The ReLU subgradient at exactly zero pre-activation is zero.
    """
    G = np.asarray(dz, dtype=np.float64)
    G2 = G[None, :] if G.ndim == 1 else G
    if G2.shape != tape.post[-1].shape:
        raise ValueError(f"dz shape {G2.shape} != output shape {tape.post[-1].shape}")
    spec = params.layer_spec()
    grad = NetworkParams.from_flat(spec, np.empty(spec.param_count) if out is None else out)
    delta = G2
    for i in reversed(range(len(params.weights))):
        inp = tape.x if i == 0 else tape.post[i - 1]
        np.matmul(delta.T, inp, out=grad.weights[i])
        delta.sum(axis=0, out=grad.biases[i])
        if i > 0:
            delta = (delta @ params.weights[i]) * (tape.pre[i - 1] > 0.0)
    if not input_grad:
        return grad, None
    dx = delta @ params.weights[0]
    return grad, (dx[0] if tape.single else dx)


# ---------------------------------------------------------------------------
# Checkpoints
#
# Byte layout (documented contract):
#   line 1: b"SSFA-CKPT v1\n"
#   line 2: b"layers s0 s1 ... sk\n"     (layer widths, ASCII decimal)
#   line 3: b"classes C\n"               (classifier row count)
#   body:   for each layer i: weight matrix (row-major), then bias vector,
#           as little-endian float64; finally the (C x sk) classifier
#           matrix, row-major little-endian float64. No padding. This is
#           params.flat followed by W.

def save_checkpoint(path, params: NetworkParams, W: np.ndarray) -> None:
    W = np.asarray(W, dtype=np.float64)
    spec = params.layer_spec()
    if W.ndim != 2 or W.shape[1] != spec.out_dim:
        raise ValueError(f"classifier shape {W.shape} incompatible with feature dim {spec.out_dim}")
    head = (
        f"{CHECKPOINT_MAGIC}\n"
        f"layers {' '.join(str(s) for s in spec.sizes)}\n"
        f"classes {W.shape[0]}\n"
    ).encode("ascii")
    body = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (params.flat, W)]
    write_atomic(path, head + b"".join(body))


def load_checkpoint(path):
    """Read a checkpoint; returns (params, classifier W)."""
    data = Path(path).read_bytes()
    try:
        l1, l2, l3, rest = data.split(b"\n", 3)
    except ValueError:
        raise ValueError(f"{path}: truncated checkpoint header") from None
    if l1.decode("ascii", "replace") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {l1!r}")
    t2, t3 = l2.split(), l3.split()
    if not t2 or t2[0] != b"layers" or len(t2) < 3:
        raise ValueError(f"{path}: bad layers line {l2!r}")
    if len(t3) != 2 or t3[0] != b"classes":
        raise ValueError(f"{path}: bad classes line {l3!r}")
    spec = LayerSpec(tuple(int(t) for t in t2[1:]))
    num_classes = int(t3[1])

    size = 8 * (spec.param_count + num_classes * spec.out_dim)
    if len(rest) < size:
        raise ValueError(f"{path}: truncated checkpoint body")
    if len(rest) > size:
        raise ValueError(f"{path}: {len(rest) - size} trailing bytes in checkpoint")
    return split_model(spec, np.frombuffer(rest, dtype="<f8").astype(np.float64))
