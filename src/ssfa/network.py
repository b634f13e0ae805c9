"""Fully connected feature map with explicit forward/backward passes, plus
the bias-free linear classifier.

The network is a chain of affine layers with ReLU after every layer except
the last (identity output). Everything is float64; forward and backward work
on batches of flattened images, one sample per row. The parameters are one
flat vector that ``NetworkParams(spec, flat)`` views per layer, and a
forward pass keeps one output array per layer on its tape.

At one BLAS thread, a large product of forward or backward runs as two row
halves on two threads (``_matmul``). Each output element keeps its operands
and k-order, so the bits are those of one ``np.matmul`` either way.
One long-lived helper thread runs the first half of every split
(``_halves``): of products, the Nesterov update and the table gather. The
first split starts it, a forked child starts its own; a half never splits.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import _decimal, write_atomic

CHECKPOINT_MAGIC = "SSFA-CKPT v1"

_SPLIT_MADDS = 1 << 23  # m·n·k from which a product runs as two row halves
_SPLIT_ROWS = 64  # fewest rows per half: a smaller BLAS panel may take other kernels
_SPLIT_ELEMS = 1 << 17  # elements from which an elementwise or row copy runs as two halves
# Split only at one BLAS thread: a wider pool runs both halves on its cores.
# numpy, imported above, sized the pool from the environment as it is now, as
# OpenBLAS reads it: the first positive of these variables, else one per core.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_SPLIT_POOL = next((int(v) for v in map(os.environ.get, _BLAS_VARS)
                    if v and v.strip().isdigit() and int(v) > 0), 0) == 1
_helper = []  # the one-worker executor of every first half, once the first split starts it
os.register_at_fork(after_in_child=_helper.clear)  # a forked child has no helper thread


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
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors that
    view one float64 vector ``flat`` of length ``spec.param_count`` (no
    copy; writes go through): layer by layer, the weight matrix (row-major)
    then the bias vector. This is the checkpoint body order.
    """

    def __init__(self, spec: LayerSpec, flat: np.ndarray):
        if not (isinstance(flat, np.ndarray) and flat.dtype == np.float64
                and flat.shape == (spec.param_count,)):
            got = f"{flat.dtype}{flat.shape}" if isinstance(flat, np.ndarray) else type(flat).__name__
            raise ValueError(f"flat parameters {got} != float64 ({spec.param_count},)")
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


@dataclass
class ActivationTape:
    """Intermediates of one forward pass, consumed by backward(): the input
    rows and each layer's output (``post[i]``: ReLU applied on hidden
    layers; the last is the features). backward() overwrites the hidden
    outputs with its deltas, so a tape serves one backward; ``x`` and the
    features stay as they are.

    ``buffers`` makes a tape of empty arrays that ``forward(..., out=)``
    fills, so a caller that repeats passes of at most the same row count
    allocates nothing per pass."""

    x: np.ndarray
    post: list

    @classmethod
    def buffers(cls, spec: "LayerSpec", rows: int) -> "ActivationTape":
        """One array for up to ``rows`` rows of every layer; ``x`` stays None."""
        return cls(None, [np.empty((rows, w)) for w in spec.sizes[1:]])


def glorot_uniform(rng, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_glorot(spec: LayerSpec, seed) -> NetworkParams:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(spec, np.zeros(spec.param_count))
    for w in params.weights:
        w[...] = glorot_uniform(rng, *w.shape)
    return params


def split_model(spec: LayerSpec, vec: np.ndarray):
    """Views (params, W) of one vector holding params.flat followed by the
    row-major classifier W: the checkpoint body and optimizer layout."""
    n_params = spec.param_count
    return NetworkParams(spec, vec[:n_params]), vec[n_params:].reshape(-1, spec.out_dim)


def init_classifier(num_classes: int, dim: int, seed) -> np.ndarray:
    """Glorot-uniform (num_classes x dim) classifier matrix, no bias."""
    return glorot_uniform(np.random.default_rng(seed), num_classes, dim)


def _halves(n, fn):
    """``fn(0, n // 2)`` on the helper thread in the caller's context (its ``np.errstate``),
    and ``fn(n // 2, n)`` here; both end before the return, the caller's exception first.
    ``fn`` never calls ``_halves``: the one helper thread would wait on itself."""
    if not _helper:
        _helper.append(ThreadPoolExecutor(1))
    first = _helper[0].submit(contextvars.copy_context().run, fn, 0, n // 2)
    try:
        fn(n // 2, n)
    finally:
        first.exception()  # waits for the first half
    first.result()


def _matmul(a, b, out):
    """``np.matmul(a, b, out=out)``. A large product at one BLAS thread runs
    as two row halves (``_halves``); numpy releases the GIL in BLAS."""
    if not _SPLIT_POOL or len(a) * b.size < _SPLIT_MADDS or len(a) // 2 < _SPLIT_ROWS:
        return np.matmul(a, b, out=out)
    _halves(len(a), lambda i, j: np.matmul(a[i:j], b, out=out[i:j]))
    return out


def forward(params: NetworkParams, X, out: ActivationTape = None):
    """Map an (n, d) batch of preprocessed, flattened images, one per row, to
    (Z, tape): the (n, k) features and the activation tape for backward().
    Any other input shape is a ValueError.

    The activations go into the first n rows of the arrays of ``out`` (from
    ``ActivationTape.buffers`` for at least n rows; None: a tape sized for
    this batch), and the returned tape and Z view them; the next pass into
    ``out`` overwrites them."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.weights[0].shape[1]:
        raise ValueError(f"input shape {X.shape} != (rows, {params.weights[0].shape[1]})")
    n = len(X)
    if out is None:
        out = ActivationTape.buffers(params.layer_spec(), n)
    tape = ActivationTape(X, [a[:n] for a in out.post])
    h = X
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = _matmul(h, w.T, tape.post[i])
        h += b
        if i < len(tape.post) - 1:
            np.maximum(h, 0.0, out=h)
    return h, tape


def backward(params: NetworkParams, tape: ActivationTape, dZ, out=None) -> NetworkParams:
    """Backpropagate a feature-space gradient through the tape.

    Returns the parameter gradient, written into the flat vector ``out`` (a
    fresh one when None). Each weight matrix W_i with i >= 1 is read from a
    copy, so ``out`` may be ``params.flat``. The input's gradient is never
    formed. Once layer i has read hidden output ``tape.post[i-1]`` and
    formed its ReLU mask, layer i-1's delta overwrites it: a tape serves
    one call, and ``dZ``, ``x`` and Z are only read. The
    ReLU mask is ``post > 0``: the subgradient at exactly 0 is 0.
    """
    delta = np.asarray(dZ, dtype=np.float64)
    if delta.shape != tape.post[-1].shape:
        raise ValueError(f"dZ shape {delta.shape} != output shape {tape.post[-1].shape}")
    spec = params.layer_spec()
    grad = NetworkParams(spec, np.empty(spec.param_count) if out is None else out)
    for i in reversed(range(len(params.weights))):
        inp = tape.x if i == 0 else tape.post[i - 1]
        w = params.weights[i].copy() if i > 0 else None  # out may overwrite W_i
        _matmul(delta.T, inp, grad.weights[i])
        delta.sum(axis=0, out=grad.biases[i])
        if i > 0:
            mask = np.greater(inp, 0.0)
            delta = _matmul(delta, w, inp)
            delta *= mask
    return grad


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
    if t2[:1] != [b"layers"] or len(t2) < 3 or not all(_decimal(t) and int(t) > 0 for t in t2[1:]):
        raise ValueError(f"{path}: bad layers line {l2!r}")
    if len(t3) != 2 or t3[0] != b"classes" or not _decimal(t3[1]):
        raise ValueError(f"{path}: bad classes line {l3!r}")
    spec = LayerSpec(tuple(int(t) for t in t2[1:]))
    num_classes = int(t3[1])

    size = 8 * (spec.param_count + num_classes * spec.out_dim)
    if len(rest) < size:
        raise ValueError(f"{path}: truncated checkpoint body")
    if len(rest) > size:
        raise ValueError(f"{path}: {len(rest) - size} trailing bytes in checkpoint")
    return split_model(spec, np.frombuffer(rest, dtype="<f8").astype(np.float64))
