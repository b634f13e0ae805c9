"""Fully connected feature map with explicit forward/backward passes, plus
the bias-free linear classifier.

The network is a chain of affine layers with ReLU after every layer except
the last (identity output). Everything is float64; forward and backward work
on batches of flattened images, one sample per row. The parameters are one
flat vector that ``NetworkParams(spec, flat)`` views per layer, and a
forward pass keeps one output array per layer on its tape.

At one BLAS thread (``blas_pool``), large work runs as two halves on two threads:
a forward pass by rows, backward by each hidden layer's units (``_split``), a
Nesterov step by elements and the table gather by rows (``_split_elems``). Each
output element keeps its operands and order, so the bits are those of the whole.
Each site hands one closure to ``_halves``: run whole on the caller, or split
with its first half on one helper thread, which the first split starts (a
forked child its own) and whose exception is raised on the caller unless the
caller's half raised. Between splits each side polls for ``_POLL_S``, then blocks.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .data import _decimal, write_atomic

CHECKPOINT_MAGIC = "SSFA-CKPT v1"

_SPLIT_MADDS = 1 << 23  # m·n·k from which every product of a pass may run as two halves
_SPLIT_ROWS = 64  # fewest rows or units per half: a smaller BLAS panel may take other kernels
_SPLIT_ELEMS = 1 << 17  # elements from which an elementwise or row copy runs as two halves
_POLL_S = 0.002  # how long a side of a split polls for the other before it blocks
_POLL_TICK = 2e-5  # the timed wait of one poll, with the GIL released
_helper = []  # the one _Helper of every first half, once the first split starts it
_lock = threading.Lock()  # held through each split, so threads that split first start one helper
os.register_at_fork(after_in_child=_helper.clear)  # a forked child has no helper thread,
os.register_at_fork(after_in_child=_lock._at_fork_reinit)  # nor one that holds the lock


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


def _await(event):
    """Wait for ``event``; polling it in short timed waits for ``_POLL_S`` first keeps this
    thread's CPU from halting, so a hand-off in that time wakes it fast."""
    end = time.perf_counter() + _POLL_S
    while not event.wait(_POLL_TICK) and time.perf_counter() < end:
        pass
    event.wait()


class _Helper:
    """The daemon thread that runs the first half of every split, one split at a time."""

    def __init__(self):
        self.todo, self.done = threading.Event(), threading.Event()
        self.task = self.error = None
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            _await(self.todo)
            self.todo.clear()
            try:
                self.task()
            except BaseException as exc:  # raised again on the caller
                self.error = exc
            self.task = None  # it holds the caller's arrays
            self.done.set()


def _halves(n, fn, split=True):
    """``fn(0, n)`` when not ``split``. Else ``fn(0, h)`` on the helper thread in the caller's
    context (its ``np.errstate``) and ``fn(h, n)`` here; both end before the return, the
    caller's exception first. h is n // 2, from 2·``_SPLIT_ROWS`` on rounded down to a multiple
    of 8: under the Haswell and Nehalem kernels a cut at n // 2 changed bits, one at a multiple
    of 8 never did. ``fn`` never splits: the helper would wait on itself."""
    if not split:
        return fn(0, n)
    h = n // 2 if n < 2 * _SPLIT_ROWS else n // 2 // 8 * 8
    with _lock:  # a split on another thread waits for this one
        if not _helper:
            _helper.append(_Helper())
        helper = _helper[0]
        helper.task = partial(contextvars.copy_context().run, fn, 0, h)
        helper.done.clear()
        helper.todo.set()
        try:
            fn(h, n)
        finally:
            _await(helper.done)  # the first half has ended
            error, helper.error = helper.error, None  # taken also when the caller's half raised
    if error is not None:
        raise error


def _openblas():
    """numpy's bundled OpenBLAS through ctypes, the library numpy loaded; None over another BLAS."""
    root = Path(np.__file__).parent
    for lib in [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        blas = ctypes.CDLL(str(lib))
        if hasattr(blas, "scipy_openblas_set_num_threads64_"):
            blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            blas.scipy_openblas_set_num_threads64_.restype = None  # the getter's int () is the default
            return blas


def blas_pool(threads=None):
    """The live size of numpy's OpenBLAS pool, once set to ``threads`` if given (capped at the
    cores, as OpenBLAS caps a variable); None without the handle. Splits need a pool of one."""
    global _SPLIT_POOL
    if _BLAS is not None and threads is not None:
        _BLAS.scipy_openblas_set_num_threads64_(min(threads, os.cpu_count() or 1))
    pool = None if _BLAS is None else _BLAS.scipy_openblas_get_num_threads64_()
    _SPLIT_POOL = pool == 1
    return pool


_BLAS = _openblas()
_SPLIT_POOL = blas_pool() == 1  # as OpenBLAS sized the pool from the environment at load


def _split_elems(elems):
    """Whether an elementwise pass or row copy of ``elems`` elements splits (``_SPLIT_ELEMS``)."""
    return _SPLIT_POOL and elems >= _SPLIT_ELEMS


def _split(sizes, n):
    """Whether a pass of ``n`` rows at layer widths ``sizes`` splits: at one BLAS thread, when each
    product has ``_SPLIT_MADDS`` multiply-adds and each half ``_SPLIT_ROWS`` rows and units."""
    return (_SPLIT_POOL and min((n, *sizes[1:-1])) // 2 >= _SPLIT_ROWS
            and n * min(a * b for a, b in zip(sizes, sizes[1:])) >= _SPLIT_MADDS)


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

    def rows(i, j):  # every layer of rows i:j; numpy releases the GIL in BLAS
        h = X[i:j]
        for k, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = np.matmul(h, w.T, out=tape.post[k][i:j])
            h += b
            if k < len(tape.post) - 1:
                np.maximum(h, 0.0, out=h)

    _halves(n, rows, _split(params.layer_spec().sizes, n))
    return tape.post[-1], tape


def backward(params: NetworkParams, tape: ActivationTape, dZ, out=None) -> NetworkParams:
    """Backpropagate a feature-space gradient through the tape.

    Returns the parameter gradient, written into the flat vector ``out`` (a
    fresh one when None). Each weight matrix W_i with i >= 1 is read from a
    copy, so ``out`` may be ``params.flat``. The input's gradient is never
    formed. Top down, each hidden layer's units u form the top weight
    gradient's columns ``dZᵀ @ post[:, u]`` (top layer only), their delta
    ``(delta @ W[:, u]) * mask`` over ``post[:, u]`` (a tape serves one call;
    ``dZ``, ``x`` and Z are only read), then their weight-gradient rows and
    biases. The ReLU mask is ``post > 0``: the subgradient at exactly 0 is 0.
    """
    delta = np.asarray(dZ, dtype=np.float64)
    if delta.shape != tape.post[-1].shape:
        raise ValueError(f"dZ shape {delta.shape} != output shape {tape.post[-1].shape}")
    spec = params.layer_spec()
    grad = NetworkParams(spec, np.empty(spec.param_count) if out is None else out)
    weights = [w.copy() for w in params.weights[1:]]  # out may overwrite them
    delta.sum(axis=0, out=grad.biases[-1])
    if not weights:  # no hidden layer
        np.matmul(delta.T, tape.x, out=grad.weights[0])
    for i in reversed(range(len(weights))):  # hidden layer i: W_i's output, W_i+1's input
        post, inp = tape.post[i], tape.x if i == 0 else tape.post[i - 1]
        mask = np.empty(post.shape, dtype=bool)

        def units(a, b):  # the work of hidden units a:b
            p, m = post[:, a:b], mask[:, a:b]
            if i == len(weights) - 1:
                np.matmul(delta.T, p, out=grad.weights[-1][:, a:b])
            np.greater(p, 0.0, out=m)
            d = np.matmul(delta, weights[i][:, a:b], out=p)
            d *= m
            np.matmul(d.T, inp, out=grad.weights[i][a:b])
            d.sum(axis=0, out=grad.biases[i][a:b])

        _halves(post.shape[1], units, _split(spec.sizes, len(post)))
        delta = post
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
