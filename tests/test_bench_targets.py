"""The benchmark must run against the library as it is.

The traced run (``bench/layers.py``) rebinds functions by name, and the
workloads (``bench/workloads.py``) call the library with fixed names and
options; a refactor that drops or renames one would otherwise fail only
inside a benchmark run, as a failed operation.
"""

import contextlib
from pathlib import Path

import numpy as np
import pytest

from ssfa.network import LayerSpec, backward, forward, init_glorot

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    targets = layers.targets()
    assert targets
    for owner, fname, _span, count in targets:
        assert callable(getattr(owner, fname, None)), f"{owner.__name__}.{fname}"
        assert count is None or callable(count)


class _Counters:
    """Stands in for the tracer: the count callbacks only call add()."""

    def __init__(self):
        self.counters = {}

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount


def test_network_count_callbacks_read_real_results(monkeypatch):
    # the callbacks read forward's (Z, tape) and backward's tape.x; a change
    # to either contract must fail here, not only inside a traced run
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    params = init_glorot(LayerSpec((5, 4, 3)), 0)
    X = np.random.default_rng(0).normal(size=(6, 5))
    result = forward(params, X)
    Z, tape = result
    args = (params, tape, np.ones_like(Z))
    tr = _Counters()
    layers._forward(tr, (params, X), {}, result)
    layers._backward(tr, args, {}, backward(*args))
    macs = 5 * 4 + 4 * 3
    assert tr.counters == {"network.forward_rows": 6, "network.flop": 2 * 6 * macs + 4 * 6 * macs}


def _tiny_run(workload, work, traced):
    """The workload in-process at its smallest size, as a worker runs it:
    with ``traced``, under a tracer installed over the package."""
    import layers
    import workloads
    from tracer import Tracer

    tracer = Tracer() if traced else None
    if tracer is not None:
        layers.install(tracer)
    rep = workloads.Rep(workloads.clock(), tracer)
    args = (work,) if workload == "long_clips" else ()
    try:
        with contextlib.suppress(workloads.StageFailed):
            getattr(workloads, workload)(rep, 7, "tiny", *args)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert rep.ops.failed == {}
    assert rep.ops.attempted > 0 and rep.wall_s is not None
    return rep


@pytest.mark.parametrize("workload, traced", [
    ("desk", False), ("wide", False), ("long_clips", False),
    ("desk", True), ("wide", True), ("long_clips", True),
], ids=["desk", "wide", "long_clips", "desk-traced", "wide-traced", "long_clips-traced"])
def test_tiny_workload_has_no_failed_operation(workload, traced, monkeypatch, tmp_path):
    # each workload untraced, and traced with the same quality numbers, so a
    # wrapped function that drops a keyword or an aliasing out= fails here;
    # long_clips rebinds trainer.train to time it, so pin it
    from ssfa import trainer

    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(trainer, "train", trainer.train)
    # one work directory: the output tree names its paths
    rep = _tiny_run(workload, tmp_path / "long_clips", False)
    if traced:
        rep_traced = _tiny_run(workload, tmp_path / "long_clips", True)
        assert rep_traced.quality == rep.quality and rep_traced.digest == rep.digest
