"""In-memory span recorder that traces a program from outside.

Public functions are wrapped by rebinding module attributes, including the
copies that ``from .x import f`` leaves in other modules, so every call
site sees the wrapper. Each span records name, start, end and parent; the
spans live in flat arrays (a desk run makes a few hundred thousand) and are
written once, after the traced work ends. Counters are accumulated at the
same boundaries by per-function callbacks.
"""

from __future__ import annotations

import functools
import time
from array import array

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters = {}
        self._stack = []
        self._patches = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span (used to build span trees by hand)."""
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return idx

    def wrap(self, fn, name, count=None):
        """Return a traced version of ``fn``. ``name`` is a string, or a
        callable mapping the call's positional arguments to one.
        ``count(tracer, args, kwargs, result)`` runs after the span closes."""
        stack = self._stack
        fixed = None if callable(name) else self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._nid(name(args))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self, modules, targets) -> None:
        """Wrap each ``(owner module, function name, span name, count)``
        target and rebind every attribute in ``modules`` that refers to the
        original function."""
        for owner, fname, span_name, count in targets:
            original = getattr(owner, fname)
            wrapped = self.wrap(original, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def spans(self):
        """(names, name_id, start, end, parent) as plain lists."""
        return (list(self.names), list(self.name_id), list(self.start),
                list(self.end), list(self.parent))

    def dump(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(start, end, parent):
    """Per-span self time: duration minus the part of the span's interval
    covered by the union of its children's intervals."""
    n = len(start)
    children = [[] for _ in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p].append(i)
    out = [0.0] * n
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0.0
        reach = lo
        for c in sorted(children[i], key=start.__getitem__):
            s, e = max(start[c], reach), min(end[c], hi)
            if e > s:
                covered += e - s
                reach = e
        out[i] = (hi - lo) - covered
    return out
