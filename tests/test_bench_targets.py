"""Every public function the benchmark's traced run wraps must exist.

The traced run (``bench/layers.py``) rebinds functions by name; a refactor
that drops or renames one would otherwise fail only inside a traced
benchmark run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    targets = layers.targets()
    assert targets
    for owner, fname, _span, count in targets:
        assert callable(getattr(owner, fname, None)), f"{owner.__name__}.{fname}"
        assert count is None or callable(count)
