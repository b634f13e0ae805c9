import numpy as np
import pytest

from ssfa import gradcheck
from ssfa.gradcheck import (
    HINGE_GAP,
    TOL_COMPOSED,
    TOL_DIRECT,
    _sample_tuples,
    central_diff,
    check_pair,
    check_softmax,
    check_total,
    check_triplet,
    format_report,
    rel_error,
    run_gradcheck,
)
from ssfa.losses import Margins
from ssfa.network import split_model


def test_central_diff_on_quadratic():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = np.array([0.5, -1.0])
    num = central_diff(lambda v: float(0.5 * v @ A @ v), x.copy())
    np.testing.assert_allclose(num, A @ x, atol=1e-8)


def test_rel_error_measure():
    assert rel_error(np.array([1.0]), np.array([1.0])) == 0.0
    # denominator floors at 1 for small numeric values
    assert rel_error(np.array([0.1]), np.array([0.0])) == 0.1
    assert abs(rel_error(np.array([10.1]), np.array([10.0])) - 0.1 / 10.0) < 1e-12


def test_individual_checks_are_tight():
    rng = np.random.default_rng(3)
    assert check_softmax(rng, points=10) < 1e-8
    assert check_pair(rng, points=10) < 1e-8
    assert check_triplet(rng, points=10) < 1e-8
    assert check_total(rng, points=3) < 1e-6


def test_run_gradcheck_passes_and_reports():
    rows, ok = run_gradcheck(seed=5, points=5)
    assert ok
    names = [r.name for r in rows]
    assert names == ["softmax", "pair", "triplet", "total_objective"]
    text = format_report(rows)
    assert text.startswith("loss,max_rel_error,tolerance,status")
    assert text.count("pass") == 4


@pytest.mark.parametrize("points", [0, -3])
def test_run_gradcheck_rejects_fewer_than_one_point(points):
    # with no points every row read max error 0.0 and passed
    with pytest.raises(ValueError, match="points must be >= 1"):
        run_gradcheck(seed=0, points=points)


class _Replay:
    """Stands in for the generator: replays given normal() and integers()
    draws in order."""

    def __init__(self, normals, labels):
        self._normals, self._labels = iter(normals), iter(labels)

    def normal(self, size):
        return np.array(next(self._normals), dtype=np.float64).reshape(size)

    def integers(self, low, high, size):
        return np.array(next(self._labels))


@pytest.mark.parametrize("metric", ["l2", "l1"])
@pytest.mark.parametrize("members", [2, 3])
def test_sampler_rejects_batches_near_a_kink(members, metric):
    margins = Margins(delta_pair=1.5, delta_triplet=2.5, metric=metric)
    delta = margins.delta_pair if members == 2 else margins.delta_triplet

    def members_at(dist):
        # the other members are 0, so the contrast is the first member, a
        # row at distance ``dist`` under ``metric`` only
        c = dist / 2 if metric == "l1" else dist / np.sqrt(2)
        return [[c, c]] + [[0.0, 0.0]] * (members - 1)

    draws = [
        (members_at(delta + HINGE_GAP / 2), [0]),  # negative at the margin
        (members_at(HINGE_GAP / 2), [1]),  # positive at distance 0
        (members_at(delta + 0.5), [0]),
    ]
    if metric == "l1":  # a coordinate at l1's kink, the distance far from 0 and the margin
        draws.insert(2, ([[HINGE_GAP / 2, 0.5]] + [[0.0, 0.0]] * (members - 1), [0]))
    rng = _Replay([z for zs, _ in draws for z in zs], [p for _, p in draws])
    *zs, p = _sample_tuples(rng, members, 1, 2, margins)
    assert len(zs) == members
    np.testing.assert_array_equal(zs[0], [draws[-1][0][0]])
    np.testing.assert_array_equal(p, [0])


def test_l1_gradients_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(0)
    monkeypatch.setattr("ssfa.gradcheck.MARGINS", Margins(metric="l1"))
    assert check_pair(rng, 50) <= TOL_DIRECT
    assert check_triplet(rng, 50) <= TOL_DIRECT
    assert check_total(rng, 10) <= TOL_COMPOSED


def test_injected_sign_flip_is_detected(monkeypatch):
    # the analytic gradient of the total objective with one block's sign
    # flipped (split_model views grads["flat"] as the parameters and W)
    real = gradcheck.total_objective

    def flip(block):
        def flipped(*args, **kwargs):
            result = real(*args, **kwargs)
            theta, W = split_model(args[4].layer_spec(), result.grads["flat"])
            grad = theta.weights[0] if block == "theta" else W
            np.negative(grad, out=grad)
            return result
        return flipped

    for block in ("theta", "W"):
        monkeypatch.setattr(gradcheck, "total_objective", flip(block))
        rows, ok = run_gradcheck(seed=5, points=3)
        assert not ok, block
        bad = {r.name: r.ok for r in rows}
        assert bad["total_objective"] is False
        assert "FAIL" in format_report(rows)
