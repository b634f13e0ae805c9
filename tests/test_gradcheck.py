import numpy as np

from ssfa.gradcheck import (
    central_diff,
    check_pair,
    check_softmax,
    check_total,
    check_triplet,
    format_report,
    rel_error,
    run_gradcheck,
)


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


def test_injected_sign_flip_is_detected():
    def corrupt(grads):
        theta = grads["theta"].copy()
        theta.weights[0][...] = -theta.weights[0]
        return {**grads, "theta": theta}

    rows, ok = run_gradcheck(seed=5, points=3, corrupt=corrupt)
    assert not ok
    bad = {r.name: r.ok for r in rows}
    assert bad["total_objective"] is False
    assert "FAIL" in format_report(rows)
