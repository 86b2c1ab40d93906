"""Contract of `simplex.solve_lp`, the adapter over scipy's HiGHS dual simplex.

These pin the adapter: exceptions, sign-flipped and redundant rows, a
degenerate vertex, primal and dual feasibility and strong duality.  Since the
adapter itself calls `linprog`, the comparison with `reference_solve` in
`test_matches_reference_solver` checks the adapter's mapping of linprog's
result (value, x, dual, status); the certificate assertions (feasibility and
strong duality) carry the correctness check.
"""

import numpy as np
import pytest
import scipy.optimize

from quditmagic import simplex


def random_feasible_lp(rng, m, n):
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 1.0, size=n)  # strictly feasible point
    b = A @ x0
    c = rng.normal(size=n)
    return A, b, c


def reference_solve(A, b, c):
    res = scipy.optimize.linprog(
        c, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1], method="highs"
    )
    return res


@pytest.mark.parametrize("seed", range(25))
def test_matches_reference_solver(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, m + 7))
    A, b, c = random_feasible_lp(rng, m, n)
    ref = reference_solve(A, b, c)
    if not ref.success:
        # reference declares unbounded or numerically troubled; check ours
        if ref.status == 3:
            with pytest.raises(simplex.Unbounded):
                simplex.solve_lp(A, b, c)
        return
    sol = simplex.solve_lp(A, b, c)
    assert abs(sol.value - ref.fun) < 1e-7
    # primal feasibility
    assert np.all(sol.x >= -1e-9)
    assert np.allclose(A @ sol.x, b, atol=1e-8)
    # dual feasibility and strong duality
    assert np.all(sol.dual @ A <= c + 1e-7)
    assert abs(sol.dual @ b - sol.value) < 1e-7


def test_unbounded_detected():
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    with pytest.raises(simplex.Unbounded):
        simplex.solve_lp(A, b, c)


def test_infeasible_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.array([0.0, 0.0])
    with pytest.raises(simplex.Infeasible):
        simplex.solve_lp(A, b, c)


def test_negative_rhs_handled():
    # x = 2 forced through a negated row
    A = np.array([[-1.0]])
    b = np.array([-2.0])
    c = np.array([3.0])
    sol = simplex.solve_lp(A, b, c)
    assert abs(sol.x[0] - 2.0) < 1e-10
    assert abs(sol.value - 6.0) < 1e-10
    assert abs(sol.dual @ b - sol.value) < 1e-9


def test_redundant_rows():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 2.0])
    sol = simplex.solve_lp(A, b, c)
    assert abs(sol.value - 1.0) < 1e-9
    assert np.allclose(A @ sol.x, b, atol=1e-9)


def test_degenerate_vertex_terminates():
    # multiple constraints meet at the optimum; the solve must still end there
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([-1.0, 0.0, 0.0, 0.0])
    sol = simplex.solve_lp(A, b, c)
    assert abs(sol.value + 1.0) < 1e-9
    assert abs(sol.x[0] - 1.0) < 1e-9


@pytest.mark.parametrize("status", [1, 4])
def test_other_status_raises(status, monkeypatch):
    # iteration limit (1) and numerical trouble (4) must not pass as optima
    fake = scipy.optimize.OptimizeResult(status=status, message="stopped", x=None, fun=None)
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: fake)
    with pytest.raises(ArithmeticError, match="stopped"):
        simplex.solve_lp(np.eye(1), np.ones(1), np.ones(1))
