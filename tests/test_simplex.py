"""Contract of `simplex.solve_lp`, the adapter over HiGHS's dual simplex.

These pin the adapter: exceptions, sign-flipped and redundant rows, a
degenerate vertex, primal and dual feasibility and strong duality, and
linprog's guards on HiGHS's answer.  The adapter calls HiGHS through
scipy's bindings, so `reference_solve` (linprog's "highs", which picks its
own solver) is a second path to the optimum, and
`test_bit_identical_to_linprog_on_lr_lps` pins the adapter's options to
linprog's "highs-ds" on the LPs that `magic.lr_lp` poses.  The adapter
takes A by columns only, so the tests hand it scipy.sparse's arrays
(`as_csc`); `dic.split_lp` is pinned to the CSC arrays of a dense
construction of H, and the load-order tests pin that the adapter and
scipy.optimize share one bindings module.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core as highspy

from quditmagic import dense, magic, simplex
from quditmagic.config import RunConfig


def as_csc(A):
    """Dense A by columns: scipy.sparse.csc_array's arrays as a simplex.Csc."""
    M = scipy.sparse.csc_array(A)
    return simplex.Csc(M.shape, M.indptr, M.indices, M.data)


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
                simplex.solve_lp(as_csc(A), b, c)
        return
    sol = simplex.solve_lp(as_csc(A), b, c)
    assert abs(sol.value - ref.fun) < 1e-7
    # primal feasibility
    assert np.all(sol.x >= -1e-9)
    assert np.allclose(A @ sol.x, b, atol=1e-8)
    # dual feasibility and strong duality
    assert np.all(sol.dual @ A <= c + 1e-7)
    assert abs(sol.dual @ b - sol.value) < 1e-7
    assert_same_as_highs_ds(sol, A, b, c)


def assert_same_as_highs_ds(sol, A, b, c):
    # the adapter sets the options linprog's "highs-ds" sets; an option
    # that drifts with scipy's defaults moves x, the value or the dual
    ref = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds")
    assert ref.status == 0
    assert np.array_equal(sol.x, ref.x)
    assert sol.value == ref.fun
    assert np.array_equal(sol.dual, ref.eqlin.marginals)


def test_unbounded_detected():
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    with pytest.raises(simplex.Unbounded):
        simplex.solve_lp(as_csc(A), b, c)


def test_infeasible_detected():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.array([0.0, 0.0])
    with pytest.raises(simplex.Infeasible):
        simplex.solve_lp(as_csc(A), b, c)


def test_negative_rhs_handled():
    # x = 2 forced through a negated row
    A = np.array([[-1.0]])
    b = np.array([-2.0])
    c = np.array([3.0])
    sol = simplex.solve_lp(as_csc(A), b, c)
    assert abs(sol.x[0] - 2.0) < 1e-10
    assert abs(sol.value - 6.0) < 1e-10
    assert abs(sol.dual @ b - sol.value) < 1e-9


def test_redundant_rows():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    c = np.array([1.0, 2.0])
    sol = simplex.solve_lp(as_csc(A), b, c)
    assert abs(sol.value - 1.0) < 1e-9
    assert np.allclose(A @ sol.x, b, atol=1e-9)
    # presolve drops the redundant row
    assert_same_as_highs_ds(sol, A, b, c)


def test_degenerate_vertex_terminates():
    # multiple constraints meet at the optimum; the solve must still end there
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([-1.0, 0.0, 0.0, 0.0])
    sol = simplex.solve_lp(as_csc(A), b, c)
    assert abs(sol.value + 1.0) < 1e-9
    assert abs(sol.x[0] - 1.0) < 1e-9
    assert_same_as_highs_ds(sol, A, b, c)


# linprog's status codes: 1 iteration limit, 4 numerical trouble
STOPPED = {1: highspy.HighsModelStatus.kIterationLimit, 4: highspy.HighsModelStatus.kSolveError}


@pytest.mark.parametrize("status", [1, 4])
def test_other_status_raises(status, monkeypatch):
    # an iteration limit or a solve error must not pass as an optimum
    class Stopped(highspy._Highs):
        def getModelStatus(self):
            return STOPPED[status]

    monkeypatch.setattr(highspy, "_Highs", Stopped)
    message = highspy._Highs().modelStatusToString(STOPPED[status])
    with pytest.raises(ArithmeticError, match=message):
        simplex.solve_lp(as_csc(np.eye(1)), np.ones(1), np.ones(1))


@pytest.mark.parametrize("field,shift", [("row_value", 1e-3), ("col_value", -1e-3)])
def test_optimal_outside_tolerance_raises(field, shift, monkeypatch):
    # an "optimal" answer off A x = b, or below x >= 0, by more than
    # linprog's 10 sqrt(1e-9) is rejected, as linprog's _check_result does
    class Off(highspy._Highs):
        def getSolution(self):
            solution = super().getSolution()
            setattr(solution, field, [v + shift for v in getattr(solution, field)])
            return solution

    A = np.array([[1.0, 1.0]])
    b = np.array([0.0])
    c = np.array([1.0, 1.0])
    assert simplex.solve_lp(as_csc(A), b, c).value == 0.0
    monkeypatch.setattr(highspy, "_Highs", Off)
    with pytest.raises(ArithmeticError, match="HiGHS reported optimal"):
        simplex.solve_lp(as_csc(A), b, c)


def random_state(q, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=q ** n) + 1j * rng.normal(size=q ** n)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_bit_identical_to_linprog_on_lr_lps(n, q, monkeypatch):
    lps = []
    solve = simplex.solve_lp

    def recorded(A, b, c):
        lps.append((A, b, c))
        return solve(A, b, c)

    monkeypatch.setattr(magic.simplex, "solve_lp", recorded)
    dic = magic.build_dictionary(n, q, RunConfig())
    for seed in range(3):
        magic.lr_lp(dense.density_of(random_state(q, n, seed)), dic)
    for A, b, c in lps:
        dense_A = scipy.sparse.csc_array((A.value, A.index, A.start), shape=A.shape).toarray()
        assert_same_as_highs_ds(solve(A, b, c), dense_A, b, c)


def assert_same_csc(ours, ref):
    assert ours.shape == ref.shape
    for mine, theirs in ((ours.start, ref.indptr), (ours.index, ref.indices), (ours.value, ref.data)):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)


def with_exact_zeros(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 9, size=2)
    return rng.normal(size=(m, n)) * (rng.uniform(size=(m, n)) < 0.5)


@pytest.mark.parametrize("A", [with_exact_zeros(seed) for seed in range(10)] + [
    np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 3.0]]),    # an all-zero column
    np.array([[0.0, 0.0, 0.0], [4.0, 0.0, -5.0]]),    # an all-zero row
    np.zeros((2, 3)),
], ids=["random-%d" % seed for seed in range(10)] + ["zero-column", "zero-row", "zero"])
def test_csc_matches_scipy(A):
    # solve_lp on A by columns matches scipy's linprog on the dense A: a
    # column or row with no stored entry, or no entry at all, reaches HiGHS
    # as empty ranges of start and index
    rng = np.random.default_rng(A.size)
    b = A @ rng.uniform(0.2, 1.0, size=A.shape[1])
    c = rng.uniform(0.1, 1.0, size=A.shape[1])   # positive costs keep it bounded
    assert_same_as_highs_ds(simplex.solve_lp(as_csc(A), b, c), A, b, c)


def dense_pauli_h(dic):
    """pauli_lp's H built densely, as a reference: a complex d^2 x K array T
    holding omega_{2q}^{c - a.b} at each element's label, then Re of T's
    rows re over Im of its rows im."""
    q, n = dic.q, dic.n
    grid = np.indices([q] * (2 * n)).reshape(2 * n, -1)
    flat, adjoint = np.arange(q ** (2 * n)), q ** np.arange(2 * n - 1, -1, -1) @ (-grid % q)
    re, im = np.flatnonzero(flat <= adjoint), np.flatnonzero(flat < adjoint)
    ab = np.sum(grid[:n] * grid[n:], axis=0)
    e = (dic.phases - ab[dic.labels]) % (2 * q)
    T = np.zeros((len(ab), len(e)), dtype=complex)
    T[dic.labels, np.arange(len(e))[:, None]] = np.exp(1j * np.pi * e / q).round(15)
    return np.concatenate([T[re].real, T[im].imag])


@pytest.mark.parametrize("n,q", [(1, 2), (1, 4), (1, 6), (2, 3), (3, 2)])
def test_split_lp_is_hstack_of_h_and_minus_h(n, q):
    # H by columns is byte for byte the CSC of the dense construction
    dic = magic.build_dictionary(n, q, RunConfig())
    H = scipy.sparse.csc_array(dense_pauli_h(dic))
    assert_same_csc(dic.pauli_lp[0], H)
    assert_same_csc(dic.split_lp, scipy.sparse.hstack([H, -H], format="csc"))


# Each order runs in a fresh interpreter, so that which module loads HiGHS
# first is the order under test.
LOAD_ORDER_PROBE = """
import sys
import numpy as np
from quditmagic import simplex

A = simplex.Csc((1, 2), np.array([0, 1, 2], dtype=np.int32), np.zeros(2, dtype=np.int32),
                np.ones(2))
b, c = np.array([1.0]), np.array([1.0, 2.0])
if sys.argv[1] == "lp-first":
    assert simplex.solve_lp(A, b, c).value == 1.0
    core = sys.modules[simplex.HIGHS_MODULE]
    assert "scipy.optimize" not in sys.modules
    import scipy.optimize
    from scipy.optimize._highspy import _core
    assert _core is core and simplex._highs() is core
    res = scipy.optimize.linprog(c, A_eq=[[1.0, 1.0]], b_eq=b, bounds=(0, None), method="highs-ds")
    assert res.status == 0 and res.fun == 1.0
else:
    import scipy.optimize
    from scipy.optimize._highspy import _core

    class Stopped(_core._Highs):
        def getModelStatus(self):
            return _core.HighsModelStatus.kIterationLimit

    _core._Highs = Stopped   # reaches the solver only through the same module
    try:
        simplex.solve_lp(A, b, c)
        raise SystemExit("the patched _Highs was not used")
    except ArithmeticError:
        pass
    assert simplex._highs() is _core
print("ok")
"""


def src_path():
    return os.path.dirname(os.path.dirname(simplex.__file__))


@pytest.mark.parametrize("order", ["lp-first", "scipy-optimize-first"])
def test_one_highs_module_in_either_load_order(order):
    env = dict(os.environ, PYTHONPATH=src_path())
    out = subprocess.run([sys.executable, "-c", LOAD_ORDER_PROBE, order],
                         env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["ok"], out.stderr


def test_missing_bindings_name_the_directory(tmp_path):
    # a scipy without the extension file: no fallback, an ImportError
    # naming where the loader looked
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src_path()]))
    out = subprocess.run([sys.executable, "-c", "from quditmagic import simplex; simplex._highs()"],
                         env=env, capture_output=True, text=True)
    assert out.returncode != 0
    where = os.path.join(str(tmp_path), "scipy", "optimize", "_highspy")
    assert "ImportError: no HiGHS bindings (_core) in %s" % where in out.stderr
