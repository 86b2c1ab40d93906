import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmagic import linalg


def small_matrix(max_dim=4, max_entry=9):
    dim = st.integers(min_value=1, max_value=max_dim)
    entry = st.integers(min_value=-max_entry, max_value=max_entry)
    return dim.flatmap(
        lambda m: dim.flatmap(
            lambda n: st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def det_bareiss(M):
    """Exact integer determinant by fraction-free Bareiss elimination."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def is_unimodular(M):
    return abs(det_bareiss(M)) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
def test_det_bareiss_matches_float(M):
    assert det_bareiss(M) == round(np.linalg.det(np.array(M, dtype=float)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)),
        max_size=12,
    ),
)
def test_mat_inverse_unimodular_of_elementary_products(n, ops):
    # (i, j, c): add c times row j to row i, or negate row i when i == j
    V = linalg.identity_matrix(n)
    for i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            V[i] = [-x for x in V[i]]
        else:
            V[i] = [x + c * y for x, y in zip(V[i], V[j])]
    inv = linalg.mat_inverse_unimodular(V)
    assert linalg.mat_mul(inv, V) == linalg.identity_matrix(n)
    assert linalg.mat_mul(V, inv) == linalg.identity_matrix(n)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_smith_normal_form_properties(A):
    U, S, V = linalg.smith_normal_form(A)
    assert linalg.mat_mul(linalg.mat_mul(U, A), V) == S
    assert is_unimodular(U) and is_unimodular(V)
    d = linalg.snf_diagonal(S)
    # off-diagonal entries vanish
    for i, row in enumerate(S):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    # nonnegative divisor chain
    for i in range(len(d) - 1):
        assert d[i] >= 0
        if d[i] != 0:
            assert d[i + 1] % d[i] == 0
        else:
            assert d[i + 1] == 0


@settings(max_examples=40, deadline=None)
@given(small_matrix(max_dim=3, max_entry=5))
def test_hermite_form_is_lattice_invariant(A):
    H = linalg.hermite_normal_form(A)
    # prepending an integer row mix of existing rows leaves the lattice alone
    if A and len(A) >= 2:
        mixed = [[x + y for x, y in zip(A[0], A[1])]] + A
        assert linalg.hermite_normal_form(mixed) == H
    negated = [[-x for x in row] for row in A]
    assert linalg.hermite_normal_form(negated + A) == H


def test_hermite_form_shape():
    H = linalg.hermite_normal_form([[2, 1], [0, 3]])
    # pivots positive, entries above a pivot reduced into [0, pivot)
    assert H == [[2, 1], [0, 3]] or H == [[1, 2], [0, 3]]
    H2 = linalg.hermite_normal_form([[4, 2], [2, 1]])
    assert H2 == [[2, 1]]


def brute_subgroup(rows, q, n):
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((x + y) % q for x, y in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2),
        min_size=0,
        max_size=3,
    ),
)
def test_subgroup_order_matches_enumeration(q, rows):
    assert linalg.subgroup_order(rows, q, 2) == len(brute_subgroup(rows, q, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(
        st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2),
)
def test_solve_left_mod_agrees_with_search(q, A, v):
    x = linalg.solve_left_mod(A, v, q)
    found = None
    for cand in itertools.product(range(q), repeat=len(A)):
        w = [sum(c * a for c, a in zip(cand, col)) % q for col in zip(*A)]
        if w == [t % q for t in v]:
            found = cand
            break
    if found is None:
        assert x is None
    else:
        assert x is not None
        w = [sum(c * a for c, a in zip(x, col)) % q for col in zip(*A)]
        assert w == [t % q for t in v]


def test_left_kernel_spans_full_kernel():
    q = 4
    A = [[2, 0], [1, 2]]
    gens = linalg.left_kernel_mod(A, q)
    for g in gens:
        w = [sum(c * a for c, a in zip(g, col)) % q for col in zip(*A)]
        assert w == [0, 0]
    # the generated subgroup of Z_q^2 equals the brute-force kernel
    kernel = {
        x
        for x in itertools.product(range(q), repeat=2)
        if all(sum(c * a for c, a in zip(x, col)) % q == 0 for col in zip(*A))
    }
    spanned = brute_subgroup([[c % q for c in g] for g in gens], q, 2)
    assert spanned == kernel


def test_right_solvers_consistency():
    q = 6
    A = [[1, 2, 3], [0, 2, 4]]
    v = [5, 4]
    z = linalg.solve_right_mod(A, v, q)
    assert z is not None
    for row, t in zip(A, v):
        assert sum(a * x for a, x in zip(row, z)) % q == t % q
    for g in linalg.right_kernel_mod(A, q):
        for row in A:
            assert sum(a * x for a, x in zip(row, g)) % q == 0


def test_independent_decomposition_orders():
    # two generators of Z_4 x Z_2 presented with entangled relations
    q = 4
    relations = [[4, 0], [2, 2], [0, 4]]
    C, orders = linalg.independent_decomposition(relations, 2)
    assert sorted(orders) in ([1, 8], [2, 4])
    prod = 1
    for d in orders:
        prod *= d
    assert prod == 8
    # new generators still generate: C is invertible over the integers
    assert is_unimodular(C)


def test_independent_decomposition_rejects_deficient():
    with pytest.raises(ValueError):
        linalg.independent_decomposition([], 2)
    with pytest.raises(ValueError):
        linalg.independent_decomposition([[2, 0]], 2)


def test_lattice_key_canonical():
    q, n = 6, 2
    k1 = linalg.lattice_key([[2, 0], [0, 3]], q, n)
    k2 = linalg.lattice_key([[2, 3], [2, 0], [4, 3]], q, n)
    assert k1 == k2
    k3 = linalg.lattice_key([[1, 0]], q, n)
    assert k1 != k3
