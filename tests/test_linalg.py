import itertools
import math

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


def brute_kernel(A, q):
    return {
        x
        for x in itertools.product(range(q), repeat=len(A))
        if all(sum(c * a for c, a in zip(x, col)) % q == 0 for col in zip(*A))
    }


def check_howell_shape(H, q):
    prev = -1
    for i, row in enumerate(H):
        assert all(0 <= x < q for x in row)
        j = next(c for c, x in enumerate(row) if x)
        assert j > prev
        prev = j
        # pivots divide q; entries above a pivot lie below it
        assert q % row[j] == 0
        assert all(0 <= above[j] < row[j] for above in H[:i])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_howell_form_is_lattice_invariant(q, A, mix):
    n = len(A[0])
    H = linalg.howell_form(A, q, n)
    check_howell_shape(H, q)
    assert brute_subgroup(H, q, n) == brute_subgroup(A, q, n)
    # the form depends on the subgroup only: a row mix of existing rows,
    # negated rows, duplicates and q-multiples leave it alone
    mixed = [[sum(c * row[j] for c, row in zip(mix, A)) for j in range(n)]]
    assert linalg.howell_form(mixed + A, q, n) == H
    assert linalg.howell_form([[-x for x in row] for row in A][::-1], q, n) == H
    assert linalg.howell_form(A + A + [[q * x for x in A[0]]], q, n) == H
    assert linalg.lattice_key(A, q, n) == tuple(map(tuple, H))


def test_howell_form_shape():
    assert linalg.howell_form([[2, 1]], 4, 2) == [[2, 1], [0, 2]]
    assert linalg.howell_form([[4, 2], [2, 1]], 8, 2) == [[2, 1], [0, 4]]
    # a unit pivot is scaled to 1 and clears the column above it
    assert linalg.howell_form([[1, 5], [0, 5]], 6, 2) == [[1, 0], [0, 1]]
    assert linalg.howell_form([[3, 3], [6, 0]], 6, 2) == [[3, 3]]
    assert linalg.howell_form([], 5, 3) == []


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


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([4, 6, 8, 9, 12]),
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=0, max_value=11), min_size=n, max_size=n),
            min_size=1,
            max_size=3,
        )
    ),
    st.lists(st.integers(min_value=0, max_value=11), min_size=3, max_size=3),
)
def test_kernel_and_solve_at_composite_moduli(q, A, v):
    # 4, 6 and 12 are the moduli 2q of lift_phase_free's phase repair
    n = len(A[0])
    v = v[:n]
    gens = linalg.left_kernel_mod(A, q)
    spanned = brute_subgroup([[c % q for c in g] for g in gens], q, len(A))
    assert spanned == brute_kernel(A, q)
    # over Z they span the kernel lattice itself, which contains q*Z^k: its
    # index q^k / |kernel mod q| is the product of their invariant factors
    _, orders = linalg.independent_decomposition(gens, len(A))
    assert math.prod(orders) * len(spanned) == q ** len(A)
    x = linalg.solve_left_mod(A, v, q)
    image = brute_subgroup(A, q, n)
    if tuple(t % q for t in v) in image:
        assert x is not None
        assert [sum(c * a for c, a in zip(x, col)) % q for col in zip(*A)] == [t % q for t in v]
    else:
        assert x is None


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
