import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from quditmagic import linalg, stabilizer


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


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=12), small_matrix())
@example(6, [[2, 0], [0, 3]])  # d = 2 fails to divide a later row
@example(6, [[2, 3]])  # d = 2 fails to divide its own row
def test_smith_normal_form_properties(q, A):
    # independent_decomposition is a Smith form over Z_q of the rows of A
    k, n = len(A), len(A[0])
    C, orders = linalg.independent_decomposition(A, q)
    assert all(0 <= x < q for row in C for x in row)
    G = [[sum(c * row[j] for c, row in zip(crow, A)) % q for j in range(n)] for crow in C]
    assert linalg.lattice_key(G, q, n) == linalg.lattice_key(A, q, n)
    assert math.prod(orders) == linalg.subgroup_order(A, q, n)
    for g, d in zip(G, orders):
        assert linalg.subgroup_order([g], q, n) == d
    for d, e in zip(orders, orders[1:]):
        assert e % d == 0
    assert linalg.subgroup_order(C, q, k) == q ** k


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_prime_howell_forms_decompose_to_identity(n, q):
    # the dictionary's column order relies on each form's rows being its
    # independent generators, in order
    for form in stabilizer.isotropic_lattices(q, n):
        k = len(form)
        assert linalg.independent_decomposition(form, q) == (
            linalg.identity_matrix(k), [q] * k
        )


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
    # the kernel alone, with the relations lattice_data reads off the same form
    assert gens == linalg.lattice_data(A, q, n)[2]
    spanned = brute_subgroup([[c % q for c in g] for g in gens], q, len(A))
    assert spanned == brute_kernel(A, q)
    # x -> x*A maps Z_q^k onto the image with this kernel; over Z the rows
    # also span q*Z^k, which phase checks need for relations such as g^q
    assert len(brute_subgroup(A, q, n)) * len(spanned) == q ** len(A)
    for i in range(len(A)):
        assert [q * (i == j) for j in range(len(A))] in gens
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
    # Z_4 x Z_2 in Z_4^2, given by two entangled generators of order 4
    q, A = 4, [[1, 2], [1, 0]]
    C, orders = linalg.independent_decomposition(A, q)
    assert orders == [2, 4]
    G = [[sum(c * row[j] for c, row in zip(crow, A)) % q for j in range(2)] for crow in C]
    assert [linalg.subgroup_order([g], q, 2) for g in G] == orders
    assert linalg.lattice_key(G, q, 2) == linalg.lattice_key(A, q, 2)
    assert linalg.subgroup_order(C, q, 2) == q ** 2


def test_lattice_key_canonical():
    q, n = 6, 2
    k1 = linalg.lattice_key([[2, 0], [0, 3]], q, n)
    k2 = linalg.lattice_key([[2, 3], [2, 0], [4, 3]], q, n)
    assert k1 == k2
    k3 = linalg.lattice_key([[1, 0]], q, n)
    assert k1 != k3
