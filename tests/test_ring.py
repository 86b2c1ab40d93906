import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quditmagic import ring


SMALL_RINGS = [(2, 1, 2), (3, 1, 2), (2, 2, 1), (2, 2, 2), (3, 2, 1), (5, 1, 1)]


def test_factorize_basic():
    assert ring.factorize(12).factors == ((2, 2), (3, 1))
    assert ring.factorize(7).factors == ((7, 1),)
    assert ring.factorize(360).factors == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_small():
    with pytest.raises(ring.InvalidModulus):
        ring.factorize(1)
    with pytest.raises(ring.InvalidModulus):
        ring.factorize(0)


def test_factorize_primes_and_prime_powers():
    assert ring.factorize(2).factors == ((2, 1),)
    assert ring.factorize(243).factors == ((3, 5),)
    assert ring.factorize(97 * 97 * 89).factors == ((89, 1), (97, 2))
    assert ring.factorize(2 ** 10 * 7919).factors == ((2, 10), (7919, 1))


def test_construct_rejects_bad_parameters():
    for p in (4, 9, 1, 0, -3):
        with pytest.raises(ring.InvalidPrime):
            ring.construct_galois_ring(p, 1, 1)
    with pytest.raises(ring.InvalidPrime):
        ring.construct_galois_ring(2, 0, 1)


# h of GR(p^r, n), ascending coefficients, as computed by the earlier
# construction that took the irreducible and its Hensel lift from a
# computer-algebra library.
PINNED_H = {
    (2, 1, 2): (1, 1, 1),
    (2, 2, 2): (1, 1, 1),
    (2, 3, 2): (1, 1, 1),
    (2, 1, 3): (1, 1, 0, 1),
    (2, 2, 3): (3, 1, 2, 1),
    (2, 3, 3): (7, 5, 6, 1),
    (3, 1, 2): (1, 0, 1),
    (3, 2, 2): (1, 0, 1),
    (3, 3, 2): (1, 0, 1),
    (3, 1, 3): (1, 2, 0, 1),
    (3, 2, 3): (1, 2, 3, 1),
    (3, 3, 3): (1, 20, 12, 1),
    (5, 1, 2): (2, 0, 1),
    (5, 2, 2): (7, 0, 1),
    (5, 3, 2): (57, 0, 1),
    (5, 1, 3): (1, 1, 0, 1),
    (5, 2, 3): (1, 6, 20, 1),
    (5, 3, 3): (1, 6, 70, 1),
    (7, 1, 2): (1, 0, 1),
    (7, 2, 2): (1, 0, 1),
    (7, 3, 2): (1, 0, 1),
    (7, 1, 3): (2, 0, 0, 1),
    (7, 2, 3): (30, 0, 0, 1),
    (7, 3, 3): (324, 0, 0, 1),
    (2, 4, 4): (1, 3, 14, 12, 1),
    (2, 3, 5): (7, 2, 7, 4, 0, 1),
    (3, 3, 4): (26, 19, 12, 3, 1),
    (5, 2, 4): (7, 0, 0, 0, 1),
    (7, 4, 2): (1, 0, 1),
    (11, 2, 2): (1, 0, 1),
    (13, 3, 2): (418, 0, 1),
    (3, 4, 1): (80, 1),
    # from the trial-division and one-power-of-p-lift construction
    (2, 2, 4): (1, 3, 2, 0, 1),
}


@pytest.mark.parametrize("p,r,n", sorted(PINNED_H))
def test_galois_ring_modulus_pinned(p, r, n):
    assert ring.construct_galois_ring(p, r, n).h == PINNED_H[(p, r, n)]


@pytest.mark.parametrize("p,r,n", SMALL_RINGS)
def test_ring_size_and_modulus(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    assert R.modulus == p ** r
    assert R.size == p ** (r * n)
    assert len(list(R.elements())) == R.size
    # h is monic of degree n
    assert len(R.h) == n + 1
    assert R.h[-1] == 1


@pytest.mark.parametrize("p,r,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 2, 2), (2, 1, 3)])
def test_teichmuller_element_order(p, r, n):
    # the class of x is a Teichmuller element: its order divides p^n - 1,
    # so in particular it is a unit even when r > 1
    R = ring.construct_galois_ring(p, r, n)
    xi = R.xi()
    assert ring.is_unit(xi)
    assert ring.ring_pow(xi, p ** n - 1) == R.one()
    # frobenius acts on it as the p-th power map
    assert ring.frobenius(xi) == ring.ring_pow(xi, p)


@pytest.mark.parametrize("p,r,n", [(2, 2, 2), (3, 1, 2)])
def test_ring_axioms_exhaustive(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    els = list(R.elements())
    one = R.one()
    for x in els[:8]:
        assert x * one == x
        for y in els[:8]:
            assert x + y == y + x
            assert x * y == y * x
            for z in els[:4]:
                assert (x + y) * z == x * z + y * z
                assert (x * y) * z == x * (y * z)


@pytest.mark.parametrize("p,r,n", SMALL_RINGS + [(2, 3, 3), (2, 2, 4)])
def test_units_and_inverses(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    unit_count = 0
    for x in R.elements():
        if ring.is_unit(x):
            unit_count += 1
            assert x * ring.inverse(x) == R.one()
        else:
            with pytest.raises(ring.NotAUnit):
                ring.inverse(x)
    # units are the complement of pR
    assert unit_count == R.size - p ** (n * (r - 1))


@pytest.mark.parametrize("p,r,n", [(2, 1, 2), (2, 2, 2), (3, 1, 2)])
def test_frobenius_is_ring_automorphism(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    els = list(R.elements())
    for x in els[:10]:
        for y in els[:10]:
            assert ring.frobenius(x + y) == ring.frobenius(x) + ring.frobenius(y)
            assert ring.frobenius(x * y) == ring.frobenius(x) * ring.frobenius(y)
    # fixes the base ring and has order n
    for c in range(p ** r):
        assert ring.frobenius(R.element([c])) == R.element([c])
    for x in els[:10]:
        y = x
        for _ in range(n):
            y = ring.frobenius(y)
        assert y == x


@pytest.mark.parametrize("p,r,n", SMALL_RINGS)
def test_trace_linear_and_surjective(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    m = R.modulus
    els = list(R.elements())
    for x in els[:12]:
        for y in els[:12]:
            assert ring.trace(x + y) == (ring.trace(x) + ring.trace(y)) % m
        assert ring.trace(ring.frobenius(x)) == ring.trace(x)
    values = {ring.trace(x) for x in els}
    assert values == set(range(m))


def test_trace_identity_for_degree_one():
    R = ring.construct_galois_ring(3, 2, 1)
    for c in range(9):
        assert ring.trace(R.element([c])) == c


@pytest.mark.parametrize("p,r,n", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2)])
def test_dual_basis_pairing(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    basis = ring.power_basis(R)
    dual = ring.dual_basis(basis)
    for i, j in itertools.product(range(n), repeat=2):
        assert ring.trace(basis[i] * dual[j]) == (1 if i == j else 0)


def test_dual_basis_rejects_degenerate():
    R = ring.construct_galois_ring(2, 1, 2)
    with pytest.raises(ring.NotABasis):
        ring.dual_basis([R.one()])
    with pytest.raises(ring.NotABasis):
        ring.dual_basis([R.one(), R.one()])


def test_mixed_ring_arithmetic_rejected():
    R1 = ring.construct_galois_ring(2, 1, 2)
    R2 = ring.construct_galois_ring(3, 1, 2)
    with pytest.raises(ring.RingMismatch):
        _ = R1.one() + R2.one()


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=80))
def test_from_index_round_trip(idx):
    R = ring.construct_galois_ring(3, 2, 2)
    x = R.from_index(idx % R.size)
    rebuilt = 0
    for c in reversed(x.coeffs):
        rebuilt = rebuilt * R.modulus + c
    assert rebuilt == idx % R.size
