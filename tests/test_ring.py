import pytest

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
    # h is monic of degree n
    assert len(R.h) == n + 1
    assert R.h[-1] == 1


def companion(h, m):
    """Matrix of multiplication by xi on the power basis of Z_m[x]/(h)."""
    n = len(h) - 1
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        if i + 1 < n:
            C[i + 1][i] = 1
        C[i][n - 1] = -h[i] % m
    return C


def mat_mul(A, B, m):
    return [[sum(a * b for a, b in zip(row, col)) % m for col in zip(*B)] for row in A]


@pytest.mark.parametrize("p,r,n", sorted(PINNED_H))
def test_power_sums_are_companion_traces(p, r, n):
    R = ring.construct_galois_ring(p, r, n)
    m = R.modulus
    C = companion(R.h, m)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    traces = []
    for _ in range(3 * n):
        traces.append(sum(power[i][i] for i in range(n)) % m)
        power = mat_mul(power, C, m)
    assert ring.power_sums(R, 3 * n) == traces


@pytest.mark.parametrize("p,r,n", sorted(PINNED_H))
def test_teichmuller_element_order(p, r, n):
    # the class of x is a Teichmuller element: its order divides p^n - 1,
    # so C^(p^n - 1) = I modulo p^r even when r > 1
    R = ring.construct_galois_ring(p, r, n)
    m = R.modulus
    C = companion(R.h, m)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    power = eye
    for _ in range(p ** n - 1):
        power = mat_mul(power, C, m)
    assert power == eye


def test_trace_identity_for_degree_one():
    # GR(3^2, 1) = Z_9 with xi = 1, so Tr(c xi^m) = c tau_m = c for every c
    R = ring.construct_galois_ring(3, 2, 1)
    assert R.h == (8, 1)
    assert ring.power_sums(R, 5) == [1] * 5
