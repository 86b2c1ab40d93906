"""Residue-ring and Galois-ring arithmetic.

Covers prime factorization of the qudit dimension q and the Galois ring
GR(p^r, n), given by its modulus h and the traces Tr(xi^m) of the powers of
its generator.  The ring is represented as Z_{p^r}[x]/(h) where h is the
Hensel lift of the lexicographically smallest monic degree-n irreducible
factor of x^{p^n - 1} - 1 over F_p; the class xi of x is then a Teichmuller
element, and the roots of h are its n Frobenius conjugates.
The irreducible is found by trial division by every monic polynomial of
degree <= n/2, and the lift by a search one power of p at a time: of the
p^n monic corrections h + p^k d, exactly one divides x^{p^n - 1} - 1
modulo p^{k+1}.  For n = 1 the convention h = x - 1 makes
GR(p^r, 1) = Z_{p^r} with the trace equal to the identity.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple


class InvalidModulus(ValueError):
    pass


class InvalidPrime(ValueError):
    pass


@dataclass(frozen=True)
class Modulus:
    """A qudit dimension together with its canonical prime factorization."""

    q: int
    factors: Tuple[Tuple[int, int], ...]  # ascending (prime, exponent) pairs


def factorize(q: int) -> Modulus:
    """Canonical factorization of the qudit dimension."""
    if q < 2:
        raise InvalidModulus("modulus must be >= 2, got %r" % (q,))
    factors = []
    rest, p = q, 2
    while p * p <= rest:
        r = 0
        while rest % p == 0:
            rest //= p
            r += 1
        if r:
            factors.append((p, r))
        p += 1
    if rest > 1:
        factors.append((rest, 1))
    return Modulus(q=q, factors=tuple(factors))


# ---------------------------------------------------------------------------
# Polynomial helpers over Z_m (dense ascending coefficient tuples)
# ---------------------------------------------------------------------------

def _poly_trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a: Sequence[int], h: Sequence[int], m: int) -> List[int]:
    """Remainder of a modulo monic h, coefficients mod m."""
    a = _poly_trim([x % m for x in a])
    dh = len(h) - 1
    while len(a) > dh:
        lead = a[-1]
        shift = len(a) - 1 - dh
        for i, hi in enumerate(h):
            a[shift + i] = (a[shift + i] - lead * hi) % m
        a = _poly_trim(a)
    return a


# ---------------------------------------------------------------------------
# Galois rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaloisRing:
    p: int
    r: int
    n: int
    h: Tuple[int, ...]  # monic, ascending coefficients, reduced mod p^r

    @property
    def modulus(self) -> int:
        return self.p ** self.r

    @property
    def size(self) -> int:
        return self.p ** (self.r * self.n)


def power_sums(R: GaloisRing, count: int) -> List[int]:
    """tau_m = Tr(xi^m) mod p^r for m < count.

    The roots of h are the n Frobenius conjugates of xi, so Tr(xi^m) is
    their m-th power sum, which Newton's identities give from h's
    coefficients: with h = x^n + a_1 x^(n-1) + ... + a_n,
    tau_m = -(a_1 tau_(m-1) + ... + a_(m-1) tau_1 + m a_m) for m <= n and
    tau_m = -(a_1 tau_(m-1) + ... + a_n tau_(m-n)) beyond.
    """
    a = R.h[::-1]
    tau = [R.n % R.modulus]
    for m in range(1, count):
        s = m * a[m] if m <= R.n else 0
        s += sum(a[i] * tau[m - i] for i in range(1, min(m, R.n + 1)))
        tau.append(-s % R.modulus)
    return tau


def _smallest_irreducible(p: int, n: int) -> List[int]:
    """Lexicographically smallest (by ascending coefficient tuple) monic
    irreducible degree-n polynomial over F_p."""
    divisors = [_monic(idx, p, d) for d in range(1, n // 2 + 1) for idx in range(p ** d)]
    for idx in range(p ** n):
        poly = _monic(idx, p, n)
        if all(_poly_rem(poly, f, p) for f in divisors):
            return poly
    raise ArithmeticError("no irreducible polynomial found")


def _monic(idx: int, base: int, n: int) -> List[int]:
    """Monic degree-n polynomial whose lower coefficients are idx base `base`."""
    coeffs = []
    for _ in range(n):
        coeffs.append(idx % base)
        idx //= base
    return coeffs + [1]


def construct_galois_ring(p: int, r: int, n: int) -> GaloisRing:
    if p < 2 or factorize(p).factors != ((p, 1),):
        raise InvalidPrime("p must be prime, got %r" % (p,))
    if r < 1 or n < 1:
        raise InvalidPrime("exponent and degree must be >= 1")
    m = p ** r
    if n == 1:
        return GaloisRing(p=p, r=r, n=1, h=((m - 1) % m, 1))
    h0 = _smallest_irreducible(p, n)
    if r == 1:
        return GaloisRing(p=p, r=1, n=n, h=tuple(h0))
    # Hensel-lift h0 inside x^(p^n - 1) - 1 one power of p at a time: the
    # monic lift modulo p^(k+1) is unique, so exactly one correction works.
    big = [-1] + [0] * (p ** n - 2) + [1]
    h = h0
    for k in range(1, r):
        pk = p ** k
        for idx in range(p ** n):
            cand = [a + pk * d for a, d in zip(h[:-1], _monic(idx, p, n))] + [1]
            if not _poly_rem(big, cand, pk * p):
                h = cand
                break
        else:
            raise ArithmeticError("no Hensel lift of the irreducible factor")
    return GaloisRing(p=p, r=r, n=n, h=tuple(h))
