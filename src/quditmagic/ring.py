"""Residue-ring and Galois-ring arithmetic.

Covers prime factorization of the qudit dimension q and the
Galois ring GR(p^r, n) with Frobenius, trace and trace-dual bases.  The ring
is represented as Z_{p^r}[x]/(h) where h is the Hensel lift of the
lexicographically smallest monic degree-n irreducible factor of
x^{p^n - 1} - 1 over F_p; the class of x is then a Teichmuller element.
The irreducible is found by trial division by every monic polynomial of
degree <= n/2, and the lift by a search one power of p at a time: of the
p^n monic corrections h + p^k d, exactly one divides x^{p^n - 1} - 1
modulo p^{k+1}.  For n = 1 the convention h = x - 1 makes
GR(p^r, 1) = Z_{p^r} with the trace equal to the identity.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import linalg


class InvalidModulus(ValueError):
    pass


class InvalidPrime(ValueError):
    pass


class RingMismatch(ValueError):
    pass


class NotAUnit(ValueError):
    pass


class NotABasis(ValueError):
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


def _poly_mul(a: Sequence[int], b: Sequence[int], m: int) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % m
    return _poly_trim(out)


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

    def element(self, coeffs: Sequence[int]) -> "RingElement":
        m = self.modulus
        c = list(coeffs) + [0] * (self.n - len(coeffs))
        if len(c) > self.n:
            c = _poly_rem(c, self.h, m)
            c = list(c) + [0] * (self.n - len(c))
        return RingElement(self, tuple(x % m for x in c))

    def zero(self) -> "RingElement":
        return self.element([])

    def one(self) -> "RingElement":
        return self.element([1])

    def xi(self) -> "RingElement":
        """The distinguished Teichmuller generator (class of x)."""
        if self.n == 1:
            return self.one()
        return self.element([0, 1])

    def from_index(self, idx: int) -> "RingElement":
        """Element whose coefficient vector is idx written base p^r."""
        m = self.modulus
        coeffs = []
        for _ in range(self.n):
            coeffs.append(idx % m)
            idx //= m
        return self.element(coeffs)

    def elements(self):
        for idx in range(self.size):
            yield self.from_index(idx)


@dataclass(frozen=True)
class RingElement:
    ring: GaloisRing
    coeffs: Tuple[int, ...]

    def __add__(self, other: "RingElement") -> "RingElement":
        return ring_add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return ring_add(self, ring_neg(other))

    def __mul__(self, other: "RingElement") -> "RingElement":
        return ring_mul(self, other)

    def __neg__(self) -> "RingElement":
        return ring_neg(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def _check_same_ring(x: RingElement, y: RingElement) -> None:
    if x.ring != y.ring:
        raise RingMismatch("elements belong to different rings")


def ring_add(x: RingElement, y: RingElement) -> RingElement:
    _check_same_ring(x, y)
    m = x.ring.modulus
    return RingElement(
        x.ring, tuple((a + b) % m for a, b in zip(x.coeffs, y.coeffs))
    )


def ring_neg(x: RingElement) -> RingElement:
    m = x.ring.modulus
    return RingElement(x.ring, tuple((-a) % m for a in x.coeffs))


def ring_mul(x: RingElement, y: RingElement) -> RingElement:
    _check_same_ring(x, y)
    ring = x.ring
    prod = _poly_mul(x.coeffs, y.coeffs, ring.modulus)
    red = _poly_rem(prod, ring.h, ring.modulus)
    red = list(red) + [0] * (ring.n - len(red))
    return RingElement(ring, tuple(red))


def ring_pow(x: RingElement, e: int) -> RingElement:
    out = x.ring.one()
    base = x
    while e:
        if e & 1:
            out = ring_mul(out, base)
        base = ring_mul(base, base)
        e >>= 1
    return out


def scalar_mul(c: int, x: RingElement) -> RingElement:
    m = x.ring.modulus
    return RingElement(x.ring, tuple((c * a) % m for a in x.coeffs))


def is_unit(x: RingElement) -> bool:
    """Units are exactly the elements outside pR."""
    return any(c % x.ring.p != 0 for c in x.coeffs)


def inverse(x: RingElement) -> RingElement:
    """Two-sided inverse of a unit: x^(|R^x| - 1), where the unit group has
    order |R^x| = p^(n(r-1)) (p^n - 1)."""
    ring = x.ring
    if not is_unit(x):
        raise NotAUnit("element lies in pR")
    p, r, n = ring.p, ring.r, ring.n
    return ring_pow(x, p ** (n * (r - 1)) * (p ** n - 1) - 1)


def frobenius(x: RingElement) -> RingElement:
    """The ring automorphism sending the Teichmuller generator xi to xi^p."""
    ring = x.ring
    if ring.n == 1:
        return x
    xi_p = ring_pow(ring.xi(), ring.p)
    acc = ring.zero()
    power = ring.one()
    for c in x.coeffs:
        acc = ring_add(acc, scalar_mul(c, power))
        power = ring_mul(power, xi_p)
    return acc


def trace(x: RingElement) -> int:
    """Ring trace down to Z_{p^r}: sum of the n Frobenius conjugates."""
    ring = x.ring
    acc = ring.zero()
    y = x
    for _ in range(ring.n):
        acc = ring_add(acc, y)
        y = frobenius(y)
    if any(c != 0 for c in acc.coeffs[1:]):
        raise ArithmeticError("trace did not land in the base ring")
    return acc.coeffs[0]


def dual_basis(basis: Sequence[RingElement]) -> List[RingElement]:
    """Basis e* with Tr(e_i e*_j) = delta_ij, via the Gram-matrix solve."""
    ring = basis[0].ring
    n = ring.n
    if len(basis) != n:
        raise NotABasis("expected %d basis elements" % n)
    gram = [[trace(ring_mul(basis[i], basis[j])) for j in range(n)] for i in range(n)]
    # G is invertible mod p^r iff the Howell form of [G | I] is [I | G^-1].
    H = linalg.augmented_form(gram, ring.modulus)
    if [row[:n] for row in H] != linalg.identity_matrix(n):
        raise NotABasis("Gram matrix singular modulo p^r")
    inv = [row[n:] for row in H]
    dual = []
    for j in range(n):
        acc = ring.zero()
        for i in range(n):
            acc = ring_add(acc, scalar_mul(inv[i][j], basis[i]))
        dual.append(acc)
    return dual


def power_basis(ring: GaloisRing) -> List[RingElement]:
    """The basis 1, xi, ..., xi^(n-1)."""
    out = [ring.one()]
    for _ in range(ring.n - 1):
        out.append(ring_mul(out[-1], ring.xi()))
    return out


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
