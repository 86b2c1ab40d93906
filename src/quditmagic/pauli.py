"""The n-qudit Pauli group over Z_q.

Labels store the operator  omega_{2q}^c * prod_i Z_i^{a_i} X_i^{b_i}  in
Z-before-X normal form, where Z|j> = omega^j |j>, X|j> = |j+1 mod q> and
omega = exp(2 pi i / q).  The phase exponent c lives in Z_{2q}: for even q
some products (e.g. (ZX)^q = -I) pick up half-integer omega powers, and a
2q-th root phase ring covers every q uniformly.

The composition phase rule below follows from X^b Z^a = omega^{-ab} Z^a X^b
and is locked in by a dense-oracle test.

Labels are immutable named tuples (q, n, a, b, c), hashed as that field
tuple, so they are cheap to build and sets of labels iterate in the same
order as sets of their field tuples.
"""

import math
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np


class ShapeMismatch(ValueError):
    pass


class PauliLabel(NamedTuple):
    q: int
    n: int
    a: Tuple[int, ...]  # Z exponents
    b: Tuple[int, ...]  # X exponents
    c: int              # phase exponent mod 2q


def label(q: int, n: int, a: Sequence[int], b: Sequence[int], c: int = 0) -> PauliLabel:
    """Build a label with all exponents reduced to canonical ranges."""
    if len(a) != n or len(b) != n:
        raise ShapeMismatch("exponent vectors must have length n")
    return PauliLabel(
        q=q,
        n=n,
        a=tuple(x % q for x in a),
        b=tuple(x % q for x in b),
        c=c % (2 * q),
    )


def _check_shapes(P: PauliLabel, Q: PauliLabel) -> None:
    if P.q != Q.q or P.n != Q.n:
        raise ShapeMismatch("labels live on different (n, q)")


def compose(P: PauliLabel, Q: PauliLabel) -> PauliLabel:
    """Label of the matrix product P*Q in Z-before-X normal form."""
    _check_shapes(P, Q)
    q = P.q
    cross = sum(aq * bp for aq, bp in zip(Q.a, P.b))
    return PauliLabel(
        q,
        P.n,
        tuple([(x + y) % q for x, y in zip(P.a, Q.a)]),
        tuple([(x + y) % q for x, y in zip(P.b, Q.b)]),
        (P.c + Q.c - 2 * cross) % (2 * q),
    )


def inverse(P: PauliLabel) -> PauliLabel:
    return power(P, -1)


def power(P: PauliLabel, m: int) -> PauliLabel:
    """P^m for any integer m; the phase rule holds for negative m too."""
    q = P.q
    ab = sum(x * y for x, y in zip(P.a, P.b))
    return PauliLabel(
        q,
        P.n,
        tuple([m * x % q for x in P.a]),
        tuple([m * x % q for x in P.b]),
        (m * P.c - ab * m * (m - 1)) % (2 * q),
    )


def phase_shifted(P: PauliLabel, delta_c: int) -> PauliLabel:
    """Same operator multiplied by omega_{2q}^delta_c.  Only c is reduced:
    a and b of a PauliLabel are kept reduced mod q."""
    return PauliLabel(P.q, P.n, P.a, P.b, (P.c + delta_c) % (2 * P.q))


def commutation_exponent(P: PauliLabel, Q: PauliLabel) -> int:
    """r with P*Q = omega^r Q*P (the symplectic form of the labels)."""
    _check_shapes(P, Q)
    r = sum(ap * bq - bp * aq for ap, bp, aq, bq in zip(P.a, P.b, Q.a, Q.b))
    return r % P.q


def order(P: PauliLabel) -> int:
    """Smallest delta with P^delta proportional to the identity."""
    d = 1
    for x in list(P.a) + list(P.b):
        d = math.lcm(d, P.q // math.gcd(P.q, x))
    return d


def symplectic_vector(P: PauliLabel) -> List[int]:
    return list(P.a) + list(P.b)


def apply_to_state(P: PauliLabel, psi: np.ndarray) -> np.ndarray:
    """Apply the operator to a state vector without building its matrix.

    Works axis-by-axis on the little-endian tensor layout, so the cost is
    O(n q^n) instead of O(q^{2n})."""
    q, n = P.q, P.n
    tens = np.asarray(psi, dtype=complex).reshape([q] * n)
    omega = np.exp(2j * np.pi / q)
    for i in range(n):
        ax = n - 1 - i
        if P.b[i]:
            tens = np.roll(tens, P.b[i], axis=ax)
        if P.a[i]:
            shape = [1] * n
            shape[ax] = q
            tens = tens * (omega ** (P.a[i] * np.arange(q))).reshape(shape)
    return (np.exp(1j * np.pi * P.c / q) * tens).reshape(-1)


def label_sort_key(P: PauliLabel) -> Tuple:
    return (P.a, P.b, P.c)


def to_text(P: PauliLabel) -> str:
    """Text form: `q n | a_0..a_{n-1} | b_0..b_{n-1} | c`."""
    return "%d %d | %s | %s | %d" % (
        P.q,
        P.n,
        " ".join(str(x) for x in P.a),
        " ".join(str(x) for x in P.b),
        P.c,
    )

