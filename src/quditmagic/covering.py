"""Covers of the phase-free n-qudit Pauli group by maximal isotropic subgroups.

Members are phase-free: each is given by n symplectic generator rows over
Z_q^{2n}.  For a prime power q = p^r the family comes from the Galois ring
GR(p^r, n): identifying Z_q^n with R once through the power basis (first
slot) and once through its trace-dual basis (second slot), the members are

    E_t = {(x, t*x) : x in R}   for every t in R,
    F_s = {(s*y, y) : y in R}   for every s in p*R,

which gives p^{nr} + p^{n(r-1)} members whose union is all of R x R.  For
composite q the per-prime-power families are recombined coordinate-wise by
the Chinese remainder theorem.

Tr is Z_q-linear, so the z-parts Tr(t b_k b_i) = sum_j t_j T[j,k,i] of E_t
and the x-parts sum_j s_j D[j,k,i] of F_s come by one integer contraction
mod q from T[j,k,i] = Tr(b_j b_k b_i) and D[j,k,i] = Tr(b_j d_k d_i), with b
the power basis b_j = xi^j and d its trace dual.  No ring element is formed:
T[j,k,i] = tau[j+k+i] for the power sums tau_m = Tr(xi^m), the dual basis is
d_k = sum_a Ginv[a,k] b_a for the inverse mod q of the Gram matrix
G[a,b] = tau[a+b], and D[j,k,i] = sum_ab T[j,a,b] Ginv[a,k] Ginv[b,i].

verify_cover marks the base-q codes of the members' vectors (first
coordinate most significant, so the smallest unmarked code is the
lexicographically first uncovered vector) in a boolean array, counts each
member's distinct codes for its order and reads isotropy off M J M^T mod q.
"""

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg, pauli, ring, stabilizer
from .config import BudgetExceeded, DEFAULT_CONFIG, RunConfig, log_value

Row = Tuple[int, ...]
Member = Tuple[Row, ...]

# verify_cover holds at most about this many member-vector coordinates at once
VERIFY_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class CoverFamily:
    q: int
    n: int
    members: Tuple[Member, ...]
    tags: Tuple[str, ...]  # "E:<t-index>" / "F:<s-index>", CRT tags joined by "*"


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    member_count: int
    expected_count: int
    vector_count: int
    covered_count: int
    failures: Tuple[str, ...]
    uncovered: Optional[Tuple[int, ...]]


def expected_member_count(q: int, n: int) -> int:
    total = 1
    for p, r in ring.factorize(q).factors:
        total *= p ** (n * r) + p ** (n * (r - 1))
    return total


def _digits(count: int, base: int, n: int) -> np.ndarray:
    """Row idx holds the n little-endian base-`base` digits of idx < count."""
    return np.arange(count)[:, None] // base ** np.arange(n) % base


def _as_members(M: np.ndarray) -> Tuple[Member, ...]:
    return tuple(tuple(map(tuple, m)) for m in M.tolist())


def cover_prime_power(p: int, r: int, n: int) -> CoverFamily:
    """The E_t / F_s family over q = p^r; size p^{nr} + p^{n(r-1)}."""
    R = ring.construct_galois_ring(p, r, n)
    q = R.modulus
    tau = np.array(ring.power_sums(R, 3 * n - 2), dtype=np.int64)
    idx = np.arange(n)
    T = tau[idx[:, None, None] + idx[:, None] + idx]
    # the trace form G[i, j] = tau[i + j] is invertible mod q: the Howell
    # form of [G | I] is [I | G^-1]
    H = linalg.augmented_form(T[0].tolist(), q)
    if [row[:n] for row in H] != linalg.identity_matrix(n):
        raise ArithmeticError("trace form singular modulo p^r")
    Ginv = np.array([row[n:] for row in H], dtype=np.int64)
    D = np.einsum("jab,ak->jkb", T, Ginv) % q
    D = np.einsum("jkb,bi->jki", D, Ginv) % q
    sub = p ** (r - 1)
    E = np.einsum("mj,jki->mki", _digits(R.size, q, n), T) % q
    F = np.einsum("mj,jki->mki", p * _digits(sub ** n, sub, n), D) % q
    eye = np.eye(n, dtype=np.int64)
    members = np.concatenate([
        np.concatenate([np.broadcast_to(eye, E.shape), E], axis=2),
        np.concatenate([F, np.broadcast_to(eye, F.shape)], axis=2),
    ])
    tags = ["E:%d" % i for i in range(len(E))] + ["F:%d" % i for i in range(len(F))]
    return CoverFamily(q=q, n=n, members=_as_members(members), tags=tuple(tags))


def cover_composite(q: int, n: int) -> CoverFamily:
    """CRT recombination of the per-prime-power families."""
    if q < 2:
        raise ring.InvalidModulus("q must be >= 2")
    mod = ring.factorize(q)
    parts = [cover_prime_power(p, r, n) for p, r in mod.factors]
    if len(parts) == 1:
        return parts[0]
    # entry-wise sum_j res_j M_j (M_j^{-1} mod q_j) mod q, over every choice
    # of one member per part, the last part's index running fastest
    combined = 0
    for j, f in enumerate(parts):
        other = q // f.q
        shape = [1] * len(parts) + [n, 2 * n]
        shape[j] = len(f.members)
        res = np.array(f.members, dtype=np.int64).reshape(shape)
        combined = combined + res * (other * pow(other, -1, f.q))
    members = (combined % q).reshape(-1, n, 2 * n)
    tags = ["*".join(combo) for combo in itertools.product(*(f.tags for f in parts))]
    return CoverFamily(q=q, n=n, members=_as_members(members), tags=tuple(tags))


def verify_cover(c: CoverFamily, config: RunConfig = DEFAULT_CONFIG) -> CoverReport:
    """Exhaustive check: coverage of Z_q^{2n}, per-member isotropy and order,
    and the family-size formula.  Failures become report content."""
    q, n = c.q, c.n
    total = q ** (2 * n)
    if total > config.enum_limit:
        raise BudgetExceeded(
            "exhaustive verification over %d vectors exceeds limit %d"
            % (total, config.enum_limit)
        )
    failures: List[str] = []
    expected = expected_member_count(q, n)
    if len(c.members) != expected:
        failures.append("family size %d != expected %d" % (len(c.members), expected))
    M = np.array(c.members, dtype=np.int64).reshape(len(c.members), n, 2 * n)
    grid = _digits(q ** n, q, n)
    place = q ** np.arange(2 * n - 1, -1, -1)   # first coordinate most significant
    covered = np.zeros(total, dtype=bool)
    step = max(1, VERIFY_CHUNK_ELEMENTS // (q ** n * 2 * n))
    for lo in range(0, len(M), step):
        chunk = M[lo: lo + step]
        a, b = chunk[:, :, :n], chunk[:, :, n:]
        sp = (a @ b.swapaxes(1, 2) - b @ a.swapaxes(1, 2)) % q
        codes = np.sort((grid @ chunk % q) @ place, axis=1)
        covered[codes] = True
        orders = 1 + np.count_nonzero(np.diff(codes, axis=1), axis=1)
        for tag, g, order in zip(c.tags[lo: lo + step], sp, orders.tolist()):
            for i, j in zip(*np.nonzero(np.triu(g, 1))):
                failures.append("member %s generators %d,%d do not commute" % (tag, i, j))
            if order != q ** n:
                failures.append("member %s has order %d != q^n" % (tag, order))
    covered_count = int(np.count_nonzero(covered))
    uncovered = None
    if covered_count != total:
        code = int(np.argmin(covered))
        uncovered = tuple(code // q ** k % q for k in range(2 * n - 1, -1, -1))
        failures.append("vector %r is uncovered" % (uncovered,))
    return CoverReport(
        ok=not failures,
        member_count=len(c.members),
        expected_count=expected,
        vector_count=total,
        covered_count=covered_count,
        failures=tuple(failures),
        uncovered=uncovered,
    )


def lift_phase_free(q: int, n: int, rows: Sequence[Sequence[int]]) -> stabilizer.StabilizerGroup:
    """Phase assignment for commuting phase-free rows (a|b) over Z_q^{2n}.

    Starts from the phase making each generator satisfy g^order = +1 exactly
    and repairs any relation inconsistencies by a linear congruence mod 2q.
    """
    labels = []
    for row in rows:
        g0 = pauli.label(q, n, list(row[:n]), list(row[n:]), 0)
        labels.append(stabilizer._consistent_base_phase(g0, pauli.order(g0)))
    sym = [pauli.symplectic_vector(g) for g in labels]
    rels = linalg.left_kernel_mod(sym, q)
    if rels:
        rhs = [(-stabilizer.product_label(labels, m).c) % (2 * q) for m in rels]
        shift = linalg.solve_right_mod([list(m) for m in rels], rhs, 2 * q)
        if shift is None:
            raise stabilizer.InconsistentPhase("rows admit no consistent phases")
        labels = [pauli.phase_shifted(g, s) for g, s in zip(labels, shift)]
    return stabilizer.validate(labels)


def lr_upper_bound(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> float:
    """Ceiling (n + 2^{-n-1}) * log q implied by the cover, in the configured
    base; every state's log-robustness with respect to stabilizer states
    stays below it."""
    return (n + 0.5 ** (n + 1)) * log_value(q, config)
