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
the power basis and d its trace dual.  verify_cover marks the base-q codes of
the members' vectors (first coordinate most significant, so the smallest
unmarked code is the lexicographically first uncovered vector) in a boolean
array, counts each member's distinct codes for its order and reads isotropy
off M J M^T mod q.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _cover_ring(p: int, r: int, n: int) -> ring.GaloisRing:
    return ring.construct_galois_ring(p, r, n)


def _element_index(x: ring.RingElement) -> int:
    m = x.ring.modulus
    idx = 0
    for c in reversed(x.coeffs):
        idx = idx * m + c
    return idx


def expected_member_count(q: int, n: int) -> int:
    total = 1
    for p, r in ring.factorize(q).factors:
        total *= p ** (n * r) + p ** (n * (r - 1))
    return total


def _trace_form(left, mid, right) -> np.ndarray:
    """[j, k, i] -> Tr(left_j * mid_k * right_i), an n x n x n integer array."""
    return np.array([[[ring.trace(a * b * c) for c in right] for b in mid] for a in left],
                    dtype=np.int64)


def _digits(count: int, base: int, n: int) -> np.ndarray:
    """Row idx holds the n little-endian base-`base` digits of idx < count."""
    return np.arange(count)[:, None] // base ** np.arange(n) % base


def _as_members(M: np.ndarray) -> Tuple[Member, ...]:
    return tuple(tuple(map(tuple, m)) for m in M.tolist())


def cover_prime_power(p: int, r: int, n: int) -> CoverFamily:
    """The E_t / F_s family over q = p^r; size p^{nr} + p^{n(r-1)}."""
    R = _cover_ring(p, r, n)
    q = R.modulus
    basis = ring.power_basis(R)
    dual = ring.dual_basis(basis)
    sub = p ** (r - 1)
    E = np.einsum("mj,jki->mki", _digits(R.size, q, n), _trace_form(basis, basis, basis)) % q
    F = np.einsum("mj,jki->mki", p * _digits(sub ** n, sub, n), _trace_form(basis, dual, dual)) % q
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


def _designated_prime_power(p: int, r: int, n: int, vec: Sequence[int]) -> int:
    """Index of the member the covering proof assigns to vec over q = p^r.

    Writing (x, y) = p^k (x0, y0) with x0 or y0 a unit: if x0 is a unit the
    member is E_t with t = y0 * x0^{-1}, otherwise F_s with s = x0 * y0^{-1}
    (which lies in p*R).  The zero vector goes to E_0.
    """
    R = _cover_ring(p, r, n)
    q = R.modulus
    basis = ring.power_basis(R)
    dual = ring.dual_basis(basis)
    x = R.zero()
    y = R.zero()
    for i in range(n):
        x = x + ring.scalar_mul(vec[i] % q, basis[i])
        y = y + ring.scalar_mul(vec[n + i] % q, dual[i])
    if x.is_zero() and y.is_zero():
        return 0
    k = 0
    while k < r and all(c % p ** (k + 1) == 0 for c in x.coeffs + y.coeffs):
        k += 1
    x0 = R.element([c // p ** k for c in x.coeffs])
    y0 = R.element([c // p ** k for c in y.coeffs])
    if ring.is_unit(x0):
        t = y0 * ring.inverse(x0)
        return _element_index(t)
    s = x0 * ring.inverse(y0)
    sub = p ** (r - 1)
    idx = 0
    for c in reversed(s.coeffs):
        idx = idx * sub + (c // p)
    return R.size + idx


def designated_member(c: CoverFamily, vec: Sequence[int]) -> int:
    """Index into c.members of the proof's designated member containing vec."""
    mod = ring.factorize(c.q)
    parts = [(p, r) for p, r in mod.factors]
    idx = 0
    for p, r in parts:
        qj = p ** r
        vj = [v % qj for v in vec]
        size_j = p ** (r * c.n) + p ** ((r - 1) * c.n)
        idx = idx * size_j + _designated_prime_power(p, r, c.n, vj)
    return idx


def member_group(c: CoverFamily, idx: int) -> stabilizer.StabilizerGroup:
    """Lift a phase-free member to a validated stabilizer group of order q^n
    (every generator assigned a phase making the joint +1 eigenspace
    nonempty)."""
    return lift_phase_free(c.q, c.n, c.members[idx])


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
