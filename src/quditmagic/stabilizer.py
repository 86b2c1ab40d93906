"""Stabilizer groups over Z_q and stabilizer projection states.

Canonical forms, orders, membership, supported and locally generated
subgroups, conjugated groups, exhaustive enumeration of stabilizer groups,
information-convex extreme points, Pauli re-phasing, and the one place that
turns a group into a state: the dense reference sps_dense, and sps_vector,
which sets each amplitude of a pure state once from the group's elements.

All group-theoretic questions are questions about the subgroup of
Z_q^{2n} spanned by the exponent rows; linalg reads them off one Howell form,
which handles composite q uniformly.  The enumeration generates those Howell
forms directly, for every q, so each isotropic subgroup comes out once and
already canonical.

Those lattice problems see only the exponent rows (a|b) of the generators,
never their phase exponents c, and the phase of a product is affine in the
c's: compose, power and inverse are each linear in c, so

    phase(prod_i g_i^{x_i}) = base(rows, x) + sum_i x_i c_i   (mod 2q),

where base(rows, x) is the phase of the same product with every c_i set to
0.  validate, supported_subgroup, expectation_exponent and
find_rephasing_pauli therefore split into phase-free lattice data and
integer dot products with the generators' phases.  The lattice data is one
record per (q, n, exponent rows) in a fixed-size LRU memo, each part
computed once, on first use: the augmented form [rows | I]; validate's
commutation verdict, relations with their base phases, order and key, read
off that form after the commutation scan, so a non-commuting set builds no
form; the cross table T[j][i] = a_j.b_i, from which expectation_exponent
reads the phase of the element x it solves for on the form in O(nnz(x)^2)
integer terms; and find_rephasing_pauli's generator orders, independence
verdict and augmented form of the transposed (b | -a) rows, so each of its
calls is one solve_form.  The many groups that share a lattice and differ
only in phases (all phase assignments of one lattice, the re-phasings
extreme_points tries, the repeated braiding queries on one toric ground
group) factorize it once; the commutation, phase and independence checks
still run on every call.  The elements of every group come from one table
per lattice, with phases base + M.c.

supported_subgroup goes one step further and memos a phase map: its
generators are products h_j = prod_i g_i^{x_ji} with phases
base_j + x_j.c, so each relation rel among the h_j, whose own base phase is
b_rel, holds exactly when

    r0 + R.c = 0  (mod 2q),   R = sum_j rel_j x_j,   r0 = b_rel + sum_j rel_j base_j,

a test on S's own phases c.  A call then checks these congruences, builds
the generators and returns the group; relations with R = r0 = 0 hold for
every c and are not stored.  The enumeration builds, per lattice, the d
phase-shifted labels of each independent generator of order d once, and
every group of the lattice takes its generators from those lists.

Products of generators go through product_label, which evaluates
prod_j g_j^{x_j} in closed form (see its docstring) on plain integer lists,
or, in _element_table, on arrays of all of a group's elements at once.
"""

import functools
import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import linalg, pauli
from .config import DEFAULT_CONFIG, BudgetExceeded, RunConfig, check_dense
from .pauli import PauliLabel


class NonCommutingPair(ValueError):
    def __init__(self, i: int, j: int):
        super().__init__("generators %d and %d do not commute" % (i, j))
        self.pair = (i, j)


class InconsistentPhase(ValueError):
    pass


class NotIndependent(ValueError):
    pass


MEMBER_PHASE_MATCH = "yes-with-phase-match"
MEMBER_UP_TO_PHASE = "yes-up-to-phase"
MEMBER_NO = "no"


class StabilizerGroup(NamedTuple):
    q: int
    n: int
    gens: Tuple[PauliLabel, ...]
    order: int
    key: Tuple[Tuple[int, ...], ...]


def product_label(gens: Sequence[PauliLabel], coeffs: Sequence[int]) -> PauliLabel:
    """The element  prod_j g_j^{x_j}  as an exact label, in closed form.

    With g_j = omega_{2q}^{c_j} Z^{a_j} X^{b_j} and each x_j reduced mod 2q
    (g^x is 2q-periodic in x), the product has exponents A = sum_j x_j a_j,
    B = sum_j x_j b_j (mod q) and phase

        c = sum_j [x_j c_j - (a_j.b_j) x_j (x_j - 1) - 2 x_j (a_j . B_{<j})]

    mod 2q, where B_{<j} = sum_{i<j} x_i b_i: the first two terms are
    power(g_j, x_j), the last is the X^{B_{<j}} Z^{x_j a_j} swap of
    compose.  Only the result becomes a PauliLabel."""
    q, n = gens[0].q, gens[0].n
    q2 = 2 * q
    A = [0] * n
    B = [0] * n
    c = 0
    for g, x in zip(gens, coeffs):
        x %= q2
        if not x:
            continue
        a, b = g.a, g.b
        c += x * (g.c - sum(map(mul, a, b)) * (x - 1) - 2 * sum(map(mul, a, B)))
        A = [u + x * v for u, v in zip(A, a)]
        B = [u + x * v for u, v in zip(B, b)]
    return PauliLabel(q, n, tuple([u % q for u in A]), tuple([u % q for u in B]), c % q2)


def _rows_key(gens: Sequence[PauliLabel]) -> Tuple[Tuple[int, ...], ...]:
    return tuple([g.a + g.b for g in gens])


def _zero_labels(q: int, n: int, rows: Sequence[Sequence[int]]) -> List[PauliLabel]:
    """Labels with these exponent rows and phase 0, whose products give the
    base phases.  The rows are not reduced: product_label's result depends
    on a and b only mod q."""
    return [PauliLabel(q, n, tuple(r[:n]), tuple(r[n:]), 0) for r in rows]


class _Lattice:
    """Phase-free data of generators with exponent rows `rows` on n qudits
    of dimension q; each part is computed once, on first use."""

    def __init__(self, q: int, n: int, rows: Tuple[Tuple[int, ...], ...]):
        self.q, self.n, self.rows = q, n, rows

    @functools.cached_property
    def form(self) -> Tuple[Tuple[int, ...], ...]:
        """The augmented form [rows | I]."""
        return tuple(map(tuple, linalg.augmented_form(self.rows, self.q)))

    @functools.cached_property
    def checks(self) -> Tuple:
        """validate's (first non-commuting pair or None, relations as
        (rel, rel, base phase), order, key), in the relation format of
        _checked_group."""
        q, n, rows = self.q, self.n, self.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if _symplectic_product(rows[i], rows[j], n, q) != 0:
                    return (i, j), (), 0, ()
        key, order, kernel = linalg.lattice_data(self.form, q, 2 * n)
        zero = _zero_labels(q, n, rows)
        relations = tuple((rel, rel, product_label(zero, rel).c) for rel in map(tuple, kernel))
        return None, relations, order, key

    @functools.cached_property
    def cross(self) -> Tuple[Tuple[int, ...], ...]:
        """The table T[j][i] = a_j . b_i, from which expectation_exponent
        reads product_label's a_j . B_{<j} terms."""
        n, rows = self.n, self.rows
        return tuple(tuple(sum(map(mul, rj[:n], ri[n:])) for ri in rows) for rj in rows)

    @functools.cached_property
    def rephasing(self) -> Tuple:
        """find_rephasing_pauli's (orders, independent, H) with H the
        augmented form of the transpose of the rows (b | -a), so that
        solve_form(H, v) solves (b | -a) z = v.  Its rows with a nonzero
        first part are the Howell form of the column span of (b | -a), which
        has the order of the row span of (a | b) (both follow from the Smith
        form), so the independence check, prod orders = |span|, needs no
        second Howell form."""
        q, n, rows = self.q, self.n, self.rows
        orders = tuple(pauli.order(PauliLabel(q, n, r[:n], r[n:], 0)) for r in rows)
        k = len(rows)
        C = [r[n:] + tuple(-x for x in r[:n]) for r in rows]
        H = linalg.augmented_form([list(col) for col in zip(*C)], q)
        span = linalg.form_order([row[:k] for row in H if any(row[:k])], q)
        return orders, span == functools.reduce(mul, orders, 1), tuple(map(tuple, H))


_lattice = functools.lru_cache(maxsize=64)(_Lattice)


def _checked_group(
    q: int, n: int, gens: Tuple[PauliLabel, ...], data: Tuple, phases: Sequence[int]
) -> StabilizerGroup:
    """The group of gens, after the commutation and phase checks of validate.

    data is (first non-commuting pair or None, relations, order, key), each
    relation rel among gens given as (rel, R, r0): the product prod_j g_j^rel_j
    has phase r0 + R.phases (mod 2q) and must be the identity."""
    pair, relations, order, key = data
    if pair is not None:
        raise NonCommutingPair(*pair)
    for rel, R, r0 in relations:
        c = (r0 + sum(map(mul, R, phases))) % (2 * q)
        if c != 0:
            raise InconsistentPhase(
                "relation %r yields a nontrivial phase omega_{2q}^%d" % (list(rel), c)
            )
    return StabilizerGroup(q, n, gens, order, key)


def validate(tableau: Sequence[PauliLabel]) -> StabilizerGroup:
    """Check commutation and phase consistency, compute order and key."""
    if not tableau:
        raise ValueError("empty tableau; use trivial_group instead")
    q, n = tableau[0].q, tableau[0].n
    for g in tableau:
        if g.q != q or g.n != n:
            raise pauli.ShapeMismatch("mixed (n, q) in tableau")
    gens = tuple(tableau)
    data = _lattice(q, n, _rows_key(gens)).checks
    return _checked_group(q, n, gens, data, [g.c for g in gens])


def trivial_group(q: int, n: int) -> StabilizerGroup:
    # the Howell form of the zero subgroup has no rows
    return StabilizerGroup(q=q, n=n, gens=(), order=1, key=())


@functools.lru_cache(maxsize=1)
def _element_table(q: int, n: int, rows: Tuple[Tuple[int, ...], ...]) -> Tuple:
    """(A, B, base, M, diag, form) for these generator rows: row i of A, B
    holds the Z- and X-exponents of element i in elements' order, its phase
    is base_i + M_i.c (mod 2q) for generator phases c, expanded one
    independent generator at a time by product_label's rule; diag marks the
    diagonal elements, and form, the augmented_form of their Z-parts'
    transpose, gives sps_vector its support point.  One table is kept, as
    the enumeration yields a lattice's phase assignments back to back, in
    the least type that holds 2q (0.2 MB, not 1.4, at 6,561 elements)."""
    A = B = np.zeros((1, n), dtype=np.int64)
    base, M = np.zeros(1, dtype=np.int64), np.zeros((1, len(rows)), dtype=np.int64)
    for crow, d in zip(*linalg.independent_decomposition(rows, q)):
        if d == 1:
            continue
        h = product_label(_zero_labels(q, n, rows), crow)
        a, x = np.array(h.a), np.arange(d)
        base = ((base[:, None] + x * (h.c - sum(map(mul, h.a, h.b)) * (x - 1))
                 - 2 * (B @ a)[:, None] * x) % (2 * q)).reshape(-1)
        A = ((A[:, None] + x[:, None] * a) % q).reshape(-1, n)
        B = ((B[:, None] + x[:, None] * np.array(h.b)) % q).reshape(-1, n)
        M = ((M[:, None] + x[:, None] * np.array(crow)) % (2 * q)).reshape(-1, len(rows))
    diag = ~B.any(axis=1)
    form = linalg.augmented_form(A[diag].T.tolist(), q)
    return (*(X.astype(np.min_scalar_type(2 * q)) for X in (A, B, base, M)), diag, form)


def _element_arrays(S: StabilizerGroup) -> Tuple:
    """(A, B, phases, diag, form) of S's elements; int64 operands promote A, B."""
    A, B, base, M, diag, form = _element_table(S.q, S.n, _rows_key(S.gens))
    c = np.array([g.c for g in S.gens], dtype=np.int64)
    return A, B, (base + M @ c) % (2 * S.q), diag, form


def elements(S: StabilizerGroup) -> Iterator[PauliLabel]:
    """All |S| elements, each exactly once."""
    A, B, phases, _, _ = _element_arrays(S)
    for a, b, c in zip(A.tolist(), B.tolist(), phases.tolist()):
        yield PauliLabel(S.q, S.n, tuple(a), tuple(b), c)


def member(S: StabilizerGroup, P: PauliLabel) -> str:
    """Three-valued membership verdict for the phase-extended group."""
    exp = expectation_exponent(S, P)
    if exp is None:
        return MEMBER_NO
    return MEMBER_PHASE_MATCH if exp == 0 else MEMBER_UP_TO_PHASE


def expectation_exponent(S: StabilizerGroup, P: PauliLabel) -> Optional[int]:
    """If P = omega_{2q}^e * s for s in S, return e mod 2q, else None.

    On any state stabilized by S the expectation of P is omega_{2q}^e; for
    Paulis outside the phase-extended group the expectation vanishes.

    s = prod_j g_j^{x_j} for the solution x of x.rows = (a|b) of P, and its
    phase is product_label's sum over the nonzero x_j, with each
    a_j . B_{<j} = sum_{i<j} x_i T[j][i] read off the cross table.
    """
    if P.q != S.q or P.n != S.n:
        raise pauli.ShapeMismatch("Pauli and group live on different (n, q)")
    if not S.gens:
        if any(P.a) or any(P.b):
            return None
        return P.c
    lat = _lattice(S.q, S.n, _rows_key(S.gens))
    x = linalg.solve_form(lat.form, pauli.symplectic_vector(P), S.q)
    if x is None:
        return None
    T = lat.cross
    c = 0
    done: List[Tuple[int, int]] = []
    for j, xj in enumerate(x):
        if xj:
            Tj = T[j]
            cross = sum([xi * Tj[i] for i, xi in done])
            c += xj * (S.gens[j].c - Tj[j] * (xj - 1) - 2 * cross)
            done.append((j, xj))
    return (P.c - c) % (2 * S.q)


def _check_sites(n: int, region: Sequence[int]) -> None:
    for site in region:
        if not 0 <= site < n:
            raise ValueError("site %r is outside the register 0..%d" % (site, n - 1))


@functools.lru_cache(maxsize=16)
def _outside_columns(n: int, region: Tuple[int, ...]) -> Tuple[int, ...]:
    """The exponent columns (i and n + i) of the sites outside region."""
    _check_sites(n, region)
    inside = set(region)
    return tuple(c for i in range(n) if i not in inside for c in (i, n + i))


@functools.lru_cache(maxsize=64)
def _supported_data(
    q: int, n: int, rows: Tuple[Tuple[int, ...], ...], cols: Tuple[int, ...]
) -> Tuple:
    """Phase-free part of supported_subgroup for generators with these rows
    and the given outside columns: the kernel combinations x whose product
    has a nonzero symplectic part, as (x, a, b, base) with the product's
    phase base + x.c for generator phases c, and the _Lattice checks of
    those products with each relation rel mapped onto the generators' phases:
    R = sum_j rel_j x_j and r0 = rel's base + sum_j rel_j base_j (mod 2q).
    Relations with R = r0 = 0 hold for every c and are dropped."""
    if cols:
        kernel = linalg.left_kernel_mod([[row[c] for c in cols] for row in rows], q)
    else:
        kernel = linalg.identity_matrix(len(rows))
    zero = _zero_labels(q, n, rows)
    combos = []
    for x in kernel:
        if not any(v % q for v in x):
            continue  # a q*e_i row: the product is a phase times the identity
        g = product_label(zero, x)
        if any(g.a) or any(g.b):
            combos.append((tuple(x), g.a, g.b, g.c))
    if not combos:
        return (), None
    q2 = 2 * q
    pair, relations, order, key = _lattice(q, n, tuple(a + b for _, a, b, _ in combos)).checks
    xcols = list(zip(*(x for x, _, _, _ in combos)))
    bases = [b0 for _, _, _, b0 in combos]
    mapped = []
    for rel, _, base in relations:
        R = tuple(sum(map(mul, rel, col)) % q2 for col in xcols)
        r0 = (base + sum(map(mul, rel, bases))) % q2
        if any(R) or r0:
            mapped.append((rel, R, r0))
    return tuple(combos), (pair, tuple(mapped), order, key)


def supported_subgroup(S: StabilizerGroup, region: Sequence[int]) -> StabilizerGroup:
    """Subgroup of elements whose symplectic vector vanishes outside region."""
    q, n = S.q, S.n
    cols = _outside_columns(n, tuple(region))
    if not S.gens:
        return trivial_group(q, n)
    combos, data = _supported_data(q, n, _rows_key(S.gens), cols)
    if not combos:
        return trivial_group(q, n)
    phases = [g.c for g in S.gens]
    gens = tuple([PauliLabel(q, n, a, b, (base + sum(map(mul, x, phases))) % (2 * q))
                  for x, a, b, base in combos])
    return _checked_group(q, n, gens, data, phases)


def locally_generated(S: StabilizerGroup, balls: Sequence[Sequence[int]]) -> StabilizerGroup:
    """Group generated by the subgroups supported on each ball."""
    gens: List[PauliLabel] = []
    for ball in balls:
        gens.extend(supported_subgroup(S, ball).gens)
    if not gens:
        return trivial_group(S.q, S.n)
    return validate(gens)


def restrict(S: StabilizerGroup, region: Sequence[int]) -> StabilizerGroup:
    """Relabel a group supported on region onto sites 0..len(region)-1.

    Sites are taken in ascending order of their original indices; a
    repeated site raises ValueError.
    """
    _check_sites(S.n, region)
    if len(set(region)) != len(region):
        raise ValueError("region %r repeats a site" % list(region))
    region = sorted(region)
    pos = {site: k for k, site in enumerate(region)}
    m = len(region)
    gens = []
    for g in S.gens:
        for i in range(S.n):
            if i not in pos and (g.a[i] or g.b[i]):
                raise ValueError("generator supported outside the region")
        a = [0] * m
        b = [0] * m
        for site, k in pos.items():
            a[k] = g.a[site]
            b[k] = g.b[site]
        gens.append(pauli.label(S.q, m, a, b, g.c))
    if not gens:
        return trivial_group(S.q, m)
    return validate(gens)


class StabilizerProjectionState(NamedTuple):
    """The state proportional to prod_{g in G(S)} P(g)."""

    group: StabilizerGroup

    @property
    def rank(self) -> int:
        return self.group.q ** self.group.n // self.group.order


def sps_dense(state: StabilizerProjectionState, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Dense density matrix (1/q^n) sum_{s in S} s, the normalized projector
    prod_g P(g), summed over the group's elements in O(|S| q^n).

    Each element omega_{2q}^c Z^a X^b has one entry per column: it maps
    column k to row k + b (per site mod q, little-endian) with the value
    omega_{2q}^{c + 2 a.(k + b)}, so no per-element matrix is formed."""
    S = state.group
    q, n = S.q, S.n
    dim = q ** n
    check_dense(dim, config)
    A, B, phases, _, _ = _element_arrays(S)
    cols = np.arange(dim)
    digits = cols // q ** np.arange(n)[:, None] % q   # digits[i, k]: site i of k
    place = q ** np.arange(n)
    roots = np.exp(1j * np.pi * np.arange(2 * q) / q)
    acc = np.zeros((dim, dim), dtype=complex)
    for a, b, c in zip(A, B, phases):
        shifted = (digits + b[:, None]) % q
        exps = (c + 2 * (a @ shifted)) % (2 * q)
        acc[place @ shifted, cols] += roots[exps]
    acc /= dim
    return acc


def sps_vector(state: StabilizerProjectionState, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """State vector of a pure stabilizer projection state (|S| = q^n), formed
    without q^n x q^n matrices: sum_{s in S} s|j> for a basis state |j>
    fixed by every diagonal element omega_{2q}^c Z^a (a.j = -c/2 mod q).
    omega_{2q}^c Z^a X^b maps |j> to omega_{2q}^{c + 2 a.(j + b)} |j + b>,
    the same for all elements with that b, so each amplitude is set once: a
    2q-th root of unity, the first one 1, over sqrt(|support|)."""
    S = state.group
    if state.rank != 1:
        raise ValueError("projection state is not pure")
    q, n = S.q, S.n
    check_dense(q ** n, config)
    A, B, phases, diag, form = _element_arrays(S)
    j = linalg.solve_form(form, [-c // 2 for c in phases[diag].tolist()], q)
    shifted = (B + j) % q
    idx = shifted @ q ** np.arange(n)
    exps = phases + 2 * (A * shifted).sum(axis=1)
    roots = np.exp(1j * np.pi * np.arange(2 * q) / q) / np.sqrt(q ** n // int(diag.sum()))
    v = np.zeros(q ** n, dtype=complex)
    v[idx] = roots[(exps - exps[idx.argmin()]) % (2 * q)]
    return v


def conjugated(S: StabilizerGroup, U: PauliLabel) -> StabilizerGroup:
    """The group U S U^dagger.  U g U^dagger = omega^{r(U, g)} g, so each
    generator's phase exponent shifts by 2 r(U, g); rows, order and key stay."""
    gens = tuple(pauli.phase_shifted(g, 2 * pauli.commutation_exponent(U, g)) for g in S.gens)
    return S._replace(gens=gens)


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def _symplectic_product(u: Sequence[int], v: Sequence[int], n: int, q: int) -> int:
    return (
        sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n)) % q
    )


def _pivot(row: Sequence[int]) -> int:
    return next(i for i, x in enumerate(row) if x)


def _reduce(v: List[int], K: Sequence[Tuple[int, Sequence[int]]], q: int) -> List[int]:
    """The representative of v + span(K) reduced below the pivots of the
    Howell form K, given as (pivot column, row) pairs; it is unique."""
    for c, k in K:
        f = v[c] // k[c]
        if f:
            v = [(x - f * y) % q for x, y in zip(v, k)]
    return v


def _perp_form(q: int, n: int, K: Sequence[Sequence[int]]) -> List[List[int]]:
    """Howell form of the symplectic complement of span(K) in Z_q^{2n}, K nonempty."""
    dual = [list(k[n:]) + [-x for x in k[:n]] for k in K]
    return linalg.howell_form(linalg.right_kernel_mod(dual, q), q, 2 * n)


def _pivot_rows(q: int, j: int, K: Tuple, perp: List[List[int]]) -> Iterator[Tuple[int, ...]]:
    """The rows r = (0..0, d, t) with pivot d at column j that put an
    isotropic Howell form (r,) + K on top of K, which is supported on the
    columns after j: r is in perp, the complement of K, t is reduced below
    K's pivots, and (q/d) r lies in span(K), the Howell property.

    perp's rows with pivot c > j, taken x_c times for 0 <= x_c < (K's pivot
    at c, else q) / (their pivot), meet every coset of span(K) in perp there
    exactly once, so only the Howell property is left to filter."""
    pivots = [_pivot(h) for h in perp]
    if j not in pivots:
        return
    head = perp[pivots.index(j)]
    kp = [(_pivot(k), k) for k in K]
    kpiv = {c: k[c] for c, k in kp}
    tail = [(h, kpiv.get(c, q) // h[c]) for c, h in zip(pivots, perp) if c > j]
    for d in range(head[j], q, head[j]):
        if q % d:
            continue
        rows = [[d // head[j] * y for y in head]]
        for h, reps in tail:
            rows = [[a + x * b for a, b in zip(r, h)] for r in rows for x in range(reps)]
        for r in rows:
            if d == 1 or not any(_reduce([q // d * x % q for x in r], kp, q)):
                yield tuple(_reduce([x % q for x in r], kp, q))


def isotropic_lattices(q: int, n: int) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """The Howell forms of all isotropic subgroups of Z_q^{2n}, for any q.

    A Howell form's rows with pivots after column j are the Howell form of
    the subgroup's part supported there, so the forms grow one column at a
    time from the right: each form K either has no row pivoted at column j
    or gains one from _pivot_rows.  Every form is generated once and is its
    own lattice_key; depth-first order yields the first ones at once.
    """

    def grow(j: int, K: Tuple, perp: Optional[List[List[int]]]) -> Iterator[Tuple]:
        if j < 0:
            yield K
            return
        yield from grow(j - 1, K, perp)
        for r in _pivot_rows(q, j, K, perp):
            grown = (r,) + K
            yield from grow(j - 1, grown, _perp_form(q, n, grown) if j else None)

    return grow(2 * n - 1, (), linalg.identity_matrix(2 * n))


def _consistent_base_phase(g: PauliLabel, delta: int) -> PauliLabel:
    """Adjust the phase of g so that g^delta is exactly the identity."""
    ab = sum(map(mul, g.a, g.b))
    return g._replace(c=ab * (delta - 1) % (2 * g.q))


def enumerate_stabilizer_groups(
    n: int,
    q: int,
    pure_only: bool = False,
    config: RunConfig = DEFAULT_CONFIG,
) -> Iterator[StabilizerGroup]:
    """All stabilizer groups on (n, q): every isotropic subgroup of Z_q^{2n}
    with every consistent phase assignment, each exactly once.

    The groups of one lattice differ only in their phases: each independent
    generator g of order d gets its d phase-shifted labels once, and the
    product over those lists gives every group's generators directly."""
    target = q ** n if pure_only else None
    count = 0
    for form in isotropic_lattices(q, n):
        order = linalg.form_order(form, q)
        if target is not None and order != target:
            continue
        base = _zero_labels(q, n, form)
        C, orders = linalg.independent_decomposition(form, q)
        shifted = []
        for crow, d in zip(C, orders):
            if d == 1:
                continue
            g = _consistent_base_phase(product_label(base, crow), d)
            shifted.append([pauli.phase_shifted(g, (2 * q // d) * t) for t in range(d)])
        for gens in itertools.product(*shifted):
            count += 1
            if count > config.enum_limit:
                raise BudgetExceeded("enumeration budget exceeded")
            yield StabilizerGroup(q, n, gens, order, form)


def enumerate_pure_stabilizer_states(
    n: int, q: int, config: RunConfig = DEFAULT_CONFIG
) -> Iterator[StabilizerProjectionState]:
    """All pure stabilizer projection states (maximal groups, all phases)."""
    for S in enumerate_stabilizer_groups(n, q, pure_only=True, config=config):
        yield StabilizerProjectionState(S)


def enumerate_sps(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> Iterator[StabilizerProjectionState]:
    for S in enumerate_stabilizer_groups(n, q, pure_only=False, config=config):
        yield StabilizerProjectionState(S)


# ---------------------------------------------------------------------------
# Information-convex extreme points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremePoint:
    """One extreme point rho_Omega(u) of the information convex set."""

    state: StabilizerProjectionState  # on the sites of Omega (relabeled)
    l_gens: Tuple[PauliLabel, ...]    # free generators, relabeled to Omega
    assignment: Tuple[int, ...]       # u(g) in Z_{delta_g} per free generator


def extreme_points(
    reference: StabilizerProjectionState,
    omega: Sequence[int],
    balls: Sequence[Sequence[int]],
) -> List[ExtremePoint]:
    """Extreme points of the information convex set of the region omega.

    reference is a stabilizer projection state on a larger region (its group
    lives on sites 0..n-1 with omega a subset); balls describe the locally
    generated subgroup S_{Omega+}(Omega) and are supplied by the caller.
    """
    S_ref = reference.group
    omega = sorted(omega)
    if not set(omega) <= set(range(S_ref.n)):
        raise ValueError("omega is not contained in the reference region")
    S_r = supported_subgroup(S_ref, omega)
    S_loc = locally_generated(S_ref, [sorted(b) for b in balls])
    for g in S_loc.gens:
        if member(S_r, g) != MEMBER_PHASE_MATCH:
            raise ValueError("balls are not contained in omega")

    # Greedy completion of G(S_loc) to G(S_r) in lexicographic label order;
    # keys are Howell forms, so equal keys mean equal subgroups.
    cur_rows = [pauli.symplectic_vector(g) for g in S_loc.gens]
    cur_key = S_loc.key
    l_gens: List[PauliLabel] = []
    for elem in sorted(elements(S_r)):
        if cur_key == S_r.key:
            break
        if not any(elem.a) and not any(elem.b):
            continue
        trial = cur_rows + [pauli.symplectic_vector(elem)]
        key = linalg.lattice_key(trial, S_r.q, 2 * S_r.n)
        if key != cur_key:
            l_gens.append(elem)
            cur_rows, cur_key = trial, key

    # Consistent re-phasings of the free generators are the characters of S_r/S_loc.
    q = S_r.q
    orders = [pauli.order(g) for g in l_gens]
    points = []
    for u in itertools.product(*map(range, orders)):
        twisted_l = [pauli.phase_shifted(g, 2 * q // d * x) for g, d, x in zip(l_gens, orders, u)]
        gens = list(S_loc.gens) + twisted_l
        try:
            group = validate(gens) if gens else trivial_group(q, S_r.n)
        except InconsistentPhase:
            continue
        restricted = restrict(group, omega)
        l_restricted = restrict(validate(twisted_l), omega).gens if twisted_l else ()
        points.append(
            ExtremePoint(
                state=StabilizerProjectionState(restricted),
                l_gens=tuple(l_restricted),
                assignment=u,
            )
        )
    return points


# ---------------------------------------------------------------------------
# Pauli re-phasing (conjugation characters)
# ---------------------------------------------------------------------------

def find_rephasing_pauli(
    gens: Sequence[PauliLabel], targets: Sequence[int]
) -> PauliLabel:
    """A Pauli P with P g_i P^dagger = zeta_i^{u_i} g_i for all i.

    zeta_i = exp(2 pi i / delta_i) with delta_i the order of g_i.  Solvability
    for independent generators is the surjectivity half of the re-phasing
    lemma; failure on validated independent input is an internal error.
    """
    if not gens:
        raise ValueError("no generators to re-phase")
    if len(targets) != len(gens):
        raise ValueError("%d targets for %d generators" % (len(targets), len(gens)))
    q, n = gens[0].q, gens[0].n
    if any(g.q != q or g.n != n for g in gens):
        raise pauli.ShapeMismatch("mixed (n, q) in generators")
    orders, independent, H = _lattice(q, n, _rows_key(gens)).rephasing
    if not independent:
        raise NotIndependent("generators are not independent")
    rhs = [(q // delta) * (u % delta) for delta, u in zip(orders, targets)]
    z = linalg.solve_form(H, rhs, q)
    if z is None:
        raise AssertionError("re-phasing congruence unsolvable on independent input")
    return pauli.label(q, n, z[:n], z[n:], 0)


# ---------------------------------------------------------------------------
# Tableau file format
# ---------------------------------------------------------------------------

def tableau_to_text(gens: Sequence[PauliLabel]) -> str:
    """Header `q n k` then one `a.. b.. c` line per generator."""
    if not gens:
        raise ValueError("cannot serialize an empty tableau")
    q, n = gens[0].q, gens[0].n
    lines = ["%d %d %d" % (q, n, len(gens))]
    for g in gens:
        lines.append(
            " ".join(str(x) for x in list(g.a) + list(g.b) + [g.c])
        )
    return "\n".join(lines) + "\n"


def tableau_from_text(text: str) -> List[PauliLabel]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    q, n, k = (int(x) for x in lines[0].split())
    if q < 2 or n < 1 or k < 1:
        raise ValueError("tableau header needs q >= 2, n >= 1 and k >= 1")
    if len(lines) != k + 1:
        raise ValueError("tableau line count mismatch")
    gens = []
    for ln in lines[1:]:
        nums = [int(x) for x in ln.split()]
        if len(nums) != 2 * n + 1:
            raise ValueError("tableau row length mismatch")
        gens.append(pauli.label(q, n, nums[:n], nums[n:2 * n], nums[2 * n]))
    return gens
