"""Modular linear algebra over Z_q.

Every question about a subgroup of Z_q^n (canonical key, order, kernel,
linear congruence) is read off its Howell form, an echelon form kept mod q
that stays canonical when q is composite, where field-style Gaussian
elimination fails.  Independent generators of a subgroup come from a Smith
form of its generator rows, also kept mod q.  Both forms use the same two
steps, Euclid row steps and a unit scaling a pivot to a divisor of q, so
every entry stays in [0, q) (Storjohann, Algorithms for Matrix Canonical
Forms, ETH 2000).  All arithmetic is exact, on plain Python integers.
"""

import math
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _euclid(piv: List[int], row: List[int], j: int, q: int) -> Tuple[List[int], List[int]]:
    """Euclid row steps mod q that leave gcd(piv[j], row[j]) in piv[j] and 0
    in row[j]; the pair spans what it spanned before."""
    while row[j]:
        c = piv[j] // row[j]
        piv, row = row, [(x - c * y) % q for x, y in zip(piv, row)]
    return piv, row


def _scale_pivot(row: List[int], j: int, q: int) -> Tuple[List[int], int]:
    """(row times a unit mod q, d) such that the new row[j] is d = gcd(row[j], q)."""
    d = math.gcd(row[j], q)
    if row[j] != d:
        u = pow(row[j] // d, -1, q // d)
        while math.gcd(u, q) != 1:
            u += q // d
        row = [(u * x) % q for x in row]
    return row, d


def form_order(form: Matrix, q: int) -> int:
    """Order of the subgroup whose Howell form is given: prod q/pivot."""
    order = 1
    for row in form:
        order *= q // next(x for x in row if x)
    return order


def howell_form(A: Matrix, q: int, n: int) -> Matrix:
    """Howell form of the subgroup of Z_q^n generated by the rows of A.

    An echelon form kept mod q: Euclid row steps clear each column below its
    pivot, a unit scales the pivot to a divisor d of q, entries above it are
    reduced into [0, d), and the row (q/d)*pivot joins the pool so later
    columns see it.  That gives the Howell property (the rows pivoted at or
    after column j span every element that vanishes before column j), under
    which the form is unique (Howell 1986; Storjohann and Mulders 1998).
    """
    pool = [r for r in ([x % q for x in row] for row in A) if any(r)]
    out: Matrix = []
    for j in range(n):
        piv = None
        rest = []
        for row in pool:
            if not row[j]:
                rest.append(row)
            elif piv is None:
                piv = row
            else:
                piv, row = _euclid(piv, row, j, q)
                if any(row):
                    rest.append(row)
        pool = rest
        if piv is None:
            continue
        piv, d = _scale_pivot(piv, j, q)
        for row in out:
            c = row[j] // d
            if c:
                row[:] = [(x - c * y) % q for x, y in zip(row, piv)]
        extra = [(q // d * x) % q for x in piv]
        if any(extra):
            pool.append(extra)
        out.append(piv)
    return out


def augmented_form(A: Matrix, q: int) -> Matrix:
    """Howell form of [A | I_k] for a k x n matrix A.

    Its rows with a nonzero A-part are, cut to that part, the Howell form of
    span(A); the others hold, in the I-part, generators of the left kernel
    mod q; and reducing [v | 0] against it solves x*A = v (solve_form).
    """
    k = len(A)
    rows = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(A)]
    return howell_form(rows, q, (len(A[0]) if k else 0) + k)


def lattice_data(H: Matrix, q: int, n: int) -> Tuple[Tuple[Tuple[int, ...], ...], int, Matrix]:
    """(key, order, relations) of the subgroup of Z_q^n generated by the rows
    of a k x n matrix A, read off H = augmented_form(A, q): key as in
    lattice_key, order as in subgroup_order, and relations generating the
    lattice {x in Z^k : x*A = 0 (mod q)}.  The kernel rows of the form span
    that lattice only mod q, so the q*e_i rows are appended: phase checks
    need relations such as g^q."""
    k = len(H[0]) - n
    key = tuple(tuple(row[:n]) for row in H if any(row[:n]))
    relations = [row[n:] for row in H if not any(row[:n])]
    relations += [[q if i == j else 0 for j in range(k)] for i in range(k)]
    return key, form_order(key, q), relations


def solve_form(H: Matrix, v: Sequence[int], q: int) -> Optional[List[int]]:
    """One solution x of x*A = v (mod q), or None, given H = augmented_form(A, q)."""
    n = len(v)
    w = [x % q for x in v] + [0] * (len(H[0]) - n if H else 0)
    j = 0
    for row in H:
        while not row[j]:  # pivot columns increase down the form
            j += 1
        if j >= n:
            break
        c, r = divmod(w[j], row[j])
        if r:
            return None
        if c:
            w = [(x - c * y) % q for x, y in zip(w, row)]
    if any(w[:n]):
        return None
    return [-x % q for x in w[n:]]


def lattice_key(rows: Sequence[Sequence[int]], q: int, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical key of the subgroup of Z_q^n generated by the given rows."""
    return tuple(map(tuple, howell_form(rows, q, n)))


def subgroup_order(rows: Sequence[Sequence[int]], q: int, n: int) -> int:
    """Order of the subgroup of Z_q^n generated by the rows."""
    return form_order(howell_form(rows, q, n), q)


def solve_left_mod(A: Matrix, v: Sequence[int], q: int) -> Optional[List[int]]:
    """One solution x of x*A = v (mod q), or None.

    A is k x n; the solution is a length-k vector with entries in [0, q).
    """
    return solve_form(augmented_form(A, q), v, q)


def left_kernel_mod(A: Matrix, q: int) -> List[List[int]]:
    """Generators of the lattice {x in Z^k : x*A = 0 (mod q)}, q*e_i included."""
    return lattice_data(augmented_form(A, q), q, len(A[0]))[2] if A else []


def right_kernel_mod(A: Matrix, q: int) -> List[List[int]]:
    """Generators of {v in Z^k : A*v = 0 (mod q)} for A of shape m x k."""
    At = [list(col) for col in zip(*A)] if A else []
    return left_kernel_mod(At, q)


def solve_right_mod(A: Matrix, v: Sequence[int], q: int) -> Optional[List[int]]:
    """One solution z of A*z = v (mod q), or None."""
    At = [list(col) for col in zip(*A)] if A else []
    return solve_left_mod(At, v, q)


def independent_decomposition(rows: Matrix, q: int) -> Tuple[Matrix, List[int]]:
    """Independent generators of the subgroup of Z_q^m spanned by k rows, from
    their Smith form over Z_q.

    Row steps, tracked in U, and untracked column steps bring the rows to
    diag(d_0, d_1, ...) with d_t | q and d_t | d_{t+1}.  Step t takes the
    entry with the least gcd with q as pivot, clears its column by Euclid
    row steps, scales it by a unit to d = gcd(pivot, q), and, while d fails
    to divide its row or a later row (which is then added to it), makes a
    Euclid column step and starts over.  Once d divides them all, the column
    steps that clear the pivot row touch no other row and are skipped.

    Returns (C, orders): row t of C, row t of U, expresses a generator of
    order q/d_t (order 1 for a zero row) as a combination of the old ones;
    the new generators are independent and span the same subgroup.  The
    pairs are stable-sorted by ascending order, which makes the orders a
    divisor chain; at prime q a Howell form comes back as (I, (q, ..., q)).
    """
    k = len(rows)
    m = len(rows[0]) if k else 0
    # [S | U]: row steps act on both parts, column steps on S only
    T = [[x % q for x in row] + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    orders = [1] * k
    for t in range(k):
        piv = min(
            ((math.gcd(x, q), i, j) for i in range(t, k) for j, x in enumerate(T[i][:m]) if x),
            default=None,
        )
        if piv is None:
            break
        _, i, j = piv
        T[t], T[i] = T[i], T[t]
        while True:
            for i in range(t + 1, k):
                T[t], T[i] = _euclid(T[t], T[i], j, q)
            T[t], d = _scale_pivot(T[t], j, q)
            j2 = next((c for c in range(m) if T[t][c] % d), None)
            if j2 is None:
                bad = next((i for i in range(t + 1, k) if any(x % d for x in T[i][:m])), None)
                if bad is None:
                    break
                T[t] = [(x + y) % q for x, y in zip(T[t], T[bad])]
                j2 = next(c for c in range(m) if T[t][c] % d)
            cj, cl = _euclid([row[j] for row in T[t:]], [row[j2] for row in T[t:]], 0, q)
            for row, x, y in zip(T[t:], cj, cl):
                row[j], row[j2] = x, y
        orders[t] = q // d
    perm = sorted(range(k), key=orders.__getitem__)
    return [T[t][m:] for t in perm], [orders[t] for t in perm]
