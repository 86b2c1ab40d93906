"""Integer matrix normal forms and modular linear algebra.

Every question about a subgroup of Z_q^n (canonical key, order, kernel,
linear congruence) is read off its Howell form, an echelon form kept mod q
that stays canonical when q is composite, where field-style Gaussian
elimination fails.  The Smith normal form over Z serves only the
independent-generator decomposition of a relation lattice.  All arithmetic
is exact, on plain Python integers.
"""

import math
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if not A or not B:
        return []
    n = len(B[0])
    out = []
    for row in A:
        acc = [0] * n
        for a, brow in zip(row, B):
            if a:
                for j in range(n):
                    acc[j] += a * brow[j]
        out.append(acc)
    return out


def mat_inverse_unimodular(V: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix.

    Its Smith normal form U V W is the identity, so V^-1 = W U.
    """
    U, _, W = smith_normal_form(V)
    return mat_mul(W, U)


def smith_normal_form(A: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (U, S, V) with S = U*A*V diagonal, d_i | d_{i+1}, d_i >= 0."""
    m = len(A)
    n = len(A[0]) if m else 0
    S = [[int(x) for x in row] for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def add_row(i, j, c):
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, c):
        for row in S:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # Locate the minimal-magnitude nonzero entry of the trailing block.
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (piv is None or abs(S[i][j]) < abs(S[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    c = S[i][t] // S[t][t]
                    add_row(i, t, -c)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    c = S[t][j] // S[t][t]
                    add_col(j, t, -c)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; force divisibility of the block.
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if S[t][t] < 0:
            S[t] = [-a for a in S[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, S, V


def snf_diagonal(S: Matrix) -> List[int]:
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


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
                while row[j]:
                    c = piv[j] // row[j]
                    piv, row = row, [(x - c * y) % q for x, y in zip(piv, row)]
                if any(row):
                    rest.append(row)
        pool = rest
        if piv is None:
            continue
        d = math.gcd(piv[j], q)
        if piv[j] != d:
            u = pow(piv[j] // d, -1, q // d)
            while math.gcd(u, q) != 1:
                u += q // d
            piv = [(u * x) % q for x in piv]
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


def lattice_data(A: Matrix, q: int, n: int) -> Tuple[Tuple[Tuple[int, ...], ...], int, Matrix]:
    """(key, order, relations) of the subgroup of Z_q^n generated by the rows
    of A, from one augmented form: key as in lattice_key, and relations
    generating the lattice {x in Z^k : x*A = 0 (mod q)}.  The kernel rows of
    the form span it only mod q, so the q*e_i rows are appended: phase checks
    need relations such as g^q."""
    H = augmented_form(A, q)
    k = len(A)
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
    return lattice_data(A, q, len(A[0]))[2] if A else []


def right_kernel_mod(A: Matrix, q: int) -> List[List[int]]:
    """Generators of {v in Z^k : A*v = 0 (mod q)} for A of shape m x k."""
    At = [list(col) for col in zip(*A)] if A else []
    return left_kernel_mod(At, q)


def solve_right_mod(A: Matrix, v: Sequence[int], q: int) -> Optional[List[int]]:
    """One solution z of A*z = v (mod q), or None."""
    At = [list(col) for col in zip(*A)] if A else []
    return solve_left_mod(At, v, q)


def independent_decomposition(relations: Matrix, k: int) -> Tuple[Matrix, List[int]]:
    """Turn k generators with a given relation lattice into independent ones.

    relations: rows x with sum_i x_i g_i = 0; the lattice they span must have
    full rank k.  Returns (C, orders): row j of C expresses the new generator
    g'_j as an integer combination of the old ones, and g'_j has order
    orders[j] (orders form a divisor chain; entries equal to 1 are trivial).
    """
    if not relations:
        raise ValueError("relation lattice must have full rank")
    _, S, V = smith_normal_form(relations)
    diag = snf_diagonal(S)
    if len(diag) < k or any(d == 0 for d in diag[:k]):
        raise ValueError("relation lattice must have full rank")
    Vinv = mat_inverse_unimodular(V)
    C = [list(Vinv[j]) for j in range(k)]
    return C, [diag[j] for j in range(k)]
