"""Integer matrix normal forms and modular linear algebra.

One Smith-normal-form engine serves canonical forms, group orders, kernels
and linear congruence solving over Z_q.  Field-style Gaussian elimination is
ruled out because q may be composite, so everything here works over Z with
exact arithmetic (plain Python integers).
"""

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


def vec_mat(v: Sequence[int], A: Matrix) -> List[int]:
    if not A:
        return []
    out = [0] * len(A[0])
    for x, row in zip(v, A):
        if x:
            for j, a in enumerate(row):
                out[j] += x * a
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


def hermite_normal_form(A: Matrix) -> Matrix:
    """Canonical row Hermite normal form of the row lattice of A.

    Pivots are positive, entries above a pivot lie in [0, pivot).  Only the
    nonzero rows are returned; the result is a canonical basis of the lattice.
    """
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    row = 0
    for col in range(n):
        if row == m:
            break
        piv = None
        for i in range(row, m):
            if M[i][col] != 0 and (piv is None or abs(M[i][col]) < abs(M[piv][col])):
                piv = i
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        while True:
            done = True
            for i in range(row + 1, m):
                if M[i][col] != 0:
                    c = M[i][col] // M[row][col]
                    M[i] = [a - c * b for a, b in zip(M[i], M[row])]
                    if M[i][col] != 0:
                        M[row], M[i] = M[i], M[row]
                        done = False
            if done:
                break
        if M[row][col] < 0:
            M[row] = [-a for a in M[row]]
        for i in range(row):
            c = M[i][col] // M[row][col]
            if c:
                M[i] = [a - c * b for a, b in zip(M[i], M[row])]
        row += 1
    return [r for r in M[:row] if any(r)]


def stack_q(rows: Sequence[Sequence[int]], q: int, n: int) -> Matrix:
    """The rows followed by q*I_n: their row lattice is the preimage in Z^n of
    the subgroup of Z_q^n that the rows generate."""
    return [list(r) for r in rows] + [
        [q if i == j else 0 for j in range(n)] for i in range(n)
    ]


def lattice_key(rows: Sequence[Sequence[int]], q: int, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Canonical key of the subgroup of Z_q^n generated by the given rows."""
    return tuple(tuple(r) for r in hermite_normal_form(stack_q(rows, q, n)))


def subgroup_order(rows: Sequence[Sequence[int]], q: int, n: int) -> int:
    """Order of the subgroup of Z_q^n generated by the rows."""
    _, S, _ = smith_normal_form(stack_q(rows, q, n))
    det = 1
    for d in snf_diagonal(S):
        det *= d
    # stacked has full column rank, so det > 0
    return q ** n // det


def solve_left_mod(A: Matrix, v: Sequence[int], q: int) -> Optional[List[int]]:
    """One solution x of x*A = v (mod q), or None.

    A is k x n; the solution is a length-k integer vector.
    """
    k = len(A)
    n = len(A[0]) if k else len(v)
    U, S, V = smith_normal_form(stack_q(A, q, n))
    return solve_left_snf(U, snf_diagonal(S), V, v, k)


def solve_left_snf(
    U: Sequence[Sequence[int]],
    diag: Sequence[int],
    V: Sequence[Sequence[int]],
    v: Sequence[int],
    k: int,
) -> Optional[List[int]]:
    """solve_left_mod for a k-row A, given the SNF  U*stack_q(A)*V  (diagonal
    diag), so that one factorization serves many right-hand sides.  Only the
    first n = len(diag) rows and first k columns of U are read."""
    n = len(diag)
    vv = vec_mat(list(v), V)
    w = [0] * n
    for i in range(n):
        d = diag[i]
        if d == 0:
            if vv[i] != 0:
                return None
            continue
        if vv[i] % d != 0:
            return None
        w[i] = vv[i] // d
    y = vec_mat(w, U)
    return y[:k]


def left_kernel_mod(A: Matrix, q: int) -> List[List[int]]:
    """Generators of the lattice {x in Z^k : x*A = 0 (mod q)}.

    The result spans the full kernel lattice (which always contains q*Z^k).
    """
    k = len(A)
    n = len(A[0]) if k else 0
    U, S, _ = smith_normal_form(stack_q(A, q, n))
    rank = sum(1 for d in snf_diagonal(S) if d != 0)
    gens = [row[:k] for row in U[rank:]]
    return [g for g in gens if any(g)]


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
