import hashlib
import itertools
import math
from dataclasses import replace

import pytest

from quditmagic import cli, covering, ring, stabilizer
from quditmagic.config import RunConfig, BudgetExceeded


def member_vectors(member, q, n):
    """Every Z_q-combination of the member's rows, as a set of tuples."""
    out = set()
    for coeffs in itertools.product(range(q), repeat=n):
        out.add(tuple(
            sum(c * row[i] for c, row in zip(coeffs, member)) % q for i in range(2 * n)
        ))
    return out


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


def oracle_prime_power(p, r, n):
    """The E_t / F_s family from the multiplication matrices of GR(p^r, n):
    L_x = sum_j x_j C^j, x*y = L_x y, Tr(x) = trace(L_x), and each dual
    basis vector found by search over Z_q^n."""
    R = ring.construct_galois_ring(p, r, n)
    q = R.modulus
    C = companion(R.h, q)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], C, q))

    def mult(x):
        return [[sum(xj * P[i][k] for xj, P in zip(x, powers)) % q for k in range(n)]
                for i in range(n)]

    def mul(x, y):
        return [sum(a * b for a, b in zip(row, y)) % q for row in mult(x)]

    def tr(x):
        return sum(mult(x)[i][i] for i in range(n)) % q

    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    dual = [None] * n
    for v in itertools.product(range(q), repeat=n):
        pairing = [tr(mul(b, v)) for b in basis]
        if sorted(pairing) == [0] * (n - 1) + [1]:
            dual[pairing.index(1)] = list(v)
    members, tags = [], []
    for t_idx in range(q ** n):
        t = [t_idx // q ** j % q for j in range(n)]
        members.append(tuple(
            tuple(basis[k] + [tr(mul(mul(t, basis[k]), b)) for b in basis])
            for k in range(n)))
        tags.append("E:%d" % t_idx)
    sub = p ** (r - 1)
    for s_idx in range(sub ** n):
        s = [p * (s_idx // sub ** j % sub) for j in range(n)]
        members.append(tuple(
            tuple([tr(mul(mul(s, dual[k]), d)) for d in dual] + basis[k])
            for k in range(n)))
        tags.append("F:%d" % s_idx)
    return members, tags


def crt_combine(residues, m):
    """The residue mod m.q with the given residues mod each prime-power factor."""
    a = 0
    for res, (p, r) in zip(residues, m.factors):
        mod = p ** r
        other = m.q // mod
        # other is invertible mod this prime power
        a += res * other * pow(other, -1, mod)
    return a % m.q


def oracle_cover(q, n):
    """cover_composite by ring arithmetic and crt_combine per entry."""
    mod = ring.factorize(q)
    parts = [oracle_prime_power(p, r, n) for p, r in mod.factors]
    members, tags = [], []
    for combo in itertools.product(*(range(len(m)) for m, _ in parts)):
        chosen = [parts[j][0][idx] for j, idx in enumerate(combo)]
        members.append(tuple(
            tuple(crt_combine([m[k][col] for m in chosen], mod) for col in range(2 * n))
            for k in range(n)))
        tags.append("*".join(parts[j][1][idx] for j, idx in enumerate(combo)))
    return tuple(members), tuple(tags)


def oracle_verify(c):
    """(failures, uncovered, covered count) by Python sets and a
    lexicographic scan of Z_q^{2n}."""
    q, n = c.q, c.n
    failures = []
    expected = covering.expected_member_count(q, n)
    if len(c.members) != expected:
        failures.append("family size %d != expected %d" % (len(c.members), expected))
    covered = set()
    for tag, member in zip(c.tags, c.members):
        for i in range(n):
            for j in range(i + 1, n):
                sp = sum(member[i][k] * member[j][n + k] - member[i][n + k] * member[j][k]
                         for k in range(n)) % q
                if sp != 0:
                    failures.append("member %s generators %d,%d do not commute" % (tag, i, j))
        vecs = member_vectors(member, q, n)
        if len(vecs) != q ** n:
            failures.append("member %s has order %d != q^n" % (tag, len(vecs)))
        covered |= vecs
    uncovered = None
    for vec in itertools.product(range(q), repeat=2 * n):
        if vec not in covered:
            uncovered = vec
            failures.append("vector %r is uncovered" % (vec,))
            break
    return tuple(failures), uncovered, len(covered)


@pytest.mark.parametrize(
    "q,n,expected",
    [(2, 1, 3), (3, 1, 4), (4, 1, 6), (6, 1, 12), (2, 2, 5), (3, 2, 10)],
)
def test_member_counts(q, n, expected):
    fam = covering.cover_composite(q, n)
    assert len(fam.members) == expected
    assert covering.expected_member_count(q, n) == expected
    assert len(fam.tags) == expected


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)])
def test_cover_verifies(q, n):
    report = covering.verify_cover(covering.cover_composite(q, n))
    assert report.ok, report.failures
    assert report.covered_count == report.vector_count == q ** (2 * n)


@pytest.mark.parametrize("q,n", [(2, 1), (4, 2), (8, 2), (9, 2), (6, 2), (12, 2), (4, 3)])
def test_cover_matches_ring_oracle(q, n):
    fam = covering.cover_composite(q, n)
    members, tags = oracle_cover(q, n)
    assert fam.members == members
    assert fam.tags == tags
    assert all(type(x) is int for m in fam.members for row in m for x in row)


def test_cover_8_3_stdout_pinned(capsys):
    assert cli.main(["cover", "--q", "8", "--n", "3", "--verify"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "fc863f9830b4f0347429d2e5a46caaacdd341d5f72ab2a50d5aaceabf58f36a4")


def non_commuting(fam, idx):
    # on an E member row 0 is (1, 0, ...), so adding 1 to row 1's first
    # z entry adds 1 to the symplectic product of rows 0 and 1
    m = [list(row) for row in fam.members[idx]]
    m[1][fam.n] = (m[1][fam.n] + 1) % fam.q
    return tuple(map(tuple, m))


def doctor(fam, idx, member=None):
    """fam with member idx replaced, or dropped when member is None."""
    members, tags = list(fam.members), list(fam.tags)
    if member is None:
        del members[idx], tags[idx]
    else:
        members[idx] = member
    return replace(fam, members=tuple(members), tags=tuple(tags))


@pytest.mark.parametrize("q,n,idx,kind,expected", [
    (3, 2, 4, "commute", ("member E:4 generators 0,1 do not commute",
                          "vector (0, 1, 1, 1) is uncovered")),
    (2, 2, 1, "repeat", ("member E:1 has order 2 != q^n",
                         "vector (0, 1, 1, 1) is uncovered")),
    (2, 2, 0, "drop", ("family size 4 != expected 5",
                       "vector (0, 1, 0, 0) is uncovered")),
    (6, 1, 3, "drop", ("family size 11 != expected 12",
                       "vector (3, 2) is uncovered")),
])
def test_verify_failures_match_set_oracle(q, n, idx, kind, expected):
    fam = covering.cover_composite(q, n)
    if kind == "commute":
        fam = doctor(fam, idx, non_commuting(fam, idx))
    elif kind == "repeat":
        fam = doctor(fam, idx, (fam.members[idx][0],) * n)
    else:
        fam = doctor(fam, idx)
    report = covering.verify_cover(fam)
    failures, uncovered, covered = oracle_verify(fam)
    assert report.failures == failures == expected
    assert report.uncovered == uncovered
    assert all(type(x) is int for x in report.uncovered)
    assert report.covered_count == covered < report.vector_count
    assert not report.ok


@pytest.mark.parametrize("elements", [1, 3 * 16 * 4])  # chunks of 1 and of 3 members
def test_verify_chunks_agree(monkeypatch, elements):
    fam = covering.cover_composite(4, 2)
    fam = doctor(fam, 7, (fam.members[7][0],) * 2)
    whole = covering.verify_cover(fam)
    monkeypatch.setattr(covering, "VERIFY_CHUNK_ELEMENTS", elements)
    assert covering.verify_cover(fam) == whole
    assert whole.failures[0] == "member E:7 has order 4 != q^n"
    assert whole.failures == oracle_verify(fam)[0]


def test_verify_budget():
    cfg = RunConfig(enum_limit=10)
    with pytest.raises(BudgetExceeded):
        covering.verify_cover(covering.cover_composite(3, 2), cfg)


@pytest.mark.parametrize("q,n", [(2, 2), (6, 1), (4, 1)])
def test_lifted_members_are_maximal_groups(q, n):
    fam = covering.cover_composite(q, n)
    for idx in range(len(fam.members)):
        S = covering.lift_phase_free(fam.q, fam.n, fam.members[idx])
        assert S.order == q ** n
        # a maximal group defines a pure projection state
        assert stabilizer.StabilizerProjectionState(S).rank == 1


def test_lift_phase_free_dependent_rows():
    # dependent commuting rows still get consistent phases
    rows = [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)]
    S = covering.lift_phase_free(2, 2, rows)
    assert S.order == 4


def test_lr_upper_bound_values():
    assert abs(covering.lr_upper_bound(1, 2) - 1.25) < 1e-12
    assert abs(covering.lr_upper_bound(2, 2) - 2.125) < 1e-12
    assert abs(
        covering.lr_upper_bound(1, 3) - 1.25 * math.log2(3)
    ) < 1e-12
    cfg = RunConfig(log_base="e")
    assert abs(
        covering.lr_upper_bound(1, 2, cfg) - 1.25 * math.log(2)
    ) < 1e-12
