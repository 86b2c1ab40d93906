"""Output checks made apart from the program under test.

Everything here uses numpy and the standard library only; nothing imports
quditmagic.  Each check takes plain values (numbers, label tuples, parsed
JSON) and returns a list of error strings, empty when the check passes, so
that selftest.py can feed the same functions corrupted values.

Conventions shared with the program's documented ones (README of the
package): Z|j> = w^j |j>, X|j> = |j+1 mod q>, w = exp(2 pi i / q), a label
(a, b, c) means w_{2q}^c prod_i Z_i^{a_i} X_i^{b_i}, and site 0 is the
fastest-varying basis index.
"""

import itertools
import math
from typing import Dict, List, Sequence

import numpy as np

CHAIN_TOL = 1e-5
VANISH_TOL = 1e-6
MI_WINDOW_TOL = 1e-6
MI_MATCH_TOL = 1e-8
ROOT_TOL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-9
SANDWICH_TOL = 1e-8
LOWER_ESTIMATE = "lower-estimate"


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------

def prime_factors(q: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    p = 2
    while p * p <= q:
        while q % p == 0:
            out[p] = out.get(p, 0) + 1
            q //= p
        p += 1
    if q > 1:
        out[q] = out.get(q, 0) + 1
    return out


def sps_count_prime_n2(q: int) -> int:
    """Stabilizer projection states on two qudits of prime dimension q:
    the trivial group, the q (q^4-1)/(q-1) rank-one groups with phases and
    the q^2 (q+1)(q^2+1) pure states."""
    return 1 + q * (q ** 4 - 1) // (q - 1) + q * q * (q + 1) * (q * q + 1)


def sps_count_n2(q: int) -> int:
    """Product of the prime counts over the CRT factors; only square-free q
    are used by the benchmark."""
    total = 1
    for p, r in prime_factors(q).items():
        if r != 1:
            raise ValueError("count formula needs square-free q")
        total *= sps_count_prime_n2(p)
    return total


def pure_dictionary_size(q: int, n: int) -> int:
    """q^n prod_{i=1..n} (q^i + 1), the number of pure stabilizer states for
    prime q."""
    total = q ** n
    for i in range(1, n + 1):
        total *= q ** i + 1
    return total


def cover_member_count(q: int, n: int) -> int:
    """q^n prod_{p | q} (1 + p^{-n}), as an exact integer."""
    num = q ** n
    den = 1
    for p in prime_factors(q):
        num *= p ** n + 1
        den *= p ** n
    return num // den


# ---------------------------------------------------------------------------
# Dense Paulis, Cliffords and states, built from the conventions alone
# ---------------------------------------------------------------------------

def site_pauli(q: int, a: int, b: int) -> np.ndarray:
    """Z^a X^b on one qudit: |j> -> w^{a (j+b)} |j+b>."""
    w = np.exp(2j * np.pi / q)
    M = np.zeros((q, q), dtype=complex)
    for j in range(q):
        k = (j + b) % q
        M[k, j] = w ** ((a * k) % q)
    return M


def dense_pauli(q: int, a: Sequence[int], b: Sequence[int], c: int = 0) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for i in reversed(range(len(a))):
        out = np.kron(out, site_pauli(q, a[i], b[i]))
    return np.exp(1j * np.pi * c / q) * out


def label_order(q: int, a: Sequence[int], b: Sequence[int]) -> int:
    d = 1
    for x in list(a) + list(b):
        d = math.lcm(d, q // math.gcd(q, x % q))
    return d


def projector_state(q: int, n: int, gens) -> np.ndarray:
    """Normalized product of the projectors (1/d) sum_m g^m onto the +1
    eigenspaces of the generators; gens are (a, b, c) label tuples."""
    dim = q ** n
    acc = np.eye(dim, dtype=complex)
    for a, b, c in gens:
        G = dense_pauli(q, a, b, c)
        d = label_order(q, a, b)
        P = np.zeros((dim, dim), dtype=complex)
        Gm = np.eye(dim, dtype=complex)
        for _ in range(d):
            P += Gm
            Gm = Gm @ G
        acc = acc @ (P / d)
    tr = np.trace(acc).real
    if tr < 0.5:
        raise ValueError("generators have no common +1 eigenvector")
    return acc / tr


def fourier(q: int) -> np.ndarray:
    w = np.exp(2j * np.pi / q)
    return np.array([[w ** ((j * k) % q) for j in range(q)] for k in range(q)]) / math.sqrt(q)


def phase_gate(q: int) -> np.ndarray:
    """diag(i^{j^2}) for q = 2, diag(w^{j(j-1)/2}) for odd q."""
    if q == 2:
        return np.diag([1.0, 1j])
    w = np.exp(2j * np.pi / q)
    return np.diag([w ** ((j * (j - 1) // 2) % q) for j in range(q)])


def controlled_shift(q: int, control: int) -> np.ndarray:
    """Two-qudit |j0 j1> -> |j0, j1 + j0> (control 0) or |j0 + j1, j1>."""
    M = np.zeros((q * q, q * q))
    for j0 in range(q):
        for j1 in range(q):
            if control == 0:
                k0, k1 = j0, (j1 + j0) % q
            else:
                k0, k1 = (j0 + j1) % q, j1
            M[k0 + q * k1, j0 + q * j1] = 1.0
    return M


def clifford_generators(q: int, n: int) -> List[np.ndarray]:
    F, S, I = fourier(q), phase_gate(q), np.eye(q)
    if n == 1:
        return [F, S]
    if n == 2:
        return [np.kron(I, F), np.kron(F, I), np.kron(I, S), np.kron(S, I),
                controlled_shift(q, 0), controlled_shift(q, 1)]
    raise ValueError("Clifford words are built for n <= 2 only")


def random_clifford(rng: np.random.Generator, q: int, n: int, length: int = 24) -> np.ndarray:
    gens = clifford_generators(q, n)
    U = np.eye(q ** n, dtype=complex)
    for g in rng.integers(0, len(gens), size=length):
        U = gens[g] @ U
    return U


def is_clifford(U: np.ndarray, q: int, n: int) -> bool:
    """U maps every single-site X and Z to a multiple of a Pauli."""
    dim = q ** n
    paulis = [dense_pauli(q, ab[:n], ab[n:])
              for ab in itertools.product(range(q), repeat=2 * n)]
    for site in range(n):
        for a, b in ((1, 0), (0, 1)):
            av = [a if i == site else 0 for i in range(n)]
            bv = [b if i == site else 0 for i in range(n)]
            M = U @ dense_pauli(q, av, bv) @ U.conj().T
            hits = sum(1 for P in paulis
                       if abs(abs(np.trace(P.conj().T @ M)) - dim) < 1e-8)
            if hits != 1:
                return False
    return True


def single_qudit_stabilizer_states(q: int) -> List[np.ndarray]:
    """Eigenvectors of X^a Z^b over the q + 1 lines (prime q)."""
    out = []
    for a, b in [(0, 1)] + [(1, t) for t in range(q)]:
        # X^a Z^b as a matrix: Z^b first, then X^a
        M = site_pauli(q, 0, a) @ site_pauli(q, b, 0)
        _, vecs = np.linalg.eig(M)
        for k in range(q):
            v = vecs[:, k]
            out.append(v / np.linalg.norm(v))
    return out


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def entropy_bits(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log2(w)))


def reduced_two_site(rho: np.ndarray, q: int, keep: int) -> np.ndarray:
    """Reduction of a two-qudit density matrix to site `keep`."""
    t = rho.reshape(q, q, q, q)  # axes (j1, j0, k1, k0)
    if keep == 0:
        return np.einsum("ajak->jk", t)
    return np.einsum("jaka->jk", t)


def mi_two_sites_bits(rho: np.ndarray, q: int) -> float:
    return (entropy_bits(reduced_two_site(rho, q, 0))
            + entropy_bits(reduced_two_site(rho, q, 1))
            - entropy_bits(rho))


def region_entropy_bits(psi: np.ndarray, q: int, n: int, region: Sequence[int]) -> float:
    """Entropy of a region of a pure state from its Schmidt values."""
    if not region or len(region) == n:
        return 0.0
    t = psi.reshape([q] * n)
    axes = [n - 1 - s for s in region]
    rest = [ax for ax in range(n) if ax not in axes]
    M = np.transpose(t, axes + rest).reshape(q ** len(region), -1)
    s = np.linalg.svd(M, compute_uv=False) ** 2
    s = s[s > 1e-14]
    return float(-np.sum(s * np.log2(s)))


def pure_state_mi_bits(psi: np.ndarray, q: int, n: int,
                       A: Sequence[int], B: Sequence[int]) -> float:
    if not A or not B:
        return 0.0
    return (region_entropy_bits(psi, q, n, A) + region_entropy_bits(psi, q, n, B)
            - region_entropy_bits(psi, q, n, sorted(set(A) | set(B))))


def thicken(region: Sequence[int], d: int, n: int) -> List[int]:
    return sorted({t for s in region for t in range(s - d, s + d + 1) if 0 <= t < n})


def shrink(region: Sequence[int], d: int, n: int) -> List[int]:
    inside = set(region)
    return [s for s in sorted(inside)
            if all(t in inside for t in range(max(s - d, 0), min(s + d, n - 1) + 1))]


# ---------------------------------------------------------------------------
# magic-chain checks
# ---------------------------------------------------------------------------

def check_statuses(statuses: Dict[str, str]) -> List[str]:
    return ["%s is a lower estimate" % k for k, s in statuses.items() if s == LOWER_ESTIMATE]


def check_chain(lf: float, srel: float, srel_gap: float, smax: float,
                lgr: float, lr: float) -> List[str]:
    """LF <= S_rel - gap <= S_max <= LGR <= LR within CHAIN_TOL."""
    names = ["LF", "S_rel-gap", "S_max", "LGR", "LR"]
    vals = [lf, srel - srel_gap, smax, lgr, lr]
    errs = []
    for i in range(4):
        if not vals[i] <= vals[i + 1] + CHAIN_TOL:
            errs.append("%s %.9f > %s %.9f" % (names[i], vals[i], names[i + 1], vals[i + 1]))
    return errs


def check_lr_ceiling(lr: float, q: int, n: int) -> List[str]:
    ceiling = (n + 0.5 ** (n + 1)) * math.log2(q)
    if lr < ceiling:
        return []
    return ["LR %.9f not below the ceiling %.9f" % (lr, ceiling)]


def check_dictionary_size(size: int, q: int, n: int) -> List[str]:
    want = pure_dictionary_size(q, n)
    return [] if size == want else ["dictionary has %d states, want %d" % (size, want)]


def check_lf_reference(lf: float, psi: np.ndarray, q: int) -> List[str]:
    """At n = 1, LF = -log2 max overlap with the Pauli eigenvectors."""
    best = max(abs(np.vdot(phi, psi)) ** 2 for phi in single_qudit_stabilizer_states(q))
    want = -math.log2(best)
    return [] if abs(lf - want) <= 1e-9 else ["LF %.12f != reference %.12f" % (lf, want)]


def check_vanishing(values: Dict[str, float]) -> List[str]:
    return ["%s = %.3e on a stabilizer state" % (k, v)
            for k, v in values.items() if abs(v) > VANISH_TOL]


def check_invariance(first: Dict[str, float], second: Dict[str, float],
                     slack: Dict[str, float]) -> List[str]:
    """Two Clifford images of one state have the same measures."""
    errs = []
    for k in first:
        if abs(first[k] - second[k]) > slack.get(k, 0.0) + VANISH_TOL:
            errs.append("%s differs by %.3e between Clifford images"
                        % (k, abs(first[k] - second[k])))
    return errs


# ---------------------------------------------------------------------------
# enum-mi checks
# ---------------------------------------------------------------------------

def check_sps_count(count: int, q: int) -> List[str]:
    want = sps_count_n2(q)
    return [] if count == want else ["q=%d: %d states, want %d" % (q, count, want)]


def check_mi_window(mi: float, q: int) -> List[str]:
    p = min(prime_factors(q))
    hi = math.log2(p)
    if MI_WINDOW_TOL < mi < hi - MI_WINDOW_TOL:
        return ["MI %.9f inside the forbidden window (0, %.6f)" % (mi, hi)]
    return []


def check_mi_dense(mi_group: float, rho: np.ndarray, q: int) -> List[str]:
    """rho is the projector_state of the group's generators."""
    mi = mi_two_sites_bits(rho, q)
    if abs(mi - mi_group) <= MI_MATCH_TOL:
        return []
    return ["group MI %.9f != dense MI %.9f" % (mi_group, mi)]


def projector_key(rho: np.ndarray) -> bytes:
    return np.round(rho, 8).tobytes()


def check_distinct(keys: Sequence[bytes]) -> List[str]:
    dup = len(keys) - len(set(keys))
    return [] if dup == 0 else ["%d states repeat an earlier dense projector" % dup]


# ---------------------------------------------------------------------------
# toric-braid checks
# ---------------------------------------------------------------------------

def check_braiding(q: int, entries) -> List[str]:
    """entries: (a1, b1, a2, b2, phase).  Every phase is a q-th root of
    unity and one global sign s fits w^{s (a1 b2 + b1 a2)} on all of them."""
    errs = []
    for a1, b1, a2, b2, ph in entries:
        k = round(q * np.angle(ph) / (2 * np.pi)) % q
        if abs(ph - np.exp(2j * np.pi * k / q)) > ROOT_TOL:
            errs.append("phase %r of (%d,%d)x(%d,%d) is not a q-th root" % (ph, a1, b1, a2, b2))
    if errs:
        return errs
    for s in (1, -1):
        if all(abs(ph - np.exp(2j * np.pi * ((s * (a1 * b2 + b1 * a2)) % q) / q)) <= ROOT_TOL
               for a1, b1, a2, b2, ph in entries):
            return []
    return ["no global sign fits w^{s(a1 b2 + b1 a2)} on q=%d" % q]


def check_oracle(phase: complex, oracle: complex) -> List[str]:
    if abs(phase - oracle) <= ROOT_TOL:
        return []
    return ["dense oracle %r disagrees with %r" % (oracle, phase)]


def check_annulus(q: int, point_count: int, min_fid: float, assignments) -> List[str]:
    errs = []
    if point_count != q * q:
        errs.append("%d extreme points, want %d" % (point_count, q * q))
    if not min_fid > FIDELITY_FLOOR:
        errs.append("match fidelity %.12f not above 1 - 1e-9" % min_fid)
    if sorted(tuple(a) for a in assignments) != list(itertools.product(range(q), repeat=2)):
        errs.append("assignments are not Z_q x Z_q")
    return errs


# ---------------------------------------------------------------------------
# cli-session checks
# ---------------------------------------------------------------------------

def check_exit(code: int) -> List[str]:
    return [] if code == 0 else ["exit code %d" % code]


def check_schema(obj) -> List[str]:
    if isinstance(obj, dict) and obj.get("schema") == 1:
        return []
    return ["stdout is not a schema-1 JSON report"]


def check_repeat(first: bytes, again: bytes) -> List[str]:
    return [] if first == again else ["stdout differs between repetitions"]


def check_cover_report(rep, q: int, n: int) -> List[str]:
    errs = []
    want = cover_member_count(q, n)
    if rep["member_count"] != want or len(rep["members"]) != want:
        errs.append("member count %d, want %d" % (rep["member_count"], want))
    v = rep.get("verify") or {}
    if v.get("covered_count") != q ** (2 * n) or not v.get("ok"):
        errs.append("covered_count %r, want %d" % (v.get("covered_count"), q ** (2 * n)))
    return errs


def _member_contains(rows: np.ndarray, vec: np.ndarray, q: int, n: int) -> bool:
    left, right = rows[:, :n] % q, rows[:, n:] % q
    eye = np.eye(n, dtype=np.int64)
    if np.array_equal(left, eye):
        return np.array_equal((vec[:n] @ right) % q, vec[n:] % q)
    if np.array_equal(right, eye):
        return np.array_equal((vec[n:] @ left) % q, vec[:n] % q)
    for coeffs in itertools.product(range(q), repeat=n):
        if np.array_equal((np.array(coeffs) @ rows) % q, vec % q):
            return True
    return False


def check_isotropic(members, q: int, n: int, rng: np.random.Generator,
                    samples: int = 48) -> List[str]:
    """A seeded sample of members have pairwise commuting rows."""
    errs = []
    for idx in rng.choice(len(members), size=min(samples, len(members)), replace=False):
        M = np.array(members[idx], dtype=np.int64)
        sym = (M[:, :n] @ M[:, n:].T - M[:, n:] @ M[:, :n].T) % q
        if np.any(sym):
            errs.append("member %d is not isotropic" % idx)
    return errs


def check_coverage(members, q: int, n: int, rng: np.random.Generator,
                   samples: int = 48) -> List[str]:
    """A seeded sample of vectors of Z_q^{2n} each lie in some member."""
    errs = []
    arrs = [np.array(m, dtype=np.int64) for m in members]
    for _ in range(samples):
        vec = rng.integers(0, q, size=2 * n)
        if not any(_member_contains(M, vec, q, n) for M in arrs):
            errs.append("vector %r lies in no member" % (vec.tolist(),))
    return errs


def check_sandwich(rep, psi: np.ndarray, q: int, n: int,
                   A: Sequence[int], B: Sequence[int], depth: int) -> List[str]:
    errs = []
    lo, mid, hi = rep["i_shrunk"], rep["i_evolved"], rep["i_grown"]
    if not (lo <= mid + SANDWICH_TOL and mid <= hi + SANDWICH_TOL and rep["holds"]):
        errs.append("sandwich order fails: %.9f, %.9f, %.9f" % (lo, mid, hi))
    grown = pure_state_mi_bits(psi, q, n, thicken(A, depth, n), thicken(B, depth, n))
    shrunk = pure_state_mi_bits(psi, q, n, shrink(A, depth, n), shrink(B, depth, n))
    if abs(grown - hi) > SANDWICH_TOL or abs(shrunk - lo) > SANDWICH_TOL:
        errs.append("outer MIs %.9f, %.9f differ from reference %.9f, %.9f"
                    % (lo, hi, shrunk, grown))
    return errs
