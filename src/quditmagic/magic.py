"""Magic monotones relative to the pure-stabilizer polytope.

Five measures are exposed, forming the chain

    LF <= S_rel <= S_max-to-set <= LGR <= LR

(estimate directions permitting): stabilizer fidelity (pure states, exact
dictionary scan), relative entropy of magic, min log lambda with
rho <= lambda*sigma over the hull and the generalized robustness
log(2*lambda-1) at the same optimum (both for pure states), and the
robustness LP.  S_rel, S_max-to-set and LGR come from one Frank-Wolfe
engine over the hull weights: it starts from given hull weights, or on the
computational basis states (sigma = I/d), and each iteration prices every
dictionary state, takes a pairwise step from the worst active state to the
best one, and a Newton step on the weights of the active states; a run
that stalls on a singular face is reseeded.  Each objective supplies its
scores, its Hessian on the active states and its slope and curvature along
a direction (closed forms after one eigendecomposition for S_max,
Daleckii-Krein divided differences of log for S_rel), and one exact line
search serves both.  magic_report runs LF, LR, S_max/LGR and S_rel in
that order, and starts each Frank-Wolfe run at the hull point where the
one before it ended: S_max/LGR at the positive part of LR's
decomposition, S_rel at S_max's optimum.

Every measure is reported by one rule.  Its solver certifies a bracket
[lower, upper] on its own objective: lambda for S_max and LGR, and
S(rho || sigma) in nats for S_rel (upper the Frank-Wolfe value, lower that
minus its gap), 1 + 2R for LR (upper the primal cost, lower Tr(A rho) of
a dual witness A scaled to feasibility: HiGHS's dual, or that dual moved
onto the equalities of the decomposition's atoms, whichever certifies
more); LF's bracket is one point.  The value is the upper end in the
configured log units, the gap the bracket's width in those units, and the
status "exact" iff upper - lower < GAP_TOL, else "upper-estimate".  Only
the LP, sparse in Pauli coordinates, loads anything of scipy: HiGHS's
bindings, on its first solve, without scipy.optimize or scipy.sparse.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import dense, pauli, simplex, stabilizer
from .config import DEFAULT_CONFIG, RunConfig, check_dense, log_value

STATUS_EXACT = "exact"
STATUS_UPPER = "upper-estimate"
# a bracket narrower than GAP_TOL in its objective's units is exact, and
# Frank-Wolfe stops there or after MAX_ITER iterations
GAP_TOL = 1e-10
MAX_ITER = 10000


@dataclass(frozen=True)
class MeasureValue:
    value: float
    status: str
    gap: float


def _bracket(lower: float, upper: float, report: Callable[[float], float]) -> MeasureValue:
    """The measure of a certified bracket [lower, upper] on a solver's
    objective, with report mapping the objective to reported units."""
    value = report(upper)
    return MeasureValue(value=value,
                        status=STATUS_EXACT if upper - lower < GAP_TOL else STATUS_UPPER,
                        gap=max(value - report(lower), 0.0))


@dataclass
class StabilizerDictionary:
    n: int
    q: int
    matrix: np.ndarray   # d x K, read-only: column k is the dictionary vector phi_k
    labels: np.ndarray   # K x d: the flat label (_pauli_transform) of each element of phi_k's group
    phases: np.ndarray   # K x d: its phase c, the element being omega_{2q}^c Z^a X^b

    @property
    def vectors(self) -> np.ndarray:
        """The K x d view of matrix whose rows are the dictionary vectors."""
        return self.matrix.T

    @cached_property
    def pauli_lp(self) -> Tuple[simplex.Csc, np.ndarray, np.ndarray, np.ndarray]:
        """(H, rot, re, im) of lr_lp's equalities: a row is Re (labels re: P = P^dag,
        or the lesser of P, P^dag) or Im (labels im) of rot = omega_{2q}^{-a.b}
        times a Pauli transform; phi_k phi_k^dag's, H's column k, is omega_{2q}^c
        at the labels of its group's elements: their Re rows, then their Im
        rows, each ascending with the sorted labels, exact zeros dropped."""
        q, n = self.q, self.n
        grid = np.indices([q] * (2 * n)).reshape(2 * n, -1)
        flat, adjoint = np.arange(q ** (2 * n)), q ** np.arange(2 * n - 1, -1, -1) @ (-grid % q)
        re, im = np.flatnonzero(flat <= adjoint), np.flatnonzero(flat < adjoint)
        ab = np.sum(grid[:n] * grid[n:], axis=0)
        order = np.argsort(self.labels, axis=1)
        labels = np.take_along_axis(self.labels, order, axis=1)
        e = (np.take_along_axis(self.phases, order, axis=1) - ab[labels]) % (2 * q)
        # round off the ulp by which exp misses the zeros of cos and sin
        z = np.exp(1j * np.pi * e / q).round(15)
        row = np.full((2, len(flat)), -1, dtype=np.int32)   # a label's Re and Im rows, or -1
        row[0, re], row[1, im] = np.arange(len(re)), len(re) + np.arange(len(im))
        rows = np.concatenate(row[:, labels], axis=1)
        values = np.concatenate([z.real, z.imag], axis=1)
        kept = (rows >= 0) & (values != 0)
        start = np.append(0, np.cumsum(np.count_nonzero(kept, axis=1))).astype(np.int32)
        H = simplex.Csc((len(flat), len(labels)), start, rows[kept], values[kept])
        return H, np.exp(-1j * np.pi * ab / q), re, im

    @cached_property
    def split_lp(self) -> simplex.Csc:
        """[H, -H], lr_lp's equalities on the split c = u - w, by columns:
        pauli_lp's H, its arrays concatenated with their negation."""
        H = self.pauli_lp[0]
        m, K = H.shape
        return simplex.Csc((m, 2 * K), np.concatenate([H.start, H.start[1:] + H.start[-1]]),
                           np.concatenate([H.index, H.index]), np.concatenate([H.value, -H.value]))


def build_dictionary(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> StabilizerDictionary:
    """Dense vectors of every pure stabilizer state on (n, q), and their groups' elements."""
    check_dense(q ** n, config)
    vectors, elements = [], []
    for sps in stabilizer.enumerate_pure_stabilizer_states(n, q, config):
        vectors.append(stabilizer.sps_vector(sps, config))
        elements.append(stabilizer._element_arrays(sps.group)[:3])
    A, B, phases = map(np.array, zip(*elements))
    labels = np.concatenate([A, B], axis=2) @ q ** np.arange(2 * n - 1, -1, -1)
    matrix = np.column_stack(vectors)
    matrix.flags.writeable = False
    return StabilizerDictionary(n=n, q=q, matrix=matrix, labels=labels, phases=phases)


# ---------------------------------------------------------------------------
# Stabilizer fidelity (pure inputs)
# ---------------------------------------------------------------------------

def lf_pure(psi: np.ndarray, dic: StabilizerDictionary,
            config: RunConfig = DEFAULT_CONFIG) -> Tuple[float, np.ndarray]:
    """LF = -log max_phi |<phi|psi>|^2, exact; the maximum over the convex
    hull of pure stabilizer states is attained at a vertex."""
    fids = np.abs(psi.conj() @ dic.matrix) ** 2
    k = int(np.argmax(fids))
    return -log_value(float(fids[k]), config), dic.matrix[:, k].copy()


# ---------------------------------------------------------------------------
# Robustness LP
# ---------------------------------------------------------------------------

@dataclass
class LrResult:
    lr: MeasureValue      # LR = log(1 + 2R)
    optimum: float        # 1 + 2R, the primal cost
    coeffs: np.ndarray    # signed decomposition weights per dictionary state
    dual: np.ndarray      # y in lr_lp's rows behind the bracket's lower end


def lr_lp(rho: np.ndarray, dic: StabilizerDictionary,
          config: RunConfig = DEFAULT_CONFIG) -> LrResult:
    """min sum |c_k| s.t. sum c_k phi_k phi_k^dag = rho, by the split c = u - w,
    in Pauli coordinates (Howard & Campbell, PRL 118, 090501 (2017)): a row
    is Re or Im of omega_{2q}^{-a.b} Tr(P^dag X) for a label P = Z^a X^b, P
    and P^dag counted once, so column k has a nonzero per element at most.
    HiGHS's dual simplex (simplex.solve_lp) solves it on the dictionary's
    [H, -H] by columns (dic.split_lp, built once per dictionary), and the
    certificate reads H by columns, expanding only the atoms (c_k != 0).

    The bracket on 1 + 2R runs from Tr(A rho) / max(1, max_k |Tr(A phi_k)|),
    a dual witness A scaled to feasibility (weak duality), to the primal
    cost sum |c_k|; a dual y in the LP's rows is the Hermitian part A of
    sum_P omega_{2q}^{a.b} (y_re + i y_im)_P P, Tr(A rho) = y.b and
    Tr(A phi_k) = (y.H)_k.  HiGHS's dual may overshoot feasibility by ~1e-9,
    which the scaling turns into a bracket wider than GAP_TOL, so the dual
    is also moved by the least-norm change that makes Tr(A phi_k) =
    sign(c_k) on the atoms, complementary slackness at the primal optimum;
    of the two duals, the one with the higher lower end is kept.  Both are
    certified, and a raw dual that overshoots by more than 1e-8 is an
    error.  The primal residual E = sum c_k phi_k - rho (max-norm 1e-13 at
    most, measured on 18 random states at (2,3), (3,2) and (2,4)) is
    outside the bracket: the lower end is computed on rho itself, while
    the upper end, the cost of decomposing rho + E, is off by Tr(A E).
    """
    H, rot, re, im = dic.pauli_lp
    q, n, K = dic.q, dic.n, H.shape[1]
    t = rot * _pauli_transform(rho, q, n).ravel()
    b = np.concatenate([t[re].real, t[im].imag])
    sol = simplex.solve_lp(dic.split_lp, b, np.ones(2 * K))
    coeffs = sol.x[:K] - sol.x[K:]
    active = np.flatnonzero(coeffs)
    H_A = np.zeros((H.shape[0], len(active)))
    for j, (first, end) in enumerate(zip(H.start[active], H.start[active + 1])):
        H_A[H.index[first:end], j] = H.value[first:end]
    slack = coeffs[active] / np.abs(coeffs[active]) - sol.dual @ H_A
    duals = np.stack([sol.dual, sol.dual + H_A @ _least_squares_symmetric(H_A.T @ H_A, slack)])
    # y.H by columns; reduceat would misread an empty column, but every
    # group holds the identity, so every column has a 1 in row 0
    peaks = np.abs(np.add.reduceat(duals[:, H.index] * H.value, H.start[:-1], axis=1)).max(axis=1)
    if peaks[0] > 1.0 + 1e-8:
        raise ArithmeticError("dual witness violates |Tr(A sigma)| <= 1")
    lowers = [float(y @ b) / max(float(peak), 1.0) for y, peak in zip(duals, peaks)]
    best = int(np.argmax(lowers))   # the raw dual on a tie
    opt = max(sol.value, 1.0)
    return LrResult(
        lr=_bracket(max(lowers[best], 1.0), opt, lambda x: log_value(x, config)),
        optimum=opt,
        coeffs=coeffs,
        dual=duals[best],
    )


# ---------------------------------------------------------------------------
# Pairwise Frank-Wolfe with active-set Newton steps over the hull
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps
EIG_FLOOR = 1e-12
# the line search gains digits superlinearly: once a step moves t by less
# than this fraction, t is settled far below it
LINE_SEARCH_RTOL = 1e-9
LINE_SEARCH_PROBES = 200
# _frank_wolfe reseeds its weights when STALL_ITER iterations lowered the
# objective by less than STALL_GAIN times the gap, while the gap is still
# above STALL_GAP times its tolerance; the seed gets RESEED_MIX of the weight
STALL_ITER = 10
STALL_GAIN = 1e-3
STALL_GAP = 1e3
RESEED_MIX = 0.1


def _floored_eigh(sigma: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sigma's eigenvalues, floored at EIG_FLOOR, and its eigenvectors."""
    ws, vs = np.linalg.eigh(sigma)
    return np.clip(ws, EIG_FLOOR, None), vs


def _mixture(Phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k phi_k phi_k^dag over Phi's columns."""
    return (Phi * weights) @ Phi.conj().T


Probe = Callable[[float], Tuple[float, float, float]]


def _line_search(probe: Probe, t_max: float, slope0: float) -> Optional[float]:
    """Minimizer over [0, t_max] of a convex function f of t, given probe(t) =
    (f'(t), f''(t), the rounding of f'(t)) and the slope at 0 from the
    caller's scores, which stay accurate where a probe's rounding grows with
    sigma's condition; the slope stays resolvable long after value
    differences drown in rounding.

    The first trial point is Newton's step on the slope from 0.  Later ones
    are secant steps on h = f' / sqrt(f'') through the last two probes: h is
    linear in t for a quadratic and for a log barrier (-a log|t - t0| plus a
    linear term), where Newton on the slope only doubles its distance to the
    barrier per step.  A point outside the bracket of the root is replaced
    by t_max, if not yet probed, or by bisection.  A probe at a singular
    point reports an infinite slope.  A slope within its rounding ends the
    search with one Newton step on it, kept in the bracket: that step's
    error is the slope's actual rounding over f'', where the point itself
    may be off by the bound on it.  None when slope0 is not negative.
    """
    if not slope0 < 0.0:
        return None
    s, c = slope0, probe(0.0)[1]
    lo, hi, hi_probed = 0.0, t_max, False
    t, h = 0.0, s / math.sqrt(c) if 0.0 < c < math.inf else math.nan
    new = t - s / c if 0.0 < c < math.inf else math.inf
    for _ in range(LINE_SEARCH_PROBES):
        if not lo < new < hi:
            if new >= hi and not hi_probed:
                new = hi
            else:
                new = 0.5 * (lo + hi)
                if not lo < new < hi:   # the bracket is one ulp wide
                    return lo
        elif abs(new - t) <= LINE_SEARCH_RTOL * new:
            return new
        s, c, rounding = probe(new)
        if abs(s) <= rounding:
            return min(max(new - s / c, lo), hi) if 0.0 < c < math.inf else new
        if s < 0.0 and new == t_max:
            return new
        if s < 0.0:
            lo = new
        else:
            hi, hi_probed = new, True
        h_new = s / math.sqrt(c) if math.isfinite(s) and 0.0 < c < math.inf else math.nan
        if h_new != h and math.isfinite(h_new - h):
            t, new = new, new - h_new * (new - t) / (h_new - h)
        else:
            t, new = new, math.inf
        h = h_new
    return lo


def _least_squares_symmetric(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution of least norm of A x = b for a real
    symmetric A, from its eigendecomposition: what lstsq computes from the
    SVD, with the same cutoff.  The complex eigh is the LAPACK driver that
    sigma's decompositions already run; lstsq's, or the real eigh's, would
    add 0.3-0.4 MB of resident code on first use."""
    w, V = np.linalg.eigh(A.astype(complex))
    keep = np.abs(w) > EPS * len(w) * np.abs(w).max()
    return (V[:, keep] @ ((V[:, keep].conj().T @ b) / w[keep])).real


_Objective = Union["_Smax", "_RelEntropy"]


def _frank_wolfe(Phi: np.ndarray, model: Callable[[np.ndarray], _Objective],
                 start: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, _Objective, float, int]:
    """Minimize a convex function of sigma over mixtures of the projectors
    onto Phi's columns (the atoms).

    model(sigma) evaluates the objective at sigma (_Smax, _RelEntropy): its
    value, scores(Phi) (the derivatives along the weights of Phi's columns),
    hessian(Phi) (the second derivatives in those weights), and along(D), a
    probe of slope, curvature and the slope's rounding along sigma + tD that
    _line_search turns into an exact line search.

    The run starts at the hull weights start (nonnegative, normalized here,
    and at which the objective must be finite), or without them on the
    atoms that carry the computational basis states, which for a stabilizer
    dictionary is the maximally mixed state.  The start only moves where
    the run begins: the steps, the reseed and the certificate are the same
    from any start.  Each iteration prices all atoms, takes a pairwise step
    that moves weight from the away atom (the worst active one) to the
    Frank-Wolfe atom (the best one) (Lacoste-Julien & Jaggi 2015), then one
    Newton step on the active-set weights: the least-squares solution of
    [H 1; 1^T 0][delta; mu] = [-g; 0], cut off where a weight reaches 0 and
    searched exactly like the pairwise step.

    Exact drops can leave sigma singular on a direction that the optimum
    needs.  There single atoms no longer help (the first bit of weight of an
    atom that reaches into the null space fills it and changes nothing
    else), so the objective stops falling although the gap stays large.
    When STALL_ITER iterations lowered it by less than STALL_GAIN times the
    gap, RESEED_MIX of the weight is spread uniformly over the basis states,
    the active atoms and the d best-scoring atoms, from where the Newton
    step moves those atoms together.

    Returns (weights, model at them, gap, iterations), where gap is the
    Frank-Wolfe linearization gap at the returned weights, a certified bound
    on the distance of their objective value to the minimum: the only
    certificate.  The run stops once the gap is below GAP_TOL or after
    MAX_ITER iterations.
    """
    d, K = Phi.shape
    basis = np.argmax(np.abs(Phi), axis=1)   # the computational basis states
    if start is None:
        weights = np.zeros(K)
        weights[basis] = 1.0
    else:
        weights = np.array(start, dtype=float)
    weights /= weights.sum()
    it = 0
    mark = math.inf
    while True:
        active = np.flatnonzero(weights)
        at = model(_mixture(Phi[:, active], weights[active]))
        s = at.scores(Phi)
        fw = int(np.argmin(s))
        away = int(active[np.argmax(s[active])])
        gap = float(weights @ s) - s[fw]
        if gap < GAP_TOL or it == MAX_ITER:
            break
        if it % STALL_ITER == 0:
            if mark - at.value < STALL_GAIN * gap and gap > STALL_GAP * GAP_TOL:
                seed = np.zeros(K)   # the reseed described above
                seed[np.concatenate([basis, active, np.argsort(s)[:d]])] = 1.0
                weights = (1.0 - RESEED_MIX) * weights + RESEED_MIX * seed / seed.sum()
                mark = math.inf
                it += 1
                continue
            mark = at.value
        it += 1
        phi, chi = Phi[:, fw], Phi[:, away]
        t = _line_search(at.along(np.outer(phi, phi.conj()) - np.outer(chi, chi.conj())),
                         weights[away], s[fw] - s[away])
        if t is None:
            break
        weights[fw] += t
        weights[away] = 0.0 if t == weights[away] else weights[away] - t
        active = np.flatnonzero(weights)
        PA = Phi[:, active]
        at = model(_mixture(PA, weights[active]))
        n = len(active)
        kkt = np.ones((n + 1, n + 1))
        kkt[:n, :n] = at.hessian(PA)
        kkt[n, n] = 0.0
        g = at.scores(PA)
        delta = _least_squares_symmetric(kkt, np.append(-g, 0.0))[:n]
        delta -= delta.mean()   # the solve meets sum = 0 only to the scale of mu
        shrink = delta < 0.0
        ratios = np.where(shrink, weights[active] / np.where(shrink, -delta, 1.0), np.inf)
        block = int(np.argmin(ratios))
        if not math.isfinite(ratios[block]):
            continue
        t = _line_search(at.along((PA * delta) @ PA.conj().T), ratios[block], float(g @ delta))
        if t is None:
            continue
        weights[active] = np.clip(weights[active] + t * delta, 0.0, None)
        if t == ratios[block]:
            weights[active[block]] = 0.0
        weights /= weights.sum()
    return weights, at, max(gap, 0.0), it


# ---------------------------------------------------------------------------
# S_max-to-set and LGR of pure states
# ---------------------------------------------------------------------------

@dataclass
class SmaxResult:
    s_max_set: MeasureValue   # log lam
    lgr: MeasureValue         # log(2 lam - 1), from the same bracket on lam
    lam: float                # psi^dag sigma^-1 psi, feasible: lam sigma >= rho
    weights: np.ndarray       # hull weights of sigma per dictionary state
    iterations: int


class _Smax:
    """f(sigma) = psi^dag sigma^-1 psi at one sigma (its value), from the
    floored eigendecomposition sigma = L L^dag, L = V diag(sqrt(w))."""

    def __init__(self, psi: np.ndarray, sigma: np.ndarray):
        ws, vs = _floored_eigh(sigma)
        self.psi = psi
        self.sigma = sigma
        self.inv_l = vs.conj().T / np.sqrt(ws)[:, None]     # L^-1
        y = self.inv_l @ psi
        self.x = self.inv_l.conj().T @ y                    # sigma^-1 psi
        self.value = float(np.real(np.vdot(y, y)))

    def scores(self, Phi: np.ndarray) -> np.ndarray:
        """df/dw_k = -|phi_k^dag sigma^-1 psi|^2."""
        return -np.abs(Phi.conj().T @ self.x) ** 2

    def hessian(self, Phi: np.ndarray) -> np.ndarray:
        """H_kl = 2 Re(conj(a_k) C_kl a_l), a = Phi^dag sigma^-1 psi and
        C = Phi^dag sigma^-1 Phi."""
        a = Phi.conj().T @ self.x
        Y = self.inv_l @ Phi
        return 2.0 * np.real(a.conj()[:, None] * (Y.conj().T @ Y) * a[None, :])

    def along(self, D: np.ndarray) -> Probe:
        """With L^-1 D L^-dag = U diag(mu) U^dag and b = U^dag L^-1 psi,
        f(sigma + tD) = sum_i |b_i|^2 / (1 + t mu_i) and (sigma + tD)^-1 psi
        = L^-dag U (b / (1 + t mu)), so each probe is O(d^2).  The slope is
        taken as -x^dag D x from that x: a sum over mu cancels to an error of
        EPS max|mu|, which is large where sigma is nearly singular."""
        mu, U = np.linalg.eigh(self.inv_l @ D @ self.inv_l.conj().T)
        b = U.conj().T @ (self.inv_l @ self.psi)
        p = np.abs(b) ** 2
        back = self.inv_l.conj().T @ U
        abs_d = np.abs(D)

        def probe(t: float) -> Tuple[float, float, float]:
            r = 1.0 + t * mu
            gone = r <= EIG_FLOOR   # directions in which sigma + tD is singular
            if gone.any():
                # a barrier, unless psi's weight there is only rounding: then
                # the floored sigma^-1 would not move f in its last digit
                if np.sum(p[gone]) > EIG_FLOOR * EPS * np.sum(p):
                    return math.inf, math.inf, 0.0
                r = np.where(gone, 1.0, r)
            x = back @ np.where(gone, 0.0, b / r)
            slope = -float(np.vdot(x, D @ x).real)
            ax = np.abs(x)
            return (slope, 2.0 * float(np.where(gone, 0.0, p) @ (mu * mu / (r * r * r))),
                    EPS * float(ax @ abs_d @ ax))

        return probe


def smax_lgr_pure(psi: np.ndarray, dic: StabilizerDictionary,
                  config: RunConfig = DEFAULT_CONFIG,
                  start: Optional[np.ndarray] = None) -> SmaxResult:
    """S_max-to-set = log min_sigma psi^dag sigma^-1 psi over the hull (the
    least lam with |psi><psi| <= lam sigma) and LGR = log(2 lam - 1).

    f(w) = psi^dag sigma(w)^-1 psi is convex in the hull weights w, so
    Frank-Wolfe certifies the bracket [max(f - gap, 1), f] on lam.  start
    is the engine's start (_frank_wolfe): hull weights whose sigma has psi
    in its range, or None for the computational basis.
    """
    weights, at, gap, it = _frank_wolfe(dic.matrix, lambda sigma: _Smax(psi, sigma), start)
    lam = max(at.value, 1.0)
    low = max(lam - gap, 1.0)
    return SmaxResult(
        s_max_set=_bracket(low, lam, lambda x: log_value(x, config)),
        lgr=_bracket(low, lam, lambda x: log_value(2.0 * x - 1.0, config)),
        lam=lam,
        weights=weights,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# Relative entropy of magic
# ---------------------------------------------------------------------------

@dataclass
class FwResult:
    s_rel: MeasureValue
    iterations: int
    sigma: np.ndarray


def _log_differences(ws: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Divided differences of log at the eigenvalues ws: (L1, R, D2).

    L1[i, j] = [w_i, w_j] log = (log w_i - log w_j) / (w_i - w_j).  Where
    x = (w_i - w_j) / (w_i + w_j) is below 1e-2 it comes from the series
    log(w_i / w_j) = 2 atanh(x) = 2 (x + x^3/3 + x^5/5 + x^7/7 + ...), which
    keeps the digits a difference of logs loses and gives 1/w_i at x = 0.
    The second ones are [w_i, w_m, w_j] log = R_ij (L1_im - L1_jm), with
    R_ij = 1 / (w_i - w_j), or D2_im = [w_i, w_i, w_m] log where w_i and w_j
    agree to 1e-8 and R_ij is 0: second differences only shape Newton steps,
    so they need not resolve nearer nodes.
    """
    a, b = ws[:, None], ws[None, :]
    delta = a - b
    safe = np.where(delta == 0.0, 1.0, delta)
    x2 = (delta / (a + b)) ** 2
    series = 2.0 / (a + b) * (1.0 + x2 * (1.0 / 3.0 + x2 * (0.2 + x2 / 7.0)))
    lw = np.log(ws)
    L1 = np.where(x2 < 1e-4, series, (lw[:, None] - lw) / safe)
    R = np.where(x2 > 1e-16, 1.0 / safe, 0.0)
    D2 = np.where(R != 0.0, (1.0 / a - L1) * R, -0.5 / (a * a))
    return L1, R, D2


class _RelEntropy:
    """f(sigma) = -Tr(rho log sigma), the sigma-dependent part of S(rho||sigma),
    at one sigma.

    In sigma's eigenbasis (Daleckii-Krein), with L1 and F the first and
    second divided differences of log at sigma's floored eigenvalues, the
    derivative along D is -Re sum_ij conj(rho_ij) L1_ij D_ij and the second
    derivative -2 Re sum_imj rho_ji F_imj D_im D_mj.  F splits as in
    _log_differences, so along one D the sum over m is a matrix product, and
    the Hessian runs one m at a time: no d x d x d array is held.
    """

    def __init__(self, rho: np.ndarray, sigma: np.ndarray):
        self.rho = rho
        self.sigma = sigma
        self.ws, self.vs = _floored_eigh(sigma)
        self.rho_t = self.vs.conj().T @ rho @ self.vs
        self.diffs = _log_differences(self.ws)
        self.grad = self.vs @ (-self.diffs[0] * self.rho_t) @ self.vs.conj().T

    @property
    def value(self) -> float:
        return -float(np.real(np.diagonal(self.rho_t)) @ np.log(self.ws))

    def scores(self, Phi: np.ndarray) -> np.ndarray:
        """df/dw_k = Tr(G phi_k phi_k^dag)."""
        return np.real(np.einsum("ik,ik->k", Phi.conj(), self.grad @ Phi))

    def hessian(self, Phi: np.ndarray) -> np.ndarray:
        """H_kl = -2 Re sum_m conj(x_km) x_lm (X B_m X^dag)_kl, with x_k = phi_k
        in sigma's eigenbasis and B_m[i, j] = rho_ji F_imj."""
        L1, R, D2 = self.diffs
        X = (self.vs.conj().T @ Phi).T   # row k: phi_k in sigma's eigenbasis
        XH = X.conj().T
        H = np.zeros((X.shape[0], X.shape[0]))
        for m in range(len(self.ws)):
            F = R * (L1[:, m, None] - L1[None, :, m]) + (R == 0.0) * D2[:, m, None]
            H += np.real(np.outer(XH[m], X[:, m]) * (X @ (self.rho_t.T * F) @ XH))
        return -2.0 * H

    def along(self, D: np.ndarray) -> Probe:
        def probe(t: float) -> Tuple[float, float, float]:
            if t == 0.0:
                vs, rho_t, (L1, R, D2) = self.vs, self.rho_t, self.diffs
            else:
                ws, vs = _floored_eigh(self.sigma + t * D)
                rho_t = vs.conj().T @ self.rho @ vs
                L1, R, D2 = _log_differences(ws)
            Dt = vs.conj().T @ D @ vs
            LD = L1 * Dt
            T = R * (LD @ Dt - Dt @ LD) + (R == 0.0) * ((D2 * Dt) @ Dt)
            # rho_t is Hermitian, so sum_ij rho_ji T_ij = vdot(rho_t, T)
            slope = -np.vdot(rho_t, LD).real
            # Dt carries an error of about EPS max|Dt| in every entry
            return (slope, -2.0 * np.vdot(rho_t, T).real,
                    EPS * np.abs(Dt).max() * np.sum(np.abs(rho_t) * L1))

        return probe


def rel_entropy_magic(rho: np.ndarray, dic: StabilizerDictionary,
                      config: RunConfig = DEFAULT_CONFIG,
                      start: Optional[np.ndarray] = None) -> FwResult:
    """Frank-Wolfe minimization of S(rho || sigma) over the hull: the
    bracket [f - gap, f] in nats, f = S(rho || sigma) at the returned sigma.
    start is the engine's start (_frank_wolfe): hull weights whose sigma
    holds rho's support in its range, or None for the computational basis.
    """
    _, at, gap, it = _frank_wolfe(dic.matrix, lambda sigma: _RelEntropy(rho, sigma), start)
    ln_b = math.log(config.base_value())
    upper = at.value - ln_b * dense.vn_entropy(rho, config)
    return FwResult(
        s_rel=_bracket(upper - gap, upper, lambda x: x / ln_b),
        iterations=it,
        sigma=at.sigma,
    )


# ---------------------------------------------------------------------------
# Distances to the stabilizer sets
# ---------------------------------------------------------------------------

def distance_to_sps(rho: np.ndarray, n: int, q: int,
                    config: RunConfig = DEFAULT_CONFIG
                    ) -> Tuple[float, stabilizer.StabilizerProjectionState]:
    """Exact min over every stabilizer projection state (all subgroups, all
    phases) of the full 1-norm distance."""
    best = None
    witness = None
    for sps in stabilizer.enumerate_sps(n, q, config):
        dist = dense.trace_distance(rho, stabilizer.sps_dense(sps, config))
        if best is None or dist < best:
            best = dist
            witness = sps
    return best, witness


# ---------------------------------------------------------------------------
# Stabilizer-measurement distinguishability
# ---------------------------------------------------------------------------

def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=16)
def _site_axes(q: int, n: int) -> Tuple[Tuple[int, ...], Tuple[np.ndarray, ...]]:
    """(perm, index): M.reshape([q] * 2n).transpose(perm) puts site i of M's
    row and column on axes i and n + i, where X[index][k, b] = X[k, k - b]."""
    sites = tuple(range(n - 1, -1, -1))  # the row-major reshape puts site 0 last
    grid = np.indices([q] * (2 * n))
    k, b = grid[:n], grid[n:]
    index = tuple(k) + tuple((k - b) % q)
    return sites + tuple(n + s for s in sites), tuple(map(_read_only, index))


@lru_cache(maxsize=16)
def _character_table(q: int) -> np.ndarray:
    """F[a, k] = omega^{-a k}."""
    return _read_only(np.exp(-2j * np.pi * (np.outer(np.arange(q), np.arange(q)) % q) / q))


def _characters(X: np.ndarray, q: int, n: int) -> np.ndarray:
    """sum_k omega^{-a.k} X[k, ...] over the first n axes, a q x q product per site."""
    F = _character_table(q)
    for i in range(n):
        X = np.moveaxis(np.tensordot(F, X, axes=(1, i)), 0, i)
    return X


def _pauli_transform(M: np.ndarray, q: int, n: int) -> np.ndarray:
    """T[a, b] = Tr((Z^a X^b)^dag M) = sum_k omega^{-a.k} M[k, k - b] for
    every label, on axes (a_0..a_{n-1}, b_0..b_{n-1}) so that T.flat runs in
    itertools.product(range(q), repeat=2n) order, the flat label order."""
    perm, index = _site_axes(q, n)
    return _characters(M.reshape([q] * (2 * n)).transpose(perm)[index], q, n)


def sm_distinguishing_pauli(rho: np.ndarray, sigma: np.ndarray, q: int, n: int,
                            config: RunConfig = DEFAULT_CONFIG
                            ) -> Tuple[pauli.PauliLabel, float]:
    """The Pauli P maximizing |Tr(P^dag (rho-sigma))| and the 1-norm distance
    of the outcome distributions of its spectral measurement; always at least
    ||rho - sigma||_1 / q^n.  rho and sigma are Hermitian q^n x q^n matrices.
    P is the first label, in itertools.product order, within 1e-12 of the
    largest |Tr|."""
    dim = q ** n
    check_dense(dim, config)
    if rho.shape != (dim, dim) or sigma.shape != (dim, dim):
        raise ValueError("rho and sigma must be %d x %d matrices" % (dim, dim))
    T = _pauli_transform(rho - sigma, q, n)
    mag = np.abs(T)
    ab = [int(x) for x in np.unravel_index(np.argmax(mag >= mag.max() - 1e-12), T.shape)]
    best = pauli.label(q, n, ab[:n], ab[n:], 0)
    order = pauli.order(best)
    # Tr(P^m (rho - sigma)) = omega_{2q}^{c_m} conj(T[m a, m b]), c_m the phase of P^m
    traces = np.array([np.exp(1j * np.pi * pauli.power(best, m).c / q)
                       * np.conj(T[tuple(m * x % q for x in ab)]) for m in range(order)])
    # P^order = omega_{2q}^e I, so P has the eigenvalues
    # lam_k = omega_{2q}^{(e + 2qk) / order}, with projectors sum_m lam_k^{-m} P^m / order
    e = pauli.power(best, order).c
    lam = np.exp(1j * np.pi * (e + 2 * q * np.arange(order)) / (q * order))
    outcomes = np.real(lam[:, None] ** -np.arange(order) @ traces) / order
    return best, float(np.sum(np.abs(outcomes)))


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MagicReport:
    lf: Optional[MeasureValue]
    s_rel: Optional[MeasureValue]
    s_max_set: Optional[MeasureValue]
    lgr: Optional[MeasureValue]
    lr: Optional[MeasureValue]
    log_base: object


ALL_MEASURES = ("lf", "srel", "smax", "lgr", "lr")


def magic_report(rho: np.ndarray, dic: StabilizerDictionary,
                 measures: Sequence[str] = ALL_MEASURES,
                 config: RunConfig = DEFAULT_CONFIG) -> MagicReport:
    """Run the requested solvers on a density matrix.

    LF, S_max-to-set and LGR are only computed for (numerically) pure
    inputs and are None otherwise; the mixed-state versions are deliberately
    not solved here, witness's patch certificates cover those uses.

    The solvers run in the order LF, LR, S_max/LGR, S_rel, and each
    Frank-Wolfe run starts at the last hull point the report reached, or on
    the computational basis when there is none.  Both starts keep the
    objective finite:
    - S_max/LGR start at LR's positive part sigma_+, the normalized
      clip(coeffs, 0).  The decomposition rho = (1 + R) sigma_+ - R sigma_-
      gives rho <= (1 + R) sigma_+, so psi lies in sigma_+'s range and the
      starting lam is at most 1 + R.
    - S_rel starts at S_max's optimum sigma*, or at sigma_+ when S_max did
      not run.  psi^dag sigma*^-1 psi = lam is finite, so psi lies in
      sigma*'s range; rho <= (1 + R) sigma_+ holds for a mixed rho too.
      Either way rho's support lies in sigma's, and S(rho || sigma) is
      finite.
    The start moves neither a certificate nor a stopping rule: every value
    is the same optimum within its gap.
    """
    lf = s_rel = s_max_set = lgr = lr = None
    start = None   # the last hull weights the report reached
    w, v = np.linalg.eigh(rho)
    psi = v[:, -1] if w[-1] > 1.0 - 1e-10 else None
    if "lf" in measures and psi is not None:
        val, _ = lf_pure(psi, dic, config)
        lf = _bracket(val, val, float)   # the scan attains the maximum
    if "lr" in measures:
        res = lr_lp(rho, dic, config)
        lr = res.lr
        start = np.clip(res.coeffs, 0.0, None)
    if ("smax" in measures or "lgr" in measures) and psi is not None:
        res = smax_lgr_pure(psi, dic, config, start)
        s_max_set = res.s_max_set if "smax" in measures else None
        lgr = res.lgr if "lgr" in measures else None
        start = res.weights
    if "srel" in measures:
        s_rel = rel_entropy_magic(rho, dic, config, start).s_rel
    return MagicReport(lf=lf, s_rel=s_rel, s_max_set=s_max_set, lgr=lgr, lr=lr,
                      log_base=config.log_base)
