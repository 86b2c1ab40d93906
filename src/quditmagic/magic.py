"""Magic monotones relative to the pure-stabilizer polytope.

Five measures are exposed, forming the chain

    LF <= S_rel <= S_max-to-set <= LGR <= LR

(estimate directions permitting): stabilizer fidelity (pure states, exact
dictionary scan), relative entropy of magic, min log lambda with
rho <= lambda*sigma over the hull and the generalized robustness
log(2*lambda-1) at the same optimum (both for pure states), and the
robustness LP.  S_rel, S_max-to-set and LGR come from one away-step
Frank-Wolfe engine with a certified gap; each objective supplies its own
exact line search (a closed form for S_max, a root of the d x d directional
derivative for S_rel).  Every reported value is feasible;
its status is "exact" or "upper-estimate" and its gap is the certified width
of the bracket [value - gap, value].  Also the patch-certificate machinery
turning trace-distance lower bounds on small patches into global
fidelity/entropy lower bounds.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import dense, pauli, simplex, stabilizer
from .config import DEFAULT_CONFIG, RunConfig, check_dense, log_value

STATUS_EXACT = "exact"
STATUS_UPPER = "upper-estimate"


@dataclass
class StabilizerDictionary:
    n: int
    q: int
    vectors: List[np.ndarray]

    @property
    def dim(self) -> int:
        return self.q ** self.n

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d x K matrix whose columns are the dictionary vectors."""
        return np.column_stack(self.vectors)

    @cached_property
    def adjoint(self) -> np.ndarray:
        """The K x d conjugate transpose of `matrix`: row k is phi_k^dag."""
        return self.matrix.conj().T


def build_dictionary(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> StabilizerDictionary:
    """Dense vectors of every pure stabilizer state on (n, q)."""
    check_dense(q ** n, config)
    vectors = [stabilizer.sps_vector(sps, config)
               for sps in stabilizer.enumerate_pure_stabilizer_states(n, q, config)]
    return StabilizerDictionary(n=n, q=q, vectors=vectors)


# ---------------------------------------------------------------------------
# Hermitian coordinates (orthonormal real basis, Tr(A B) = coords.coords)
# ---------------------------------------------------------------------------

def _herm_coords(M: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix, or of each in a stack: the diagonal,
    then sqrt(2) times (Re, Im) of the upper triangle, row by row."""
    iu = np.triu_indices(M.shape[-1], 1)
    upper = M[..., iu[0], iu[1]]
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(*upper.shape[:-1], -1)
    diag = np.diagonal(M, axis1=-2, axis2=-1).real
    return np.concatenate([diag, math.sqrt(2.0) * pairs], axis=-1)


def _herm_from_coords(v: np.ndarray, d: int) -> np.ndarray:
    iu = np.triu_indices(d, 1)
    M = np.diag(v[:d].astype(complex))
    M[iu] = (v[d::2] + 1j * v[d + 1::2]) / math.sqrt(2.0)
    M[iu[1], iu[0]] = M[iu].conj()
    return M


# ---------------------------------------------------------------------------
# Stabilizer fidelity (pure inputs)
# ---------------------------------------------------------------------------

def lf_pure(psi: np.ndarray, dic: StabilizerDictionary,
            config: RunConfig = DEFAULT_CONFIG) -> Tuple[float, np.ndarray]:
    """LF = -log max_phi |<phi|psi>|^2, exact; the maximum over the convex
    hull of pure stabilizer states is attained at a vertex."""
    fids = np.abs(dic.adjoint @ psi) ** 2
    k = int(np.argmax(fids))
    return -log_value(float(fids[k]), config), dic.vectors[k]


# ---------------------------------------------------------------------------
# Robustness LP
# ---------------------------------------------------------------------------

@dataclass
class LrResult:
    value: float          # LR = log(1 + 2R)
    optimum: float        # 1 + 2R
    coeffs: np.ndarray    # signed decomposition weights per dictionary state
    witness: np.ndarray   # dual Hermitian A with |Tr(A sigma)| <= 1
    gap: float


def lr_lp(rho: np.ndarray, dic: StabilizerDictionary,
          config: RunConfig = DEFAULT_CONFIG) -> LrResult:
    """min sum |c_k| s.t. sum c_k phi_k = rho, by the split c = u - w."""
    d = dic.dim
    K = len(dic.vectors)
    Phi = dic.matrix
    # column k: the coordinates of phi_k phi_k^dag
    H = _herm_coords(Phi.T[:, :, None] * dic.adjoint[:, None, :]).T
    A = np.hstack([H, -H])
    b = _herm_coords(rho)
    c = np.ones(2 * K)
    sol = simplex.solve_lp(A, b, c)
    coeffs = sol.x[:K] - sol.x[K:]
    witness = _herm_from_coords(sol.dual, d)
    feas = float(np.max(np.abs(_expectations(dic, witness))))
    if feas > 1.0 + 1e-8:
        raise ArithmeticError("dual witness violates |Tr(A sigma)| <= 1")
    dual_val = float(np.real(np.trace(witness @ rho)))
    opt = max(sol.value, 1.0)
    return LrResult(
        value=log_value(opt, config),
        optimum=opt,
        coeffs=coeffs,
        witness=witness,
        gap=abs(sol.value - dual_val),
    )


# ---------------------------------------------------------------------------
# Away-step Frank-Wolfe over the hull
# ---------------------------------------------------------------------------

def _expectations(dic: StabilizerDictionary, A: np.ndarray) -> np.ndarray:
    """Tr(A phi_k phi_k^dag) for every dictionary vector phi_k."""
    return np.real(np.einsum("ki,ik->k", dic.adjoint, A @ dic.matrix))


StepLength = Callable[[np.ndarray, np.ndarray, bool, float], Optional[float]]


def _frank_wolfe(Phi: np.ndarray, scores: Callable[[np.ndarray], np.ndarray],
                 step_length: StepLength, gap_tol: float, max_iter: int
                 ) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """Minimize a convex function of sigma over mixtures of the projectors
    onto Phi's columns, started at uniform weights (the maximally mixed state
    for a stabilizer dictionary, so the run does not depend on the frame).

    scores(sigma)[k] is the derivative of the objective along vertex k's
    weight.  Away steps (Lacoste-Julien & Jaggi 2015) are used alongside the
    plain vertex steps, which restores fast convergence when the optimum sits
    on a face.  Each objective supplies its exact line search:
    step_length(sigma, phi, toward, t_max) minimizes along
    sigma + t (phi phi^dag - sigma) (toward) or sigma + t (sigma - phi phi^dag)
    (away) over t in [0, t_max] from the root of the directional derivative,
    which stays resolvable long after value differences drown in rounding,
    and returns None when the step has no descent left.  Returns (weights,
    sigma, gap, iterations), where gap is the Frank-Wolfe linearization gap at
    the returned weights, a certified bound on the distance of their
    objective value to the minimum, and sigma is their mixture.
    """
    Phi_H = Phi.conj().T
    K = Phi.shape[1]
    weights = np.full(K, 1.0 / K)
    it = 0
    while True:
        sigma = (Phi * weights) @ Phi_H
        s = scores(sigma)
        fw = int(np.argmin(s))
        g = float(weights @ s)
        gap = g - s[fw]
        if gap < gap_tol or it == max_iter:
            break
        it += 1
        active = np.nonzero(weights > 0.0)[0]
        away = int(active[np.argmax(s[active])])
        toward = gap >= s[away] - g or weights[away] == 1.0
        if toward:
            step = -weights   # toward vertex fw
            step[fw] += 1.0
            t_max = 1.0
        else:
            step = weights.copy()   # away from vertex away, up to dropping it
            step[away] -= 1.0
            t_max = weights[away] / (1.0 - weights[away])
        t = step_length(sigma, Phi[:, fw if toward else away], toward, t_max)
        if t is None:   # the derivative is >= 0 at t = 0 within rounding
            break
        weights = np.clip(weights + t * step, 0.0, None)
        if t == t_max and step[away] < 0.0:
            weights[away] = 0.0
        weights /= weights.sum()
    return weights, sigma, max(gap, 0.0), it


# ---------------------------------------------------------------------------
# S_max-to-set and LGR of pure states
# ---------------------------------------------------------------------------

@dataclass
class SmaxResult:
    s_max_set: float      # log lam
    lgr: float            # log(2 lam - 1)
    lam: float            # psi^dag sigma^-1 psi, feasible: lam sigma >= rho
    weights: np.ndarray   # hull weights of sigma per dictionary state
    gap: float            # certified width of the S_max bracket
    lgr_gap: float        # the same bracket mapped through log(2 lam - 1)
    status: str
    iterations: int


EIG_FLOOR = 1e-12
SMAX_GAP_TOL = 1e-10
SMAX_MAX_ITER = 10000


def _floored_eigh(sigma: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """sigma's eigenvalues, floored at EIG_FLOOR, and its eigenvectors."""
    ws, vs = np.linalg.eigh(sigma)
    return np.clip(ws, EIG_FLOOR, None), vs


def _inverse_times(eig: Tuple[np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """sigma^-1 v from sigma's floored eigendecomposition."""
    ws, vs = eig
    return vs @ ((vs.conj().T @ v) / ws)


def _smax_step(eig: Tuple[np.ndarray, np.ndarray], psi: np.ndarray, phi: np.ndarray,
               toward: bool, t_max: float) -> Optional[float]:
    """Exact line search of f = psi^dag sigma^-1 psi along a Frank-Wolfe step
    toward or away from phi phi^dag, in closed form.

    On either step sigma(t) is a multiple of sigma + s phi phi^dag, with
    s = t/(1-t) toward and s = -t/(1+t) away, and Sherman-Morrison gives
    f(s) = (1+s)(a + e s)/(1 + c s), where a = psi^dag sigma^-1 psi,
    U = |phi^dag sigma^-1 psi|^2, c = phi^dag sigma^-1 phi and e = ac - U >= 0.
    df/ds has the sign of c e s^2 + 2 e s + (a - U), so the step ends at its
    root (U - a) / (e + sqrt(e^2 + c e (U - a))), or at t_max when the root
    lies at or beyond it or does not exist.  None when df/dt >= 0 at t = 0.
    """
    x = _inverse_times(eig, psi)
    a = float(np.real(np.vdot(psi, x)))
    c = float(np.real(np.vdot(phi, _inverse_times(eig, phi))))
    U = abs(complex(np.vdot(phi, x))) ** 2
    if (a - U if toward else U - a) >= 0.0:
        return None
    e = a * c - U
    if e <= 1e-12 * a * c:   # phi parallel to psi within rounding
        return t_max
    disc = e * e + c * e * (U - a)
    if disc < 0.0:   # an away step without a stationary point
        return t_max
    s = (U - a) / (e + math.sqrt(disc))
    if toward:
        t = s / (1.0 + s)
    elif s > -1.0:
        t = -s / (1.0 + s)
    else:
        return t_max
    return min(t, t_max)


def smax_lgr_pure(psi: np.ndarray, dic: StabilizerDictionary,
                  config: RunConfig = DEFAULT_CONFIG) -> SmaxResult:
    """S_max-to-set = log min_sigma psi^dag sigma^-1 psi over the hull (the
    least lam with |psi><psi| <= lam sigma) and LGR = log(2 lam - 1).

    f(w) = psi^dag sigma(w)^-1 psi is convex in the hull weights w with
    df/dw_k = -|phi_k^dag sigma^-1 psi|^2, so Frank-Wolfe certifies the
    bracket [max(f - gap, 1), f]; the values reported are the feasible upper
    ends, and both gaps are bracket widths in the configured log units.  The
    scores and the closed-form step share one eigendecomposition of sigma.
    """
    eig = None   # sigma's floored eigendecomposition at the current iterate

    def scores(sigma: np.ndarray) -> np.ndarray:
        nonlocal eig
        eig = _floored_eigh(sigma)
        return -np.abs(dic.adjoint @ _inverse_times(eig, psi)) ** 2

    weights, _, gap, it = _frank_wolfe(
        dic.matrix, scores,
        lambda sigma, phi, toward, t_max: _smax_step(eig, psi, phi, toward, t_max),
        SMAX_GAP_TOL, SMAX_MAX_ITER,
    )
    # the last scores call was at the returned weights
    lam = max(float(np.real(np.vdot(psi, _inverse_times(eig, psi)))), 1.0)
    low = max(lam - gap, 1.0)
    s_max = log_value(lam, config)
    lgr = log_value(2.0 * lam - 1.0, config)
    return SmaxResult(
        s_max_set=s_max,
        lgr=lgr,
        lam=lam,
        weights=weights,
        gap=s_max - log_value(low, config),
        lgr_gap=lgr - log_value(2.0 * low - 1.0, config),
        status=STATUS_EXACT if gap < SMAX_GAP_TOL else STATUS_UPPER,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# Relative entropy of magic
# ---------------------------------------------------------------------------

@dataclass
class FwResult:
    value: float
    gap: float
    status: str
    iterations: int
    sigma: np.ndarray


def _entropy_term_nat(rho: np.ndarray) -> float:
    wr = np.linalg.eigvalsh(rho)
    wr = wr[wr > 1e-14]
    return float(np.sum(wr * np.log(wr)))


def _cross_term_nat(rho: np.ndarray, sigma: np.ndarray) -> float:
    ws, vs = _floored_eigh(sigma)
    diag = np.real(np.einsum("ij,jk,ki->i", vs.conj().T, rho, vs))
    return -float(np.sum(diag * np.log(ws)))


def _gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """G with d/dt S(rho || sigma + tH) = Tr(G H): divided differences of log
    in sigma's eigenbasis."""
    ws, vs = _floored_eigh(sigma)
    rho_t = vs.conj().T @ rho @ vs
    lw = np.log(ws)
    denom = ws[:, None] - ws[None, :]
    num = lw[:, None] - lw[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = np.where(np.abs(denom) > 1e-14, num / denom, 1.0 / ws[:, None])
    G_t = -kmat * rho_t
    return vs @ G_t @ vs.conj().T


def _rel_entropy_step(rho: np.ndarray, sigma: np.ndarray, phi: np.ndarray,
                      toward: bool, t_max: float) -> Optional[float]:
    """Exact line search of S(rho || sigma + tD), D = phi phi^dag - sigma
    toward phi and sigma - phi phi^dag away: the root of its derivative
    Re Tr(G(sigma + tD) D), bracketed on [0, t_max]."""
    import scipy.optimize  # on first use, so only S_rel and the LP load it
    D = np.outer(phi, phi.conj()) - sigma
    if not toward:
        D = -D

    @lru_cache(maxsize=None)  # brentq re-evaluates slope(t_max)
    def slope(t: float) -> float:
        return float(np.vdot(D, _gradient(rho, sigma + t * D)).real)

    if slope(t_max) <= 0.0:
        return t_max
    try:
        return scipy.optimize.brentq(slope, 0.0, t_max, xtol=1e-15, rtol=1e-15)
    except ValueError:  # slope(0) >= 0 within rounding: no descent left
        return None


def rel_entropy_magic(rho: np.ndarray, dic: StabilizerDictionary,
                      config: RunConfig = DEFAULT_CONFIG,
                      max_iter: int = 10000,
                      gap_tol: float = 1e-6) -> FwResult:
    """Frank-Wolfe minimization of S(rho || sigma) over the hull; returns a
    feasible (upper-estimate) value and the certified duality gap.

    gap_tol is in nats, while the returned gap is in the configured log units
    (a gap of gap_tol nats reads gap_tol / ln 2 bits).
    """
    _, sigma, gap, it = _frank_wolfe(
        dic.matrix, lambda sigma: _expectations(dic, _gradient(rho, sigma)),
        lambda sigma, phi, toward, t_max: _rel_entropy_step(rho, sigma, phi, toward, t_max),
        gap_tol, max_iter,
    )
    ln_b = math.log(config.base_value())
    return FwResult(
        value=(_entropy_term_nat(rho) + _cross_term_nat(rho, sigma)) / ln_b,
        gap=gap / ln_b,
        status=STATUS_UPPER,
        iterations=it,
        sigma=sigma,
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


def distance_to_hull_lower(rho: np.ndarray, dic: StabilizerDictionary,
                           iterations: int = 200) -> Tuple[float, np.ndarray]:
    """Certified lower bound on min_{sigma in hull} ||rho - sigma||_1.

    Subgradient ascent on W -> Tr(W rho) - max_phi Tr(W phi) over the
    operator-norm ball ||W||_inf <= 1; any iterate's objective is a valid
    bound, the best one is returned with its witness."""
    Phi = dic.matrix

    def objective(W: np.ndarray) -> float:
        top = float(np.max(_expectations(dic, W)))
        return float(np.real(np.trace(W @ rho))) - top

    def clip(W: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(W)
        return (v * np.clip(w, -1.0, 1.0)) @ v.conj().T

    W = clip(rho - np.eye(rho.shape[0]) / rho.shape[0])
    best = max(0.0, objective(W))
    best_W = W
    for k in range(1, iterations + 1):
        top = int(np.argmax(_expectations(dic, W)))
        W = clip(W + (1.0 / math.sqrt(k)) * (rho - np.outer(Phi[:, top], Phi[:, top].conj())))
        val = objective(W)
        if val > best:
            best = val
            best_W = W
    return best, best_W


# ---------------------------------------------------------------------------
# Stabilizer-measurement distinguishability
# ---------------------------------------------------------------------------

def sm_distinguishing_pauli(rho: np.ndarray, sigma: np.ndarray, q: int, n: int,
                            config: RunConfig = DEFAULT_CONFIG
                            ) -> Tuple[pauli.PauliLabel, float]:
    """The Pauli P maximizing |Tr(P^dag (rho-sigma))| and the 1-norm distance
    of the outcome distributions of its spectral measurement; always at least
    ||rho - sigma||_1 / q^n."""
    delta_mat = rho - sigma
    best = None
    best_val = -1.0
    for ab in itertools.product(range(q), repeat=2 * n):
        P = pauli.label(q, n, ab[:n], ab[n:], 0)
        val = abs(np.trace(pauli.to_dense(P, config).conj().T @ delta_mat))
        if val > best_val + 1e-12:
            best_val = val
            best = P
    order = pauli.order(best)
    top = pauli.power(best, order)   # proportional to identity
    # eigenvalues of P: exp(i pi e / (q order)) * order-th roots of unity
    dim = q ** n
    powers = [pauli.to_dense(pauli.power(best, m), config) for m in range(order)]
    base_phase = np.exp(1j * np.pi * top.c / (q * order))
    dist = 0.0
    for k in range(order):
        lam = base_phase * np.exp(2j * np.pi * k / order)
        proj = np.zeros((dim, dim), dtype=complex)
        for m in range(order):
            proj += lam ** (-m) * powers[m]
        proj /= order
        dist += abs(np.real(np.trace(proj @ delta_mat)))
    return best, float(dist)


# ---------------------------------------------------------------------------
# Patch certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchCertificate:
    patches: Tuple[Tuple[float, int], ...]  # (epsilon, D) per patch
    target: str                             # "SP" or "S"
    bound: float                            # lower bound on LF


def fsm_upper_from_distance(eps: float, D: int) -> float:
    """sqrt(1 - eps^2 / 4D^2): stabilizer-measurement fidelity ceiling for a
    patch whose state is 1-norm distance >= eps from the target set."""
    if not 0.0 <= eps <= 2.0:
        raise ValueError("trace-distance bound must lie in [0, 2]")
    if D < 2:
        raise ValueError("patch dimension must be >= 2")
    return math.sqrt(1.0 - eps * eps / (4.0 * D * D))


def certify_product_lf(patches: Sequence[Tuple[float, int]], target: str = "SP",
                       config: RunConfig = DEFAULT_CONFIG) -> PatchCertificate:
    """LF >= sum_i log 1/(1 - eps_i^2/4D_i^2) for any global pure state whose
    reduction to the patch union is the product of the patch states."""
    if target not in ("SP", "S"):
        raise ValueError("target must be 'SP' or 'S'")
    total = 0.0
    for eps, D in patches:
        f = fsm_upper_from_distance(eps, D)
        total += log_value(1.0 / (f * f), config)
    return PatchCertificate(
        patches=tuple((float(e), int(D)) for e, D in patches),
        target=target,
        bound=total,
    )


def extensive_rel_entropy_bound(patches: Sequence[Tuple[float, int]],
                                config: RunConfig = DEFAULT_CONFIG) -> float:
    """Pinsker-route bound S(rho||S) >= sum_i eps_i^2 / (2 D_i^2), valid for
    disjoint patches of a possibly entangled state (natural-log units,
    converted to the configured base)."""
    total_nat = 0.0
    for eps, D in patches:
        fsm_upper_from_distance(eps, D)  # the same checks on eps and D
        total_nat += eps * eps / (2.0 * D * D)
    return total_nat / math.log(config.base_value())


def low_energy_lr_witness(psi: np.ndarray, psi_l: np.ndarray, f_l: float,
                          config: RunConfig = DEFAULT_CONFIG) -> float:
    """LR lower bound from the feasible dual operator |psi_l><psi_l| / f_l,
    where f_l is the stabilizer fidelity of psi_l."""
    if f_l <= 0.0:
        raise ValueError("stabilizer fidelity must be positive")
    arg = abs(np.vdot(psi_l, psi)) ** 2 / f_l
    if arg <= 1.0:
        return 0.0
    return log_value(arg, config)


# ---------------------------------------------------------------------------
# Combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureValue:
    value: float
    status: str
    gap: float


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
    not solved here, the certificate machinery covers those uses.
    """
    lf = s_rel = s_max_set = lgr = lr = None
    w, v = np.linalg.eigh(rho)
    psi = v[:, -1] if w[-1] > 1.0 - 1e-10 else None
    if "lf" in measures and psi is not None:
        val, _ = lf_pure(psi, dic, config)
        lf = MeasureValue(value=val, status=STATUS_EXACT, gap=0.0)
    if "srel" in measures:
        fw = rel_entropy_magic(rho, dic, config)
        s_rel = MeasureValue(value=fw.value, status=fw.status, gap=fw.gap)
    if ("smax" in measures or "lgr" in measures) and psi is not None:
        res = smax_lgr_pure(psi, dic, config)
        if "smax" in measures:
            s_max_set = MeasureValue(value=res.s_max_set, status=res.status, gap=res.gap)
        if "lgr" in measures:
            lgr = MeasureValue(value=res.lgr, status=res.status, gap=res.lgr_gap)
    if "lr" in measures:
        res = lr_lp(rho, dic, config)
        lr = MeasureValue(value=res.value, status=STATUS_EXACT, gap=res.gap)
    return MagicReport(lf=lf, s_rel=s_rel, s_max_set=s_max_set, lgr=lgr, lr=lr,
                      log_base=config.log_base)
