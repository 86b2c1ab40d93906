"""Mutual-information witnesses for non-stabilizerness and the finite-size
assembly of the log(n) long-range-magic lower bound.

The witness rests on a discreteness fact: on a stabilizer projection state
the mutual information of two disjoint regions is always a multiple of log p
for some prime p | q, so a measured value strictly inside (0, log p) rules
out every SPS.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import dense
from .config import DEFAULT_CONFIG, RunConfig, log_value
from .magic import fsm_upper_from_distance
from .ring import factorize

VERDICT_FIRES = "fires"
VERDICT_SILENT = "silent"


class InvalidInput(ValueError):
    """A region, tolerance or depth that a witness cannot take."""


@dataclass(frozen=True)
class MiWitnessVerdict:
    mi: float
    p: int
    window: Tuple[float, float]
    verdict: str
    margin: float  # distance of mi into the window (negative when outside)


@dataclass(frozen=True)
class DecayProfile:
    K: float
    xi: float
    m: int       # patch count
    r0: float    # patch size cap
    c1: float    # patch spacing is c1 * log n
    n: int       # system size

    def __post_init__(self):
        if self.K <= 0 or self.xi <= 0 or self.r0 <= 0 or self.c1 <= 0:
            raise ValueError("profile constants must be positive")
        if self.m < 1 or self.n < 2:
            raise ValueError("need at least one patch and n >= 2")


def smallest_prime_divisor(q: int) -> int:
    return min(p for p, _ in factorize(q).factors)


def _check_regions(n: int, *regions: Sequence[int]) -> None:
    for R in regions:
        if len(set(R)) != len(R) or not all(0 <= s < n for s in R):
            raise InvalidInput("region %r needs distinct sites in [0, %d)" % (list(R), n))


def mi_forbidden_window(rho: np.ndarray, q: int, n: int,
                        A: Sequence[int], B: Sequence[int],
                        tol: float = 1e-6,
                        config: RunConfig = DEFAULT_CONFIG) -> MiWitnessVerdict:
    """Fires when I(A:B) lands strictly inside (tol, log p - tol), p the
    smallest prime divisor of q; a firing certifies that the state is not a
    stabilizer projection state.  tol must be finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidInput("tol must be finite and >= 0, got %r" % (tol,))
    _check_regions(n, A, B)
    p = smallest_prime_divisor(q)
    mi = dense.mutual_information(rho, q, n, A, B, config)
    lo = tol
    hi = log_value(p, config) - tol
    fires = lo < mi < hi
    margin = min(mi - lo, hi - mi)
    return MiWitnessVerdict(
        mi=mi,
        p=p,
        window=(lo, hi),
        verdict=VERDICT_FIRES if fires else VERDICT_SILENT,
        margin=margin,
    )


@dataclass(frozen=True)
class SandwichReport:
    i_shrunk: float    # I(A^{-d} : B^{-d}) on the input state
    i_evolved: float   # I(A : B) after the depth-d circuit
    i_grown: float     # I(A^{+d} : B^{+d}) on the input state
    holds: bool
    slack: float       # min(i_evolved - i_shrunk, i_grown - i_evolved)


def _thicken(region: Sequence[int], d: int, n: int) -> list:
    out = set()
    for s in region:
        for t in range(s - d, s + d + 1):
            if 0 <= t < n:
                out.add(t)
    return sorted(out)


def _shrink(region: Sequence[int], d: int, n: int) -> list:
    inside = set(region)
    return [s for s in sorted(inside)
            if all(t in inside for t in range(max(s - d, 0), min(s + d, n - 1) + 1))]


def random_two_site_gate(rng: np.random.Generator, q: int) -> np.ndarray:
    """Haar-random q^2 x q^2 unitary (QR of a complex Gaussian with the
    standard phase fix)."""
    z = rng.normal(size=(q * q, q * q)) + 1j * rng.normal(size=(q * q, q * q))
    u, r = np.linalg.qr(z)
    return u * (np.diag(r) / np.abs(np.diag(r)))


def _pure_entropy(psi: np.ndarray, q: int, n: int, region: Sequence[int],
                  config: RunConfig) -> float:
    """Entropy of the reduced state of a pure psi on region: the spectrum of
    M M^dag, M being psi reshaped to (region) x (rest).  The smaller of the
    two Gram matrices is used; their nonzero spectra agree."""
    axes = [n - 1 - s for s in region]  # site s is axis n - 1 - s
    rest = [a for a in range(n) if a not in axes]
    M = np.transpose(np.reshape(psi, [q] * n), axes + rest).reshape(q ** len(axes), -1)
    if M.shape[0] > M.shape[1]:
        M = M.T
    return dense.vn_entropy(M @ M.conj().T, config)


def _pure_mutual_information(psi: np.ndarray, q: int, n: int, A: Sequence[int],
                             B: Sequence[int], config: RunConfig) -> float:
    """I(A:B) of a pure state without forming any q^n x q^n matrix."""
    return (_pure_entropy(psi, q, n, A, config) + _pure_entropy(psi, q, n, B, config)
            - _pure_entropy(psi, q, n, sorted(set(A) | set(B)), config))


def mi_stability_check(psi: np.ndarray, q: int, n: int, depth: int,
                       A: Sequence[int], B: Sequence[int],
                       rng: np.random.Generator = None,
                       tol: float = 1e-8,
                       config: RunConfig = DEFAULT_CONFIG) -> SandwichReport:
    """Depth-d stability: I(A^{-d}:B^{-d}) <= I_after(A:B) <= I(A^{+d}:B^{+d})
    for any depth-d brickwork circuit (a random one is sampled here)."""
    if depth < 0:
        raise InvalidInput("depth must be >= 0, got %d" % depth)
    _check_regions(n, A, B)
    Ap = _thicken(A, depth, n)
    Bp = _thicken(B, depth, n)
    if set(Ap) & set(Bp):
        raise dense.OverlappingRegions("thickened regions overlap")
    Am = _shrink(A, depth, n)
    Bm = _shrink(B, depth, n)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    # apply_brickwork asks for each gate once, in layer order
    evolved = dense.apply_brickwork(psi, q, n, depth,
                                    lambda layer, left: random_two_site_gate(rng, q))
    i_mid = _pure_mutual_information(evolved, q, n, A, B, config)
    i_plus = _pure_mutual_information(psi, q, n, Ap, Bp, config)
    if Am and Bm:
        i_minus = _pure_mutual_information(psi, q, n, Am, Bm, config)
    else:
        i_minus = 0.0
    slack = min(i_mid - i_minus, i_plus - i_mid)
    return SandwichReport(
        i_shrunk=i_minus,
        i_evolved=i_mid,
        i_grown=i_plus,
        holds=slack >= -tol,
        slack=slack,
    )


def fidelity_triangle(delta1: float, delta2: float) -> float:
    """Bures-angle triangle inequality: F(rho,sigma) <= delta1 and
    F(sigma,tau) >= 1 - delta2 imply F(rho,tau) <= delta1 + sqrt(2 delta2)."""
    if not 0.0 <= delta1 <= 1.0 or not 0.0 <= delta2 <= 1.0:
        raise ValueError("fidelity bounds must lie in [0, 1]")
    return delta1 + math.sqrt(2.0 * delta2)


def logn_lrm_assemble(profile: DecayProfile,
                      certs: Sequence[Tuple[float, int]],
                      config: RunConfig = DEFAULT_CONFIG) -> float:
    """Finite-size composition of the long-range-magic bound.

    The correlation decay gives S(sigma || product of patch reductions)
    <= S_bound = K m^2 r0^2 n^{-c1/xi}, hence a product-closeness fidelity
    floor exp(-S_bound/2); the patch certificates cap the product state's
    root fidelity to SP by delta1 = prod sqrt(1 - eps^2/4D^2).  The triangle
    inequality combines both and the result is -log of the squared combined
    fidelity.  Can be vacuous (<= 0) for weak parameters; reported as-is.
    """
    s_bound = profile.K * profile.m ** 2 * profile.r0 ** 2 \
        * float(profile.n) ** (-profile.c1 / profile.xi)
    delta2 = 1.0 - math.exp(-s_bound / 2.0)
    delta1 = 1.0
    for eps, D in certs:
        delta1 *= fsm_upper_from_distance(eps, D)
    combined = fidelity_triangle(delta1, delta2)
    return -log_value(combined * combined, config)
