"""Dense state algebra used as the verification oracle.

Conventions, fixed package-wide:
  * little-endian site ordering: site 0 is the fastest-varying basis index;
  * trace_distance is the FULL Schatten 1-norm ||rho - sigma||_1 (orthogonal
    pure states are at distance 2) -- the halved metric is never exposed;
  * all entropic quantities use the configured log base (default 2).
"""

import json
import sys
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig


class OverlappingRegions(ValueError):
    pass


def state_from_amplitudes(q: int, n: int, amps: Sequence[complex]) -> np.ndarray:
    if q < 2 or n < 1:
        raise ValueError("need q >= 2 and n >= 1, got q=%d, n=%d" % (q, n))
    v = np.asarray(amps, dtype=complex)
    if v.shape != (q ** n,):
        raise ValueError("amplitude vector has wrong length")
    if not np.isfinite(v).all():
        raise ValueError("amplitudes must be finite")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError("state vector is not normalized")
    return v


def density_of(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def partial_trace(rho: np.ndarray, q: int, n: int, keep: Sequence[int]) -> np.ndarray:
    """Partial trace keeping the listed sites (ascending order in the output)."""
    keep = sorted(keep)
    traced = [s for s in range(n) if s not in keep]
    tens = rho.reshape([q] * (2 * n))
    remaining = list(range(n))
    for s in traced:
        m = len(remaining)
        ax = m - 1 - remaining.index(s)
        tens = np.trace(tens, axis1=ax, axis2=ax + m)
        remaining.remove(s)
    m = len(keep)
    return tens.reshape(q ** m, q ** m)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Full 1-norm ||rho - sigma||_1 (NOT halved)."""
    w = np.linalg.eigvalsh(rho - sigma)
    return float(np.sum(np.abs(w)))


def vn_entropy(rho: np.ndarray, config: RunConfig = DEFAULT_CONFIG) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log(w)) / np.log(config.base_value()))


def mutual_information(
    rho: np.ndarray,
    q: int,
    n: int,
    A: Sequence[int],
    B: Sequence[int],
    config: RunConfig = DEFAULT_CONFIG,
) -> float:
    if set(A) & set(B):
        raise OverlappingRegions("regions overlap")
    rho_a = partial_trace(rho, q, n, A)
    rho_b = partial_trace(rho, q, n, B)
    rho_ab = partial_trace(rho, q, n, sorted(set(A) | set(B)))
    return (
        vn_entropy(rho_a, config)
        + vn_entropy(rho_b, config)
        - vn_entropy(rho_ab, config)
    )


def apply_brickwork(
    psi: np.ndarray,
    q: int,
    n: int,
    depth: int,
    gate_supplier: Callable[[int, int], np.ndarray],
) -> np.ndarray:
    """Alternating even/odd brickwork on an open 1D chain.

    gate_supplier(layer, left_site) must return a q^2 x q^2 unitary acting on
    sites (left_site, left_site+1); layer 0 couples the even pairs.
    """
    out = np.array(psi, dtype=complex)
    for layer in range(depth):
        start = 0 if layer % 2 == 0 else 1
        for left in range(start, n - 1, 2):
            gate = np.asarray(gate_supplier(layer, left), dtype=complex)
            err = np.linalg.norm(gate @ gate.conj().T - np.eye(q * q))
            if err > 1e-10:
                raise ValueError("gate is not unitary within tolerance")
            out = _apply_two_site(out, q, n, left, gate)
    return out


def _apply_two_site(psi: np.ndarray, q: int, n: int, left: int, gate: np.ndarray) -> np.ndarray:
    """Apply a two-site gate on (left, left+1); gate indices are little-endian
    in the pair, i.e. column index = j_left + q * j_{left+1}."""
    tens = psi.reshape([q] * n)
    ax_l = n - 1 - left
    ax_r = n - 1 - (left + 1)
    # bring the pair to the last two axes as (left+1, left)
    tens = np.moveaxis(tens, [ax_r, ax_l], [n - 2, n - 1])
    shape = tens.shape
    tens = tens.reshape(-1, q * q)
    # row of the flattened pair is j_{left+1} * q + j_left; the gate uses
    # little-endian pair indexing j_left + q * j_{left+1}, which coincides.
    tens = tens @ gate.T
    tens = tens.reshape(shape)
    tens = np.moveaxis(tens, [n - 2, n - 1], [ax_r, ax_l])
    return tens.reshape(-1)


def json_int(x) -> int:
    """x if it is a JSON integer; a float, string or boolean is a ValueError."""
    if type(x) is not int:
        raise ValueError("expected an integer, got %r" % (x,))
    return x


def json_real(x) -> float:
    """x as a float if it is a finite JSON number; anything else is a ValueError."""
    # NaN compares false, and an int past the float range fails before float() overflows
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
        raise ValueError("expected a finite real number, got %r" % (x,))
    return float(x)


def state_from_json(text: str):
    obj = json.loads(text)
    q = json_int(obj["q"])
    n = json_int(obj["n"])
    amps = [complex(json_real(re), json_real(im)) for re, im in obj["amplitudes"]]
    return q, n, state_from_amplitudes(q, n, amps)
