"""Reference code that only the tests call: dense Pauli matrices, the
relative entropies that cross-check the Frank-Wolfe solvers' values, a
group's independent generators, and the writer of the state files the CLI
reads."""

import json

import numpy as np

from quditmagic import pauli, stabilizer
from quditmagic.config import DEFAULT_CONFIG, RunConfig, check_dense, log_value

SUPPORT_CUTOFF = 1e-10


def relative_entropy(
    rho: np.ndarray, sigma: np.ndarray, config: RunConfig = DEFAULT_CONFIG
) -> float:
    """S(rho||sigma) in the configured base, +inf outside sigma's support."""
    ws, vs = np.linalg.eigh(sigma)
    support = ws > SUPPORT_CUTOFF
    proj_out = vs[:, ~support]
    if proj_out.shape[1] and np.linalg.norm(proj_out.conj().T @ rho @ proj_out) > SUPPORT_CUTOFF:
        return float("inf")
    wr = np.linalg.eigvalsh(rho)
    wr = wr[wr > 1e-14]
    tr_rho_log_rho = float(np.sum(wr * np.log(wr)))
    vsup = vs[:, support]
    wsup = ws[support]
    rho_in = vsup.conj().T @ rho @ vsup
    tr_rho_log_sigma = float(np.real(np.sum(np.diag(rho_in) * np.log(wsup))))
    return (tr_rho_log_rho - tr_rho_log_sigma) / np.log(config.base_value())


def max_relative_entropy(
    rho: np.ndarray, sigma: np.ndarray, config: RunConfig = DEFAULT_CONFIG
) -> float:
    """S_max(rho||sigma) = log min{lambda : rho <= lambda sigma}."""
    ws, vs = np.linalg.eigh(sigma)
    support = ws > SUPPORT_CUTOFF
    proj_out = vs[:, ~support]
    if proj_out.shape[1] and np.linalg.norm(proj_out.conj().T @ rho @ proj_out) > SUPPORT_CUTOFF:
        return float("inf")
    vsup = vs[:, support]
    inv_sqrt = vsup * (1.0 / np.sqrt(ws[support]))
    M = inv_sqrt.conj().T @ rho @ inv_sqrt
    lam = float(np.linalg.eigvalsh(M).max())
    lam = max(lam, 1e-300)
    return log_value(lam, config)


def state_to_json(q: int, n: int, psi: np.ndarray) -> str:
    return json.dumps(
        {
            "q": q,
            "n": n,
            "amplitudes": [[float(z.real), float(z.imag)] for z in psi],
        }
    )


def identity_label(q: int, n: int) -> pauli.PauliLabel:
    return pauli.label(q, n, [0] * n, [0] * n, 0)


def _site_matrix(q: int, a: int, b: int) -> np.ndarray:
    """Dense q x q matrix of Z^a X^b."""
    omega = np.exp(2j * np.pi / q)
    M = np.zeros((q, q), dtype=complex)
    for j in range(q):
        M[(j + b) % q, j] = omega ** (a * ((j + b) % q))
    return M


def to_dense(P: pauli.PauliLabel, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Dense matrix on the little-endian product basis (site 0 fastest)."""
    dim = P.q ** P.n
    check_dense(dim, config)
    out = np.array([[1.0 + 0j]])
    for i in range(P.n - 1, -1, -1):
        out = np.kron(out, _site_matrix(P.q, P.a[i], P.b[i]))
    phase = np.exp(1j * np.pi * P.c / P.q)
    return phase * out


def independent_generators(S: stabilizer.StabilizerGroup):
    """Independent generators of S with their orders (divisor chain, trivial
    ones dropped); the product of the orders equals |S|."""
    C, orders = stabilizer._decomposition(S.q, stabilizer._rows_key(S.gens))
    return [(stabilizer.product_label(S.gens, row), d) for row, d in zip(C, orders) if d > 1]
