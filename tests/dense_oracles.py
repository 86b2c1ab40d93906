"""Dense oracles that only the tests call: the relative entropies that
cross-check the Frank-Wolfe solvers' values, and the writer of the state
files the CLI reads."""

import json

import numpy as np

from quditmagic.config import DEFAULT_CONFIG, RunConfig, log_value

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
