import math

import numpy as np
import pytest

from quditmagic import dense, stabilizer, witness
from quditmagic.config import RunConfig


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def tuned_theta():
    # cos(theta)|00> + sin(theta)|11> with I(A:B) = 2 h(cos^2 theta) = 0.5
    import scipy.optimize

    return scipy.optimize.brentq(lambda t: 2 * h2(math.cos(t) ** 2) - 0.5, 0.01, 0.4)


def test_smallest_prime_divisor():
    assert witness.smallest_prime_divisor(2) == 2
    assert witness.smallest_prime_divisor(6) == 2
    assert witness.smallest_prime_divisor(9) == 3
    assert witness.smallest_prime_divisor(15) == 3


def test_window_silent_on_stabilizer_states():
    for sps in stabilizer.enumerate_sps(2, 2):
        rho = stabilizer.sps_dense(sps)
        verdict = witness.mi_forbidden_window(rho, 2, 2, [0], [1])
        assert verdict.verdict == witness.VERDICT_SILENT, sps.group


def test_window_fires_on_tuned_state():
    t = tuned_theta()
    v = np.zeros(4, dtype=complex)
    v[0] = math.cos(t)
    v[3] = math.sin(t)
    rho = dense.density_of(v)
    verdict = witness.mi_forbidden_window(rho, 2, 2, [0], [1])
    assert verdict.verdict == witness.VERDICT_FIRES
    assert abs(verdict.mi - 0.5) < 1e-9
    assert verdict.p == 2
    assert verdict.margin > 0.1


def test_window_boundaries():
    # product state: MI = 0 sits below the window
    v = np.array([1, 0, 0, 0], dtype=complex)
    verdict = witness.mi_forbidden_window(dense.density_of(v), 2, 2, [0], [1])
    assert verdict.verdict == witness.VERDICT_SILENT
    assert verdict.margin < 0
    # Bell state: MI = 2 log p sits above the window
    b = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    verdict2 = witness.mi_forbidden_window(dense.density_of(b), 2, 2, [0], [1])
    assert verdict2.verdict == witness.VERDICT_SILENT


def zero_state(n):
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = 1.0
    return v


def test_window_never_fires_on_the_window_edge():
    # |000> is a stabilizer state with MI = 0: at tol = 0 the value sits on
    # the window edge, which is outside the strict window
    rho = dense.density_of(zero_state(3))
    verdict = witness.mi_forbidden_window(rho, 2, 3, [0], [2], tol=0.0)
    assert verdict.mi == 0.0
    assert verdict.verdict == witness.VERDICT_SILENT
    assert verdict.margin <= 0


@pytest.mark.parametrize("kwargs", [
    dict(A=[0], B=[2], tol=-0.5),
    dict(A=[0], B=[2], tol=float("nan")),
    dict(A=[0], B=[2], tol=float("inf")),
    dict(A=[0], B=[7]),
    dict(A=[0], B=[-1]),
    dict(A=[0, 0], B=[2]),
])
def test_window_rejects_bad_input(kwargs):
    rho = dense.density_of(zero_state(3))
    with pytest.raises(ValueError):
        witness.mi_forbidden_window(rho, 2, 3, **kwargs)


@pytest.mark.parametrize("depth,A,B", [
    (-1, [0], [2]), (0, [0], [7]), (0, [-1], [2]), (0, [0, 0], [2]),
])
def test_sandwich_rejects_bad_input(depth, A, B):
    with pytest.raises(ValueError):
        witness.mi_stability_check(zero_state(3), 2, 3, depth, A, B)


def test_window_prime_from_composite_q():
    rho = np.eye(36) / 36
    verdict = witness.mi_forbidden_window(rho, 6, 2, [0], [1])
    assert verdict.p == 2
    assert abs(verdict.window[1] - (1.0 - 1e-6)) < 1e-12


def test_sandwich_identity_depth_zero():
    t = tuned_theta()
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = math.cos(t), math.sin(t)
    rep = witness.mi_stability_check(v, 2, 2, 0, [0], [1])
    assert rep.holds
    assert abs(rep.i_evolved - rep.i_grown) < 1e-9


@pytest.mark.parametrize("depth", [1, 2])
def test_sandwich_random_circuit(depth):
    rng = np.random.default_rng(11)
    n = 6
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    v /= np.linalg.norm(v)
    rep = witness.mi_stability_check(v, 2, n, depth, [0], [n - 1], rng=rng)
    assert rep.holds, rep
    assert rep.i_shrunk <= rep.i_evolved + 1e-8
    assert rep.i_evolved <= rep.i_grown + 1e-8


@pytest.mark.parametrize("q,n,depth,A,B", [
    (2, 6, 1, [0, 1], [4, 5]), (2, 6, 2, [0], [5]), (3, 4, 1, [0], [3]),
])
def test_sandwich_matches_dense_density_route(q, n, depth, A, B):
    # the reduced states of the pure state agree with partial traces of the
    # full q^n x q^n density matrices, evolved under the same gates
    rng = np.random.default_rng(3)
    v = rng.normal(size=q ** n) + 1j * rng.normal(size=q ** n)
    v /= np.linalg.norm(v)
    rep = witness.mi_stability_check(v, q, n, depth, A, B, rng=np.random.default_rng(8))
    gate_rng = np.random.default_rng(8)
    gates = {}

    def supplier(layer, left):
        if (layer, left) not in gates:
            gates[(layer, left)] = witness.random_two_site_gate(gate_rng, q)
        return gates[(layer, left)]

    rho0 = dense.density_of(v)
    rho1 = dense.density_of(dense.apply_brickwork(v, q, n, depth, supplier))
    grow = [witness._thicken(R, depth, n) for R in (A, B)]
    shrink = [witness._shrink(R, depth, n) for R in (A, B)]
    i_minus = dense.mutual_information(rho0, q, n, *shrink) if all(shrink) else 0.0
    assert abs(rep.i_evolved - dense.mutual_information(rho1, q, n, A, B)) < 1e-12
    assert abs(rep.i_grown - dense.mutual_information(rho0, q, n, *grow)) < 1e-12
    assert abs(rep.i_shrunk - i_minus) < 1e-12


def test_sandwich_rejects_overlapping_thickened():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    with pytest.raises(dense.OverlappingRegions):
        witness.mi_stability_check(v, 2, 2, 1, [0], [1])


def test_random_gate_is_unitary():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        U = witness.random_two_site_gate(rng, q)
        assert np.allclose(U @ U.conj().T, np.eye(q * q), atol=1e-10)


def test_fidelity_triangle():
    assert abs(witness.fidelity_triangle(0.1, 0.02) - (0.1 + math.sqrt(0.04))) < 1e-12
    with pytest.raises(ValueError):
        witness.fidelity_triangle(-0.1, 0.0)
    with pytest.raises(ValueError):
        witness.fidelity_triangle(0.1, 1.5)


def test_decay_profile_validation():
    with pytest.raises(ValueError):
        witness.DecayProfile(K=0.0, xi=1.0, m=1, r0=1.0, c1=1.0, n=4)
    with pytest.raises(ValueError):
        witness.DecayProfile(K=1.0, xi=1.0, m=0, r0=1.0, c1=1.0, n=4)


def toy_profile():
    return witness.DecayProfile(K=1.0, xi=1.0, m=10, r0=2.0, c1=3.0, n=1024)


def test_assemble_toy_value():
    # independently verifiable arithmetic: s = K m^2 r0^2 n^{-c1/xi},
    # delta2 = 1 - exp(-s/2), delta1 = prod sqrt(1 - eps^2/4D^2),
    # result = -log2((delta1 + sqrt(2 delta2))^2)
    certs = [(1.0, 2)] * 2
    s = 1.0 * 100 * 4.0 * 1024.0 ** (-3.0)
    delta2 = 1.0 - math.exp(-s / 2.0)
    delta1 = (math.sqrt(1 - 1.0 / 16.0)) ** 2
    expected = -math.log2((delta1 + math.sqrt(2 * delta2)) ** 2)
    got = witness.logn_lrm_assemble(toy_profile(), certs)
    assert abs(got - expected) < 1e-12


def test_assemble_monotonicity():
    base = witness.logn_lrm_assemble(toy_profile(), [(1.0, 2)] * 2)
    # larger per-patch distances certify more magic
    stronger = witness.logn_lrm_assemble(toy_profile(), [(1.5, 2)] * 2)
    assert stronger > base
    # weaker decay (larger K) weakens the bound
    weaker_profile = witness.DecayProfile(K=100.0, xi=1.0, m=10, r0=2.0, c1=3.0, n=1024)
    assert witness.logn_lrm_assemble(weaker_profile, [(1.0, 2)] * 2) < base


def test_assemble_rejects_bad_cert():
    with pytest.raises(ValueError):
        witness.logn_lrm_assemble(toy_profile(), [(3.0, 2)])
    for D in (0, 1):
        with pytest.raises(ValueError, match="patch dimension"):
            witness.logn_lrm_assemble(toy_profile(), [(0.5, D)])
