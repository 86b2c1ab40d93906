import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from quditmagic import dense, magic, pauli, stabilizer
from quditmagic.config import RunConfig


def t_state():
    # single-qubit state maximizing the distance to the stabilizer octahedron
    v = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
    return v / np.linalg.norm(v)


def random_state(q, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=q ** n) + 1j * rng.normal(size=q ** n)
    return v / np.linalg.norm(v)


T_LF = -math.log2(math.cos(math.pi / 8) ** 2)


@pytest.fixture(scope="module")
def dic12():
    return magic.build_dictionary(1, 2, RunConfig())


@pytest.fixture(scope="module")
def dic13():
    return magic.build_dictionary(1, 3, RunConfig())


def test_dictionary_sizes(dic12, dic13):
    assert len(dic12.vectors) == 6
    assert len(dic13.vectors) == 12
    dic22 = magic.build_dictionary(2, 2, RunConfig())
    assert len(dic22.vectors) == 60
    # dictionary vectors are normalized and average to the maximally mixed state
    acc = sum(np.outer(v, v.conj()) for v in dic22.vectors) / 60
    assert np.allclose(acc, np.eye(4) / 4, atol=1e-10)


def test_lf_pure_known_values(dic12):
    val, witness = magic.lf_pure(t_state(), dic12)
    assert abs(val - T_LF) < 1e-10
    assert abs(abs(np.vdot(witness, t_state())) ** 2 - 2 ** (-T_LF)) < 1e-10
    # stabilizer states themselves carry no magic
    for phi in dic12.vectors:
        v, _ = magic.lf_pure(phi, dic12)
        assert abs(v) < 1e-10


def check_lr_certificate(rho, dic, res):
    # the signed decomposition reproduces rho at cost equal to the optimum
    acc = sum(c * np.outer(v, v.conj()) for c, v in zip(res.coeffs, dic.vectors))
    assert np.allclose(acc, rho, atol=1e-9)
    assert abs(np.sum(np.abs(res.coeffs)) - res.optimum) < 1e-9
    # the dual witness is feasible on every dictionary state and attains it
    for v in dic.vectors:
        assert abs(np.real(np.vdot(v, res.witness @ v))) <= 1.0 + 1e-9
    assert abs(np.real(np.trace(res.witness @ rho)) - res.optimum) < 1e-9
    assert res.gap < 1e-9


def test_lr_known_value(dic12):
    rho = dense.density_of(t_state())
    res = magic.lr_lp(rho, dic12)
    assert abs(res.value - 0.5) < 1e-8
    assert abs(res.optimum - math.sqrt(2)) < 1e-8
    check_lr_certificate(rho, dic12, res)


# (n, q) and pure state beyond the single-qubit T state; at (2,2) the optimal
# dual of T x T is not unique, so only the certificate, not the witness, is
# checked
LR_STATES = {
    "random_q3n1": ((1, 3), random_state(3, 1, 7)),
    "tt_q2n2": ((2, 2), np.kron(t_state(), t_state())),
    "11i1_q2n2": ((2, 2), np.array([1, 1, 1, 1j], dtype=complex) / 2),
}


@pytest.fixture(scope="module")
def lr_dics(dic13):
    return {(1, 3): dic13, (2, 2): magic.build_dictionary(2, 2, RunConfig())}


@pytest.mark.parametrize("name", sorted(LR_STATES))
def test_lr_certificate(name, lr_dics):
    size, psi = LR_STATES[name]
    rho = dense.density_of(psi)
    check_lr_certificate(rho, lr_dics[size], magic.lr_lp(rho, lr_dics[size]))


def test_lr_pinned_values(lr_dics):
    # LR (log2) of the states above, as the hand-written simplex computed it
    pinned = {
        "random_q3n1": 0.9577400652505306,
        "tt_q2n2": 0.8053311710772854,
        "11i1_q2n2": 1.1375035237499354,
    }
    for name, value in pinned.items():
        size, psi = LR_STATES[name]
        res = magic.lr_lp(dense.density_of(psi), lr_dics[size])
        assert abs(res.value - value) < 1e-9


def test_lr_rejects_infeasible_witness(dic12, monkeypatch):
    # a dual that overshoots |Tr(A sigma)| <= 1 is caught by lr_lp itself
    solve = magic.simplex.solve_lp

    def inflated(A, b, c):
        sol = solve(A, b, c)
        sol.dual = 1.01 * sol.dual
        return sol

    monkeypatch.setattr(magic.simplex, "solve_lp", inflated)
    with pytest.raises(ArithmeticError, match="dual witness"):
        magic.lr_lp(dense.density_of(t_state()), dic12)


def test_lr_reports_duality_gap(dic12, monkeypatch):
    # the gap is |primal - Tr(A rho)|, so a primal value off by 1e-3 shows
    solve = magic.simplex.solve_lp

    def shifted(A, b, c):
        sol = solve(A, b, c)
        sol.value += 1e-3
        return sol

    monkeypatch.setattr(magic.simplex, "solve_lp", shifted)
    res = magic.lr_lp(dense.density_of(t_state()), dic12)
    assert abs(res.gap - 1e-3) < 1e-9


def test_lr_zero_on_hull(dic12):
    rho = np.eye(2) / 2
    res = magic.lr_lp(rho, dic12)
    assert abs(res.value) < 1e-9


def hull_state(dic, weights):
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, dic.vectors))


def test_cone_exact_on_t_state(dic12):
    rho = dense.density_of(t_state())
    res = magic.smax_lgr_pure(t_state(), dic12)
    assert res.gap <= 1e-6 and res.lgr_gap <= 1e-6
    # the returned mixture dominates rho with the reported lambda
    sigma = hull_state(dic12, res.weights)
    assert np.linalg.eigvalsh(res.lam * sigma - rho)[0] >= -1e-7
    # independent check of the upper value
    assert abs(dense.max_relative_entropy(rho, sigma) - res.s_max_set) < 1e-8
    assert abs(res.lgr - math.log2(2 * res.lam - 1)) < 1e-12
    assert res.lgr <= res.s_max_set * 2 + 1e-12


def clifford_image_of_tt():
    H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    S = np.diag([1, 1j])
    tt = np.kron(t_state(), t_state())
    return tt, np.kron(H, S) @ tt


def test_smax_lgr_clifford_invariant_and_vanishing():
    # the solver starts at the maximally mixed state, so its result does not
    # depend on the Clifford frame of the input
    dic22 = magic.build_dictionary(2, 2, RunConfig())
    tt, image = clifford_image_of_tt()
    a = magic.smax_lgr_pure(tt, dic22)
    b = magic.smax_lgr_pure(image, dic22)
    assert abs(a.s_max_set - b.s_max_set) < 1e-8
    assert abs(a.lgr - b.lgr) < 1e-8
    stab = np.kron(np.array([1, 1j]) / math.sqrt(2), np.array([1, 0]))
    c = magic.smax_lgr_pure(stab.astype(complex), dic22)
    assert abs(c.s_max_set) < 1e-6 and abs(c.lgr) < 1e-6


def test_smax_equals_stabilizer_extent_literals(dic12):
    # for pure states lam is the stabilizer extent: xi(T) = 1/cos^2(pi/8),
    # multiplicative on single-qubit products (Bravyi et al., Quantum 3, 181
    # (2019))
    c2 = math.cos(math.pi / 8) ** 2
    assert abs(magic.smax_lgr_pure(t_state(), dic12).lam - 1 / c2) < 1e-12
    dic22 = magic.build_dictionary(2, 2, RunConfig())
    tt = np.kron(t_state(), t_state())
    assert abs(magic.smax_lgr_pure(tt, dic22).lam - 1 / c2 ** 2) < 1e-12


def bracketed_smax_step(sigma, psi, phi, toward, t_max):
    """The S_max line search by root finding, as the engine did it before its
    closed form: the root of d/dt psi^dag sigma(t)^-1 psi along
    sigma(t) = sigma + tD, bracketed on [0, t_max]."""
    D = np.outer(phi, phi.conj()) - sigma
    if not toward:
        D = -D

    def slope(t):
        ws, vs = np.linalg.eigh(sigma + t * D)
        x = vs @ ((vs.conj().T @ psi) / np.clip(ws, magic.EIG_FLOOR, None))
        return -float(np.real(np.vdot(x, D @ x)))

    if slope(t_max) <= 0.0:
        return t_max
    try:
        return scipy.optimize.brentq(slope, 0.0, t_max, xtol=1e-15, rtol=1e-15)
    except ValueError:
        return None


def random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.booleans(),
    st.booleans(),
    st.floats(min_value=0.05, max_value=1.0),
)
@example(3, 0, True, True, 1.0)     # phi = psi: e = 0, f falls all the way
@example(3, 0, False, True, 1.0)    # phi = psi away: no descent
@example(3, 0, True, False, 0.05)   # the root lies beyond t_max
@example(3, 5, True, False, 1.0)    # no descent toward phi
@example(3, 5, False, False, 1.0)   # the away step drops phi
@example(3, 0, False, False, 1.0)   # an interior away step
def test_smax_step_matches_bracketed_root(d, seed, toward, parallel, frac):
    # sigma is a full-rank mixture of random projectors; an away step needs
    # phi in it with weight w, and may then run up to t = w / (1 - w), so an
    # interior root is compared on the scale of max(1, t)
    rng = np.random.default_rng(seed)
    vecs = [random_unit(rng, d) for _ in range(d + 2)]
    sigma = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.uniform(0.1, 1.0, d + 2), vecs))
    sigma /= np.trace(sigma).real
    psi = random_unit(rng, d)
    phi = psi.copy() if parallel else random_unit(rng, d)
    t_max = frac
    if not toward:
        w = rng.uniform(0.05, 0.95)
        sigma = w * np.outer(phi, phi.conj()) + (1.0 - w) * sigma
        t_max = frac * w / (1.0 - w)
    got = magic._smax_step(magic._floored_eigh(sigma), psi, phi, toward, t_max)
    want = bracketed_smax_step(sigma, psi, phi, toward, t_max)
    if want is None or want == t_max:
        assert got == want
    else:
        assert got is not None and got != t_max
        assert abs(got - want) <= 1e-12 * max(1.0, want)


# (S_max, S_rel) iteration counts of the engine from the uniform start; a
# change to a step or to the vertex rule shows here first.  After T's first
# S_max step the away/toward rule meets an exact tie: the correctly rounded
# step length breaks it away (7 iterations), the closed form, one ulp above
# it, toward (8).
PINNED_ITERATIONS = [
    pytest.param((1, 2), t_state(), 8, 7, id="T"),
    pytest.param((2, 2), np.kron(t_state(), t_state()), 149, 92, id="TxT"),
] + [
    pytest.param((1, 2), random_state(2, 1, seed), smax, srel, id="random%d" % seed)
    for seed, (smax, srel) in enumerate([(15, 7), (15, 7), (20, 23), (7, 7), (7, 7), (21, 10)])
]


@pytest.mark.parametrize("size,psi,smax,srel", PINNED_ITERATIONS)
def test_frank_wolfe_iteration_counts(size, psi, smax, srel, dic12, lr_dics):
    dic = dic12 if size == (1, 2) else lr_dics[size]
    assert magic.smax_lgr_pure(psi, dic).iterations == smax
    assert magic.rel_entropy_magic(dense.density_of(psi), dic).iterations == srel


def test_rel_entropy_t_state(dic12):
    rho = dense.density_of(t_state())
    res = magic.rel_entropy_magic(rho, dic12)
    assert res.status == magic.STATUS_UPPER
    assert res.gap < 1e-5
    # known optimum for the single-qubit T state
    assert abs(res.value - T_LF) < 1e-4
    # sigma stays a state
    assert abs(np.trace(res.sigma) - 1) < 1e-8
    assert np.linalg.eigvalsh(res.sigma)[0] > -1e-10


@pytest.mark.parametrize("seed", range(6))
def test_monotone_chain_random_states(seed, dic12):
    psi = random_state(2, 1, seed)
    rho = dense.density_of(psi)
    lf, _ = magic.lf_pure(psi, dic12)
    fw = magic.rel_entropy_magic(rho, dic12)
    sm = magic.smax_lgr_pure(psi, dic12)
    lr = magic.lr_lp(rho, dic12)
    tol = 1e-5
    assert sm.gap <= 1e-6 and sm.lgr_gap <= 1e-6
    assert lf <= fw.value + tol
    assert fw.value - fw.gap <= sm.s_max_set + tol
    assert sm.s_max_set <= sm.lgr + tol
    assert sm.lgr <= lr.value + tol


def test_distance_to_sps_bell():
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    rho = dense.density_of(bell)
    dist, witness = magic.distance_to_sps(rho, 2, 2)
    assert dist < 1e-9  # Bell state is itself an SPS
    psi = random_state(2, 1, 3)
    rho1 = dense.density_of(psi)
    dist1, wit1 = magic.distance_to_sps(rho1, 1, 2)
    # reported witness attains the reported distance
    assert abs(
        dense.trace_distance(rho1, stabilizer.sps_dense(wit1)) - dist1
    ) < 1e-12


def test_distance_to_hull_lower(dic12):
    rho = dense.density_of(t_state())
    lower, W = magic.distance_to_hull_lower(rho, dic12, iterations=100)
    assert lower > 0.1
    # the witness respects the operator-norm ball
    assert np.linalg.eigvalsh(W)[-1] <= 1 + 1e-9
    assert np.linalg.eigvalsh(W)[0] >= -1 - 1e-9
    # bound must not exceed the true distance to the smaller SPS set
    true_dist, _ = magic.distance_to_sps(rho, 1, 2)
    assert lower <= true_dist + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_sm_distinguishing_bound(seed):
    q, n = 2, 1
    rho = dense.density_of(random_state(q, n, seed))
    sigma = dense.density_of(random_state(q, n, seed + 100))
    P, dist = magic.sm_distinguishing_pauli(rho, sigma, q, n)
    assert dist >= dense.trace_distance(rho, sigma) / q ** n - 1e-9
    assert dist <= dense.trace_distance(rho, sigma) + 1e-9


def test_fsm_upper_from_distance():
    assert abs(magic.fsm_upper_from_distance(0.0, 2) - 1.0) < 1e-12
    assert abs(
        magic.fsm_upper_from_distance(2.0, 2) - math.sqrt(1 - 4 / 16)
    ) < 1e-12
    with pytest.raises(ValueError):
        magic.fsm_upper_from_distance(3.0, 2)
    with pytest.raises(ValueError):
        magic.fsm_upper_from_distance(0.5, 1)


def test_certify_product_lf():
    cert = magic.certify_product_lf([(1.0, 2), (1.0, 2)])
    single = magic.certify_product_lf([(1.0, 2)])
    assert abs(cert.bound - 2 * single.bound) < 1e-12
    f = magic.fsm_upper_from_distance(1.0, 2)
    assert abs(single.bound - math.log2(1 / f ** 2)) < 1e-12
    with pytest.raises(ValueError):
        magic.certify_product_lf([(1.0, 2)], target="X")


def test_extensive_rel_entropy_bound():
    val = magic.extensive_rel_entropy_bound([(1.0, 2), (0.5, 4)])
    expected = (1.0 / 8.0 + 0.25 / 32.0) / math.log(2)
    assert abs(val - expected) < 1e-12
    with pytest.raises(ValueError):
        magic.extensive_rel_entropy_bound([(3.0, 2)])


def test_low_energy_lr_witness():
    psi = t_state()
    f_l = 2 ** (-T_LF)
    # perfect overlap recovers log(1/f)
    assert abs(magic.low_energy_lr_witness(psi, psi, f_l) - T_LF) < 1e-10
    # orthogonal approximation gives the trivial bound
    perp = np.array([-psi[1].conj(), psi[0].conj()])
    assert magic.low_energy_lr_witness(perp, psi, f_l) == 0.0
    with pytest.raises(ValueError):
        magic.low_energy_lr_witness(psi, psi, 0.0)


def test_magic_report_selection(dic12):
    rho = dense.density_of(t_state())
    rep = magic.magic_report(rho, dic12, measures=("lf", "lr"))
    assert rep.lf is not None and rep.lr is not None
    assert rep.s_rel is None and rep.s_max_set is None and rep.lgr is None
    assert abs(rep.lf.value - T_LF) < 1e-9
    assert abs(rep.lr.value - 0.5) < 1e-8
    # mixed input: lf, smax and lgr are skipped
    rep2 = magic.magic_report(np.eye(2) / 2, dic12, measures=("lf", "smax", "lgr"))
    assert rep2.lf is None and rep2.s_max_set is None and rep2.lgr is None
