import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from quditmagic import dense, magic, pauli, stabilizer
from quditmagic.config import BudgetExceeded, RunConfig

import dense_oracles


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


def test_dictionary_holds_each_state_once():
    # vectors is a view of matrix, and lf_pure's witness is a copy: editing
    # it leaves the dictionary as it was
    dic = magic.build_dictionary(1, 2, RunConfig())
    assert np.shares_memory(dic.vectors, dic.matrix)
    before = dic.matrix.copy()
    _, witness = magic.lf_pure(t_state(), dic)
    witness[:] = 0.0
    assert np.array_equal(dic.matrix, before)
    assert np.array_equal(dic.vectors, before.T)


def row_labels(q, n):
    """The labels of lr_lp's rows, in itertools.product order: Re rows for
    P = P^dag and for the first of each pair P, P^dag, then Im rows for the
    first of each pair."""
    labels = list(itertools.product(range(q), repeat=2 * n))
    position = {x: i for i, x in enumerate(labels)}
    adjoint = [position[tuple(-v % q for v in x)] for x in labels]
    return ([x for i, x in enumerate(labels) if i <= adjoint[i]],
            [x for i, x in enumerate(labels) if i < adjoint[i]])


def omega_ab(x, q, n):
    """omega_{2q}^{a.b} for the label x = (a, b)."""
    return np.exp(1j * np.pi * sum(x[j] * x[n + j] for j in range(n)) / q)


def reference_witness(y, q, n):
    """The dual witness of y in lr_lp's rows, from dense Paulis: the
    Hermitian part of sum_P omega_{2q}^{a.b} (y_re + i y_im)_P P."""
    re, im = row_labels(q, n)
    terms = list(zip(re, y[:len(re)])) + list(zip(im, 1j * y[len(re):]))
    A = sum(w * omega_ab(x, q, n) * dense_oracles.to_dense(pauli.label(q, n, x[:n], x[n:]))
            for x, w in terms)
    return (A + A.conj().T) / 2


def check_lr_certificate(rho, dic, res):
    # the signed decomposition reproduces rho at cost equal to the optimum
    acc = sum(c * np.outer(v, v.conj()) for c, v in zip(res.coeffs, dic.vectors))
    assert np.allclose(acc, rho, atol=1e-9)
    assert abs(np.sum(np.abs(res.coeffs)) - res.optimum) < 1e-9
    # the dual witness is feasible on every dictionary state and attains it
    A = reference_witness(res.dual, dic.q, dic.n)
    for v in dic.vectors:
        assert abs(np.real(np.vdot(v, A @ v))) <= 1.0 + 1e-9
    assert abs(np.real(np.trace(A @ rho)) - res.optimum) < 1e-9
    assert res.lr.gap < 1e-9


def test_lr_known_value(dic12):
    rho = dense.density_of(t_state())
    res = magic.lr_lp(rho, dic12)
    assert abs(res.lr.value - 0.5) < 1e-8
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
        assert abs(res.lr.value - value) < 1e-9


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
    # the bracket on 1 + 2R runs from the scaled dual to the primal, so a
    # primal value off by 1e-3 shows as log2((opt + 1e-3) / opt) bits
    solve = magic.simplex.solve_lp

    def shifted(A, b, c):
        sol = solve(A, b, c)
        sol.value += 1e-3
        return sol

    monkeypatch.setattr(magic.simplex, "solve_lp", shifted)
    res = magic.lr_lp(dense.density_of(t_state()), dic12)
    opt = math.sqrt(2)
    assert abs(res.lr.gap - math.log2((opt + 1e-3) / opt)) < 1e-9
    assert res.lr.status == magic.STATUS_UPPER


def reference_rows(T, q, n):
    """The LP rows of a Pauli transform T on axes (a, b): Re of
    omega_{2q}^{-a.b} T_P at row_labels' Re labels, then Im at its Im labels."""
    re, im = row_labels(q, n)
    return np.array([(T[x] / omega_ab(x, q, n)).real for x in re]
                    + [(T[x] / omega_ab(x, q, n)).imag for x in im])


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (1, 6), (2, 2), (2, 3)])
def test_lr_columns_match_dense_pauli_transforms(n, q):
    # column k holds the rows of phi_k phi_k^dag's dense Pauli transform,
    # which is nonzero at the d labels of its group only; the column keeps
    # a nonzero for each of those labels at most, and exact zeros elsewhere
    dic = magic.build_dictionary(n, q, RunConfig())
    d = q ** n
    H = dic.pauli_lp[0]
    assert H.shape == (d * d, len(dic.vectors))
    assert np.all(H.value != 0)   # no exact zero is stored
    H = scipy.sparse.csc_array((H.value, H.index, H.start), shape=H.shape)
    for k, v in enumerate(dic.vectors):
        column = H[:, [k]].toarray().ravel()
        T = magic._pauli_transform(np.outer(v, v.conj()), q, n)
        assert np.count_nonzero(np.abs(T) > 1e-12) == d
        assert np.abs(np.abs(T.flat[dic.labels[k]]) - 1.0).max() < 1e-12
        ref = reference_rows(T, q, n)
        assert np.abs(column - ref).max() < 1e-12
        assert np.array_equal(np.flatnonzero(column), np.flatnonzero(np.abs(ref) > 1e-12))
        assert np.count_nonzero(column) <= d


def test_split_lp_holds_no_dense_matrix():
    # H is built by columns from the element table: building [H, -H] at
    # (2,4) peaks below one float64 d^2 x K array (4.95 MB), where the
    # dense construction peaked at 25 MB
    n, q = 2, 4
    dic = magic.build_dictionary(n, q, RunConfig())
    tracemalloc.start()
    try:
        dic.split_lp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d, K = q ** n, len(dic.vectors)
    assert peak < 8 * d * d * K


def test_lr_zero_on_hull(dic12):
    rho = np.eye(2) / 2
    res = magic.lr_lp(rho, dic12)
    assert abs(res.lr.value) < 1e-9


def hull_state(dic, weights):
    return sum(w * np.outer(v, v.conj()) for w, v in zip(weights, dic.vectors))


def test_cone_exact_on_t_state(dic12):
    rho = dense.density_of(t_state())
    res = magic.smax_lgr_pure(t_state(), dic12)
    assert res.s_max_set.gap <= 1e-6 and res.lgr.gap <= 1e-6
    # the returned mixture dominates rho with the reported lambda
    sigma = hull_state(dic12, res.weights)
    assert np.linalg.eigvalsh(res.lam * sigma - rho)[0] >= -1e-7
    # independent check of the upper value
    assert abs(dense_oracles.max_relative_entropy(rho, sigma) - res.s_max_set.value) < 1e-8
    assert abs(res.lgr.value - math.log2(2 * res.lam - 1)) < 1e-12
    assert res.lgr.value <= res.s_max_set.value * 2 + 1e-12


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
    assert abs(a.s_max_set.value - b.s_max_set.value) < 1e-8
    assert abs(a.lgr.value - b.lgr.value) < 1e-8
    stab = np.kron(np.array([1, 1j]) / math.sqrt(2), np.array([1, 0]))
    c = magic.smax_lgr_pure(stab.astype(complex), dic22)
    assert abs(c.s_max_set.value) < 1e-6 and abs(c.lgr.value) < 1e-6


def test_smax_equals_stabilizer_extent_literals(dic12):
    # for pure states lam is the stabilizer extent: xi(T) = 1/cos^2(pi/8),
    # multiplicative on single-qubit products (Bravyi et al., Quantum 3, 181
    # (2019))
    c2 = math.cos(math.pi / 8) ** 2
    assert abs(magic.smax_lgr_pure(t_state(), dic12).lam - 1 / c2) < 1e-12
    dic22 = magic.build_dictionary(2, 2, RunConfig())
    tt = np.kron(t_state(), t_state())
    assert abs(magic.smax_lgr_pure(tt, dic22).lam - 1 / c2 ** 2) < 1e-12


def bracketed_root(slope, t_max):
    """The exact line search by root finding, as the engine once did it: the
    root of the slope bracketed on [0, t_max], t_max when the slope is still
    negative there, None when it is not negative at 0."""
    if slope(t_max) <= 0.0:
        return t_max
    try:
        return scipy.optimize.brentq(slope, 0.0, t_max, xtol=1e-15, rtol=1e-15)
    except ValueError:
        return None


def smax_slope(sigma, psi, D):
    """d/dt psi^dag sigma(t)^-1 psi along sigma(t) = sigma + tD, from a
    floored eigendecomposition of sigma(t)."""
    def slope(t):
        ws, vs = np.linalg.eigh(sigma + t * D)
        x = vs @ ((vs.conj().T @ psi) / np.clip(ws, magic.EIG_FLOOR, None))
        return -float(np.real(np.vdot(x, D @ x)))
    return slope


def rel_entropy_gradient(rho, sigma):
    """G with d/dt S(rho || sigma + tH) = Tr(G H): plain divided differences
    of log in sigma's eigenbasis, as the engine once computed them."""
    ws, vs = np.linalg.eigh(sigma)
    ws = np.clip(ws, magic.EIG_FLOOR, None)
    rho_t = vs.conj().T @ rho @ vs
    lw = np.log(ws)
    denom = ws[:, None] - ws[None, :]
    num = lw[:, None] - lw[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kmat = np.where(np.abs(denom) > 1e-14, num / denom, 1.0 / ws[:, None])
    return vs @ (-kmat * rho_t) @ vs.conj().T


def random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def line_search_case(d, seed, kind, frac):
    """(sigma, phi, D, t_max) for one step kind of the engine: toward phi,
    away from phi, or pairwise from chi to phi.  sigma is a full-rank
    mixture of random projectors; the away and pairwise steps need their
    atom in it with weight w, and may then run up to w / (1 - w) and w.  A
    "drop" is an away step from a sigma made of d atoms, which leaves sigma
    singular at t = w / (1 - w)."""
    rng = np.random.default_rng(seed)
    count = d - 1 if kind == "drop" else d + 2
    vecs = [random_unit(rng, d) for _ in range(count)]
    sigma = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.uniform(0.1, 1.0, count), vecs))
    sigma /= np.trace(sigma).real
    phi = random_unit(rng, d)
    P = np.outer(phi, phi.conj())
    if kind == "toward":
        return sigma, phi, P - sigma, frac
    w = rng.uniform(0.05, 0.95)
    if kind in ("away", "drop"):
        sigma = w * P + (1.0 - w) * sigma
        return sigma, phi, sigma - P, frac * w / (1.0 - w)
    chi = random_unit(rng, d)
    sigma = w * np.outer(chi, chi.conj()) + (1.0 - w) * sigma
    return sigma, phi, P - np.outer(chi, chi.conj()), frac * w


def check_against_bracketed_root(got, want, t_max):
    # an interior root is compared on the scale of max(1, t)
    if want is None or want == t_max:
        assert got == want
    else:
        assert got is not None and got != t_max
        assert abs(got - want) <= 1e-12 * max(1.0, want)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.sampled_from(["toward", "away", "pairwise", "drop"]),
    st.booleans(),
    st.floats(min_value=0.05, max_value=1.0),
)
@example(3, 0, "toward", True, 1.0)     # phi = psi: f falls all the way to a singular sigma
@example(3, 0, "away", True, 1.0)       # phi = psi away: no descent
@example(3, 0, "toward", False, 0.05)   # the root lies beyond t_max
@example(3, 5, "toward", False, 1.0)    # no descent toward phi
@example(3, 5, "away", False, 1.0)      # the away step drops phi
@example(3, 0, "away", False, 1.0)      # an interior away step
@example(3, 0, "pairwise", False, 1.0)  # a pairwise step
@example(3, 0, "drop", False, 1.0)      # sigma turns singular at t_max: a barrier
def test_smax_step_matches_bracketed_root(d, seed, kind, parallel, frac):
    sigma, phi, D, t_max = line_search_case(d, seed, kind, frac)
    psi = phi.copy() if parallel else random_unit(np.random.default_rng(seed + 1), d)
    slope = smax_slope(sigma, psi, D)
    got = magic._line_search(magic._Smax(psi, sigma).along(D), t_max, slope(0.0))
    check_against_bracketed_root(got, bracketed_root(slope, t_max), t_max)


@pytest.mark.parametrize("leak", [1e-2, 1e-4, 1e-6])
def test_smax_step_stops_at_a_barrier(leak):
    # dropping phi leaves sigma singular on a direction n that psi touches
    # only by `leak`: f falls almost all the way, then rises to infinity
    # just before t_max
    d = 3
    sigma, phi, D, t_max = line_search_case(d, 4, "drop", 1.0)
    rest = sigma + t_max * D   # the mixture without phi, of rank d - 1
    _, v = np.linalg.eigh(rest)
    psi = v[:, -1] + leak * v[:, 0]
    psi /= np.linalg.norm(psi)
    slope = smax_slope(sigma, psi, D)
    got = magic._line_search(magic._Smax(psi, sigma).along(D), t_max, slope(0.0))
    want = bracketed_root(slope, t_max)
    assert want is not None and want < t_max
    check_against_bracketed_root(got, want, t_max)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
    st.sampled_from(["toward", "away", "pairwise", "drop"]),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=1.0),
)
@example(3, 0, "toward", 1, 1.0)
@example(3, 0, "toward", 1, 0.05)
@example(3, 0, "away", 2, 1.0)
@example(3, 0, "pairwise", 3, 1.0)
@example(3, 0, "drop", 1, 1.0)
def test_rel_entropy_step_matches_bracketed_root(d, seed, kind, rank, frac):
    sigma, phi, D, t_max = line_search_case(d, seed, kind, frac)
    rng = np.random.default_rng(seed + 1)
    vecs = [random_unit(rng, d) for _ in range(rank)]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.uniform(0.1, 1.0, rank), vecs))
    rho /= np.trace(rho).real

    def slope(t):
        return float(np.vdot(D, rel_entropy_gradient(rho, sigma + t * D)).real)

    got = magic._line_search(magic._RelEntropy(rho, sigma).along(D), t_max, slope(0.0))
    check_against_bracketed_root(got, bracketed_root(slope, t_max), t_max)


@pytest.mark.parametrize("a,b,eps", [(1.0, 0.5, 1e-3), (0.3, 0.7, 1e-12), (1e-3, 5.0, 1e-9)])
def test_line_search_exact_on_quadratic_and_log_barrier(a, b, eps):
    # f = b t + a (t - 1)^2 has a linear slope, f = b t - a log(t + eps) a
    # slope whose secant steps on f'/sqrt(f'') are exact; Newton on the
    # barrier's slope would only double t + eps per probe
    def quadratic(t):
        return b + 2 * a * (t - 1.0), 2 * a, 0.0

    def barrier(t):
        return b - a / (t + eps), a / (t + eps) ** 2, 0.0

    for probe, root in ((quadratic, 1.0 - b / (2 * a)), (barrier, a / b - eps)):
        if root <= 0.0:
            assert magic._line_search(probe, 10.0, probe(0.0)[0]) is None
            continue
        probes = []
        t = magic._line_search(lambda t: probes.append(t) or probe(t), 10.0, probe(0.0)[0])
        assert abs(t - root) <= 1e-12 * root
        assert len(probes) <= 4


def test_log_divided_differences_keep_digits():
    # L1 against log1p on nodes whose ratio runs from 1 + 1e-1 to 1 + 1e-15,
    # across the switch between the atanh series and a difference of logs
    for r in [10.0 ** -k for k in range(1, 16)] + [0.0199, 0.0201, 0.02, 2e-8]:
        ws = np.array([0.25, 0.25 * (1 + r)])
        L1, R, D2 = magic._log_differences(ws)
        gap = ws[1] - ws[0]   # exact, as is gap / 0.25
        want = math.log1p(gap / ws[0]) / gap
        assert abs(L1[0, 1] - want) <= 1e-13 * want
        assert L1[0, 1] == L1[1, 0] and L1[0, 0] == 1 / ws[0]


@pytest.mark.parametrize("spread", [0.0, 1e-12, 1e-9, 1e-6, 0.3])
@pytest.mark.parametrize("objective", ["smax", "srel"])
def test_objective_derivatives_agree(objective, spread):
    # scores, Hessian and probe describe one function: the probe's slope and
    # curvature at 0 along D = sum_k delta_k phi_k phi_k^dag are scores . delta
    # and delta^T H delta, and match central differences of the value;
    # spread sets how far sigma's eigenvalues lie apart (0: sigma = I/d)
    d, k = 4, 6
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    ws = 1.0 / d + spread * np.arange(d)
    sigma = (u * (ws / ws.sum())) @ u.conj().T
    Phi = np.column_stack([random_unit(rng, d) for _ in range(k)])
    delta = rng.normal(size=k)
    delta -= delta.mean()
    D = (Phi * delta) @ Phi.conj().T
    psi = random_unit(rng, d)
    if objective == "smax":
        model = functools.partial(magic._Smax, psi)
    else:
        model = functools.partial(magic._RelEntropy, dense.density_of(psi))
    at = model(sigma)
    slope, curv, _ = at.along(D)(0.0)
    assert abs(slope - at.scores(Phi) @ delta) <= 1e-12 * abs(slope)
    assert abs(curv - delta @ at.hessian(Phi) @ delta) <= 1e-10 * curv
    h = 1e-5
    assert abs(slope - (model(sigma + h * D).value - model(sigma - h * D).value) / (2 * h)) \
        <= 1e-6 * abs(slope)
    fd_curv = (at.along(D)(h)[0] - at.along(D)(-h)[0]) / (2 * h)
    assert abs(curv - fd_curv) <= 1e-6 * curv


# (S_max, S_rel) iteration counts of the engine from the computational basis
# start; a change to a step or to the atom rule shows here first.  Ties among
# the scores of symmetric states (T, T x T) are broken by argmin/argmax in
# the last ulp, so a different LAPACK build may move these by a step.
PINNED_ITERATIONS = [
    pytest.param((1, 2), t_state(), 2, 2, id="T"),
    pytest.param((2, 2), np.kron(t_state(), t_state()), 9, 9, id="TxT"),
] + [
    pytest.param((1, 2), random_state(2, 1, seed), smax, srel, id="random%d" % seed)
    for seed, (smax, srel) in enumerate([(5, 3), (4, 2), (5, 4), (3, 1), (3, 2), (5, 3)])
]


@pytest.mark.parametrize("size,psi,smax,srel", PINNED_ITERATIONS)
def test_frank_wolfe_iteration_counts(size, psi, smax, srel, dic12, lr_dics):
    dic = dic12 if size == (1, 2) else lr_dics[size]
    assert magic.smax_lgr_pure(psi, dic).iterations == smax
    assert magic.rel_entropy_magic(dense.density_of(psi), dic).iterations == srel


@pytest.fixture(scope="module")
def convergence_dics(dic12, lr_dics):
    return {(1, 2): dic12, (1, 3): lr_dics[(1, 3)], (2, 2): lr_dics[(2, 2)],
            (2, 3): magic.build_dictionary(2, 3, RunConfig()),
            (3, 2): magic.build_dictionary(3, 2, RunConfig())}


CONVERGENCE_STATES = [
    pytest.param((1, 2), t_state(), id="T"),
    pytest.param((2, 2), np.kron(t_state(), t_state()), id="TxT"),
    pytest.param((2, 2), np.array([1, 1, 1, 1j]) / 2, id="11i1"),
] + [
    pytest.param((n, q), random_state(q, n, seed), id="q%dn%d-seed%d" % (q, n, seed))
    for n, q in [(2, 3), (3, 2)] for seed in (1, 2)
]


@pytest.mark.parametrize("size,psi", CONVERGENCE_STATES)
def test_frank_wolfe_converges(size, psi, convergence_dics):
    # S_max/LGR reach the exact status and S_rel a 1e-10 nat gap, well
    # inside the iteration caps
    dic = convergence_dics[size]
    sm = magic.smax_lgr_pure(psi, dic)
    assert sm.s_max_set.status == magic.STATUS_EXACT
    assert sm.iterations < magic.MAX_ITER
    fw = magic.rel_entropy_magic(dense.density_of(psi), dic)
    assert fw.s_rel.gap * math.log(2) < 1e-10
    assert fw.iterations < 10000


def herm_coords(M):
    """Coordinates of a Hermitian matrix, or of each in a stack, in an
    orthonormal real basis (Tr(A B) = coords.coords): the diagonal, then
    sqrt(2) times (Re, Im) of the upper triangle, row by row."""
    iu = np.triu_indices(M.shape[-1], 1)
    upper = M[..., iu[0], iu[1]]
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(*upper.shape[:-1], -1)
    diag = np.diagonal(M, axis1=-2, axis2=-1).real
    return np.concatenate([diag, math.sqrt(2.0) * pairs], axis=-1)


def highs_ipm_log_optimum(rho, dic):
    """log2 of 1 + 2R from HiGHS's interior-point solver, with crossover, on
    the robustness LP posed in the matrix entries of phi_k phi_k^dag and rho
    rather than lr_lp's Pauli rows.  At HiGHS's default tolerances the
    reference itself can sit 5e-12 off the optimum, past check_lr_bracket's
    slack; at these its residual was 6e-16."""
    Phi = dic.matrix
    H = herm_coords(Phi.T[:, :, None] * Phi.conj().T[:, None, :]).T
    res = scipy.optimize.linprog(np.ones(2 * H.shape[1]), A_eq=np.hstack([H, -H]),
                                 b_eq=herm_coords(rho), bounds=(0, None),
                                 method="highs-ipm",
                                 options={"primal_feasibility_tolerance": 1e-10,
                                          "dual_feasibility_tolerance": 1e-10,
                                          "ipm_optimality_tolerance": 1e-12})
    assert res.status == 0
    return math.log2(res.fun)


def check_lr_bracket(lr, ref):
    # the reference optimum lies in [value - gap, value], up to the primal
    # residual of either solver
    assert lr.value - lr.gap - 1e-12 <= ref <= lr.value + 1e-12


@pytest.mark.parametrize("size,psi", CONVERGENCE_STATES + [
    pytest.param((1, 3), random_state(3, 1, 7), id="q3n1-seed7"),
    # a primal residual of 2.8e-11 on this state puts the upper end 1.1e-11
    # bits below the reference
    pytest.param((2, 3), random_state(3, 2, 3), id="q3n2-seed3")])
def test_brackets_match_independent_references(size, psi, convergence_dics):
    # each reported value is its objective at the returned sigma, evaluated
    # by dense's own formulas, and LR's bracket holds the optimum of a
    # different LP algorithm; every bracket here is exact
    dic = convergence_dics[size]
    rho = dense.density_of(psi)
    fw = magic.rel_entropy_magic(rho, dic)
    assert abs(fw.s_rel.value - dense_oracles.relative_entropy(rho, fw.sigma)) < 1e-12
    sm = magic.smax_lgr_pure(psi, dic)
    sigma = hull_state(dic, sm.weights)
    assert abs(sm.s_max_set.value - dense_oracles.max_relative_entropy(rho, sigma)) < 1e-12
    lr = magic.lr_lp(rho, dic).lr
    check_lr_bracket(lr, highs_ipm_log_optimum(rho, dic))
    for mv in (fw.s_rel, sm.s_max_set, sm.lgr, lr):
        assert mv.status == magic.STATUS_EXACT


@pytest.mark.parametrize("seed", [1, 4])
def test_lr_exact_despite_dual_overshoot(seed):
    # at (n, q) = (2, 4) the dual simplex returns a dual witness that
    # overshoots feasibility by ~2e-9; scaled to feasibility it certified
    # 1 + 2R only to 2.9e-9 (seed 1) and 1.5e-9 (seed 4) bits, while the
    # dual moved onto the optimal atoms' constraints closes the bracket
    dic = magic.build_dictionary(2, 4, RunConfig())
    rho = dense.density_of(random_state(4, 2, seed))
    lr = magic.lr_lp(rho, dic).lr
    assert lr.status == magic.STATUS_EXACT
    check_lr_bracket(lr, highs_ipm_log_optimum(rho, dic))


def test_smax_converges_on_q6_state():
    # this (6,1) state ran into the 10,000-iteration cap of the away-step
    # engine, with an S_max gap of 2.2e-10
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 4, 4, 5):
        rng.normal(size=d)
        rng.normal(size=d)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    res = magic.smax_lgr_pure(psi, magic.build_dictionary(1, 6, RunConfig()))
    assert res.s_max_set.status == magic.STATUS_EXACT
    assert res.iterations < 100
    assert abs(res.lam - 2.25361181770673) < 1e-12


def test_smax_leaves_a_singular_face(convergence_dics):
    # a superposition of two stabilizer states, whose optimal sigma is
    # singular: exact drops leave sigma singular on directions the optimum
    # needs, where single atoms cannot enter; without the reseed the run
    # ends at the cap with lambda 3.04 instead of 2.05
    dic = convergence_dics[(2, 3)]
    psi = (-1.07 - 0.02j) * dic.vectors[172] + (0.91 - 1.25j) * dic.vectors[68]
    psi /= np.linalg.norm(psi)
    res = magic.smax_lgr_pure(psi, dic)
    assert res.s_max_set.status == magic.STATUS_EXACT
    assert res.iterations < 200
    assert abs(res.lam - 2.053846839968931) < 1e-12


@pytest.mark.parametrize("n,q,s", [(1, 6, 28), (2, 3, 30), (1, 6, 36)])
def test_magic_report_exact_after_reseed(n, q, s, convergence_dics):
    # sparse superpositions of 2 or 3 dictionary states whose S_max run
    # stalls on a singular face and is reseeded; without the reseed S_max
    # and LGR end upper-estimate at the iteration cap
    dic = convergence_dics.get((n, q)) or magic.build_dictionary(n, q)
    K = dic.matrix.shape[1]
    rng = np.random.default_rng(1000 * q + s)
    k = int(rng.integers(2, 4))
    atoms = rng.choice(K, k, replace=False)
    psi = dic.matrix[:, atoms] @ (rng.normal(size=k) + 1j * rng.normal(size=k))
    psi /= np.linalg.norm(psi)
    rep = magic.magic_report(dense.density_of(psi), dic)
    for m in (rep.lf, rep.s_rel, rep.s_max_set, rep.lgr, rep.lr):
        assert m.status == magic.STATUS_EXACT


def test_rel_entropy_t_state(dic12):
    rho = dense.density_of(t_state())
    res = magic.rel_entropy_magic(rho, dic12)
    assert res.s_rel.status == magic.STATUS_EXACT
    assert res.s_rel.gap < 1e-5
    # known optimum for the single-qubit T state
    assert abs(res.s_rel.value - T_LF) < 1e-4
    # sigma stays a state
    assert abs(np.trace(res.sigma) - 1) < 1e-8
    assert np.linalg.eigvalsh(res.sigma)[0] > -1e-10


@pytest.mark.parametrize("seed", range(6))
def test_monotone_chain_random_states(seed, dic12):
    psi = random_state(2, 1, seed)
    rho = dense.density_of(psi)
    lf, _ = magic.lf_pure(psi, dic12)
    fw = magic.rel_entropy_magic(rho, dic12).s_rel
    sm = magic.smax_lgr_pure(psi, dic12)
    lr = magic.lr_lp(rho, dic12).lr
    tol = 1e-5
    assert sm.s_max_set.gap <= 1e-6 and sm.lgr.gap <= 1e-6
    assert lf <= fw.value + tol
    assert fw.value - fw.gap <= sm.s_max_set.value + tol
    assert sm.s_max_set.value <= sm.lgr.value + tol
    assert sm.lgr.value <= lr.value + tol


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


@pytest.mark.parametrize("seed", range(5))
def test_sm_distinguishing_bound(seed):
    q, n = 2, 1
    rho = dense.density_of(random_state(q, n, seed))
    sigma = dense.density_of(random_state(q, n, seed + 100))
    P, dist = magic.sm_distinguishing_pauli(rho, sigma, q, n)
    assert dist >= dense.trace_distance(rho, sigma) / q ** n - 1e-9
    assert dist <= dense.trace_distance(rho, sigma) + 1e-9


def dense_sm_distinguishing_pauli(rho, sigma, q, n):
    # reference: scan every dense Pauli, then build the winner's spectral
    # projectors from its dense powers
    delta_mat = rho - sigma
    best = None
    best_val = -1.0
    for ab in itertools.product(range(q), repeat=2 * n):
        P = pauli.label(q, n, ab[:n], ab[n:], 0)
        val = abs(np.trace(dense_oracles.to_dense(P).conj().T @ delta_mat))
        if val > best_val + 1e-12:
            best_val = val
            best = P
    order = pauli.order(best)
    top = pauli.power(best, order)
    dim = q ** n
    powers = [dense_oracles.to_dense(pauli.power(best, m)) for m in range(order)]
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


def random_density(q, n, rng):
    G = rng.normal(size=(q ** n, q ** n)) + 1j * rng.normal(size=(q ** n, q ** n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (6, 1), (2, 3)])
def test_sm_distinguishing_pauli_matches_dense_reference(q, n):
    rng = np.random.default_rng(100 * q + n)
    for _ in range(4):
        rho, sigma = random_density(q, n, rng), random_density(q, n, rng)

        def overlap(P):
            return abs(np.trace(dense_oracles.to_dense(P).conj().T @ (rho - sigma)))

        P, dist = magic.sm_distinguishing_pauli(rho, sigma, q, n)
        P_ref, dist_ref = dense_sm_distinguishing_pauli(rho, sigma, q, n)
        assert P == P_ref or abs(overlap(P) - overlap(P_ref)) < 1e-12
        assert abs(dist - dist_ref) < 1e-12


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3)])
def test_pauli_transform_matches_dense_traces(q, n):
    # every label's Tr(P^dag M), for an M that is not Hermitian
    rng = np.random.default_rng(q + n)
    M = rng.normal(size=(q ** n, q ** n)) + 1j * rng.normal(size=(q ** n, q ** n))
    T = magic._pauli_transform(M, q, n)
    assert T.shape == (q,) * (2 * n)
    for ab in itertools.product(range(q), repeat=2 * n):
        P = pauli.label(q, n, ab[:n], ab[n:], 0)
        assert abs(T[ab] - np.trace(dense_oracles.to_dense(P).conj().T @ M)) < 1e-12


def test_sm_distinguishing_pauli_checks_its_input():
    rho = np.eye(8) / 8
    with pytest.raises(ValueError):
        magic.sm_distinguishing_pauli(rho, rho, 2, 2)
    with pytest.raises(BudgetExceeded):
        magic.sm_distinguishing_pauli(np.eye(4) / 4, np.eye(4) / 4, 2, 2,
                                      RunConfig(dense_limit=3))


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


def shared_start_states():
    t, tt = t_state(), np.kron(t_state(), t_state())
    return [
        pytest.param((1, 2), dense.density_of(t), id="T"),
        pytest.param((2, 2), dense.density_of(tt), id="TxT"),
        pytest.param((2, 2), dense.density_of(np.array([1, 1, 1, 1j]) / 2), id="11i1"),
        pytest.param((2, 2), dense.density_of(np.array([1, 0, 0, 1]) / math.sqrt(2)),
                     id="stabilizer"),
        pytest.param((2, 2), 0.8 * dense.density_of(tt) + 0.05 * np.eye(4), id="TxT-depolarized"),
    ]


@pytest.mark.parametrize("measures", [magic.ALL_MEASURES, ("srel", "smax", "lgr"), ("srel", "lr")],
                         ids=["all", "srel-smax-lgr", "srel-lr"])
@pytest.mark.parametrize("size,rho", shared_start_states())
def test_magic_report_shared_start_matches_cold_solvers(size, rho, measures, dic12, lr_dics):
    # each Frank-Wolfe run of the report starts where the last one ended;
    # the standalone solvers start on the computational basis, and both
    # reach the same statuses and the same values within their gaps
    dic = dic12 if size == (1, 2) else lr_dics[size]
    rep = magic.magic_report(rho, dic, measures)
    w, v = np.linalg.eigh(rho)
    psi = v[:, -1] if w[-1] > 1.0 - 1e-10 else None
    cold = {"srel": magic.rel_entropy_magic(rho, dic).s_rel}
    if "lr" in measures:
        cold["lr"] = magic.lr_lp(rho, dic).lr
    if psi is not None:
        sm = magic.smax_lgr_pure(psi, dic)
        cold["smax"], cold["lgr"] = sm.s_max_set, sm.lgr
        if "lf" in measures:
            cold["lf"] = magic.MeasureValue(magic.lf_pure(psi, dic)[0], magic.STATUS_EXACT, 0.0)
    got = {"lf": rep.lf, "srel": rep.s_rel, "smax": rep.s_max_set, "lgr": rep.lgr, "lr": rep.lr}
    assert {k for k, mv in got.items() if mv is not None} == set(cold) & set(measures)
    for name in set(cold) & set(measures):
        mv, ref = got[name], cold[name]
        assert mv.status == ref.status, name
        assert abs(mv.value - ref.value) <= max(mv.gap, ref.gap, 1e-12), name


def test_shared_start_saves_iterations(lr_dics):
    # on T x T the S_max optimum is already S_rel's to within GAP_TOL, and
    # LR's positive part is three S_max iterations away from it; both cold
    # runs take 9 (test_frank_wolfe_iteration_counts)
    dic = lr_dics[(2, 2)]
    psi = np.kron(t_state(), t_state())
    rho = dense.density_of(psi)
    start = np.clip(magic.lr_lp(rho, dic).coeffs, 0.0, None)
    sm = magic.smax_lgr_pure(psi, dic, start=start)
    assert sm.iterations == 3
    assert sm.s_max_set.status == magic.STATUS_EXACT
    fw = magic.rel_entropy_magic(rho, dic, start=magic.smax_lgr_pure(psi, dic).weights)
    assert fw.iterations == 0
    assert fw.s_rel.status == magic.STATUS_EXACT


def test_rel_entropy_step_probes_each_point_once():
    # the search never probes a point twice, and the secant steps on
    # f'/sqrt(f'') take few probes
    rho = dense.density_of(t_state())
    sigma = np.eye(2, dtype=complex) / 2
    phi = np.array([1.0, 0.0], dtype=complex)
    probe = magic._RelEntropy(rho, sigma).along(np.outer(phi, phi.conj()) - sigma)
    probes = []

    def counting(t):
        probes.append(t)
        return probe(t)

    t = magic._line_search(counting, 0.9, probe(0.0)[0])
    # sigma + t|0><0| - t sigma has diagonal (1 + t, 1 - t)/2, which matches
    # rho's diagonal (1 + cos(pi/4), 1 - cos(pi/4))/2 at the minimum
    assert abs(t - math.cos(math.pi / 4)) < 1e-12
    assert len(probes) == len(set(probes)) <= 6
