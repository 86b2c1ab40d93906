import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmagic import linalg, magic, pauli, stabilizer, toric
from quditmagic.config import RunConfig, BudgetExceeded

import dense_oracles


def lbl(q, n, a, b, c=0):
    return pauli.label(q, n, a, b, c)


def test_validate_rejects_noncommuting():
    Z = lbl(2, 1, [1], [0])
    X = lbl(2, 1, [0], [1])
    with pytest.raises(stabilizer.NonCommutingPair) as err:
        stabilizer.validate([Z, X])
    assert err.value.pair == (0, 1)


def test_validate_rejects_inconsistent_phase():
    # -I presented as a generator: Z with phase -1 squared gives -I = I phase clash
    bad = lbl(2, 1, [0], [0], 1)  # omega_4 * I, relation 1*g = identity vector
    with pytest.raises(stabilizer.InconsistentPhase):
        stabilizer.validate([bad])
    # Z and -Z together force a phase contradiction
    with pytest.raises(stabilizer.InconsistentPhase):
        stabilizer.validate([lbl(2, 1, [1], [0], 0), lbl(2, 1, [1], [0], 2)])


@pytest.mark.parametrize("q,accepted", [(2, {1, 3}), (3, {0, 2, 4})])
def test_relations_include_q_multiples(q, accepted):
    # ZX has no relation below its q-th power, so only the relation lattice's
    # q*Z rows decide its phase: (omega_{2q}^c ZX)^q must be exactly I
    for c in range(2 * q):
        g = lbl(q, 1, [1], [1], c)
        if c in accepted:
            assert stabilizer.validate([g]).order == q
        else:
            with pytest.raises(stabilizer.InconsistentPhase):
                stabilizer.validate([g])


def test_validate_order_and_key():
    S = stabilizer.validate([lbl(2, 2, [1, 1], [0, 0]), lbl(2, 2, [0, 0], [1, 1])])
    assert S.order == 4
    S2 = stabilizer.validate(
        [lbl(2, 2, [1, 1], [0, 0]), lbl(2, 2, [0, 0], [1, 1]), lbl(2, 2, [1, 1], [1, 1], 0)]
    )
    assert S2.key == S.key and S2.order == 4


def test_product_label_matches_dense():
    gens = [lbl(3, 1, [1], [0]), lbl(3, 1, [0], [1])]
    # not a stabilizer tableau, but product_label is pure Pauli arithmetic
    P = stabilizer.product_label(gens, [2, 1])
    G0, G1 = (dense_oracles.to_dense(g) for g in gens)
    dense = np.linalg.matrix_power(G0, 2) @ G1
    assert np.allclose(dense_oracles.to_dense(P), dense, atol=1e-10)


def _fold_compose(P, Q):
    # the label-based composition product_label's closed form replaced
    cross = sum(aq * bp for aq, bp in zip(Q.a, P.b))
    return pauli.label(
        P.q, P.n,
        [x + y for x, y in zip(P.a, Q.a)],
        [x + y for x, y in zip(P.b, Q.b)],
        P.c + Q.c - 2 * cross,
    )


def _fold_power(P, m):
    ab = sum(x * y for x, y in zip(P.a, P.b))
    if m < 0:
        inv = pauli.label(P.q, P.n, [-x for x in P.a], [-x for x in P.b], -P.c - 2 * ab)
        return _fold_power(inv, -m)
    return pauli.label(P.q, P.n, [m * x for x in P.a], [m * x for x in P.b],
                       m * P.c - ab * m * (m - 1))


def _fold_product(gens, coeffs):
    out = dense_oracles.identity_label(gens[0].q, gens[0].n)
    for g, x in zip(gens, coeffs):
        if x % (2 * g.q):
            out = _fold_compose(out, _fold_power(g, x))
    return out


@st.composite
def _product_inputs(draw):
    """1-5 labels on (q, n), q in 2..12 and n in 1..4, that need not commute,
    with coefficients in [-3q, 3q] that often are multiples of 2q."""
    q = draw(st.integers(2, 12))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    gens = [
        pauli.label(
            q, n,
            draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
            draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)),
            draw(st.integers(0, 2 * q - 1)),
        )
        for _ in range(k)
    ]
    coeff = st.one_of(st.integers(-3 * q, 3 * q), st.sampled_from([-2 * q, 0, 2 * q]))
    return gens, draw(st.lists(coeff, min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(_product_inputs())
def test_product_label_matches_label_fold(inputs):
    gens, coeffs = inputs
    P = stabilizer.product_label(gens, coeffs)
    assert P == _fold_product(gens, coeffs)
    # the same fold through pauli.compose and pauli.power
    out = dense_oracles.identity_label(gens[0].q, gens[0].n)
    for g, x in zip(gens, coeffs):
        out = pauli.compose(out, pauli.power(g, x))
    assert out == P
    if P.q ** P.n <= 64:
        dense = np.eye(P.q ** P.n, dtype=complex)
        for g, x in zip(gens, coeffs):
            M = dense_oracles.to_dense(g)
            dense = dense @ np.linalg.matrix_power(M if x >= 0 else M.conj().T, abs(x))
        assert np.allclose(dense_oracles.to_dense(P), dense, atol=1e-8)


def test_product_label_is_2q_periodic():
    gens = [lbl(4, 2, [1, 3], [2, 1], 5), lbl(4, 2, [3, 0], [1, 1], 1)]
    for x in itertools.product(range(-8, 9), repeat=2):
        shifted = [x[0] + 8 * 3, x[1] - 8 * 5]
        assert stabilizer.product_label(gens, shifted) == stabilizer.product_label(gens, x)


def test_elements_exactly_once():
    S = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0]), lbl(2, 2, [0, 1], [0, 0])])
    els = list(stabilizer.elements(S))
    assert len(els) == S.order == 4
    assert len({(e.a, e.b, e.c) for e in els}) == 4


def test_independent_generators_product_of_orders():
    gens = [lbl(6, 2, [2, 0], [0, 0]), lbl(6, 2, [0, 3], [0, 0]), lbl(6, 2, [2, 3], [0, 0])]
    S = stabilizer.validate(gens)
    ind = dense_oracles.independent_generators(S)
    prod = 1
    for _, d in ind:
        prod *= d
    assert prod == S.order == 6


def test_membership_verdicts():
    S = stabilizer.validate([lbl(2, 1, [1], [0])])
    assert stabilizer.member(S, lbl(2, 1, [1], [0])) == stabilizer.MEMBER_PHASE_MATCH
    assert stabilizer.member(S, lbl(2, 1, [1], [0], 2)) == stabilizer.MEMBER_UP_TO_PHASE
    assert stabilizer.member(S, lbl(2, 1, [0], [1])) == stabilizer.MEMBER_NO


BELL_GROUP = stabilizer.validate([lbl(2, 2, [1, 1], [0, 0]), lbl(2, 2, [0, 0], [1, 1])])


@pytest.mark.parametrize("S,P", [
    (BELL_GROUP, lbl(3, 2, [1, 1], [0, 0])),
    (BELL_GROUP, lbl(4, 2, [2, 2], [0, 0])),
    (BELL_GROUP, lbl(2, 3, [1, 1, 0], [0, 0, 0])),
    (stabilizer.trivial_group(2, 2), lbl(2, 3, [0, 0, 0], [0, 0, 0], 2)),
])
def test_membership_rejects_other_shapes(S, P):
    # a Pauli on another (q, n) raises instead of reading a verdict off its
    # exponents taken mod the group's q
    with pytest.raises(pauli.ShapeMismatch):
        stabilizer.expectation_exponent(S, P)
    with pytest.raises(pauli.ShapeMismatch):
        stabilizer.member(S, P)


def test_expectation_exponent_matches_dense():
    # stabilizer of (|00> + |11>)/sqrt(2): XX and ZZ
    S = stabilizer.validate([lbl(2, 2, [0, 0], [1, 1]), lbl(2, 2, [1, 1], [0, 0])])
    st = stabilizer.StabilizerProjectionState(S)
    v = stabilizer.sps_vector(st)
    for a0, a1, b0, b1, c in itertools.product(range(2), repeat=5):
        P = lbl(2, 2, [a0, a1], [b0, b1], c)
        e = stabilizer.expectation_exponent(S, P)
        val = np.vdot(v, dense_oracles.to_dense(P) @ v)
        if e is None:
            assert abs(val) < 1e-10
        else:
            assert abs(val - np.exp(1j * np.pi * e / 2)) < 1e-10


def test_sps_dense_projector_properties():
    S = stabilizer.validate([lbl(3, 2, [1, 2], [0, 0]), lbl(3, 2, [0, 0], [1, 1])])
    st = stabilizer.StabilizerProjectionState(S)
    rho = stabilizer.sps_dense(st)
    assert abs(np.trace(rho) - 1) < 1e-10
    assert np.allclose(rho, rho.conj().T, atol=1e-10)
    # rho is a normalized projector of the stated rank
    r = st.rank
    assert np.allclose(rho @ rho, rho / r, atol=1e-10)
    w = np.linalg.eigvalsh(rho)
    assert np.sum(w > 1e-9) == r


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (6, 1), (5, 2)])
def test_sps_dense_matches_kronecker_reference(q, n):
    # sps_dense writes each element's entries column by column; the
    # reference sums the elements' Kronecker-product matrices
    states = list(stabilizer.enumerate_sps(n, q))
    pure = [st for st in states if st.rank == 1]
    mixed = [st for st in states if st.rank > 1]
    for group in (pure, mixed):
        for st in group[::max(1, len(group) // 25)]:
            ref = sum(dense_oracles.to_dense(s) for s in stabilizer.elements(st.group)) / q ** n
            assert np.abs(stabilizer.sps_dense(st) - ref).max() < 1e-14
    with pytest.raises(BudgetExceeded):
        stabilizer.sps_dense(states[0], RunConfig(dense_limit=q ** n - 1))


def test_sps_vector_requires_pure():
    S = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0])])
    with pytest.raises(ValueError):
        stabilizer.sps_vector(stabilizer.StabilizerProjectionState(S))


def check_sps_vector(state):
    v = stabilizer.sps_vector(state)
    assert abs(np.linalg.norm(v) - 1) < 1e-12
    for g in state.group.gens:
        assert np.allclose(pauli.apply_to_state(g, v), v, atol=1e-12)
    assert np.abs(np.outer(v, v.conj()) - stabilizer.sps_dense(state)).max() < 1e-12
    first = v[np.argmax(np.abs(v) > 1e-9)]
    assert first.real > 0 and abs(first.imag) < 1e-15
    return v


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3)])
def test_sps_vector_matches_dense_oracle(n, q):
    for st in stabilizer.enumerate_pure_stabilizer_states(n, q):
        check_sps_vector(st)


def test_sps_vector_support_without_zero():
    # -Z at q = 2 stabilizes |1>, whose support excludes the seed |0>
    S = stabilizer.validate([lbl(2, 1, [1], [0], 2)])
    v = check_sps_vector(stabilizer.StabilizerProjectionState(S))
    assert np.allclose(v, [0, 1])
    # at q = 3, omega^2 Z on site 0 fixes only j_0 = 1, and X on site 1
    # spreads the state over j_1
    S = stabilizer.validate([lbl(3, 2, [1, 0], [0, 0], 4), lbl(3, 2, [0, 0], [0, 1])])
    v = check_sps_vector(stabilizer.StabilizerProjectionState(S))
    assert abs(v[0]) < 1e-12 and abs(v[1]) > 0.5


def reference_elements(S):
    """elements() as a loop: one product_label call per coefficient tuple of
    the independent generators, the last one varying fastest."""
    ind = dense_oracles.independent_generators(S)
    if not ind:
        return [dense_oracles.identity_label(S.q, S.n)]
    gens = [g for g, _ in ind]
    return [stabilizer.product_label(gens, x)
            for x in itertools.product(*(range(d) for _, d in ind))]


def reference_sps_vector(state):
    """sps_vector by projection: a basis state |j> fixed by the diagonal
    elements, projected through every power of every independent generator,
    normalized, and rotated so its first significant amplitude is real."""
    S = state.group
    q, n = S.q, S.n
    combos = linalg.left_kernel_mod([list(g.b) for g in S.gens], q)
    diag = [stabilizer.product_label(S.gens, x) for x in combos]
    j = linalg.solve_right_mod([d.a for d in diag], [-d.c // 2 for d in diag], q)
    v = np.zeros(q ** n, dtype=complex)
    v[sum(x * q ** i for i, x in enumerate(j))] = 1.0
    for g, d in dense_oracles.independent_generators(S):
        v = sum(pauli.apply_to_state(pauli.power(g, m), v) for m in range(d)) / d
    v = v / np.linalg.norm(v)
    idx = int(np.argmax(np.abs(v) > 1e-9))
    return v * (np.conj(v[idx]) / np.abs(v[idx]))


def exact_amplitudes(v, q):
    """The vector with v's support whose amplitudes are the 2q-th roots of
    unity nearest to v's, over sqrt(|support|)."""
    support = np.abs(v) > 1e-9
    k = np.rint(np.angle(v) * q / np.pi)
    return np.where(support, np.exp(1j * np.pi * k / q), 0) / math.sqrt(support.sum())


def check_against_projection(state):
    v = stabilizer.sps_vector(state)
    ref = reference_sps_vector(state)
    assert np.abs(v - ref).max() < 2e-15
    assert np.abs(v - exact_amplitudes(ref, state.group.q)).max() < 1e-15


REFERENCE_SIZES = [(1, 2), (1, 3), (1, 4), (1, 6), (2, 2), (2, 3)]


@pytest.mark.parametrize("n,q", REFERENCE_SIZES)
def test_elements_match_product_label_loop(n, q):
    for st in stabilizer.enumerate_sps(n, q):
        assert list(stabilizer.elements(st.group)) == reference_elements(st.group)
    S = stabilizer.trivial_group(q, n)
    identity = dense_oracles.identity_label(q, n)
    assert list(stabilizer.elements(S)) == reference_elements(S) == [identity]


@pytest.mark.parametrize("n,q", REFERENCE_SIZES + [(2, 4)])
def test_sps_vector_matches_projection(n, q):
    for st in stabilizer.enumerate_pure_stabilizer_states(n, q):
        check_against_projection(st)


@pytest.mark.parametrize("q,lx,ly", [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_toric_ground_vector_matches_projection(q, lx, ly):
    # the ground states whose dense S-matrix oracle the benchmark evaluates
    code = toric.build_toric(q, lx, ly)
    check_against_projection(stabilizer.StabilizerProjectionState(toric.ground_group(code, (0, 0))))


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2), (2, 3)])
def test_dictionary_columns_in_enumeration_order(n, q):
    dic = magic.build_dictionary(n, q, RunConfig())
    refs = [reference_sps_vector(st) for st in stabilizer.enumerate_pure_stabilizer_states(n, q)]
    assert len(dic.vectors) == len(refs)
    assert max(np.abs(v - ref).max() for v, ref in zip(dic.vectors, refs)) < 2e-15


def test_conjugated_group_matches_dense():
    S = stabilizer.validate([lbl(3, 2, [1, 2], [0, 0]), lbl(3, 2, [0, 0], [1, 1])])
    U = lbl(3, 2, [1, 0], [2, 1], 1)
    T = stabilizer.conjugated(S, U)
    assert T.key == S.key and T.order == S.order
    Ud = dense_oracles.to_dense(U)
    for g, h in zip(S.gens, T.gens):
        assert np.allclose(Ud @ dense_oracles.to_dense(g) @ Ud.conj().T, dense_oracles.to_dense(h))
    rho = stabilizer.sps_dense(stabilizer.StabilizerProjectionState(S))
    sigma = stabilizer.sps_dense(stabilizer.StabilizerProjectionState(T))
    assert np.allclose(Ud @ rho @ Ud.conj().T, sigma)


def test_supported_subgroup():
    # Bell pair group: only identity is supported on a single site
    S = stabilizer.validate([lbl(2, 2, [0, 0], [1, 1]), lbl(2, 2, [1, 1], [0, 0])])
    assert stabilizer.supported_subgroup(S, [0]).order == 1
    assert stabilizer.supported_subgroup(S, [0, 1]).order == 4
    # product Z group: each site keeps its own Z
    S2 = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0]), lbl(2, 2, [0, 1], [0, 0])])
    sub = stabilizer.supported_subgroup(S2, [1])
    assert sub.order == 2
    assert stabilizer.member(sub, lbl(2, 2, [0, 1], [0, 0])) == stabilizer.MEMBER_PHASE_MATCH


def _supported_elements(S, region):
    """Oracle: the elements of S whose exponents vanish outside region."""
    outside = [i for i in range(S.n) if i not in region]
    return {
        e for e in stabilizer.elements(S)
        if not any(e.a[i] or e.b[i] for i in outside)
    }


def _groups_for_oracle():
    yield from stabilizer.enumerate_stabilizer_groups(2, 2)
    yield from stabilizer.enumerate_stabilizer_groups(2, 3)
    groups6 = list(stabilizer.enumerate_stabilizer_groups(2, 6))
    rng = np.random.default_rng(2024)
    for idx in sorted(rng.choice(len(groups6), size=300, replace=False)):
        yield groups6[idx]


def test_supported_subgroup_matches_element_oracle():
    # every group at (n,q) = (2,2), (2,3) and a seeded sample at (2,6):
    # the subgroup's elements, phases included, are exactly those of S
    # supported in the region
    count = 0
    for S in _groups_for_oracle():
        for region in ([0], [1], [0, 1]):
            sub = stabilizer.supported_subgroup(S, region)
            els = list(stabilizer.elements(sub))
            assert len(els) == sub.order
            assert set(els) == _supported_elements(S, region)
            assert sub.key == linalg.lattice_key(
                [pauli.symplectic_vector(g) for g in sub.gens], S.q, 2 * S.n
            )
        count += 1
    assert count == 91 + 481 + 300


@pytest.mark.parametrize("q", [2, 3])
def test_expectation_exponent_matches_element_lookup(q):
    paulis = [
        lbl(q, 2, v[:2], v[2:], c)
        for v in itertools.product(range(q), repeat=4)
        for c in range(2 * q)
    ]
    for S in stabilizer.enumerate_stabilizer_groups(2, q):
        phase_of = {(e.a, e.b): e.c for e in stabilizer.elements(S)}
        for P in paulis:
            c = phase_of.get((P.a, P.b))
            expected = None if c is None else (P.c - c) % (2 * q)
            assert stabilizer.expectation_exponent(S, P) == expected


def reference_exponent(S, H, P):
    """expectation_exponent as solve_form on H, the augmented form of S's
    rows, then product_label on the solution."""
    if not S.gens:
        return None if any(P.a) or any(P.b) else P.c
    x = linalg.solve_form(H, pauli.symplectic_vector(P), S.q)
    if x is None:
        return None
    return (P.c - stabilizer.product_label(S.gens, x).c) % (2 * S.q)


def augmented_rows(S):
    return linalg.augmented_form([pauli.symplectic_vector(g) for g in S.gens], S.q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_expectation_exponent_matches_product_label_one_site(q):
    paulis = [lbl(q, 1, [a], [b], c)
              for a in range(q) for b in range(q) for c in range(2 * q)]
    for S in stabilizer.enumerate_stabilizer_groups(1, q):
        H = augmented_rows(S) if S.gens else None
        for P in paulis:
            assert stabilizer.expectation_exponent(S, P) == reference_exponent(S, H, P)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("Lx,Ly", [(2, 2), (2, 3), (3, 3)])
def test_expectation_exponent_matches_product_label_toric(q, Lx, Ly):
    # 10-20 generators: the cross table's i < j terms against product_label's
    # running B_{<j}, on every braid operator and loop of the braiding table,
    # in a sector whose logical generators carry phases, plus non-members
    code = toric.build_toric(q, Lx, Ly)
    lat = code.lattice
    rng = np.random.default_rng(100 * q + 10 * Lx + Ly)
    for sector in ((0, 0), (1, q - 1)):
        braiding = toric._Braiding(lat, toric.smatrix_paths(lat), toric.ground_group(code, sector))
        S = braiding.group
        strings = [braiding._type(toric.AnyonType(a, b))[0] for a in range(q) for b in range(q)]
        ops = [s.l_v for s in strings] + [s.l_w for s in strings]
        ops += [toric._braid_operator(s1, s2) for s1 in strings for s2 in strings]
        n = lat.n_edges
        ops += [lbl(q, n, rng.integers(q, size=n).tolist(), rng.integers(q, size=n).tolist(),
                    int(rng.integers(2 * q))) for _ in range(40)]
        H = augmented_rows(S)
        got = [stabilizer.expectation_exponent(S, P) for P in ops]
        assert got == [reference_exponent(S, H, P) for P in ops]
        assert None not in got[:2 * q * q] and None in got[-40:]


def test_validate_and_expectation_exponent_share_one_form(monkeypatch):
    # one record per lattice: validating the ground group and every braiding
    # query on it build one augmented form on its rows, not one each
    code = toric.build_toric(3, 3, 3)
    lat = code.lattice
    built = []
    augmented_form = linalg.augmented_form
    monkeypatch.setattr(linalg, "augmented_form",
                        lambda A, q: built.append(tuple(map(tuple, A))) or augmented_form(A, q))
    stabilizer._lattice.cache_clear()
    braiding = toric._Braiding(lat, toric.smatrix_paths(lat), toric.ground_group(code))
    S = braiding.group
    strings = [braiding._type(toric.AnyonType(a, b))[0] for a in range(3) for b in range(3)]
    ops = [s.l_v for s in strings] + [s.l_w for s in strings]
    ops += [toric._braid_operator(s1, s2) for s1 in strings for s2 in strings]
    assert None not in [stabilizer.expectation_exponent(S, P) for P in ops]
    assert built.count(stabilizer._rows_key(S.gens)) == 1


def test_supported_subgroup_checks_phases_on_every_call():
    # a valid group with rows (Z0, Z0) is queried first; a hand-built group
    # with the same rows and gens Z0, -Z0 must still be rejected, every time,
    # by supported_subgroup and by validate
    Z0 = lbl(2, 2, [1, 0], [0, 0])
    good = stabilizer.validate([Z0, Z0])
    bad = stabilizer.StabilizerGroup(
        q=2, n=2, gens=(Z0, pauli.phase_shifted(Z0, 2)), order=good.order, key=good.key
    )
    for _ in range(2):
        for region in ([0], [0, 1]):
            assert stabilizer.supported_subgroup(good, region).order == 2
            with pytest.raises(stabilizer.InconsistentPhase):
                stabilizer.supported_subgroup(bad, region)
        assert stabilizer.validate(good.gens).order == 2
        with pytest.raises(stabilizer.InconsistentPhase):
            stabilizer.validate(bad.gens)


def test_supported_subgroup_checks_commutation_on_every_call():
    X0 = lbl(2, 2, [0, 0], [1, 0])
    Z0 = lbl(2, 2, [1, 0], [0, 0])
    bad = stabilizer.StabilizerGroup(q=2, n=2, gens=(X0, Z0), order=4, key=())
    for _ in range(2):
        for region in ([0], [0, 1]):
            with pytest.raises(stabilizer.NonCommutingPair) as err:
                stabilizer.supported_subgroup(bad, region)
            assert err.value.pair == (0, 1)
        with pytest.raises(stabilizer.NonCommutingPair) as err:
            stabilizer.validate(bad.gens)
        assert err.value.pair == (0, 1)


def test_equal_rows_keep_their_own_phases():
    # (Z0, Z1) and (-Z0, Z1) share their exponent rows; queried alternately,
    # each keeps its own generator phases
    Z0 = lbl(2, 2, [1, 0], [0, 0])
    Z1 = lbl(2, 2, [0, 1], [0, 0])
    plus = stabilizer.validate([Z0, Z1])
    minus = stabilizer.validate([pauli.phase_shifted(Z0, 2), Z1])
    for _ in range(2):
        for S, c in ((plus, 0), (minus, 2)):
            assert stabilizer.supported_subgroup(S, [0]).gens == (pauli.phase_shifted(Z0, c),)
            assert stabilizer.supported_subgroup(S, [1]).gens == (Z1,)
            assert stabilizer.supported_subgroup(S, [0, 1]).gens == S.gens
            assert stabilizer.expectation_exponent(S, Z0) == c
            assert stabilizer.expectation_exponent(S, pauli.compose(Z0, Z1)) == c


def _products_supported_subgroup(S, region):
    """supported_subgroup built from the generators themselves: the kernel
    combinations of the outside columns, their products by product_label
    with S's phases, and validate on those products."""
    q, n = S.q, S.n
    cols = [c for i in range(n) if i not in region for c in (i, n + i)]
    rows = [g.a + g.b for g in S.gens]
    if cols:
        kernel = linalg.left_kernel_mod([[r[c] for c in cols] for r in rows], q)
    else:
        kernel = linalg.identity_matrix(len(rows))
    gens = [stabilizer.product_label(S.gens, x) for x in kernel]
    gens = [g for g in gens if any(g.a) or any(g.b)]
    return stabilizer.validate(gens) if gens else stabilizer.trivial_group(q, n)


def _outcome(f, S, region):
    try:
        G = f(S, region)
    except ValueError as exc:
        return type(exc)
    return G.gens, G.order, G.key


@pytest.mark.parametrize(
    "q,rows",
    [
        (4, [((1, 1), (0, 0)), ((0, 0), (2, 2)), ((2, 0), (0, 0))]),  # Z0Z1, X0^2X1^2, Z0^2
        (6, [((1, 1), (0, 0)), ((0, 0), (3, 3)), ((2, 0), (0, 0))]),  # Z0Z1, X0^3X1^3, Z0^2
        (4, [((1, 1), (0, 0)), ((2, 2), (0, 0)), ((0, 0), (2, 2))]),  # dependent: Z0Z1, its square
        (6, [((1, 0), (0, 0)), ((2, 3), (0, 0)), ((0, 3), (0, 0))]),  # dependent: Z0, Z0^2Z1^3, Z1^3
        # dependent, with nonzero base phases: Z0X0, Z1X1, Z0^2X0^2Z1^2X1^2
        (4, [((1, 0), (1, 0)), ((0, 1), (0, 1)), ((2, 2), (2, 2))]),
    ],
)
def test_supported_phase_map_matches_products(q, rows):
    # every phase vector in Z_{2q}^k, consistent or not, on every region:
    # the phase map gives the same generators, or raises the same exception,
    # as building the products with their phases and validating them
    n = 2
    regions = [[], [0], [1], [0, 1]]
    verdicts = {tuple(r): set() for r in regions}
    for phases in itertools.product(range(2 * q), repeat=len(rows)):
        gens = tuple(lbl(q, n, a, b, c) for (a, b), c in zip(rows, phases))
        S = stabilizer.StabilizerGroup(q, n, gens, 0, ())
        for region in regions:
            got = _outcome(stabilizer.supported_subgroup, S, region)
            assert got == _outcome(_products_supported_subgroup, S, region)
            verdicts[tuple(region)].add(got is stabilizer.InconsistentPhase)
    # a relation with R = 0 gives one verdict for every phase vector, so a
    # region with both verdicts rejects some vectors through a nonzero R
    assert any(v == {True, False} for v in verdicts.values())


@pytest.mark.parametrize("q,n", [(2, 1), (3, 2), (6, 2), (4, 3)])
def test_trivial_group_key(q, n):
    T = stabilizer.trivial_group(q, n)
    assert T.order == 1 and T.gens == ()
    assert T.key == linalg.lattice_key([], q, 2 * n)


def test_locally_generated_and_commutant():
    S = stabilizer.validate(
        [lbl(2, 3, [1, 1, 0], [0, 0, 0]), lbl(2, 3, [0, 1, 1], [0, 0, 0]),
         lbl(2, 3, [0, 0, 0], [1, 1, 1])]
    )
    loc = stabilizer.locally_generated(S, [[0, 1], [1, 2]])
    assert loc.order == 4


def test_restrict_relabels():
    S = stabilizer.validate([lbl(2, 3, [0, 1, 0], [0, 0, 0]), lbl(2, 3, [0, 0, 1], [0, 0, 0])])
    R = stabilizer.restrict(S, [1, 2])
    assert R.n == 2 and R.order == 4
    with pytest.raises(ValueError):
        stabilizer.restrict(S, [0, 1])


def test_sites_outside_the_register_are_rejected():
    S = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0]), lbl(2, 2, [0, 1], [0, 0])])
    for region in ([5], [-1], [0, 2]):
        with pytest.raises(ValueError, match=str(region[-1])):
            stabilizer.supported_subgroup(S, region)
    with pytest.raises(ValueError, match="-1"):
        stabilizer.supported_subgroup(stabilizer.trivial_group(2, 2), [-1])


def test_locally_generated_rejects_sites_outside_the_register():
    S = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0]), lbl(2, 2, [0, 1], [0, 0])])
    with pytest.raises(ValueError, match="7"):
        stabilizer.locally_generated(S, [[0], [7]])


def test_restrict_rejects_sites_outside_the_register():
    S = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0]), lbl(2, 2, [0, 1], [0, 0])])
    with pytest.raises(ValueError, match="5"):
        stabilizer.restrict(S, [0, 1, 5])
    # a repeated site would relabel Z x I onto two sites as I x Z, and give
    # extreme_points a point on two sites
    ZI = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0])])
    with pytest.raises(ValueError, match="repeats"):
        stabilizer.restrict(ZI, [0, 0])
    with pytest.raises(ValueError, match="repeats"):
        stabilizer.extreme_points(stabilizer.StabilizerProjectionState(ZI), [0, 0], [[0]])


# sha256 over repr((gens as (a, b, c), order, key)) of every enumerated group
# and of its supported subgroups on [0], [1] and [0, 1], in enumeration order
_ENUMERATION_SHA256 = {
    (2, 2): "dfd6f7b74220f681304971e695ebc8d22fbf971bf062c0e4faeccac6b73a107c",
    (2, 3): "40a2a33ef289ed117809e035f2cab2ca845e766277aa5714e371b24a40abe728",
    (2, 4): "ec1ceb1b94aca078e80b14fe8de224790fcb66aa5ff30bb382cae0f993e42dc9",
    (3, 2): "650e3a4424becbb70385995ef448d219f67baea2b9c1a464fb1af052e2f7add9",
}


@pytest.mark.parametrize("n,q", sorted(_ENUMERATION_SHA256))
def test_enumeration_and_supported_subgroups_pinned(n, q):
    h = hashlib.sha256()
    for S in stabilizer.enumerate_stabilizer_groups(n, q):
        for G in [S] + [stabilizer.supported_subgroup(S, r) for r in ([0], [1], [0, 1])]:
            h.update(repr((tuple((g.a, g.b, g.c) for g in G.gens), G.order, G.key)).encode())
    assert h.hexdigest() == _ENUMERATION_SHA256[n, q]


def test_groups_are_immutable_and_conjugated_keeps_key_and_order():
    U = lbl(3, 2, [1, 2], [0, 1])
    for S in itertools.islice(stabilizer.enumerate_stabilizer_groups(2, 3), 0, None, 7):
        assert hash(S) == hash((S.q, S.n, S.gens, S.order, S.key))
        with pytest.raises(AttributeError):
            S.order = 1
        C = stabilizer.conjugated(S, U)
        assert (C.q, C.n, C.order, C.key) == (S.q, S.n, S.order, S.key)
        assert [(g.a, g.b) for g in C.gens] == [(g.a, g.b) for g in S.gens]
        state = stabilizer.StabilizerProjectionState(S)
        assert state.rank == 3 ** 2 // S.order
        with pytest.raises(AttributeError):
            state.group = C


@pytest.mark.parametrize(
    "n,q,expected",
    [(1, 2, 6), (1, 3, 12), (2, 2, 60), (1, 5, 30), (1, 6, 72), (2, 3, 360),
     (2, 4, 2416), (2, 5, 3900), (3, 2, 1080)],
)
def test_pure_state_counts(n, q, expected):
    count = sum(1 for _ in stabilizer.enumerate_pure_stabilizer_states(n, q))
    assert count == expected


@pytest.mark.parametrize(
    "n,q,expected",
    [(1, 4, 35), (2, 2, 91), (1, 5, 31), (1, 6, 91), (2, 3, 481), (2, 4, 4627),
     (2, 5, 4681), (3, 2, 2467)],
)
def test_all_sps_counts(n, q, expected):
    count = sum(1 for _ in stabilizer.enumerate_sps(n, q))
    assert count == expected


@pytest.mark.parametrize(
    "n,q,expected",
    [(1, 2, 4), (1, 3, 5), (1, 4, 11), (1, 5, 7), (1, 6, 20), (2, 2, 31),
     (2, 3, 81), (2, 4, 517), (2, 5, 313), (2, 6, 2511), (3, 2, 514)],
)
def test_isotropic_lattices_are_howell_forms(n, q, expected):
    # every isotropic subgroup once, as its own Howell form
    forms = list(stabilizer.isotropic_lattices(q, n))
    assert len(forms) == len(set(forms)) == expected
    for form in forms:
        assert form == linalg.lattice_key(form, q, 2 * n)
        for u, v in itertools.combinations(form, 2):
            assert sum(u[i] * v[n + i] - u[n + i] * v[i] for i in range(n)) % q == 0
    if q in (2, 3, 5):
        # Lagrangian subgroups of Z_p^{2n}: prod_{i=1..n} (p^i + 1)
        maximal = sum(1 for form in forms if linalg.subgroup_order(form, q, 2 * n) == q ** n)
        assert maximal == math.prod(q ** i + 1 for i in range(1, n + 1))


def test_enumeration_distinct_states():
    seen = set()
    for st in stabilizer.enumerate_pure_stabilizer_states(1, 3):
        v = stabilizer.sps_vector(st)
        seen.add(tuple(np.round(v, 6)))
    assert len(seen) == 12


def test_enumeration_budget():
    cfg = RunConfig(enum_limit=5)
    with pytest.raises(BudgetExceeded):
        list(stabilizer.enumerate_pure_stabilizer_states(2, 2, cfg))
    # the budget is checked as groups arrive, not after all lattices are built
    with pytest.raises(BudgetExceeded):
        list(stabilizer.enumerate_stabilizer_groups(4, 2, config=cfg))


def test_find_rephasing_pauli_exhaustive_small():
    # all phase targets on a two-generator qutrit tableau
    gens = [lbl(3, 2, [1, 0], [0, 0]), lbl(3, 2, [0, 0], [0, 1])]
    for u in itertools.product(range(3), repeat=2):
        P = stabilizer.find_rephasing_pauli(gens, u)
        M = dense_oracles.to_dense(P)
        for g, ug in zip(gens, u):
            zeta = np.exp(2j * np.pi * ug / pauli.order(g))
            G = dense_oracles.to_dense(g)
            assert np.allclose(M @ G @ M.conj().T, zeta * G, atol=1e-10)


def test_find_rephasing_rejects_dependent():
    # the independence verdict is memoized with the rows; it raises every time
    gens = [lbl(2, 1, [1], [0]), lbl(2, 1, [1], [0], 2)]
    for _ in range(2):
        with pytest.raises(stabilizer.NotIndependent):
            stabilizer.find_rephasing_pauli(gens, [0, 0])


@pytest.mark.parametrize("gens", [
    [lbl(2, 1, [1], [0]), lbl(3, 1, [0], [1])],
    [lbl(2, 1, [1], [0]), lbl(2, 2, [0, 0], [1, 0])],
])
def test_find_rephasing_rejects_mixed_shapes(gens):
    with pytest.raises(pauli.ShapeMismatch):
        stabilizer.find_rephasing_pauli(gens, [0, 0])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_find_rephasing_pauli_matches_solve_right_mod(q):
    # every ordered pair of annulus points at (q, 3, 4): the memoized form
    # against a fresh solve of (b | -a) z = (q / delta) u
    code = toric.build_toric(q, 3, 4)
    ring = toric.ring_annulus(code.lattice)
    ref = stabilizer.supported_subgroup(toric.ground_group(code), sorted(ring.thickened))
    points = stabilizer.extreme_points(
        stabilizer.StabilizerProjectionState(ref), ring.edges, ring.balls)
    assert len(points) == q * q
    for p, r in itertools.permutations(points, 2):
        gens = p.l_gens
        orders = [pauli.order(g) for g in gens]
        deltas = [(ur - up) % d for d, up, ur in zip(orders, p.assignment, r.assignment)]
        C = [list(g.b) + [-x for x in g.a] for g in gens]
        z = linalg.solve_right_mod(C, [q // d * u for d, u in zip(orders, deltas)], q)
        n = gens[0].n
        assert stabilizer.find_rephasing_pauli(gens, deltas) == lbl(q, n, z[:n], z[n:])


def test_find_rephasing_rejects_empty_tableau():
    with pytest.raises(ValueError):
        stabilizer.find_rephasing_pauli([], [])


@pytest.mark.parametrize("targets", [[1], [1, 1, 2]])
def test_find_rephasing_rejects_target_count_mismatch(targets):
    gens = [lbl(3, 2, [1, 0], [0, 0]), lbl(3, 2, [0, 0], [0, 1])]
    with pytest.raises(ValueError, match="targets"):
        stabilizer.find_rephasing_pauli(gens, targets)


def test_extreme_points_trivial_region():
    # for a pure product state the convex set of a site has a single point
    S = stabilizer.validate([lbl(2, 2, [1, 0], [0, 0]), lbl(2, 2, [0, 1], [0, 0])])
    ref = stabilizer.StabilizerProjectionState(S)
    pts = stabilizer.extreme_points(ref, [0], [[0]])
    assert len(pts) == 1
    assert pts[0].assignment == ()


def _character_extreme_points(reference, omega, balls):
    """extreme_points by explicit characters: every character of S_r that is
    trivial on S_loc, read off an independent generating set of S_r, fixes
    the phases of the free generators."""
    S_ref = reference.group
    omega = sorted(omega)
    S_r = stabilizer.supported_subgroup(S_ref, omega)
    S_loc = stabilizer.locally_generated(S_ref, [sorted(b) for b in balls])
    q, n = S_r.q, S_r.n
    cur_rows = [pauli.symplectic_vector(g) for g in S_loc.gens]
    cur_key = S_loc.key
    l_gens = []
    for elem in sorted(stabilizer.elements(S_r)):
        if cur_key == S_r.key:
            break
        if not any(elem.a) and not any(elem.b):
            continue
        trial = cur_rows + [pauli.symplectic_vector(elem)]
        key = linalg.lattice_key(trial, q, 2 * n)
        if key != cur_key:
            l_gens.append(elem)
            cur_rows, cur_key = trial, key
    ind = dense_oracles.independent_generators(S_r)
    h_rows = [pauli.symplectic_vector(g) for g, _ in ind]
    h_orders = [d for _, d in ind]

    def coords(P):
        return linalg.solve_left_mod(h_rows, pauli.symplectic_vector(P), q) if h_rows else []

    loc_coords = [coords(g) for g in S_loc.gens]
    l_coords = [coords(g) for g in l_gens]
    points = []
    for t in itertools.product(*(range(d) for d in h_orders)):
        def chi_exp(x):
            return sum(tj * (2 * q // dj) * xj for tj, dj, xj in zip(t, h_orders, x)) % (2 * q)

        if any(chi_exp(x) for x in loc_coords):
            continue
        u, twisted = [], []
        for g, x in zip(l_gens, l_coords):
            step = 2 * q // pauli.order(g)
            e = chi_exp(x)
            assert e % step == 0
            u.append(e // step)
            twisted.append(pauli.phase_shifted(g, e))
        gens = list(S_loc.gens) + twisted
        group = stabilizer.validate(gens) if gens else stabilizer.trivial_group(q, n)
        l_restricted = ()
        if twisted:
            l_restricted = stabilizer.restrict(stabilizer.validate(twisted), omega).gens
        points.append((stabilizer.restrict(group, omega), l_restricted, tuple(u)))
    points.sort(key=lambda pt: pt[2])
    return points


def _random_group(rng, n, q):
    """Random commuting generators, each with a random consistent phase."""
    gens = []
    for _ in range(rng.randint(1, 2 * n)):
        a = [rng.randrange(q) for _ in range(n)]
        b = [rng.randrange(q) for _ in range(n)]
        phases = list(range(2 * q))
        rng.shuffle(phases)
        for c in phases:
            try:
                stabilizer.validate(gens + [lbl(q, n, a, b, c)])
            except (stabilizer.InconsistentPhase, stabilizer.NonCommutingPair):
                continue
            gens.append(lbl(q, n, a, b, c))
            break
    return stabilizer.validate(gens) if gens else stabilizer.trivial_group(q, n)


def test_extreme_points_match_explicit_characters():
    # re-phasings that pass validate are exactly the characters of S_r / S_loc
    several = rejected = 0
    for seed, (n, q) in enumerate([(3, 2), (2, 3), (2, 4), (3, 3), (2, 6)]):
        rng = random.Random(seed)
        for _ in range(100):
            ref = stabilizer.StabilizerProjectionState(_random_group(rng, n, q))
            omega = sorted(rng.sample(range(n), rng.randint(1, n)))
            balls = [sorted(rng.sample(omega, rng.randint(1, len(omega))))
                     for _ in range(rng.randint(0, 2))]
            pts = stabilizer.extreme_points(ref, omega, balls)
            got = [(pt.state.group, pt.l_gens, pt.assignment) for pt in pts]
            assert got == _character_extreme_points(ref, omega, balls)
            several += len(pts) > 1
            rejected += len(pts) < math.prod(pauli.order(g) for g in pts[0].l_gens)
    assert several and rejected


def test_tableau_text_round_trip():
    gens = [lbl(3, 2, [1, 2], [0, 1], 4), lbl(3, 2, [0, 1], [2, 0], 1)]
    text = stabilizer.tableau_to_text(gens)
    assert text.splitlines()[0] == "3 2 2"
    assert stabilizer.tableau_from_text(text) == gens
    with pytest.raises(ValueError):
        stabilizer.tableau_from_text("2 1 2\n1 0 0\n")


@pytest.mark.parametrize("text", ["1 1 1\n1 0 0\n", "0 1 1\n1 0 0\n", "3 0 1\n0\n", "3 2 0\n"])
def test_tableau_header_validation(text):
    with pytest.raises(ValueError):
        stabilizer.tableau_from_text(text)
