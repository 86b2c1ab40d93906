import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditmagic import pauli


def random_label(draw_q, draw_n):
    return draw_q.flatmap(
        lambda q: draw_n.flatmap(
            lambda n: st.tuples(
                st.just(q),
                st.just(n),
                st.lists(st.integers(0, 2 * q), min_size=n, max_size=n),
                st.lists(st.integers(0, 2 * q), min_size=n, max_size=n),
                st.integers(0, 4 * q),
            )
        )
    )


label_strategy = random_label(st.sampled_from([2, 3, 4, 6]), st.integers(1, 2))


def mk(t):
    q, n, a, b, c = t
    return pauli.label(q, n, a, b, c)


def paired_strategy():
    return label_strategy.flatmap(
        lambda t: st.tuples(
            st.just(t),
            st.tuples(
                st.just(t[0]),
                st.just(t[1]),
                st.lists(st.integers(0, 2 * t[0]), min_size=t[1], max_size=t[1]),
                st.lists(st.integers(0, 2 * t[0]), min_size=t[1], max_size=t[1]),
                st.integers(0, 4 * t[0]),
            ),
        )
    )


@settings(max_examples=80, deadline=None)
@given(paired_strategy())
def test_compose_matches_dense_product(pair):
    P, Q = mk(pair[0]), mk(pair[1])
    dense = pauli.to_dense(P) @ pauli.to_dense(Q)
    assert np.allclose(pauli.to_dense(pauli.compose(P, Q)), dense, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(label_strategy)
def test_inverse_matches_dense(t):
    P = mk(t)
    M = pauli.to_dense(P)
    assert np.allclose(pauli.to_dense(pauli.inverse(P)), M.conj().T, atol=1e-10)
    assert np.allclose(
        pauli.to_dense(pauli.compose(P, pauli.inverse(P))),
        np.eye(P.q ** P.n),
        atol=1e-10,
    )


@settings(max_examples=40, deadline=None)
@given(label_strategy, st.integers(-3, 7))
def test_power_matches_repeated_product(t, m):
    P = mk(t)
    M = pauli.to_dense(P)
    target = np.linalg.matrix_power(M, m) if m >= 0 else np.linalg.matrix_power(
        M.conj().T, -m
    )
    assert np.allclose(pauli.to_dense(pauli.power(P, m)), target, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(paired_strategy())
def test_commutation_exponent_dense(pair):
    P, Q = mk(pair[0]), mk(pair[1])
    MP, MQ = pauli.to_dense(P), pauli.to_dense(Q)
    r = pauli.commutation_exponent(P, Q)
    omega = np.exp(2j * np.pi / P.q)
    assert np.allclose(MP @ MQ, omega ** r * MQ @ MP, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(label_strategy)
def test_order_is_minimal(t):
    P = mk(t)
    d = pauli.order(P)
    I = pauli.identity_label(P.q, P.n)
    Pd = pauli.power(P, d)
    assert (Pd.a, Pd.b) == (I.a, I.b)
    for k in range(1, d):
        Pk = pauli.power(P, k)
        assert (Pk.a, Pk.b) != (I.a, I.b)


@settings(max_examples=40, deadline=None)
@given(label_strategy)
def test_apply_to_state_matches_matrix(t):
    P = mk(t)
    rng = np.random.default_rng(7)
    dim = P.q ** P.n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    assert np.allclose(
        pauli.apply_to_state(P, psi), pauli.to_dense(P) @ psi, atol=1e-10
    )


@settings(max_examples=40, deadline=None)
@given(label_strategy)
def test_text_round_trip(t):
    P = mk(t)
    assert pauli.from_text(pauli.to_text(P)) == P


def test_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        pauli.from_text("2 1 | 0 | 1")


def test_label_shape_check():
    with pytest.raises(pauli.ShapeMismatch):
        pauli.label(2, 2, [0], [0, 1])
    with pytest.raises(pauli.ShapeMismatch):
        pauli.compose(pauli.identity_label(2, 1), pauli.identity_label(3, 1))


def test_phase_shift_and_character():
    P = pauli.label(3, 1, [1], [0], 0)
    Q = pauli.phase_shifted(P, 2)
    assert np.allclose(
        pauli.to_dense(Q), np.exp(1j * np.pi * 2 / 3) * pauli.to_dense(P)
    )
    X = pauli.label(3, 1, [0], [1], 0)
    assert pauli.commutation_exponent(P, X) == 1
    # the shifted phase stays in its canonical range, as label() builds it
    for delta in (-7, -1, 5, 13):
        assert pauli.phase_shifted(P, delta) == pauli.label(3, 1, [1], [0], delta)


def test_known_single_qubit_matrices():
    Z = pauli.to_dense(pauli.label(2, 1, [1], [0], 0))
    X = pauli.to_dense(pauli.label(2, 1, [0], [1], 0))
    Y = pauli.to_dense(pauli.label(2, 1, [1], [1], 3))
    assert np.allclose(Z, np.diag([1, -1]))
    assert np.allclose(X, np.array([[0, 1], [1, 0]]))
    assert np.allclose(Y, np.array([[0, -1j], [1j, 0]]))


def test_little_endian_site_order():
    # site 0 varies fastest: Z on site 0 of two qutrits is diag over j mod 3
    P = pauli.label(3, 2, [1, 0], [0, 0], 0)
    omega = np.exp(2j * np.pi / 3)
    expected = np.diag([omega ** (j % 3) for j in range(9)])
    assert np.allclose(pauli.to_dense(P), expected)


def test_crt_permutation_splits_composite_paulis():
    q = 6
    perm, trivial = pauli.crt_permutation(q)
    assert not trivial
    U = np.zeros((q, q))
    for j in range(q):
        U[perm[j], j] = 1.0
    Z6 = pauli.to_dense(pauli.label(q, 1, [1], [0], 0))
    X6 = pauli.to_dense(pauli.label(q, 1, [0], [1], 0))
    for M in (Z6, X6):
        conj = U @ M @ U.T
        found = False
        # search the factor-Pauli tensor products (with 12th-root phases)
        for a2, b2, a3, b3 in itertools.product(range(2), range(2), range(3), range(3)):
            P2 = pauli.to_dense(pauli.label(2, 1, [a2], [b2], 0))
            P3 = pauli.to_dense(pauli.label(3, 1, [a3], [b3], 0))
            T = np.kron(P3, P2)
            for c in range(12):
                if np.allclose(conj, np.exp(1j * np.pi * c / 6) * T, atol=1e-9):
                    found = True
                    break
            if found:
                break
        assert found


def test_crt_permutation_prime_power_trivial():
    perm, trivial = pauli.crt_permutation(4)
    assert trivial and perm == [0, 1, 2, 3]


def test_symplectic_vector_and_sort_key():
    P = pauli.label(4, 2, [1, 2], [3, 0], 5)
    assert pauli.symplectic_vector(P) == [1, 2, 3, 0]
    assert pauli.label_sort_key(P) == ((1, 2), (3, 0), 5)
