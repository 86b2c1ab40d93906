import math

import numpy as np
import pytest

from quditmagic import dense
from quditmagic.config import RunConfig

import dense_oracles


def bell_state(q=2):
    v = np.zeros(q * q, dtype=complex)
    for j in range(q):
        v[j + q * j] = 1.0 / math.sqrt(q)
    return v


def random_state(q, n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=q ** n) + 1j * rng.normal(size=q ** n)
    return v / np.linalg.norm(v)


def test_state_from_amplitudes_validation():
    with pytest.raises(ValueError):
        dense.state_from_amplitudes(2, 1, [1.0, 1.0])
    with pytest.raises(ValueError):
        dense.state_from_amplitudes(2, 2, [1.0, 0.0])
    v = dense.state_from_amplitudes(2, 1, [1.0, 0.0])
    assert v.dtype == complex
    # a header with q < 2 or n < 1 is malformed even when the length fits
    with pytest.raises(ValueError):
        dense.state_from_amplitudes(1, 1, [1.0])
    with pytest.raises(ValueError):
        dense.state_from_amplitudes(2, 0, [1.0])


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
def test_state_from_amplitudes_rejects_non_finite(bad):
    # a NaN norm compares false with every bound, so it needs its own check
    with pytest.raises(ValueError, match="finite"):
        dense.state_from_amplitudes(2, 1, [bad, 1.0])


def test_partial_trace_product_state():
    # product of two distinct single-qutrit states factorizes exactly
    a = np.array([1, 1, 1], dtype=complex) / math.sqrt(3)
    b = np.array([1, 1j, 0], dtype=complex) / math.sqrt(2)
    # little-endian: site 0 fastest, so psi[j0 + 3*j1] = a[j0] * b[j1]
    psi = np.kron(b, a)
    rho = dense.density_of(psi)
    r0 = dense.partial_trace(rho, 3, 2, [0])
    r1 = dense.partial_trace(rho, 3, 2, [1])
    assert np.allclose(r0, np.outer(a, a.conj()), atol=1e-12)
    assert np.allclose(r1, np.outer(b, b.conj()), atol=1e-12)
    assert abs(np.trace(r0) - 1) < 1e-12


def test_partial_trace_preserves_trace_and_order():
    rho = dense.density_of(random_state(2, 3, seed=3))
    r = dense.partial_trace(rho, 2, 3, [2, 0])
    assert abs(np.trace(r) - 1) < 1e-12
    # keep list is sorted internally: [2,0] and [0,2] agree
    assert np.allclose(r, dense.partial_trace(rho, 2, 3, [0, 2]), atol=1e-12)


def test_fidelity_and_trace_distance_known_values():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    r0, r1 = dense.density_of(e0), dense.density_of(e1)
    # full 1-norm: orthogonal pure states are at distance 2
    assert abs(dense.trace_distance(r0, r1) - 2.0) < 1e-10
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    rp = dense.density_of(plus)
    assert abs(dense.trace_distance(r0, rp) - math.sqrt(2)) < 1e-10


def test_vn_entropy_maximally_mixed():
    for q, n in [(2, 2), (3, 1)]:
        rho = np.eye(q ** n) / q ** n
        assert abs(dense.vn_entropy(rho) - n * math.log2(q)) < 1e-10
        cfg = RunConfig(log_base="e")
        assert abs(dense.vn_entropy(rho, cfg) - n * math.log(q)) < 1e-10


def test_bell_mutual_information():
    rho = dense.density_of(bell_state(2))
    assert abs(dense.mutual_information(rho, 2, 2, [0], [1]) - 2.0) < 1e-10
    rho3 = dense.density_of(bell_state(3))
    assert abs(
        dense.mutual_information(rho3, 3, 2, [0], [1]) - 2 * math.log2(3)
    ) < 1e-10


def test_mutual_information_rejects_overlap():
    rho = dense.density_of(bell_state(2))
    with pytest.raises(dense.OverlappingRegions):
        dense.mutual_information(rho, 2, 2, [0], [0, 1])


def test_relative_entropy_cases():
    rho = dense.density_of(random_state(2, 2, seed=1))
    assert abs(dense_oracles.relative_entropy(rho, rho)) < 1e-8
    # support violation gives +inf
    e0 = dense.density_of(np.array([1, 0], dtype=complex))
    e1 = dense.density_of(np.array([0, 1], dtype=complex))
    assert dense_oracles.relative_entropy(e0, e1) == float("inf")
    # diagonal states reduce to classical KL
    p = np.diag([0.7, 0.3])
    s = np.diag([0.5, 0.5])
    kl = 0.7 * math.log2(0.7 / 0.5) + 0.3 * math.log2(0.3 / 0.5)
    assert abs(dense_oracles.relative_entropy(p, s) - kl) < 1e-10


def test_max_relative_entropy_diagonal():
    p = np.diag([0.7, 0.3])
    s = np.diag([0.5, 0.5])
    assert abs(dense_oracles.max_relative_entropy(p, s) - math.log2(0.7 / 0.5)) < 1e-9
    e0 = dense.density_of(np.array([1, 0], dtype=complex))
    e1 = dense.density_of(np.array([0, 1], dtype=complex))
    assert dense_oracles.max_relative_entropy(e0, e1) == float("inf")
    assert dense_oracles.max_relative_entropy(s, s) < 1e-9


def test_brickwork_identity_is_noop():
    psi = random_state(2, 4, seed=5)
    out = dense.apply_brickwork(psi, 2, 4, 3, lambda layer, left: np.eye(4))
    assert np.allclose(out, psi, atol=1e-12)


def test_brickwork_rejects_nonunitary():
    psi = random_state(2, 2, seed=5)
    with pytest.raises(ValueError):
        dense.apply_brickwork(psi, 2, 2, 1, lambda layer, left: 2 * np.eye(4))


def test_brickwork_single_layer_even_pairs():
    # swap on sites (0,1) of a 3-site chain; layer 0 couples even pairs only
    q = 2
    swap = np.zeros((4, 4))
    for j0 in range(2):
        for j1 in range(2):
            swap[j1 + 2 * j0, j0 + 2 * j1] = 1.0
    psi = np.zeros(8, dtype=complex)
    psi[1] = 1.0  # |100> little-endian: site 0 excited
    out = dense.apply_brickwork(psi, q, 3, 1, lambda layer, left: swap)
    expected = np.zeros(8, dtype=complex)
    expected[2] = 1.0  # excitation moved to site 1
    assert np.allclose(out, expected, atol=1e-12)


def test_state_json_round_trip():
    psi = random_state(3, 2, seed=9)
    q, n, back = dense.state_from_json(dense_oracles.state_to_json(3, 2, psi))
    assert (q, n) == (3, 2)
    assert np.allclose(back, psi, atol=1e-12)


def test_state_json_rejects_unnormalized():
    text = '{"q": 2, "n": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}'
    with pytest.raises(ValueError):
        dense.state_from_json(text)
