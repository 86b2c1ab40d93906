import dataclasses
import itertools
import math

import numpy as np
import pytest

from quditmagic import dense, pauli, stabilizer, toric
from quditmagic.config import BudgetExceeded, RunConfig

import dense_oracles


def braiding_phase(code, t1, t2, paths=None, group=None):
    """The one-pair braiding phase, on a type table of its own."""
    paths = toric.smatrix_paths(code.lattice) if paths is None else paths
    group = toric.ground_group(code) if group is None else group
    return toric._Braiding(code.lattice, paths, group).phase(t1, t2)


def test_build_rejects_small():
    with pytest.raises(toric.GeometryTooSmall):
        toric.build_toric(2, 1, 3)
    with pytest.raises(toric.GeometryTooSmall):
        toric.build_toric(1, 2, 2)


@pytest.mark.parametrize("q,Lx,Ly", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (6, 2, 3)])
def test_code_group_order(q, Lx, Ly):
    code = toric.build_toric(q, Lx, Ly)
    assert code.lattice.n_edges == 2 * Lx * Ly
    assert code.group.order == q ** (2 * Lx * Ly - 2)


def test_all_generators_commute_dense():
    group = toric.build_toric(2, 2, 2).group
    mats = [dense_oracles.to_dense(g) for g in group.gens]
    for A, B in itertools.combinations(mats, 2):
        assert np.allclose(A @ B, B @ A, atol=1e-10)


def test_closed_string_labels_pinned():
    # q = 3 on 3 x 3: edges h(x, y) = 3y + x, v(x, y) = 9 + 3y + x
    lat = toric.ToricLattice(q=3, Lx=3, Ly=3)

    def at(entries):
        out = [0] * 18
        for edge, e in entries.items():
            out[edge] = e
        return tuple(out)

    zero = at({})
    # X on h(0,0), v(0,0) out of vertex (0,0); X^-1 on h(2,0), v(0,2) into it
    assert toric.vertex_operator(lat, 0, 0) == pauli.PauliLabel(
        3, 18, zero, at({0: 1, 9: 1, 2: 2, 15: 2}), 0)
    # Z on h(0,0), v(1,0) counterclockwise; Z^-1 on h(0,1), v(0,0)
    assert toric.plaquette_operator(lat, 0, 0) == pauli.PauliLabel(
        3, 18, at({0: 1, 10: 1, 3: 2, 9: 2}), zero, 0)
    z1, z2 = toric.logical_z_pair(lat)
    assert z1 == pauli.PauliLabel(3, 18, at({0: 1, 1: 1, 2: 1}), zero, 0)
    assert z2 == pauli.PauliLabel(3, 18, at({9: 1, 12: 1, 15: 1}), zero, 0)


def test_logical_z_pair_commutes_with_code():
    code = toric.build_toric(3, 2, 3)
    lat, group = code.lattice, code.group
    z1, z2 = toric.logical_z_pair(lat)
    for g in group.gens:
        assert pauli.commutation_exponent(z1, g) == 0
        assert pauli.commutation_exponent(z2, g) == 0
    # the loops are not themselves in the code group
    assert stabilizer.member(group, z1) == stabilizer.MEMBER_NO


@pytest.mark.parametrize("q", [2, 3])
def test_ground_space_dimension(q):
    code = toric.build_toric(q, 2, 2)
    rank = stabilizer.StabilizerProjectionState(code.group).rank
    assert rank == q * q


@pytest.mark.parametrize("q", [2, 3])
def test_ground_state_sectors(q):
    code = toric.build_toric(q, 2, 2)
    lat = code.lattice
    z1, z2 = toric.logical_z_pair(lat)
    omega = np.exp(2j * np.pi / q)
    states = {}
    for s1 in range(q):
        for s2 in range(q):
            v = toric.ground_state(code, (s1, s2))
            assert abs(np.linalg.norm(v) - 1) < 1e-10
            # every code stabilizer has expectation exactly 1
            for g in code.group.gens:
                assert abs(np.vdot(v, pauli.apply_to_state(g, v)) - 1) < 1e-9
            # logical sector eigenvalues
            assert abs(np.vdot(v, pauli.apply_to_state(z1, v)) - omega ** s1) < 1e-9
            assert abs(np.vdot(v, pauli.apply_to_state(z2, v)) - omega ** s2) < 1e-9
            states[(s1, s2)] = v
    # sectors are orthogonal
    for k1, k2 in itertools.combinations(states, 2):
        assert abs(np.vdot(states[k1], states[k2])) < 1e-9


def test_ground_state_matches_projector_oracle():
    # independent check: project a fixed vector with dense stabilizer projectors
    code = toric.build_toric(2, 2, 2)
    S = toric.ground_group(code, (0, 0))
    dim = 2 ** 8
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    for g, d in dense_oracles.independent_generators(S):
        M = dense_oracles.to_dense(g)
        proj = sum(np.linalg.matrix_power(M, k) for k in range(d)) / d
        v = proj @ v
    v /= np.linalg.norm(v)
    w = toric.ground_state(code, (0, 0))
    assert abs(abs(np.vdot(v, w)) - 1) < 1e-9


def test_ground_state_dense_budget_is_the_callers():
    # 2^18 amplitudes: above the default budget, inside a raised one, and the
    # cached vector does not re-apply the default
    code = toric.build_toric(2, 3, 3)
    with pytest.raises(BudgetExceeded):
        toric.ground_state(code, (1, 0))
    v = toric.ground_state(code, (1, 0), RunConfig(dense_limit=2 ** 18))
    z1, _ = toric.logical_z_pair(code.lattice)
    assert abs(np.vdot(v, pauli.apply_to_state(z1, v)) + 1) < 1e-9


def test_anyon_string_trivial_type_identity():
    lat = toric.build_toric(3, 3, 4).lattice
    path = toric.primal_walk(lat, (0, 0), ["+x", "+x"])
    s = toric.anyon_string(lat, toric.AnyonType(0, 0), path)
    assert not any(s.a) and not any(s.b)


def test_anyon_string_requires_matching_path():
    lat = toric.build_toric(2, 3, 4).lattice
    primal = toric.primal_walk(lat, (0, 0), ["+x"])
    with pytest.raises(toric.InvalidPath):
        toric.anyon_string(lat, toric.AnyonType(0, 1), primal)
    dual = toric.dual_walk(lat, (0, 0), ["+x"])
    with pytest.raises(toric.InvalidPath):
        toric.anyon_string(lat, toric.AnyonType(1, 0), dual)


def test_walk_rejects_unknown_move():
    lat = toric.build_toric(2, 4, 4).lattice
    with pytest.raises(toric.InvalidPath):
        toric.primal_walk(lat, (0, 0), ["+z"])
    with pytest.raises(toric.InvalidPath):
        toric.dual_walk(lat, (0, 0), ["+x", ["+y"]])


def test_open_string_syndrome():
    # an open e-string anticommutes with exactly its two endpoint vertices
    q = 3
    lat = toric.build_toric(q, 3, 4).lattice
    path = toric.primal_walk(lat, (0, 0), ["+x", "+x"])
    s = toric.anyon_string(lat, toric.AnyonType(1, 0), path)
    hits = []
    for y in range(4):
        for x in range(3):
            r = pauli.commutation_exponent(s, toric.vertex_operator(lat, x, y))
            if r != 0:
                hits.append((x, y, r))
    assert sorted((x, y) for x, y, _ in hits) == [(0, 0), (2, 0)]
    # and it commutes with every plaquette
    for y in range(4):
        for x in range(3):
            assert pauli.commutation_exponent(s, toric.plaquette_operator(lat, x, y)) == 0


def test_noncontractible_loop_commutes_everywhere():
    code = toric.build_toric(2, 3, 3)
    loop = toric.primal_walk(code.lattice, (0, 0), ["+x"] * 3)
    s = toric.anyon_string(code.lattice, toric.AnyonType(1, 0), loop)
    for g in code.group.gens:
        assert pauli.commutation_exponent(s, g) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_s_matrix_trivial_second_type(q):
    code = toric.build_toric(q, 2, 2)
    for a in range(q):
        for b in range(q):
            s = braiding_phase(code, toric.AnyonType(a, b), toric.AnyonType(0, 0))
            assert abs(s - 1.0) < 1e-12


@pytest.mark.parametrize("q", [2, 3])
def test_s_matrix_group_vs_dense_and_oracle(q):
    code = toric.build_toric(q, 2, 2)
    lat = code.lattice
    for a1, b1, a2, b2 in itertools.product(range(q), repeat=4):
        t1, t2 = toric.AnyonType(a1, b1), toric.AnyonType(a2, b2)
        s_group = braiding_phase(code, t1, t2)
        s_dense = toric.s_matrix_dense(code, t1, t2)
        s_oracle = toric.crossing_phase_oracle(lat, t1, t2)
        assert abs(s_group - s_dense) < 1e-9
        assert abs(s_group - s_oracle) < 1e-12


def test_s_matrix_deformation_invariance():
    code = toric.build_toric(3, 3, 3)
    lat = code.lattice
    base = toric.smatrix_paths(lat)
    # the lower V string makes a homotopic detour through row Ly - 1
    deformed = dataclasses.replace(base, v_d=(
        toric.primal_walk(lat, (0, 0), ["-y", "+x", "+y"]),
        toric.dual_walk(lat, (0, 0), ["-y", "+x", "+y"]),
    ))
    group = toric.ground_group(code)
    for a1, b1, a2, b2 in [(1, 0, 0, 1), (1, 1, 2, 1), (2, 0, 0, 2)]:
        t1, t2 = toric.AnyonType(a1, b1), toric.AnyonType(a2, b2)
        s1 = braiding_phase(code, t1, t2, base, group)
        s2 = braiding_phase(code, t1, t2, deformed, group)
        assert abs(s1 - s2) < 1e-12


def test_smatrix_paths_need_room():
    lat = toric.ToricLattice(q=2, Lx=2, Ly=1)
    with pytest.raises(toric.GeometryTooSmall):
        toric.smatrix_paths(lat)


def test_crossing_numbers_default_geometry():
    lat = toric.ToricLattice(q=3, Lx=3, Ly=3)
    x1, x2 = toric.crossing_numbers(toric.smatrix_paths(lat))
    assert (x1, x2) == (1, -1)


@pytest.mark.parametrize("q,Lx,Ly", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_quantization_check(q, Lx, Ly):
    report = toric.quantization_check(toric.build_toric(q, Lx, Ly))
    assert report.ok
    assert report.max_deviation < 1e-9
    assert report.convention in (-1, 1)
    assert len(report.entries) == q ** 4


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("Lx,Ly", [(2, 2), (2, 3), (3, 3)])
def test_quantization_check_matches_pairwise_evaluator(q, Lx, Ly):
    # the check builds each type's strings and loop phases once; every entry
    # must still equal the one-pair evaluator exactly
    code = toric.build_toric(q, Lx, Ly)
    lat = code.lattice
    paths = toric.smatrix_paths(lat)
    group = toric.ground_group(code)
    report = toric.quantization_check(code)
    assert report.ok
    for e in report.entries:
        assert e.phase == braiding_phase(code, e.t1, e.t2, paths, group)
        oracle = toric.crossing_phase_oracle(lat, e.t1, e.t2)
        assert e.oracle_ok == (abs(e.phase - oracle) <= 1e-9)
        assert e.oracle_ok and e.formula_ok
    # a repeated pair and a type outside 0..q-1, which keeps its given form
    # and braids as its residue
    e_, m_, big = toric.AnyonType(1, 0), toric.AnyonType(0, 1), toric.AnyonType(q + 1, 0)
    pairs = [(e_, m_), (big, m_), (e_, m_), (m_, big)]
    entries = toric.quantization_check(code, pairs).entries
    assert [(e.t1, e.t2) for e in entries] == pairs
    assert entries[0] == entries[2]
    assert entries[1].phase == entries[0].phase
    assert entries[3].phase == braiding_phase(code, m_, e_)
    assert all(e.oracle_ok and e.formula_ok for e in entries)


def test_disk_reduction_is_locally_determined():
    # reduction of the dense ground state to a disk equals the projection
    # state of the supported subgroup: disks carry no extra information
    code = toric.build_toric(2, 2, 2)
    lat = code.lattice
    disk = sorted({lat.h_edge(0, 0), lat.v_edge(0, 0), lat.h_edge(0, 1), lat.v_edge(1, 0)})
    psi = toric.ground_state(code)
    rho = dense.partial_trace(dense.density_of(psi), 2, lat.n_edges, disk)
    sub = stabilizer.restrict(
        stabilizer.supported_subgroup(toric.ground_group(code), disk), disk
    )
    sigma = stabilizer.sps_dense(stabilizer.StabilizerProjectionState(sub))
    assert np.allclose(rho, sigma, atol=1e-9)


def test_ring_annulus_requires_space():
    with pytest.raises(toric.GeometryTooSmall):
        toric.ring_annulus(toric.ToricLattice(q=2, Lx=3, Ly=3))


def test_ring_annulus_structure():
    lat = toric.ToricLattice(q=2, Lx=3, Ly=4)
    ring = toric.ring_annulus(lat)
    assert len(ring.edges) == 8
    assert len(ring.thickened) == 9
    assert len(ring.strings) == 4
    assert all(len(b) == 1 for b in ring.balls)
    # at q = 3 on 3 x 4 the e string is Z on v(1, 0) and v(1, 1), edges 13
    # and 16, and the m string X^-1 on h(0, 0), edge 0
    ring = toric.ring_annulus(toric.ToricLattice(q=3, Lx=3, Ly=4))
    assert ring.edges == (0, 1, 3, 4, 12, 14, 16, 22)
    assert ring.thickened == (0, 1, 3, 4, 12, 13, 14, 16, 22)
    assert ring.balls == tuple((e,) for e in ring.edges)
    strings = dict(ring.strings)
    assert len(strings) == 9 and all(s.c == 0 for s in strings.values())

    def support(s):
        return ({i: x for i, x in enumerate(s.a) if x}, {i: x for i, x in enumerate(s.b) if x})

    assert support(strings[toric.AnyonType(1, 0)]) == ({13: 1, 16: 1}, {})
    assert support(strings[toric.AnyonType(0, 1)]) == ({}, {0: 2})
    assert support(strings[toric.AnyonType(1, 2)]) == ({13: 1, 16: 1}, {0: 1})


def test_annulus_extreme_points_q2():
    code = toric.build_toric(2, 4, 4)
    report = toric.annulus_extreme_points(code)
    assert report.ok, report
    assert report.point_count == 4
    assert report.l_rank == 2
    assert report.vacuum_ok
    assert report.max_commutator < 1e-9
    assert report.pauli_connected
    assert report.anyon_matched
    assert report.min_match_fidelity > 1 - 1e-9
    assert report.dense_checked
    assert sorted(report.assignments) == [(i, j) for i in range(2) for j in range(2)]


def test_annulus_dense_check_gates_ok(monkeypatch):
    # the dense cross-check does not feed max_commutator, which comes from
    # the exact sparse products, but a skewed, non-Hermitian matrix still
    # fails the report
    sps_dense = stabilizer.sps_dense
    calls = []

    def skewed(sps, config=None):
        calls.append(None)
        mat = sps_dense(sps)
        return mat + (1e-4 * len(calls)) * np.triu(np.ones_like(mat), 1)

    monkeypatch.setattr(stabilizer, "sps_dense", skewed)
    report = toric.annulus_extreme_points(toric.build_toric(2, 4, 4))
    assert report.dense_checked and calls
    assert report.max_commutator == 0.0
    assert not report.ok

    # a Hermitian matrix that does not commute with the others passes the
    # Hermitian precondition and must fail the one-product commutator test:
    # the first point conjugated by a dense Hadamard on site 0
    hadamard = np.kron(np.eye(2 ** 7), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    rotated = []

    def rotate_first(sps, config=None):
        mat = sps_dense(sps)
        if not rotated:
            mat = hadamard @ mat @ hadamard
            rotated.append(mat)
        return mat

    monkeypatch.setattr(stabilizer, "sps_dense", rotate_first)
    report = toric.annulus_extreme_points(toric.build_toric(2, 4, 4))
    assert np.abs(rotated[0] - rotated[0].conj().T).max() <= 1e-12
    assert report.dense_checked
    assert not report.ok

    # the Hermitian precondition is what makes one product enough: the last
    # point plus u v^dagger, with u a column of it and v a column of the
    # first point, gives rho_i @ tilted = 0 for every other point, so each
    # one-product commutator vanishes, yet tilted does not commute with the
    # first point
    seen = []

    def tilt_last(sps, config=None):
        mat = sps_dense(sps)
        if len(seen) == 3:
            u = mat[:, np.abs(mat).max(axis=0).argmax()]
            v = seen[0][:, np.abs(seen[0]).max(axis=0).argmax()]
            mat = mat + np.outer(u, v.conj())
        seen.append(mat)
        return mat

    monkeypatch.setattr(stabilizer, "sps_dense", tilt_last)
    report = toric.annulus_extreme_points(toric.build_toric(2, 4, 4))
    first, tilted = seen[0], seen[-1]
    assert len(seen) == 4
    assert all(np.abs(rho @ tilted).max() < 1e-15 for rho in seen[:3])
    assert np.linalg.norm(first @ tilted - tilted @ first) > 1e-6
    assert report.dense_checked
    assert not report.ok


@pytest.mark.parametrize("q", [2, 3, 4])
def test_annulus_checks_are_exact(q):
    # all points share the vacuum's lattice, so every comparison is exact
    report = toric.annulus_extreme_points(toric.build_toric(q, 3, 4))
    assert report.ok, report
    assert report.point_count == q * q
    assert report.max_commutator == 0.0
    assert report.min_match_fidelity == 1.0
    assert report.max_conjugation_defect == 0.0


def test_annulus_repeated_anyon_type_is_unmatched():
    code = toric.build_toric(2, 3, 4)
    strings = toric.ring_annulus(code.lattice).strings
    report = toric.annulus_extreme_points(code, strings=strings[:3] + strings[1:2])
    assert report.min_match_fidelity == 1.0
    assert report.pauli_connected
    assert not report.anyon_matched
    assert not report.ok


def test_annulus_wrong_rephasing_is_disconnected(monkeypatch):
    def identity(gens, targets):
        return dense_oracles.identity_label(gens[0].q, gens[0].n)

    monkeypatch.setattr(stabilizer, "find_rephasing_pauli", identity)
    report = toric.annulus_extreme_points(toric.build_toric(2, 3, 4))
    assert not report.pauli_connected
    assert not report.ok
    # the Frobenius distance of two distinct points, which are orthogonal
    rank = report.points[0].state.rank
    assert report.max_conjugation_defect == math.sqrt(2 / rank)
    rho0, rho1 = (stabilizer.sps_dense(pt.state) for pt in report.points[:2])
    assert abs(np.linalg.norm(rho0 - rho1) - math.sqrt(2 / rank)) < 1e-12


def test_annulus_disk_region_is_not_annulus():
    code = toric.build_toric(2, 4, 4)
    lat = code.lattice
    disk = sorted({lat.h_edge(0, 0), lat.v_edge(0, 0), lat.v_edge(1, 0), lat.h_edge(0, 1)})
    with pytest.raises(toric.NotAnAnnulus):
        toric.annulus_extreme_points(code, annulus=disk, strings=[])
