"""Z_q toric codes on small tori.

Construction of the oriented vertex/plaquette stabilizer group, ground
states by sector, Pauli anyon strings on primal and dual paths, the braiding
S-matrix experiment with a crossing-count oracle, and the information-convex
annulus demonstration.

Conventions.  Edges are oriented right (+x, horizontal) and up (+y,
vertical); h(x, y) points from vertex (x, y) to (x+1, y) and v(x, y) from
(x, y) to (x, y+1).  The move table _MOVES holds the one sign rule of every
path, and the stabilizers and logical loops are closed walks through it: a
plaquette operator is the unit electric string counterclockwise around its
plaquette, a vertex operator the unit magnetic string on the dual loop
around its vertex, and the logical Z loops the straight noncontractible
electric strings.  With this one rule all generators commute for every q.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import pauli, stabilizer
from .config import DEFAULT_CONFIG, RunConfig, check_dense
from .pauli import PauliLabel
from .stabilizer import StabilizerGroup, StabilizerProjectionState


class GeometryTooSmall(ValueError):
    pass


class InvalidPath(ValueError):
    pass


class NotAnAnnulus(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lattice and code construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricLattice:
    q: int
    Lx: int
    Ly: int

    @property
    def n_edges(self) -> int:
        return 2 * self.Lx * self.Ly

    def h_edge(self, x: int, y: int) -> int:
        return (y % self.Ly) * self.Lx + (x % self.Lx)

    def v_edge(self, x: int, y: int) -> int:
        return self.Lx * self.Ly + (y % self.Ly) * self.Lx + (x % self.Lx)


def vertex_operator(lat: ToricLattice, x: int, y: int) -> PauliLabel:
    """The magnetic loop around vertex (x, y), through its four plaquettes."""
    return anyon_string(lat, AnyonType(0, 1), dual_walk(lat, (x - 1, y - 1), _LOOP))


def plaquette_operator(lat: ToricLattice, x: int, y: int) -> PauliLabel:
    """The electric loop around plaquette (x, y)."""
    return anyon_string(lat, AnyonType(1, 0), primal_walk(lat, (x, y), _LOOP))


@dataclass(frozen=True)
class ToricCode:
    lattice: ToricLattice
    group: StabilizerGroup


def build_toric(q: int, Lx: int, Ly: int) -> ToricCode:
    """The code stabilizer group of all vertex and plaquette operators.

    The group validates (everything commutes) and has order q^{2 Lx Ly - 2}:
    the product of all vertex operators and the product of all plaquette
    operators are both identities.
    """
    if q < 2 or Lx < 2 or Ly < 2:
        raise GeometryTooSmall("need q >= 2 and a torus of at least 2 x 2")
    lat = ToricLattice(q=q, Lx=Lx, Ly=Ly)
    gens = [vertex_operator(lat, x, y) for y in range(Ly) for x in range(Lx)]
    gens += [plaquette_operator(lat, x, y) for y in range(Ly) for x in range(Lx)]
    return ToricCode(lattice=lat, group=stabilizer.validate(gens))


def logical_z_pair(lat: ToricLattice) -> Tuple[PauliLabel, PauliLabel]:
    """The two noncontractible Z loops: along horizontal row 0 and vertical
    column 0.  Both commute with every vertex and plaquette operator."""
    e = AnyonType(1, 0)
    return (anyon_string(lat, e, primal_walk(lat, (0, 0), ["+x"] * lat.Lx)),
            anyon_string(lat, e, primal_walk(lat, (0, 0), ["+y"] * lat.Ly)))


def ground_group(code: ToricCode, sector: Tuple[int, int] = (0, 0)) -> StabilizerGroup:
    """Maximal stabilizer group of the ground state in the sector where the
    two noncontractible Z loops have eigenvalues omega^{s1}, omega^{s2}."""
    lat = code.lattice
    z1, z2 = logical_z_pair(lat)
    s1, s2 = sector
    gens = list(code.group.gens) + [
        pauli.phase_shifted(z1, -2 * (s1 % lat.q)),
        pauli.phase_shifted(z2, -2 * (s2 % lat.q)),
    ]
    return stabilizer.validate(gens)


def ground_state(code: ToricCode, sector: Tuple[int, int] = (0, 0),
                 config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Dense ground-state vector of the sector: the stabilizer state of its
    ground group (vector-level, no dense matrices)."""
    check_dense(code.lattice.q ** code.lattice.n_edges, config)
    return _ground_vector(code, tuple(sector)).copy()


@functools.lru_cache(maxsize=8)
def _ground_vector(code: ToricCode, sector: Tuple[int, int]) -> np.ndarray:
    # ground_state has checked the caller's dense budget
    state = StabilizerProjectionState(ground_group(code, sector))
    return stabilizer.sps_vector(state, RunConfig(dense_limit=state.group.q ** state.group.n))


# ---------------------------------------------------------------------------
# Anyon strings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnyonType:
    a: int  # electric charge exponent
    b: int  # magnetic charge exponent


PRIMAL = "primal"
DUAL = "dual"


@dataclass(frozen=True)
class StringPath:
    kind: str                          # PRIMAL or DUAL
    steps: Tuple[Tuple[int, int], ...]  # (edge index, traversal sign)


# One move rule for both kinds of path.  A move from vertex or plaquette
# (x, y) gives its displacement and, per kind, the edge it uses as (edge
# method, x offset, y offset, sign).  A primal step follows the edge and is
# +1 along its orientation (+x or +y), -1 against it; a dual step crosses the
# edge and its sign is the z-component of (edge orientation) x (step
# direction), so a +y step crossing a horizontal edge gets +1, a +x step
# crossing a vertical edge gets -1, and the reversed steps flip the sign.
_H, _V = ToricLattice.h_edge, ToricLattice.v_edge
_MOVES = {
    "+x": ((1, 0), {PRIMAL: (_H, 0, 0, 1), DUAL: (_V, 1, 0, -1)}),
    "-x": ((-1, 0), {PRIMAL: (_H, -1, 0, -1), DUAL: (_V, 0, 0, 1)}),
    "+y": ((0, 1), {PRIMAL: (_V, 0, 0, 1), DUAL: (_H, 0, 1, 1)}),
    "-y": ((0, -1), {PRIMAL: (_V, 0, -1, -1), DUAL: (_H, 0, 0, -1)}),
}
_LOOP = ("+x", "+y", "-x", "-y")   # counterclockwise around one face


def _walk(lat: ToricLattice, kind: str, start: Tuple[int, int],
          moves: Sequence[str]) -> StringPath:
    x, y = start
    steps = []
    for mv in moves:
        if not isinstance(mv, str) or mv not in _MOVES:
            raise InvalidPath("unknown move %r" % (mv,))
        (dx, dy), rules = _MOVES[mv]
        edge, ox, oy, sign = rules[kind]
        steps.append((edge(lat, x + ox, y + oy), sign))
        x, y = x + dx, y + dy
    return StringPath(kind=kind, steps=tuple(steps))


def primal_walk(lat: ToricLattice, start: Tuple[int, int],
                moves: Sequence[str]) -> StringPath:
    """Primal path from a start vertex along moves "+x", "-x", "+y", "-y"."""
    return _walk(lat, PRIMAL, start, moves)


def dual_walk(lat: ToricLattice, start: Tuple[int, int],
              moves: Sequence[str]) -> StringPath:
    """Dual path from a start plaquette, each move crossing one primal edge."""
    return _walk(lat, DUAL, start, moves)


def anyon_string(lat: ToricLattice, t: AnyonType,
                 paths: Union[StringPath, Sequence[StringPath]]) -> PauliLabel:
    """The Pauli string carrying charge t along the given paths.

    Primal paths contribute Z^{t.a * sign} per traversed edge, dual paths
    X^{t.b * sign} per crossed edge; a dyonic type needs one of each.  The
    string commutes with every stabilizer not incident on a path endpoint.
    """
    if isinstance(paths, StringPath):
        paths = [paths]
    q = lat.q
    n = lat.n_edges
    a = [0] * n
    b = [0] * n
    kinds = {p.kind for p in paths}
    if t.a % q and PRIMAL not in kinds:
        raise InvalidPath("electric charge needs a primal path")
    if t.b % q and DUAL not in kinds:
        raise InvalidPath("magnetic charge needs a dual path")
    for p in paths:
        if p.kind == PRIMAL:
            for edge, sign in p.steps:
                a[edge] += t.a * sign
        elif p.kind == DUAL:
            for edge, sign in p.steps:
                b[edge] += t.b * sign
        else:
            raise InvalidPath("unknown path kind %r" % (p.kind,))
    return pauli.label(q, n, a, b, 0)


# ---------------------------------------------------------------------------
# S-matrix experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmatrixPaths:
    """The four strings of the braiding experiment.

    V runs between a vertex/plaquette pair near the origin and one shifted by
    +x; W between pairs shifted by +y.  The lower strings V_d and W_d cross
    exactly once, the upper strings close each V/W pair into a contractible
    loop away from the crossing.
    """
    v_d: Tuple[StringPath, StringPath]
    v_u: Tuple[StringPath, StringPath]
    w_d: Tuple[StringPath, StringPath]
    w_u: Tuple[StringPath, StringPath]


def smatrix_paths(lat: ToricLattice) -> SmatrixPaths:
    """Default geometry near the origin (any torus of at least 2 x 2)."""
    if lat.Lx < 2 or lat.Ly < 2:
        raise GeometryTooSmall("the string layout needs at least a 2 x 2 torus")
    v_d = (
        primal_walk(lat, (0, 0), ["+x"]),
        dual_walk(lat, (0, 0), ["+x"]),
    )
    v_u = (
        primal_walk(lat, (0, 0), ["+y", "+x", "-y"]),
        dual_walk(lat, (0, 0), ["+y", "+x", "-y"]),
    )
    w_d = (
        primal_walk(lat, (0, 1), ["+x"]),
        dual_walk(lat, (0, 1), ["-y"]),
    )
    w_u = (
        primal_walk(lat, (0, 1), ["-y", "+x", "+y"]),
        dual_walk(lat, (0, 1), ["+x", "-y", "-x"]),
    )
    return SmatrixPaths(v_d=v_d, v_u=v_u, w_d=w_d, w_u=w_u)


def _edge_coefficients(paths: Sequence[StringPath], kind: str,
                       negate: Sequence[StringPath] = ()) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for p in paths:
        if p.kind == kind:
            for edge, sign in p.steps:
                out[edge] = out.get(edge, 0) + sign
    for p in negate:
        if p.kind == kind:
            for edge, sign in p.steps:
                out[edge] = out.get(edge, 0) - sign
    return out


def crossing_numbers(paths: SmatrixPaths) -> Tuple[int, int]:
    """Signed crossing counts between the closed V loop and the lower W
    string: (primal-V against dual-W, dual-V against primal-W)."""
    lv_primal = _edge_coefficients(paths.v_d, PRIMAL, negate=paths.v_u)
    lv_dual = _edge_coefficients(paths.v_d, DUAL, negate=paths.v_u)
    wd_primal = _edge_coefficients(paths.w_d, PRIMAL)
    wd_dual = _edge_coefficients(paths.w_d, DUAL)
    x1 = sum(c * wd_dual.get(e, 0) for e, c in lv_primal.items())
    x2 = sum(c * wd_primal.get(e, 0) for e, c in lv_dual.items())
    return x1, x2


def _oracle_phase(q: int, crossings: Tuple[int, int], t1: AnyonType,
                  t2: AnyonType) -> complex:
    x1, x2 = crossings
    e = (t1.a * t2.b * x1 - t1.b * t2.a * x2) % q
    return cmath.exp(2j * cmath.pi * e / q)


def crossing_phase_oracle(lat: ToricLattice, t1: AnyonType, t2: AnyonType) -> complex:
    """Braiding phase predicted combinatorially: omega to the symplectic
    crossing number of the V loop with the lower W string."""
    return _oracle_phase(lat.q, crossing_numbers(smatrix_paths(lat)), t1, t2)


class _TypeStrings(NamedTuple):
    """One type's strings as the braiding product uses them."""

    v_d: PauliLabel
    v_u_inv: PauliLabel
    w_d: PauliLabel
    w_u_inv: PauliLabel

    @property
    def l_v(self) -> PauliLabel:
        return pauli.compose(self.v_u_inv, self.v_d)

    @property
    def l_w(self) -> PauliLabel:
        return pauli.compose(self.w_u_inv, self.w_d)


def _type_strings(lat: ToricLattice, t: AnyonType, paths: SmatrixPaths) -> _TypeStrings:
    return _TypeStrings(
        v_d=anyon_string(lat, t, paths.v_d),
        v_u_inv=pauli.inverse(anyon_string(lat, t, paths.v_u)),
        w_d=anyon_string(lat, t, paths.w_d),
        w_u_inv=pauli.inverse(anyon_string(lat, t, paths.w_u)),
    )


def _braid_operator(s1: _TypeStrings, s2: _TypeStrings) -> PauliLabel:
    """O = W_u^-1 V_u^-1 V_d W_d with t1's V strings and t2's W strings."""
    return pauli.compose(s2.w_u_inv, pauli.compose(s1.v_u_inv, pauli.compose(s1.v_d, s2.w_d)))


class _Braiding:
    """Braiding phases on one ground group.  Each type, reduced mod q, gets
    its strings and the exponents of its closed loops l_v = V_u^-1 V_d and
    l_w = W_u^-1 W_d once; a pair then costs the three compositions of its
    four-string product and one expectation exponent."""

    def __init__(self, lat: ToricLattice, paths: SmatrixPaths, group: StabilizerGroup):
        self.lat, self.paths, self.group = lat, paths, group
        self.types: Dict[Tuple[int, int], Tuple[_TypeStrings, int, int]] = {}

    def _exponent(self, op: PauliLabel) -> int:
        e = stabilizer.expectation_exponent(self.group, op)
        if e is None:
            raise InvalidPath("a string loop is not contractible on this geometry")
        return e

    def _type(self, t: AnyonType) -> Tuple[_TypeStrings, int, int]:
        q = self.lat.q
        key = (t.a % q, t.b % q)
        entry = self.types.get(key)
        if entry is None:
            s = _type_strings(self.lat, AnyonType(*key), self.paths)
            entry = self.types[key] = (s, self._exponent(s.l_v), self._exponent(s.l_w))
        return entry

    def phase(self, t1: AnyonType, t2: AnyonType) -> complex:
        """The four-string product's expectation, normalized by the two
        closed-loop expectations so a trivial t2 gives exactly 1."""
        s1, e_v, _ = self._type(t1)
        s2, _, e_w = self._type(t2)
        q = self.lat.q
        e = (self._exponent(_braid_operator(s1, s2)) - e_v - e_w) % (2 * q)
        return cmath.exp(1j * cmath.pi * e / q)


def s_matrix_dense(code: ToricCode, t1: AnyonType, t2: AnyonType,
                   config: RunConfig = DEFAULT_CONFIG) -> complex:
    """Independent oracle for _Braiding.phase: the same normalized
    expectation evaluated on the dense ground-state vector."""
    lat = code.lattice
    paths = smatrix_paths(lat)
    s1, s2 = _type_strings(lat, t1, paths), _type_strings(lat, t2, paths)
    psi = ground_state(code, config=config)

    def expect(op: PauliLabel) -> complex:
        return complex(np.vdot(psi, pauli.apply_to_state(op, psi)))

    return expect(_braid_operator(s1, s2)) / (expect(s1.l_v) * expect(s2.l_w))


@dataclass(frozen=True)
class QuantizationEntry:
    t1: AnyonType
    t2: AnyonType
    phase: complex
    power: int          # nearest k with phase ~ exp(2 pi i k / q)
    deviation: float    # |phase - exp(2 pi i k / q)|
    oracle_ok: bool
    formula_ok: bool    # matches omega^{sigma (a1 b2 + b1 a2)}


@dataclass(frozen=True)
class QuantizationReport:
    ok: bool
    q: int
    convention: int     # sigma read off the (e, m) entry
    max_deviation: float
    entries: Tuple[QuantizationEntry, ...]


PHASE_TOL = 1e-9   # quantization_check's tolerance on every phase


def quantization_check(code: ToricCode,
                       pairs: Optional[Sequence[Tuple[AnyonType, AnyonType]]] = None
                       ) -> QuantizationReport:
    """Braiding phases for all type pairs are q-th roots of unity.

    Each phase is compared against the crossing-count oracle and against the
    bilinear form omega^{sigma (a1 b2 + b1 a2)} whose global sign convention
    sigma is read off the electric-vs-magnetic entry.

    The string paths, the ground group and the crossing numbers are built
    once per check; each type (mod q) gets its four strings and its two loop
    expectations once, on first use; each pair then costs three Pauli
    compositions and one expectation exponent.  An entry keeps its types as
    given.
    """
    lat = code.lattice
    q = lat.q
    paths = smatrix_paths(lat)
    braiding = _Braiding(lat, paths, ground_group(code))
    crossings = crossing_numbers(paths)
    if pairs is None:
        types = [AnyonType(a, b) for a in range(q) for b in range(q)]
        pairs = [(t1, t2) for t1 in types for t2 in types]
    em = braiding.phase(AnyonType(1, 0), AnyonType(0, 1))
    k_em = round(q * (cmath.phase(em) / (2 * math.pi))) % q
    sigma = -1 if k_em == q - 1 else 1
    entries = []
    max_dev = 0.0
    ok = True
    for t1, t2 in pairs:
        phase = braiding.phase(t1, t2)
        k = round(q * (cmath.phase(phase) / (2 * math.pi))) % q
        dev = abs(phase - cmath.exp(2j * cmath.pi * k / q))
        oracle = _oracle_phase(q, crossings, t1, t2)
        oracle_ok = abs(phase - oracle) <= PHASE_TOL
        e_form = (sigma * (t1.a * t2.b + t1.b * t2.a)) % q
        formula_ok = abs(phase - cmath.exp(2j * cmath.pi * e_form / q)) <= PHASE_TOL
        max_dev = max(max_dev, dev)
        if dev > PHASE_TOL or not oracle_ok or not formula_ok:
            ok = False
        entries.append(QuantizationEntry(
            t1=t1, t2=t2, phase=phase, power=k, deviation=dev,
            oracle_ok=oracle_ok, formula_ok=formula_ok,
        ))
    return QuantizationReport(
        ok=ok, q=q, convention=sigma, max_deviation=max_dev,
        entries=tuple(entries),
    )


# ---------------------------------------------------------------------------
# Information-convex annulus demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingAnnulus:
    edges: Tuple[int, ...]
    thickened: Tuple[int, ...]
    balls: Tuple[Tuple[int, ...], ...]
    strings: Tuple[Tuple[AnyonType, PauliLabel], ...]


def ring_annulus(lat: ToricLattice) -> RingAnnulus:
    """A width-1 ring of 8 edges around the hole edge v(1, 0), with the
    anyon-pair strings threading the hole for every type (the Z string ends
    on a vertex inside the ring, the X string on an adjacent plaquette).

    Ly >= 4 keeps noncontractible cycles out of the ring's own edge set (on a
    3 x 3 torus a winding cycle fits inside the ring and inflates the
    supported subgroup past the two loop generators)."""
    if lat.Lx < 3 or lat.Ly < 4:
        raise GeometryTooSmall("the ring annulus needs at least a 3 x 4 torus")
    edges = sorted({
        lat.h_edge(0, 0), lat.h_edge(1, 0),
        lat.h_edge(0, 1), lat.h_edge(1, 1),
        lat.v_edge(0, 0), lat.v_edge(2, 0),
        lat.v_edge(1, 1), lat.v_edge(1, lat.Ly - 1),
    })
    thickened = sorted(set(edges) | {lat.v_edge(1, 0)})
    balls = tuple((e,) for e in edges)
    e_path = primal_walk(lat, (1, 0), ["+y", "+y"])
    m_path = dual_walk(lat, (0, 0), ["-y"])
    strings = []
    for a in range(lat.q):
        for b in range(lat.q):
            t = AnyonType(a, b)
            strings.append((t, anyon_string(lat, t, [e_path, m_path])))
    return RingAnnulus(
        edges=tuple(edges),
        thickened=tuple(thickened),
        balls=balls,
        strings=tuple(strings),
    )


@dataclass(frozen=True)
class AnnulusReport:
    ok: bool
    point_count: int
    expected: int
    l_rank: int
    vacuum_ok: bool
    max_commutator: float
    pauli_connected: bool
    max_conjugation_defect: float
    anyon_matched: bool
    min_match_fidelity: float
    dense_checked: bool
    assignments: Tuple[Tuple[int, ...], ...]
    points: Tuple[stabilizer.ExtremePoint, ...]




def _same_state(A: StabilizerGroup, B: StabilizerGroup) -> bool:
    """Whether A and B stabilize the same state: the same lattice, and every
    generator of A a phase-matched member of B."""
    return A.key == B.key and all(
        stabilizer.member(B, g) == stabilizer.MEMBER_PHASE_MATCH for g in A.gens
    )


def annulus_extreme_points(code: ToricCode,
                           annulus: Optional[Sequence[int]] = None,
                           strings: Optional[Sequence[Tuple[AnyonType, PauliLabel]]] = None,
                           config: RunConfig = DEFAULT_CONFIG) -> AnnulusReport:
    """Extreme points of the information convex set of an annulus.

    Defaults to the ring of ring_annulus with its thickening, balls and
    strings; a given annulus is its own thickening with one ball per edge.
    An l-rank other than 2 raises NotAnAnnulus.

    The extreme points, their Pauli conjugates and the string-twisted
    reductions all lie on the vacuum's lattice, restrict(s_r, omega):
    extreme_points completes S_loc to S_r's key, and conjugation and
    restriction keep rows.  That premise is asserted.  Projector states on
    one isotropic lattice commute, and are equal when their phases agree and
    orthogonal otherwise, so every check is an exact group comparison:
    max_commutator is 0.0, each string's best match fidelity is 1.0 or 0.0,
    and a conjugation defect is 0.0 or sqrt(2 / rank), the Frobenius
    distance of two orthogonal states.  The report checks q^2 points, the
    vacuum point, a re-phasing Pauli for every ordered pair of points and
    one distinct point per string.
    """
    lat = code.lattice
    q = lat.q
    if annulus is None:
        ring = ring_annulus(lat)
        annulus, thickened, balls = ring.edges, ring.thickened, ring.balls
        if strings is None:
            strings = ring.strings
    else:
        thickened, balls = annulus, [(e,) for e in annulus]
    omega = sorted(annulus)
    m = len(omega)
    G = ground_group(code)
    ref = stabilizer.supported_subgroup(G, sorted(thickened))
    s_r = stabilizer.supported_subgroup(ref, omega)
    points = stabilizer.extreme_points(StabilizerProjectionState(ref), omega, balls)
    l_rank = len(points[0].l_gens) if points else 0
    if l_rank != 2:
        raise NotAnAnnulus("free logical rank is %d, expected 2" % l_rank)
    expected = q * q
    groups = [pt.state.group for pt in points]
    vacuum = stabilizer.restrict(s_r, omega)
    twisted = [
        stabilizer.restrict(stabilizer.conjugated(s_r, U), omega) for _, U in strings or ()
    ]
    if any(S.key != vacuum.key for S in groups + twisted):
        raise AssertionError("annulus states off the vacuum's lattice")

    # vacuum point: the plain reduction of the reference state
    vac_idx = next(
        (i for i, pt in enumerate(points) if not any(pt.assignment)), None
    )
    vacuum_ok = vac_idx is not None and _same_state(groups[vac_idx], vacuum)

    max_defect = 0.0
    connected = True
    for i in range(len(points)):
        for j in range(len(points)):
            if i == j:
                continue
            deltas = [
                (uj - ui) % pauli.order(g)
                for g, ui, uj in zip(points[i].l_gens, points[i].assignment,
                                     points[j].assignment)
            ]
            P = stabilizer.find_rephasing_pauli(points[i].l_gens, deltas)
            if not _same_state(stabilizer.conjugated(groups[i], P), groups[j]):
                connected = False
                max_defect = math.sqrt(2 / points[j].state.rank)

    # the point each string's twisted reduction equals, if any
    matches = [
        next((i for i, G in enumerate(groups) if _same_state(G, S)), None)
        for S in twisted
    ]
    min_fid = 0.0 if None in matches else 1.0
    anyon_matched = bool(matches) and None not in matches \
        and len(set(matches)) == len(matches)

    # the dense cross-check gates ok but is not reported: its norms carry
    # BLAS rounding that moves with the thread count, where the group
    # comparisons above are exact
    dense_checked, dense_commute = False, True
    if q ** m <= min(config.dense_limit, 4096):
        dense_checked = True
        mats = [stabilizer.sps_dense(pt.state, config) for pt in points]

        def commutator_norm(A: np.ndarray, B: np.ndarray) -> float:
            AB = A @ B
            AB -= B @ A  # in place: the check's largest temporary is its products
            return np.linalg.norm(AB)

        dense_commute = all(
            commutator_norm(mats[i], mats[j]) < 1e-9
            for i in range(len(mats)) for j in range(i + 1, len(mats)))

    ok = (
        len(points) == expected
        and vacuum_ok
        and dense_commute
        and connected
        and anyon_matched
    )
    return AnnulusReport(
        ok=ok,
        point_count=len(points),
        expected=expected,
        l_rank=l_rank,
        vacuum_ok=vacuum_ok,
        max_commutator=0.0,
        pauli_connected=connected,
        max_conjugation_defect=max_defect,
        anyon_matched=anyon_matched,
        min_match_fidelity=min_fid,
        dense_checked=dense_checked,
        assignments=tuple(pt.assignment for pt in points),
        points=tuple(points),
    )
