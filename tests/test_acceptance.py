"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible with `pytest -s` or on failure) and then asserts.  Tolerances and
runtime budgets are stated inline next to each check.
"""

import itertools
import math
import time

import numpy as np

from quditmagic import (
    covering,
    dense,
    linalg,
    magic,
    pauli,
    ring,
    stabilizer,
    toric,
    witness,
)
from quditmagic.config import RunConfig

import dense_oracles


def report(k, ok, detail):
    print("CRITERION %d: %s (%s)" % (k, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def random_pure(rng, q, n):
    v = rng.normal(size=q ** n) + 1j * rng.normal(size=q ** n)
    return v / np.linalg.norm(v)


def random_density(rng, q, n, k=3):
    d = q ** n
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(k):
        v = random_pure(rng, q, n)
        acc += rng.uniform(0.1, 1.0) * np.outer(v, v.conj())
    return acc / np.trace(acc).real


def t_state():
    return np.array(
        [math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex
    )


def test_criterion_01_covering_lemma():
    # exhaustive cover verification for eight (q, n) pairs in under 10 s,
    # with the family size matching q^n * prod_j (1 + p_j^{-n}) exactly
    start = time.time()
    cases = [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (3, 2), (2, 3)]
    worst = ""
    ok = True
    for q, n in cases:
        fam = covering.cover_composite(q, n)
        expected = q ** n
        for p, _ in ring.factorize(q).factors:
            expected = expected * (p ** n + 1) // p ** n
        rep = covering.verify_cover(fam)
        if not rep.ok or len(fam.members) != expected:
            ok = False
            worst = "failed at (%d, %d): %s" % (q, n, rep.failures)
            break
    elapsed = time.time() - start
    if elapsed >= 10.0:
        ok = False
        worst = "runtime %.1f s exceeds 10 s" % elapsed
    report(1, ok, worst or "8 covers verified in %.1f s" % elapsed)


def _random_independent_tableau(rng, q, n):
    while True:
        k = int(rng.integers(1, 3)) if n == 2 else 1
        gens = []
        for _ in range(k):
            a = [int(x) for x in rng.integers(0, q, size=n)]
            b = [int(x) for x in rng.integers(0, q, size=n)]
            if not any(a) and not any(b):
                break
            gens.append(pauli.label(q, n, a, b, 0))
        if len(gens) != k:
            continue
        rows = [pauli.symplectic_vector(g) for g in gens]
        prod = 1
        for g in gens:
            prod *= pauli.order(g)
        if linalg.subgroup_order(rows, q, 2 * n) == prod:
            return gens


def test_criterion_02_rephasing_lemma():
    # 200 random independent tableaux, every phase-target tuple, dense
    # conjugation reproduces zeta_i^{u_i} g_i to 1e-10, in under 60 s
    start = time.time()
    rng = np.random.default_rng(20240)
    qs = [2, 3, 4, 6]
    checked = 0
    worst = 0.0
    ok = True
    detail = ""
    for i in range(200):
        q = qs[i % len(qs)]
        n = 1 + (i // len(qs)) % 2
        gens = _random_independent_tableau(rng, q, n)
        orders = [pauli.order(g) for g in gens]
        mats = [dense_oracles.to_dense(g) for g in gens]
        for targets in itertools.product(*(range(d) for d in orders)):
            P = stabilizer.find_rephasing_pauli(gens, targets)
            M = dense_oracles.to_dense(P)
            Minv = M.conj().T
            for g, mat, d, u in zip(gens, mats, orders, targets):
                zeta = np.exp(2j * np.pi * u / d)
                err = float(np.max(np.abs(M @ mat @ Minv - zeta * mat)))
                worst = max(worst, err)
                if err > 1e-10:
                    ok = False
                    detail = "conjugation error %.2e on q=%d n=%d" % (err, q, n)
            checked += 1
    elapsed = time.time() - start
    if elapsed >= 60.0:
        ok = False
        detail = "runtime %.1f s exceeds 60 s" % elapsed
    report(
        2, ok,
        detail or "%d target tuples, max error %.2e, %.1f s" % (checked, worst, elapsed),
    )


def test_criterion_03_monotone_chain():
    # LF <= S_rel <= S_max-to-set <= LGR <= LR within 1e-5 on 50 random pure
    # states at (1, 2) and 50 at (1, 3), with certified S_max/LGR brackets of
    # width <= 1e-6, in under 2 min
    start = time.time()
    rng = np.random.default_rng(303)
    tol = 1e-5
    ok = True
    detail = ""
    for q in (2, 3):
        dic = magic.build_dictionary(1, q)
        for _ in range(50):
            psi = random_pure(rng, q, 1)
            rho = dense.density_of(psi)
            lf, _ = magic.lf_pure(psi, dic)
            fw = magic.rel_entropy_magic(rho, dic).s_rel
            sm = magic.smax_lgr_pure(psi, dic)
            lr = magic.lr_lp(rho, dic).lr
            chain = [
                ("LF <= S_rel", lf, fw.value + tol),
                ("S_rel <= S_max", fw.value - fw.gap, sm.s_max_set.value + tol),
                ("S_max <= LGR", sm.s_max_set.value, sm.lgr.value + tol),
                ("LGR <= LR", sm.lgr.value, lr.value + tol),
                ("S_max gap <= 1e-6", max(sm.s_max_set.gap, sm.lgr.gap), 1e-6),
            ]
            for name, lo, hi in chain:
                if lo > hi:
                    ok = False
                    detail = "%s violated by %.2e at q=%d" % (name, lo - hi, q)
    elapsed = time.time() - start
    if elapsed >= 120.0:
        ok = False
        detail = "runtime %.1f s exceeds 2 min" % elapsed
    report(3, ok, detail or "100 states, chain holds, %.1f s" % elapsed)


def test_criterion_04_robustness_ceiling():
    # LR never exceeds (n + 2^{-n-1}) log q + 1e-6, including (2, 2)
    rng = np.random.default_rng(404)
    ok = True
    detail = ""
    worst = -1.0
    for q, n, count in ((2, 1, 50), (3, 1, 50), (2, 2, 20)):
        dic = magic.build_dictionary(n, q)
        ceiling = covering.lr_upper_bound(n, q)
        for _ in range(count):
            rho = dense.density_of(random_pure(rng, q, n))
            lr = magic.lr_lp(rho, dic).lr
            worst = max(worst, lr.value - ceiling)
            if lr.value > ceiling + 1e-6:
                ok = False
                detail = "LR %.6f > ceiling %.6f at (q=%d, n=%d)" % (
                    lr.value, ceiling, q, n
                )
    report(4, ok, detail or "120 states, max LR - ceiling = %.2e" % worst)


def test_criterion_05_t_state_scaling():
    # LF is additive on T tensor T to 1e-9 and the patch certificate with the
    # exact per-patch distance never exceeds it
    dic1 = magic.build_dictionary(1, 2)
    dic2 = magic.build_dictionary(2, 2)
    t1 = t_state()
    t2 = np.kron(t1, t1)
    lf1, _ = magic.lf_pure(t1, dic1)
    lf2, _ = magic.lf_pure(t2, dic2)
    add_err = abs(lf2 - 2 * lf1)
    eps, _ = magic.distance_to_sps(dense.density_of(t1), 1, 2)
    cert = magic.certify_product_lf([(eps, 2), (eps, 2)])
    ok = add_err < 1e-9 and cert.bound <= lf2 + 1e-12
    report(
        5, ok,
        "additivity error %.2e, certificate %.6f <= LF %.6f" % (
            add_err, cert.bound, lf2
        ),
    )


def test_criterion_06_braiding_quantization():
    # every braiding phase is a q-th root of unity to 1e-9 and matches the
    # crossing-count oracle; the dense ground-state evaluation agrees where
    # the Hilbert space fits the dense budget
    ok = True
    detail = ""
    worst = 0.0
    for q in (2, 3):
        for Lx, Ly in ((2, 2), (2, 3), (3, 2), (3, 3)):
            code = toric.build_toric(q, Lx, Ly)
            rep = toric.quantization_check(code)
            worst = max(worst, rep.max_deviation)
            if not rep.ok:
                ok = False
                detail = "quantization failed at q=%d %dx%d" % (q, Lx, Ly)
            if q ** code.lattice.n_edges <= 20000:
                for e in rep.entries:
                    s_dense = toric.s_matrix_dense(code, e.t1, e.t2)
                    oracle = toric.crossing_phase_oracle(
                        code.lattice, e.t1, e.t2
                    )
                    if abs(s_dense - oracle) > 1e-9:
                        ok = False
                        detail = "dense/oracle mismatch at q=%d %dx%d" % (q, Lx, Ly)
    report(6, ok, detail or "8 tori, max deviation %.2e" % worst)


def test_criterion_07_information_convex():
    # the annulus has exactly q^2 commuting, Pauli-connected extreme points,
    # each matched by an anyon string through the hole
    ok = True
    details = []
    for q, Lx, Ly in ((2, 4, 4), (3, 3, 4)):
        rep = toric.annulus_extreme_points(toric.build_toric(q, Lx, Ly))
        good = (
            rep.ok
            and rep.point_count == q * q
            and rep.max_commutator < 1e-9
            and rep.pauli_connected
            and rep.anyon_matched
            and rep.min_match_fidelity > 1 - 1e-9
        )
        if not good:
            ok = False
        details.append(
            "q=%d: %d points, comm %.1e, fid %.12f" % (
                q, rep.point_count, rep.max_commutator, rep.min_match_fidelity
            )
        )
    report(7, ok, "; ".join(details))


def test_criterion_08_sm_distinguishability():
    # the constructed Pauli measurement separates 100 random density pairs by
    # at least the 1-norm over the dimension
    rng = np.random.default_rng(808)
    ok = True
    detail = ""
    margin = float("inf")
    cases = [(2, 1), (2, 2), (3, 1), (3, 2)]
    for i in range(100):
        q, n = cases[i % len(cases)]
        rho = random_density(rng, q, n)
        sigma = random_density(rng, q, n)
        _, dist = magic.sm_distinguishing_pauli(rho, sigma, q, n)
        floor = dense.trace_distance(rho, sigma) / q ** n
        margin = min(margin, dist - floor)
        if dist < floor - 1e-9:
            ok = False
            detail = "pair %d at (q=%d, n=%d): %.3e < %.3e" % (i, q, n, dist, floor)
    report(8, ok, detail or "100 pairs, min margin %.3e" % margin)


def _sps_mi_group(S):
    # I(site 0 : site 1) of an SPS on two sites is log2 |S| / (|S_0| |S_1|):
    # the reduction to a region is the projection state of the supported
    # subgroup, so each entropy is a log of a subgroup index
    o0 = stabilizer.supported_subgroup(S, [0]).order
    o1 = stabilizer.supported_subgroup(S, [1]).order
    return math.log2(S.order / (o0 * o1))


def test_criterion_09_mi_discreteness():
    # over every SPS at n=2, q in {2, 3, 6}, the mutual information of the
    # two single-site regions never lands strictly inside (tol, log p - tol);
    # the tuned entangled state makes the witness fire
    ok = True
    detail = ""
    tol = 1e-6
    counts = {}
    for q in (2, 3, 6):
        p = witness.smallest_prime_divisor(q)
        hi = math.log2(p)
        use_dense = q in (2, 3)
        spot = 0
        count = 0
        for sps in stabilizer.enumerate_sps(2, q):
            count += 1
            mi_g = _sps_mi_group(sps.group)
            if use_dense or spot < 200:
                rho = stabilizer.sps_dense(sps)
                mi_d = dense.mutual_information(rho, q, 2, [0], [1])
                if abs(mi_d - mi_g) > 1e-8:
                    ok = False
                    detail = "group/dense MI mismatch %.2e at q=%d" % (
                        abs(mi_d - mi_g), q
                    )
                spot += 1
                mi = mi_d
            else:
                mi = mi_g
            if tol < mi < hi - tol:
                ok = False
                detail = "MI %.6f inside forbidden window at q=%d" % (mi, q)
        counts[q] = count
    if counts != {2: 91, 3: 481, 6: 43771}:
        ok = False
        detail = "enumeration counts %r are wrong" % (counts,)
    # tuned state: cos(theta)|00> + sin(theta)|11> with I(A:B) = 1/2
    import scipy.optimize

    def h2(x):
        return -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    theta = scipy.optimize.brentq(
        lambda t: 2 * h2(math.cos(t) ** 2) - 0.5, 0.01, 0.4
    )
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = math.cos(theta), math.sin(theta)
    verdict = witness.mi_forbidden_window(dense.density_of(v), 2, 2, [0], [1])
    if verdict.verdict != witness.VERDICT_FIRES:
        ok = False
        detail = "witness silent on the tuned state (MI %.6f)" % verdict.mi
    report(
        9, ok,
        detail or "%d + %d + %d states clean, witness fires at MI %.4f" % (
            counts[2], counts[3], counts[6], verdict.mi
        ),
    )


def test_criterion_10_mi_sandwich():
    # 20 random depth-1 and depth-2 brickwork circuits on 8 qubits obey
    # I(A^-d : B^-d) <= I_after(A : B) <= I(A^+d : B^+d) to 1e-8
    rng = np.random.default_rng(1010)
    ok = True
    detail = ""
    worst = float("inf")
    n = 8
    A, B = [0, 1], [6, 7]
    for i in range(20):
        depth = 1 if i < 10 else 2
        psi = random_pure(rng, 2, n)
        rep = witness.mi_stability_check(psi, 2, n, depth, A, B, rng=rng, tol=1e-8)
        worst = min(worst, rep.slack)
        if not rep.holds:
            ok = False
            detail = "circuit %d (depth %d) slack %.2e" % (i, depth, rep.slack)
    report(10, ok, detail or "20 circuits, min slack %.2e" % worst)


def test_criterion_11_finite_size_assembly():
    # the assembled bound reproduces the hand-composed arithmetic to 1e-12
    # and moves the right way under epsilon and K perturbations
    profile = witness.DecayProfile(K=1.0, xi=1.0, m=10, r0=2.0, c1=3.0, n=1024)
    certs = [(0.5, 2)] * 10
    got = witness.logn_lrm_assemble(profile, certs)
    s = 1.0 * 10 ** 2 * 2.0 ** 2 * 1024.0 ** (-3.0)
    delta2 = 1.0 - math.exp(-s / 2.0)
    delta1 = math.sqrt(1.0 - 0.25 / 16.0) ** 10
    expected = -math.log2((delta1 + math.sqrt(2.0 * delta2)) ** 2)
    err = abs(got - expected)
    stronger = witness.logn_lrm_assemble(profile, [(0.6, 2)] * 10)
    weaker_k = witness.logn_lrm_assemble(
        witness.DecayProfile(K=10.0, xi=1.0, m=10, r0=2.0, c1=3.0, n=1024),
        certs,
    )
    ok = err < 1e-12 and stronger > got and weaker_k < got
    report(
        11, ok,
        "bound %.17g, error %.2e, monotone in eps and K" % (got, err),
    )


def test_criterion_12_extensivity_bound():
    # the Pinsker-route extensive bound on T tensor T stays below the
    # Frank-Wolfe relative-entropy estimate plus its certified gap
    t1 = t_state()
    eps, _ = magic.distance_to_sps(dense.density_of(t1), 1, 2)
    bound = magic.extensive_rel_entropy_bound([(eps, 2), (eps, 2)])
    dic2 = magic.build_dictionary(2, 2)
    t2 = np.kron(t1, t1)
    fw = magic.rel_entropy_magic(dense.density_of(t2), dic2).s_rel
    ok = bound <= fw.value + fw.gap + 1e-12
    report(
        12, ok,
        "extensive bound %.6f <= FW estimate %.6f + gap %.2e" % (
            bound, fw.value, fw.gap
        ),
    )
