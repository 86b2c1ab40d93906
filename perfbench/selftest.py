"""Self-test of the output checks: each check accepts a correct value and
rejects a deliberately corrupted one, so that no check is vacuous.

    python3 perfbench/selftest.py      # exit 0 when every case behaves

run.py calls run() at the start of every benchmark run and reports
correct: false if any case misbehaves.
"""

import itertools
import math
import sys

import numpy as np

import checks as c

NUDGE = 1e-3


def _cases():
    """(name, errors of the correct input, errors of the corrupted input)."""
    chain = dict(lf=0.1, srel=0.2, srel_gap=1e-7, smax=0.3, lgr=0.4, lr=0.5)
    yield "chain", c.check_chain(**chain), c.check_chain(**dict(chain, lf=0.2 + NUDGE))
    yield "chain S_rel-gap <= S_max", [], c.check_chain(**dict(chain, smax=0.2 - NUDGE))
    yield "chain S_max <= LGR", [], c.check_chain(**dict(chain, lgr=0.3 - NUDGE))
    yield "chain LGR <= LR", [], c.check_chain(**dict(chain, lr=0.4 - NUDGE))
    yield ("lower-estimate status", c.check_statuses({"smax": "exact"}),
           c.check_statuses({"smax": c.LOWER_ESTIMATE}))
    yield ("LR ceiling", c.check_lr_ceiling(1.0, 2, 1),
           c.check_lr_ceiling(1.25 + NUDGE, 2, 1))
    yield ("dictionary size", c.check_dictionary_size(60, 2, 2),
           c.check_dictionary_size(61, 2, 2))
    t_state = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
    lf_t = -math.log2(math.cos(math.pi / 8) ** 2)
    yield ("LF reference", c.check_lf_reference(lf_t, t_state, 2),
           c.check_lf_reference(lf_t + NUDGE, t_state, 2))
    yield ("vanishing measures", c.check_vanishing({"lr": 1e-12}),
           c.check_vanishing({"lr": NUDGE}))
    yield ("Clifford invariance", c.check_invariance({"lr": 0.5}, {"lr": 0.5}, {}),
           c.check_invariance({"lr": 0.5}, {"lr": 0.5 + NUDGE}, {}))

    yield "SPS count q=6", c.check_sps_count(43771, 6), c.check_sps_count(43772, 6)
    yield "SPS count q=3", c.check_sps_count(481, 3), c.check_sps_count(480, 3)
    yield "SPS count q=2", c.check_sps_count(91, 2), c.check_sps_count(92, 2)
    yield "MI window", c.check_mi_window(1.0, 2) + c.check_mi_window(0.0, 6), \
        c.check_mi_window(0.5, 6)
    bell2 = [((1, 1), (0, 0), 0), ((0, 0), (1, 1), 0)]
    bell3 = [((1, 2), (0, 0), 0), ((0, 0), (1, 1), 0)]
    rho2, rho3 = c.projector_state(2, 2, bell2), c.projector_state(3, 2, bell3)
    yield ("dense MI", c.check_mi_dense(2.0, rho2, 2) + c.check_mi_dense(2 * math.log2(3), rho3, 3),
           c.check_mi_dense(2.0 - NUDGE, rho2, 2))
    product = c.projector_state(2, 2, [((1, 0), (0, 0), 0), ((0, 1), (0, 0), 0)])
    yield ("dense MI product", c.check_mi_dense(0.0, product, 2),
           c.check_mi_dense(1.0, product, 2))
    yield ("distinct projectors",
           c.check_distinct([c.projector_key(rho2), c.projector_key(product)]),
           c.check_distinct([c.projector_key(rho2), c.projector_key(rho2.copy())]))

    q = 3
    w = np.exp(2j * np.pi / q)
    entries = [(a1, b1, a2, b2, w ** ((a1 * b2 + b1 * a2) % q))
               for a1, b1, a2, b2 in itertools.product(range(q), repeat=4)]
    rotated = list(entries)
    a1, b1, a2, b2, ph = rotated[5]
    rotated[5] = (a1, b1, a2, b2, ph * w)
    yield "braiding phase rotated", c.check_braiding(q, entries), c.check_braiding(q, rotated)
    off_root = list(entries)
    off_root[7] = off_root[7][:4] + (off_root[7][4] * np.exp(1j * NUDGE),)
    yield "braiding phase off root", [], c.check_braiding(q, off_root)
    mirrored = [e[:4] + (np.conj(e[4]),) for e in entries]
    yield "braiding global sign", c.check_braiding(q, mirrored), \
        c.check_braiding(q, mirrored[:40] + entries[40:])
    yield "dense oracle", c.check_oracle(w, w), c.check_oracle(w, w * w)
    assign = list(itertools.product(range(q), repeat=2))
    yield ("annulus", c.check_annulus(q, 9, 1.0, assign),
           c.check_annulus(q, 8, 1.0, assign))
    yield "annulus fidelity", [], c.check_annulus(q, 9, 1.0 - 1e-8, assign)
    yield "annulus assignments", [], c.check_annulus(q, 9, 1.0, assign[:-1] + [assign[0]])

    yield "exit code", c.check_exit(0), c.check_exit(1)
    yield "schema", c.check_schema({"schema": 1}), c.check_schema({"schema": 2})
    yield "repeat", c.check_repeat(b"{}\n", b"{}\n"), c.check_repeat(b"{}\n", b"{ }\n")
    cover = {"member_count": 576, "members": [None] * 576,
             "verify": {"ok": True, "covered_count": 8 ** 6}}
    yield ("cover count", c.check_cover_report(cover, 8, 3),
           c.check_cover_report(dict(cover, member_count=575), 8, 3))
    yield ("covered count", [],
           c.check_cover_report(dict(cover, verify={"ok": True, "covered_count": 8 ** 6 - 1}), 8, 3))
    lines = [[[1, t]] for t in range(3)] + [[[0, 1]]]
    yield ("coverage", c.check_coverage(lines, 3, 1, np.random.default_rng(1)),
           c.check_coverage(lines[:-1], 3, 1, np.random.default_rng(1)))
    zz = [[1, 0, 0, 0], [0, 1, 0, 0]]
    yield ("isotropy", c.check_isotropic([zz], 2, 2, np.random.default_rng(1)),
           c.check_isotropic([[[1, 0, 0, 0], [0, 0, 1, 0]]], 2, 2, np.random.default_rng(1)))

    n, A, B, depth = 6, [0, 1], [4, 5], 1
    psi = c.random_state(np.random.default_rng(5), 2 ** n)
    lo = c.pure_state_mi_bits(psi, 2, n, c.shrink(A, depth, n), c.shrink(B, depth, n))
    hi = c.pure_state_mi_bits(psi, 2, n, c.thicken(A, depth, n), c.thicken(B, depth, n))
    rep = {"i_shrunk": lo, "i_evolved": (lo + hi) / 2, "i_grown": hi, "holds": True}
    yield ("sandwich reference", c.check_sandwich(rep, psi, 2, n, A, B, depth),
           c.check_sandwich(dict(rep, i_grown=hi + NUDGE), psi, 2, n, A, B, depth))
    yield ("sandwich order", [],
           c.check_sandwich(dict(rep, i_evolved=hi + NUDGE), psi, 2, n, A, B, depth))

    T = np.diag([1.0, np.exp(1j * math.pi / 4)])
    yield ("Clifford test", [] if c.is_clifford(c.random_clifford(np.random.default_rng(3), 3, 1), 3, 1)
           else ["a Clifford word failed is_clifford"],
           [] if c.is_clifford(T, 2, 1) else ["T rejected"])
    yield ("stabilizer states", [] if len(c.single_qudit_stabilizer_states(3)) == 12 else ["count"],
           c.check_lf_reference(NUDGE, c.single_qudit_stabilizer_states(3)[4], 3))


def run():
    """Errors: every correct input rejected and every corruption accepted."""
    errors = []
    for name, good, bad in _cases():
        if good:
            errors.append("%s: correct input rejected: %s" % (name, good[0]))
        if not bad:
            errors.append("%s: corrupted input accepted" % name)
    return errors


if __name__ == "__main__":
    errs = run()
    for e in errs:
        print(e)
    print("%d check cases, %d misbehaved" % (sum(1 for _ in _cases()), len(errs)))
    sys.exit(1 if errs else 0)
