"""The four workloads.

Each workload builds its inputs from the seed in __init__ and then runs
whole rounds of the same operations.  A round times only the calls into
the package (or, for cli-session, the child processes); the checks in
checks.py and the host speed probe (speed.py) run between the timed calls.
A round returns a Round record: program seconds, the timed parts behind the
breakdown figures, and the operations attempted, failed, and failed because
an output was wrong.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

import checks

# Base states are fixed; the seed picks the Clifford applied to each.  The
# cone solver's cost varies by more than 10x between random states of one
# size (0.1 s to 5 s at (1,3)), so fresh random states would make per-run
# figures differ by the inputs drawn rather than by the code; a Clifford
# image keeps the work of an input while changing its amplitudes and which
# dictionary states and LP columns it meets, and every measure is Clifford
# invariant.
BASE_SEED = 20260517


@dataclass
class Round:
    meter: object
    program_s: float = 0.0
    parts: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: List[str] = field(default_factory=list)

    def part(self, name, seconds):
        self.parts.setdefault(name, []).append(seconds)
        self.program_s += seconds

    def op(self, errs, wrong=True):
        """Record one operation with its check errors."""
        self.meter.tick()
        self.attempted += 1
        if errs:
            self.failed += 1
            self.wrong += int(wrong)
            self.errors.extend(errs[:3])


def _clifford_image(base, rng, q, n):
    U = checks.random_clifford(rng, q, n)
    if not checks.is_clifford(U, q, n):
        raise AssertionError("Clifford word is not Clifford")
    return U @ base


# ---------------------------------------------------------------------------
# magic-chain
# ---------------------------------------------------------------------------

class MagicChain:
    """magic_report with all five measures, after one build_dictionary per
    size.  Per round: six random (1,2) base states each under two seeded
    Cliffords (the two images must agree), three random (1,3) base states
    under one seeded Clifford each, the (2,2) state T x T, and one seeded
    stabilizer state per size on which every measure must vanish.

    Random (2,2) states took 20 s to 28 s each in the cone solver on the
    2-CPU reference host, more than a run holds; T x T, the product of two
    single-qubit T-type magic states, took 5 s to 6 s.  T x T is not
    rotated: its cone iteration count depends on the Clifford frame (75 to
    105 over six frames), so a seeded frame would make the figure depend on
    the seed.  The random (1,3) bases keep their iteration counts across
    frames."""

    # (n, q, base states, seeded Clifford images per base, breakdown name);
    # zero images means the base state itself
    SIZES = [(1, 2, 6, 2, "chain_q2n1_s"), (1, 3, 3, 1, "chain_q3n1_s"),
             (2, 2, 1, 0, "chain_q2n2_s")]
    # two rounds: the probe runs only between operations, so one round's
    # figure still carries the host's speed during its 5 s (2,2) call
    min_rounds = 2

    def __init__(self, seed, workdir, meter):
        from quditmagic import magic
        self.magic = magic
        self.meter = meter
        self.inputs = []  # (n, q, part, psi, kind, base index)
        for n, q, bases, images, part in self.SIZES:
            base_rng = np.random.default_rng([BASE_SEED, n, q])
            rng = np.random.default_rng([seed, n, q])
            for j in range(bases):
                if (n, q) == (2, 2):
                    t = np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex)
                    base = np.kron(t, t)
                else:
                    base = checks.random_state(base_rng, q ** n)
                if images == 0:
                    self.inputs.append((n, q, part, base, "magic", j))
                for _ in range(images):
                    self.inputs.append((n, q, part, _clifford_image(base, rng, q, n), "magic", j))
            zero = np.zeros(q ** n, dtype=complex)
            zero[0] = 1.0
            self.inputs.append((n, q, None, _clifford_image(zero, rng, q, n), "stabilizer", -1))

    def round(self):
        r = Round(self.meter)
        dics = {}
        for n, q, _, _, _ in self.SIZES:
            t = time.perf_counter()
            dics[(n, q)] = self.magic.build_dictionary(n, q)
            r.part("build_dictionary_s", time.perf_counter() - t)
            r.op(checks.check_dictionary_size(len(dics[(n, q)].vectors), q, n))
        seen = {}
        for n, q, part, psi, kind, base in self.inputs:
            rho = np.outer(psi, psi.conj())
            t = time.perf_counter()
            try:
                rep = self.magic.magic_report(rho, dics[(n, q)])
            except Exception as exc:  # a failed operation, not a harness fault
                r.part(part or "stabilizer_s", time.perf_counter() - t)
                r.op(["magic_report raised %r" % exc], wrong=False)
                continue
            r.part(part or "stabilizer_s", time.perf_counter() - t)
            mv = {"lf": rep.lf, "srel": rep.s_rel, "smax": rep.s_max_set,
                  "lgr": rep.lgr, "lr": rep.lr}
            vals = {k: v.value for k, v in mv.items()}
            lower = checks.check_statuses({k: v.status for k, v in mv.items()})
            if lower:
                r.op(lower, wrong=False)
                continue
            errs = checks.check_chain(vals["lf"], vals["srel"], mv["srel"].gap,
                                      vals["smax"], vals["lgr"], vals["lr"])
            errs += checks.check_lr_ceiling(vals["lr"], q, n)
            if n == 1:
                errs += checks.check_lf_reference(vals["lf"], psi, q)
            if kind == "stabilizer":
                errs += checks.check_vanishing(vals)
            else:
                key = (n, q, base)
                if key in seen:
                    errs += checks.check_invariance(
                        seen[key], vals, {"srel": mv["srel"].gap + 2 * checks.CHAIN_TOL,
                                          "smax": checks.CHAIN_TOL, "lgr": checks.CHAIN_TOL})
                seen[key] = vals
            r.op(errs)
        return r

    @staticmethod
    def breakdown(rounds):
        out = {}
        for _, _, _, _, part in MagicChain.SIZES:
            vals = [x for rd in rounds for x in rd.parts.get(part, [])]
            out[part] = (float(np.median(vals)), "s")
        return out


# ---------------------------------------------------------------------------
# enum-mi
# ---------------------------------------------------------------------------

class EnumMi:
    """Every stabilizer projection state at n = 2 for q = 2, 3, 6 with the
    group-side MI of the two sites; dense cross-checks on all states at
    q = 2, 3 and on a seeded sample at q = 6."""

    QS = (2, 3, 6)
    DENSE_SAMPLE = 200
    min_rounds = 1

    def __init__(self, seed, workdir, meter):
        from quditmagic import stabilizer
        self.stabilizer = stabilizer
        self.meter = meter
        rng = np.random.default_rng([seed, 6])
        total6 = checks.sps_count_n2(6)
        self.sample = {2: None, 3: None,
                       6: set(rng.choice(total6, size=self.DENSE_SAMPLE, replace=False).tolist())}

    def round(self):
        r = Round(self.meter)
        stab = self.stabilizer
        for q in self.QS:
            sample = self.sample[q]
            mis = []
            stash = []
            count = 0
            probe_s = 0.0
            t = time.perf_counter()
            for sps in stab.enumerate_sps(2, q):
                probe_s += self.meter.tick()
                S = sps.group
                o0 = stab.supported_subgroup(S, [0]).order
                o1 = stab.supported_subgroup(S, [1]).order
                mis.append(math.log2(S.order / (o0 * o1)))
                if sample is None or count in sample:
                    stash.append((count, tuple((g.a, g.b, g.c) for g in S.gens)))
                count += 1
            r.part("enum_q%d_s" % q, time.perf_counter() - t - probe_s)
            r.parts.setdefault("states", []).append(count)
            r.op(checks.check_sps_count(count, q))
            dense = {}
            keys = []
            for idx, gens in stash:
                try:
                    rho = checks.projector_state(q, 2, gens)
                except ValueError as exc:  # inconsistent phases: a wrong output
                    dense[idx] = [str(exc)]
                    continue
                dense[idx] = checks.check_mi_dense(mis[idx], rho, q)
                if sample is None:
                    keys.append(checks.projector_key(rho))
            for idx, mi in enumerate(mis):
                r.op(checks.check_mi_window(mi, q) + dense.get(idx, []))
            if sample is None:
                r.op(checks.check_distinct(keys))
        return r

    @staticmethod
    def breakdown(rounds):
        states = sum(sum(rd.parts["states"]) for rd in rounds)
        secs = sum(sum(rd.parts["enum_q%d_s" % q]) for rd in rounds for q in EnumMi.QS)
        return {"sps_per_s": (states / secs, "SPS/s")}


# ---------------------------------------------------------------------------
# toric-braid
# ---------------------------------------------------------------------------

class ToricBraid:
    """quantization_check on eight tori (all type pairs, in a seeded order),
    the dense oracle where q^edges <= 20000, and annulus_extreme_points at
    (2,4,4) and (3,3,4) with the anyon strings in a seeded order."""

    TORI = [(q, lx, ly) for q in (2, 3) for lx, ly in ((2, 2), (2, 3), (3, 2), (3, 3))]
    ANNULI = [(2, 4, 4), (3, 3, 4)]
    DENSE_LIMIT = 20000
    min_rounds = 1

    def __init__(self, seed, workdir, meter):
        from quditmagic import toric
        self.toric = toric
        self.meter = meter
        rng = np.random.default_rng([seed, 7])
        self.pairs = {}
        for q in (2, 3):
            types = [toric.AnyonType(a, b) for a in range(q) for b in range(q)]
            pairs = [(t1, t2) for t1 in types for t2 in types]
            self.pairs[q] = [pairs[i] for i in rng.permutation(len(pairs))]
        self.strings = {}
        for q, lx, ly in self.ANNULI:
            ring = toric.ring_annulus(toric.ToricLattice(q=q, Lx=lx, Ly=ly))
            self.strings[q] = [ring.strings[i] for i in rng.permutation(len(ring.strings))]

    def round(self):
        r = Round(self.meter)
        tor = self.toric
        for q, lx, ly in self.TORI:
            t = time.perf_counter()
            code = tor.build_toric(q, lx, ly)
            rep = tor.quantization_check(code, self.pairs[q])
            oracle = {}
            if q ** code.lattice.n_edges <= self.DENSE_LIMIT:
                for e in rep.entries:
                    oracle[(e.t1, e.t2)] = tor.s_matrix_dense(code, e.t1, e.t2)
            r.part("smatrix_s", time.perf_counter() - t)
            errs = [] if rep.ok else ["quantization_check reports failure"]
            errs += checks.check_braiding(
                q, [(e.t1.a, e.t1.b, e.t2.a, e.t2.b, e.phase) for e in rep.entries])
            for e in rep.entries:
                if (e.t1, e.t2) in oracle:
                    errs += checks.check_oracle(e.phase, oracle[(e.t1, e.t2)])
            r.op(errs)
        for q, lx, ly in self.ANNULI:
            t = time.perf_counter()
            rep = tor.annulus_extreme_points(tor.build_toric(q, lx, ly), strings=self.strings[q])
            r.part("annulus_s", time.perf_counter() - t)
            errs = [] if rep.ok else ["annulus_extreme_points reports failure"]
            errs += checks.check_annulus(q, rep.point_count, rep.min_match_fidelity,
                                         rep.assignments)
            r.op(errs)
        return r

    @staticmethod
    def breakdown(rounds):
        return {name: (float(np.median([sum(rd.parts[name]) for rd in rounds])), "s")
                for name in ("smatrix_s", "annulus_s")}


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

class CliSession:
    """Fresh `python -m quditmagic.cli` processes, each command once per
    round and at least two rounds per run, so every command repeats."""

    COVER = (8, 3)
    SANDWICH = (11, [0, 1, 2], [8, 9, 10], 2)  # n, regionA, regionB, depth
    min_rounds = 2

    def __init__(self, seed, workdir, meter, env, root):
        self.meter = meter
        self.env = env
        self.root = root
        self.workdir = Path(workdir)
        self.seed = seed
        self.traced = False
        self.span_files = []
        self.first_stdout = {}
        base_rng = np.random.default_rng([BASE_SEED, 1, 3])
        rng = np.random.default_rng([seed, 1, 3])
        self.magic_psi = _clifford_image(checks.random_state(base_rng, 3), rng, 3, 1)
        n, A, B, depth = self.SANDWICH
        self.sandwich_psi = checks.random_state(np.random.default_rng([seed, n, 2]), 2 ** n)
        magic_path = self.workdir / "state_q3_n1.json"
        sandwich_path = self.workdir / "state_q2_n11.json"
        for path, q, nn, psi in ((magic_path, 3, 1, self.magic_psi),
                                 (sandwich_path, 2, n, self.sandwich_psi)):
            path.write_text(json.dumps({"q": q, "n": nn, "amplitudes": [
                [float(z.real), float(z.imag)] for z in psi]}))
        q, nc = self.COVER
        self.commands = [
            ("cli_cover_s", ["cover", "--q", str(q), "--n", str(nc), "--verify"]),
            ("cli_magic_s", ["magic", "--state", str(magic_path)]),
            ("cli_smatrix_s", ["toric", "smatrix", "--q", "3", "--lx", "3", "--ly", "3"]),
            ("cli_annulus_s", ["toric", "annulus", "--q", "3", "--lx", "3", "--ly", "4"]),
            ("cli_sandwich_s", ["--seed", str(seed), "witness", "sandwich",
                                "--state", str(sandwich_path),
                                "--regionA", ",".join(map(str, A)),
                                "--regionB", ",".join(map(str, B)),
                                "--depth", str(depth)]),
        ]
        self.cover_rng_seed = [seed, 8]

    def _argv(self, name, args):
        if not self.traced:
            return [sys.executable, "-m", "quditmagic.cli"] + args
        spans = self.workdir / ("spans-%s-%d.npz" % (name, len(self.span_files)))
        self.span_files.append(spans)
        return [sys.executable, str(Path(__file__).with_name("trace_child.py")),
                str(spans)] + args

    def round(self):
        r = Round(self.meter)
        for name, args in self.commands:
            argv = self._argv(name, args)
            t = time.perf_counter()
            proc = subprocess.run(argv, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=150)
            r.part(name, time.perf_counter() - t)
            if proc.returncode != 0:
                r.op(checks.check_exit(proc.returncode), wrong=False)
                continue
            try:
                rep = json.loads(proc.stdout)
            except ValueError:
                rep = None
            errs = checks.check_schema(rep)
            if name in self.first_stdout:
                errs += checks.check_repeat(self.first_stdout[name], proc.stdout)
            else:
                self.first_stdout[name] = proc.stdout
            if not errs:
                errs = self._check(name, rep)
            r.op(errs)
        return r

    def _check(self, name, rep):
        if name == "cli_cover_s":
            q, n = self.COVER
            rng = np.random.default_rng(self.cover_rng_seed)
            return (checks.check_cover_report(rep, q, n)
                    + checks.check_isotropic(rep["members"], q, n, rng)
                    + checks.check_coverage(rep["members"], q, n, rng))
        if name == "cli_magic_s":
            m = rep["measures"]
            lower = checks.check_statuses({k: v["status"] for k, v in m.items()})
            return lower + checks.check_chain(
                m["lf"]["value"], m["srel"]["value"], m["srel"]["gap"],
                m["smax"]["value"], m["lgr"]["value"], m["lr"]["value"]) \
                + checks.check_lr_ceiling(m["lr"]["value"], 3, 1) \
                + checks.check_lf_reference(m["lf"]["value"], self.magic_psi, 3)
        if name == "cli_smatrix_s":
            errs = [] if rep["ok"] else ["toric smatrix reports failure"]
            return errs + checks.check_braiding(3, [
                (e["t1"][0], e["t1"][1], e["t2"][0], e["t2"][1], complex(*e["phase"]))
                for e in rep["table"]])
        if name == "cli_annulus_s":
            errs = [] if rep["ok"] else ["toric annulus reports failure"]
            return errs + checks.check_annulus(3, rep["point_count"],
                                               rep["min_match_fidelity"], rep["assignments"])
        n, A, B, depth = self.SANDWICH
        return checks.check_sandwich(rep, self.sandwich_psi, 2, n, A, B, depth)

    @staticmethod
    def breakdown(rounds):
        return {name: (float(np.median([x for rd in rounds for x in rd.parts[name]])), "s")
                for name in ("cli_cover_s", "cli_magic_s", "cli_smatrix_s",
                             "cli_annulus_s", "cli_sandwich_s")}


WORKLOADS = {
    "magic-chain": MagicChain,
    "enum-mi": EnumMi,
    "toric-braid": ToricBraid,
    "cli-session": CliSession,
}
