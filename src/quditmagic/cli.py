"""Command-line frontend.

Subcommands wrap the library modules with stable flags and JSON reports.
Every report carries ``schema: 1`` and the run configuration, and identical
inputs with the same seed produce byte-identical output.

Exit codes: 0 success, 1 a requested check failed, 2 budget exceeded,
64 usage error, 65 malformed input data, 70 internal error.
"""

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import covering, dense, magic, pauli, stabilizer, toric, witness
from .config import BudgetExceeded, RunConfig

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

SCHEMA = 1


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _complex_pair(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


def _report(config: RunConfig, body: dict) -> dict:
    out = {"schema": SCHEMA, "config": config.as_dict()}
    out.update(body)
    return out


def _emit(config: RunConfig, body: dict) -> None:
    # reports are strict JSON: a non-finite value raises, never prints Infinity
    text = json.dumps(_report(config, body), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    if config.output:
        try:
            with open(config.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write --output file: %s" % exc)
    else:
        sys.stdout.write(text)


def _load_state(path: str):
    try:
        with open(path) as fh:
            return dense.state_from_json(fh.read())
    except OSError as exc:
        raise DataError("cannot read state file: %s" % exc)
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError("malformed state file: %s" % exc)


def _load_tableau(path: str):
    try:
        with open(path) as fh:
            return stabilizer.tableau_from_text(fh.read())
    except OSError as exc:
        raise DataError("cannot read tableau file: %s" % exc)
    except (ValueError, IndexError) as exc:
        raise DataError("malformed tableau file: %s" % exc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_cover(args, config: RunConfig) -> int:
    if args.q < 2 or args.n < 1:
        raise UsageError("need --q >= 2 and --n >= 1")
    expected = covering.expected_member_count(args.q, args.n)
    if expected > config.enum_limit:   # before any ring
        raise BudgetExceeded("cover members exceed limit %d" % config.enum_limit)
    fam = covering.cover_composite(args.q, args.n)
    body = {
        "command": "cover",
        "q": fam.q,
        "n": fam.n,
        "member_count": len(fam.members),
        "expected_count": expected,
        "tags": list(fam.tags),
        "members": [[list(row) for row in m] for m in fam.members],
    }
    status = EXIT_OK
    if args.verify:
        rep = covering.verify_cover(fam, config)
        body["verify"] = {
            "ok": rep.ok,
            "covered_count": rep.covered_count,
            "vector_count": rep.vector_count,
            "failures": list(rep.failures),
        }
        if not rep.ok:
            status = EXIT_FAIL
    if args.tableau_out:
        lines = []
        for tag, member in zip(fam.tags, fam.members):
            group = covering.lift_phase_free(fam.q, fam.n, member)
            lines.append("# %s" % tag)
            lines.append(stabilizer.tableau_to_text(group.gens).rstrip("\n"))
        try:
            with open(args.tableau_out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            raise UsageError("cannot write --tableau-out file: %s" % exc)
    _emit(config, body)
    return status


def _measure_dict(mv) -> Optional[dict]:
    if mv is None:
        return None
    return {"value": mv.value, "status": mv.status, "gap": mv.gap}


def cmd_magic(args, config: RunConfig) -> int:
    q, n, psi = _load_state(args.state)
    measures = magic.ALL_MEASURES
    if args.measures:
        measures = tuple(m.strip() for m in args.measures.split(",") if m.strip())
        if not measures:
            raise UsageError("--measures names no measure")
        bad = [m for m in measures if m not in magic.ALL_MEASURES]
        if bad:
            raise UsageError("unknown measures: %s" % ", ".join(bad))
    dic = magic.build_dictionary(n, q, config)
    rep = magic.magic_report(dense.density_of(psi), dic, measures, config)
    body = {"command": "magic", "q": q, "n": n, "measures": {}}
    for name, mv in (
        ("lf", rep.lf), ("srel", rep.s_rel), ("smax", rep.s_max_set),
        ("lgr", rep.lgr), ("lr", rep.lr),
    ):
        if name in measures:
            body["measures"][name] = _measure_dict(mv)
    _emit(config, body)
    return EXIT_OK


def cmd_rephase(args, config: RunConfig) -> int:
    gens = _load_tableau(args.tableau)
    try:
        targets = [int(x) for x in args.targets.split()]
    except ValueError:
        raise UsageError("--targets must be whitespace-separated integers")
    if len(targets) != len(gens):
        raise UsageError("need one target per tableau generator")
    try:
        P = stabilizer.find_rephasing_pauli(gens, targets)
    except stabilizer.NotIndependent as exc:
        raise DataError(str(exc))
    _emit(config, {
        "command": "rephase",
        "targets": targets,
        "pauli": {"a": list(P.a), "b": list(P.b), "c": P.c},
        "pauli_text": pauli.to_text(P),
    })
    return EXIT_OK


def _parse_pairs(text: str, q: int) -> list:
    pairs = []
    for chunk in text.split(";"):
        try:
            nums = [int(x) for x in chunk.split(",")]
        except ValueError:
            nums = []
        if len(nums) != 4:
            raise UsageError("each pair is a1,b1,a2,b2 with integer entries")
        if any(x not in range(q) for x in nums):
            raise UsageError("pair entries must lie in 0..q-1, got %s" % chunk.strip())
        pairs.append((toric.AnyonType(nums[0], nums[1]),
                      toric.AnyonType(nums[2], nums[3])))
    return pairs


def _toric_check(args, check):
    """check(code) on the toric code of args; a lattice too small for it is
    a usage error."""
    try:
        return check(toric.build_toric(args.q, args.lx, args.ly))
    except toric.GeometryTooSmall as exc:
        raise UsageError(str(exc))


def cmd_smatrix(args, config: RunConfig) -> int:
    pairs = _parse_pairs(args.pairs, args.q) if args.pairs else None
    rep = _toric_check(args, lambda code: toric.quantization_check(code, pairs))
    _emit(config, {
        "command": "toric smatrix",
        "q": args.q, "lx": args.lx, "ly": args.ly,
        "ok": rep.ok,
        "convention": rep.convention,
        "max_deviation": rep.max_deviation,
        "table": [
            {
                "t1": [e.t1.a, e.t1.b],
                "t2": [e.t2.a, e.t2.b],
                "phase": _complex_pair(e.phase),
                "power": e.power,
                "deviation": e.deviation,
                "oracle_ok": e.oracle_ok,
            }
            for e in rep.entries
        ],
    })
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_annulus(args, config: RunConfig) -> int:
    rep = _toric_check(args, lambda code: toric.annulus_extreme_points(code, config=config))
    _emit(config, {
        "command": "toric annulus",
        "q": args.q, "lx": args.lx, "ly": args.ly,
        "ok": rep.ok,
        "point_count": rep.point_count,
        "expected": rep.expected,
        "assignments": [list(a) for a in rep.assignments],
        "max_commutator": rep.max_commutator,
        "pauli_connected": rep.pauli_connected,
        "anyon_matched": rep.anyon_matched,
        "min_match_fidelity": rep.min_match_fidelity,
        "dense_checked": rep.dense_checked,
    })
    return EXIT_OK if rep.ok else EXIT_FAIL


def _parse_region(text: str) -> List[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError("regions are comma- or space-separated site indices")


def _state_and_regions(args):
    q, n, psi = _load_state(args.state)
    return q, n, psi, _parse_region(args.regionA), _parse_region(args.regionB)


def cmd_mi(args, config: RunConfig) -> int:
    q, n, psi, A, B = _state_and_regions(args)
    try:
        verdict = witness.mi_forbidden_window(
            dense.density_of(psi), q, n, A, B, args.tol, config
        )
    except (dense.OverlappingRegions, witness.InvalidInput) as exc:
        raise UsageError(str(exc))
    _emit(config, {
        "command": "witness mi",
        "q": q, "n": n, "A": A, "B": B,
        "mi": verdict.mi,
        "p": verdict.p,
        "window": list(verdict.window),
        "verdict": verdict.verdict,
        "margin": verdict.margin,
    })
    return EXIT_OK


def cmd_sandwich(args, config: RunConfig) -> int:
    q, n, psi, A, B = _state_and_regions(args)
    try:
        rep = witness.mi_stability_check(
            psi, q, n, args.depth, A, B, config=config
        )
    except (dense.OverlappingRegions, witness.InvalidInput) as exc:
        raise UsageError(str(exc))
    _emit(config, {
        "command": "witness sandwich",
        "q": q, "n": n, "A": A, "B": B, "depth": args.depth,
        "i_shrunk": rep.i_shrunk,
        "i_evolved": rep.i_evolved,
        "i_grown": rep.i_grown,
        "holds": rep.holds,
        "slack": rep.slack,
    })
    return EXIT_OK if rep.holds else EXIT_FAIL


def cmd_assemble(args, config: RunConfig) -> int:
    try:
        with open(args.profile) as fh:
            prof = json.load(fh)
        with open(args.certs) as fh:
            certs = json.load(fh)
    except OSError as exc:
        raise DataError("cannot read input file: %s" % exc)
    except ValueError as exc:
        raise DataError("malformed JSON input: %s" % exc)
    try:
        profile = witness.DecayProfile(
            K=dense.json_real(prof["K"]), xi=dense.json_real(prof["xi"]),
            m=dense.json_int(prof["m"]), r0=dense.json_real(prof["r0"]),
            c1=dense.json_real(prof["c1"]), n=dense.json_int(prof["n"]),
        )
        cert_list = [(dense.json_real(e), dense.json_int(d)) for e, d in certs]
        bound = witness.logn_lrm_assemble(profile, cert_list, config)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("bad profile or certificates: %s" % exc)
    _emit(config, {
        "command": "witness assemble",
        "profile": {"K": profile.K, "xi": profile.xi, "m": profile.m,
                    "r0": profile.r0, "c1": profile.c1, "n": profile.n},
        "certs": [[e, d] for e, d in cert_list],
        "bound": bound,
    })
    return EXIT_OK


def cmd_certify(args, config: RunConfig) -> int:
    patches = []
    for chunk in args.patches.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError("each patch is eps:D")
        try:
            patches.append((float(parts[0]), int(parts[1])))
        except ValueError:
            raise UsageError("each patch is eps:D with eps float, D int")
    try:
        cert = magic.certify_product_lf(patches, args.target, config)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(config, {
        "command": "certify",
        "target": cert.target,
        "patches": [[e, d] for e, d in cert.patches],
        "bound": cert.bound,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="quditmagic")
    parser.add_argument("--log-base", default="2", choices=["2", "10", "e"])
    parser.add_argument("--dense-limit", type=int, default=None)
    parser.add_argument("--enum-limit", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tableau-out", default="")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("magic")
    p.add_argument("--state", required=True)
    p.add_argument("--measures", default="")
    p.set_defaults(func=cmd_magic)

    p = sub.add_parser("rephase")
    p.add_argument("--tableau", required=True)
    p.add_argument("--targets", required=True)
    p.set_defaults(func=cmd_rephase)

    p = sub.add_parser("toric")
    tsub = p.add_subparsers(dest="toric_cmd", required=True)
    for name, func in (("smatrix", cmd_smatrix), ("annulus", cmd_annulus)):
        tp = tsub.add_parser(name)
        tp.add_argument("--q", type=int, required=True)
        tp.add_argument("--lx", type=int, required=True)
        tp.add_argument("--ly", type=int, required=True)
        if name == "smatrix":
            tp.add_argument("--pairs", default="")
        tp.set_defaults(func=func)

    p = sub.add_parser("witness")
    wsub = p.add_subparsers(dest="witness_cmd", required=True)
    for name, func in (("mi", cmd_mi), ("sandwich", cmd_sandwich)):
        wp = wsub.add_parser(name)
        wp.add_argument("--state", required=True)
        wp.add_argument("--regionA", required=True)
        wp.add_argument("--regionB", required=True)
        if name == "mi":
            wp.add_argument("--tol", type=float, default=1e-6)
        else:
            wp.add_argument("--depth", type=int, required=True)
        wp.set_defaults(func=func)
    wp = wsub.add_parser("assemble")
    wp.add_argument("--profile", required=True)
    wp.add_argument("--certs", required=True)
    wp.set_defaults(func=cmd_assemble)

    p = sub.add_parser("certify")
    p.add_argument("--patches", required=True)
    p.add_argument("--target", default="SP", choices=["SP", "S"])
    p.set_defaults(func=cmd_certify)

    return parser


def _config_from_args(args) -> RunConfig:
    config = RunConfig()
    config.log_base = "e" if args.log_base == "e" else int(args.log_base)
    if args.dense_limit is not None:
        if args.dense_limit < 1:
            raise UsageError("--dense-limit must be positive")
        config.dense_limit = args.dense_limit
    if args.enum_limit is not None:
        if args.enum_limit < 1:
            raise UsageError("--enum-limit must be positive")
        config.enum_limit = args.enum_limit
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    config.seed = args.seed
    config.output = args.output
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        return args.func(args, config)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    except DataError as exc:
        sys.stderr.write("data error: %s\n" % exc)
        return EXIT_DATA
    except BudgetExceeded as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET
    except Exception as exc:  # anything unexpected is an internal error
        sys.stderr.write("internal error: %s\n" % exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
