import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import quditmagic
from quditmagic import cli, magic, pauli, stabilizer

import dense_oracles


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv, expect=0):
    code, out, err = run_cli(capsys, argv)
    assert code == expect, err
    return json.loads(out)


def write_state(tmp_path, q, n, amps, name="state.json"):
    v = np.asarray(amps, dtype=complex)
    v = v / np.linalg.norm(v)
    path = tmp_path / name
    path.write_text(dense_oracles.state_to_json(q, n, v))
    return str(path)


def t_state_path(tmp_path):
    return write_state(
        tmp_path, 2, 1, [math.cos(math.pi / 8), math.sin(math.pi / 8)]
    )


def test_cli_import_does_not_load_sympy():
    # nor any part of scipy: the LP loads HiGHS's bindings when it first runs
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quditmagic.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, quditmagic.cli; "
         "print('sympy' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "False"]


# Each case runs in a fresh interpreter: the exit code of cli.main, then
# whether scipy.optimize, scipy.sparse and HiGHS's bindings were loaded by
# the import or by the command.
OPTIMIZER_PROBE = """
import contextlib, io, sys
from quditmagic import cli
argv = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv) if argv else 0
print(code, *(m in sys.modules
              for m in ("scipy.optimize", "scipy.sparse", "scipy.optimize._highspy._core")))
"""


@pytest.mark.parametrize("argv,loaded", [
    ([], False),
    (["cover", "--q", "4", "--n", "1", "--verify"], False),
    (["certify", "--patches", "1.0:2,1.0:2"], False),
    (["magic", "--state", "T_STATE"], True),
    (["magic", "--state", "T_STATE", "--measures", "lf,smax,lgr"], False),
    (["magic", "--state", "T_STATE", "--measures", "lf,srel,smax,lgr"], False),
], ids=["import", "cover", "certify", "magic", "magic-lf-smax-lgr", "magic-lf-srel-smax-lgr"])
def test_only_magic_loads_scipy_optimize(tmp_path, argv, loaded):
    # only the LR LP loads HiGHS's bindings, and without scipy.optimize or
    # scipy.sparse
    argv = [t_state_path(tmp_path) if a == "T_STATE" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quditmagic.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", OPTIMIZER_PROBE] + argv,
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["0", "False", "False", str(loaded)], out.stderr


def test_cover_report(capsys):
    body = run_json(capsys, ["cover", "--q", "6", "--n", "1", "--verify"])
    assert body["schema"] == 1
    assert body["member_count"] == body["expected_count"] == 12
    assert body["verify"]["ok"] is True
    assert body["verify"]["covered_count"] == 36
    assert "config" in body


def test_cover_usage_error(capsys):
    code, out, err = run_cli(capsys, ["cover", "--q", "1", "--n", "1"])
    assert code == cli.EXIT_USAGE
    assert "usage error" in err


def test_cover_tableau_out(capsys, tmp_path):
    out_file = tmp_path / "members.txt"
    run_json(
        capsys,
        ["cover", "--q", "2", "--n", "1", "--tableau-out", str(out_file)],
    )
    text = out_file.read_text()
    blocks = [b for b in text.split("#") if b.strip()]
    assert len(blocks) == 3
    # each block parses back into a maximal stabilizer group
    for block in blocks:
        lines = block.strip().splitlines()[1:]
        gens = stabilizer.tableau_from_text("\n".join(lines))
        assert stabilizer.validate(gens).order == 2


def test_cover_unwritable_tableau_out_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(
        capsys, ["cover", "--q", "2", "--n", "1", "--tableau-out", str(path)]
    )
    assert code == cli.EXIT_USAGE, err
    assert "usage error: cannot write --tableau-out file" in err and out == ""


def test_magic_t_state(capsys, tmp_path):
    state = t_state_path(tmp_path)
    body = run_json(capsys, ["magic", "--state", state])
    m = body["measures"]
    t_lf = -math.log2(math.cos(math.pi / 8) ** 2)
    assert abs(m["lf"]["value"] - t_lf) < 1e-8
    assert abs(m["lr"]["value"] - 0.5) < 1e-7
    assert m["lf"]["status"] == "exact"
    assert m["srel"]["status"] == "exact"
    assert m["lf"]["value"] <= m["lr"]["value"] + 1e-6


def test_magic_measure_subset_and_validation(capsys, tmp_path):
    state = t_state_path(tmp_path)
    body = run_json(capsys, ["magic", "--state", state, "--measures", "lf,lr"])
    assert set(body["measures"]) == {"lf", "lr"}
    code, out, err = run_cli(
        capsys, ["magic", "--state", state, "--measures", "bogus"]
    )
    assert code == cli.EXIT_USAGE


def test_magic_empty_measure_list_is_usage_error(capsys, tmp_path, monkeypatch):
    # rejected before the dictionary is built
    def no_dictionary(*args, **kwargs):
        raise AssertionError("dictionary built for an empty measure list")

    monkeypatch.setattr(magic, "build_dictionary", no_dictionary)
    state = t_state_path(tmp_path)
    for listed in (",", " , ,"):
        code, out, err = run_cli(capsys, ["magic", "--state", state, "--measures", listed])
        assert code == cli.EXIT_USAGE, err
        assert "usage error" in err and out == ""


def test_magic_stabilizer_state_zero(capsys, tmp_path):
    state = write_state(tmp_path, 2, 1, [1.0, 0.0])
    body = run_json(capsys, ["magic", "--state", state])
    for name, mv in body["measures"].items():
        assert abs(mv["value"]) < 1e-6, name


def test_magic_missing_state_is_data_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, ["magic", "--state", str(tmp_path / "nope.json")]
    )
    assert code == cli.EXIT_DATA
    assert "data error" in err


def test_budget_exit_code(capsys, tmp_path):
    state = t_state_path(tmp_path)
    code, out, err = run_cli(
        capsys, ["--dense-limit", "1", "magic", "--state", state]
    )
    assert code == cli.EXIT_BUDGET


def test_enum_budget_exits_promptly(tmp_path):
    # a 4-qubit dictionary has 36,720 states; the enumeration budget must
    # stop it as the groups arrive, well before the lattices run out
    rng = np.random.default_rng(4)
    state = write_state(tmp_path, 2, 4, rng.normal(size=16) + 1j * rng.normal(size=16))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quditmagic.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "quditmagic.cli", "--enum-limit", "1000", "magic", "--state", state],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == cli.EXIT_BUDGET, out.stderr
    assert "enumeration budget exceeded" in out.stderr


def test_cover_budget_exits_promptly():
    # a 40-qubit cover has 2^40 + 1 members, and finding its Galois ring
    # alone would search for a degree-40 irreducible polynomial
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quditmagic.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "quditmagic.cli", "--enum-limit", "1000",
         "cover", "--q", "2", "--n", "40"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == cli.EXIT_BUDGET, out.stderr
    assert "exceed limit 1000" in out.stderr


def test_rephase(capsys, tmp_path):
    tab = tmp_path / "tab.txt"
    tab.write_text(stabilizer.tableau_to_text([pauli.label(2, 1, [1], [0], 0)]))
    body = run_json(
        capsys, ["rephase", "--tableau", str(tab), "--targets", "1"]
    )
    P = pauli.label(2, 1, body["pauli"]["a"], body["pauli"]["b"], body["pauli"]["c"])
    # the returned Pauli flips the sign of Z
    M = dense_oracles.to_dense(P)
    Z = dense_oracles.to_dense(pauli.label(2, 1, [1], [0], 0))
    assert np.allclose(M @ Z @ M.conj().T, -Z, atol=1e-10)
    assert body["pauli_text"] == pauli.to_text(P) == "2 1 | 0 | 1 | 0"


def test_rephase_target_count_mismatch(capsys, tmp_path):
    tab = tmp_path / "tab.txt"
    tab.write_text(stabilizer.tableau_to_text([pauli.label(2, 1, [1], [0], 0)]))
    code, out, err = run_cli(
        capsys, ["rephase", "--tableau", str(tab), "--targets", "1 0"]
    )
    assert code == cli.EXIT_USAGE


def test_toric_smatrix(capsys):
    body = run_json(
        capsys, ["toric", "smatrix", "--q", "2", "--lx", "2", "--ly", "2"]
    )
    assert body["ok"] is True
    assert len(body["table"]) == 16
    assert all(e["oracle_ok"] for e in body["table"])


def test_toric_smatrix_pairs(capsys):
    body = run_json(
        capsys,
        ["toric", "smatrix", "--q", "3", "--lx", "2", "--ly", "2",
         "--pairs", "1,0,0,1;1,0,0,2"],
    )
    assert len(body["table"]) == 2
    # braiding e with m and with m^2 differ by a power of omega
    ph1 = complex(*body["table"][0]["phase"])
    ph2 = complex(*body["table"][1]["phase"])
    assert abs(ph1 ** 2 - ph2) < 1e-9


def test_toric_annulus(capsys):
    body = run_json(
        capsys, ["toric", "annulus", "--q", "2", "--lx", "4", "--ly", "4"]
    )
    assert body["ok"] is True
    assert body["point_count"] == 4
    assert body["anyon_matched"] is True


def test_toric_annulus_too_small(capsys):
    code, out, err = run_cli(
        capsys, ["toric", "annulus", "--q", "2", "--lx", "2", "--ly", "2"]
    )
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["toric", "smatrix", "--q", "2", "--lx", "1", "--ly", "2"],
    ["toric", "smatrix", "--q", "1", "--lx", "2", "--ly", "2"],
    ["toric", "annulus", "--q", "2", "--lx", "2", "--ly", "1"],
    ["toric", "annulus", "--q", "1", "--lx", "3", "--ly", "4"],
    ["toric", "smatrix", "--q", "2", "--lx", "2", "--ly", "2", "--pairs", "1,0,x,1"],
    ["toric", "smatrix", "--q", "2", "--lx", "2", "--ly", "2", "--pairs", "1,0,0"],
    ["toric", "smatrix", "--q", "3", "--lx", "2", "--ly", "2", "--pairs", "5,0,0,1"],
])
def test_toric_bad_geometry_or_pairs_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == cli.EXIT_USAGE, err
    assert "usage error" in err and out == ""


@pytest.mark.parametrize("argv,digest", [
    (["toric", "smatrix", "--q", "3", "--lx", "3", "--ly", "3"],
     "79e56c3b6151e74ba4adc9a556fd4472274002bff675e2e48856c7ca69a7d149"),
    (["toric", "annulus", "--q", "3", "--lx", "3", "--ly", "4"],
     "fccd2bea9bcdf27e8d3b8065e744df3c977337e4df08961d4c9a0a15235414ac"),
    (["toric", "annulus", "--q", "2", "--lx", "4", "--ly", "4"],
     "ae16f254b937242ccb5799016a67e8935c364eb82f9c32dd1740b194d01a2b44"),
    # even q: products pick up half-integer omega powers (omega_{2q} phases)
    (["toric", "annulus", "--q", "4", "--lx", "3", "--ly", "4"],
     "59662be33fa257d6605d970d6ebf3e81fa88ba3190517501cb1fe4a95d8a4fdd"),
])
def test_toric_stdout_pinned(capsys, argv, digest):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_magic_bad_header_is_data_error(capsys, tmp_path):
    path = tmp_path / "q1.json"
    path.write_text(json.dumps({"q": 1, "n": 1, "amplitudes": [[1.0, 0.0]]}))
    code, out, err = run_cli(capsys, ["magic", "--state", str(path)])
    assert code == cli.EXIT_DATA
    assert "data error" in err


@pytest.mark.parametrize("field,value", [
    ("q", 2.9), ("q", "2"), ("q", 2.0), ("n", True), ("n", 1.0),
    # each amplitude's re and im must be JSON numbers, not booleans
    ("amplitudes", [[True, False], [False, False]]),
    ("amplitudes", [[1.0, False], [0.0, 0.0]]),
    ("amplitudes", [[0.0, True], [0.0, 0.0]]),
])
def test_magic_non_integer_header_is_data_error(capsys, tmp_path, field, value):
    # q and n must be JSON integers, not numbers that truncate to one
    state = {"q": 2, "n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    state[field] = value
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, out, err = run_cli(capsys, ["magic", "--state", str(path)])
    assert code == cli.EXIT_DATA, out
    assert "data error" in err and out == ""


@pytest.mark.parametrize("measures", [[], ["--measures", "lf,srel,smax"]])
def test_magic_non_finite_amplitude_is_data_error(capsys, tmp_path, measures):
    # rejected when the state is read, before any solver runs
    path = tmp_path / "nan.json"
    path.write_text('{"q": 2, "n": 1, "amplitudes": [[NaN, 0.0], [1.0, 0.0]]}')
    code, out, err = run_cli(capsys, ["magic", "--state", str(path)] + measures)
    assert code == cli.EXIT_DATA
    assert "data error" in err and "finite" in err and out == ""


@pytest.mark.parametrize("header", ["1 1 1\n1 0 0\n", "3 2 0\n"])
def test_rephase_bad_header_is_data_error(capsys, tmp_path, header):
    tab = tmp_path / "tab.txt"
    tab.write_text(header)
    code, out, err = run_cli(
        capsys, ["rephase", "--tableau", str(tab), "--targets", "1"]
    )
    assert code == cli.EXIT_DATA
    assert "data error" in err and out == ""


def test_witness_mi(capsys, tmp_path):
    bell = write_state(tmp_path, 2, 2, [1, 0, 0, 1])
    body = run_json(
        capsys,
        ["witness", "mi", "--state", bell, "--regionA", "0", "--regionB", "1"],
    )
    assert body["verdict"] == "silent"
    assert abs(body["mi"] - 2.0) < 1e-9


@pytest.mark.parametrize("args", [
    ["mi", "--regionA", "0", "--regionB", "2", "--tol", "-0.5"],
    ["mi", "--regionA", "0", "--regionB", "2", "--tol", "inf"],
    ["mi", "--regionA", "0", "--regionB", "7"],
    ["mi", "--regionA", "0", "--regionB", "-1"],
    ["mi", "--regionA", "0,0", "--regionB", "2"],
    ["sandwich", "--regionA", "0", "--regionB", "2", "--depth", "-1"],
    ["sandwich", "--regionA", "0", "--regionB", "7", "--depth", "0"],
    ["sandwich", "--regionA", "0,0", "--regionB", "2", "--depth", "0"],
])
def test_witness_bad_input_is_usage_error(capsys, tmp_path, args):
    state = write_state(tmp_path, 2, 3, [1, 0, 0, 0, 0, 0, 0, 0])
    code, out, err = run_cli(capsys, ["witness", args[0], "--state", state] + args[1:])
    assert code == cli.EXIT_USAGE
    assert "usage error" in err and out == ""


def test_witness_mi_silent_on_product_state_at_zero_tol(capsys, tmp_path):
    state = write_state(tmp_path, 2, 3, [1, 0, 0, 0, 0, 0, 0, 0])
    body = run_json(
        capsys,
        ["witness", "mi", "--state", state, "--regionA", "0", "--regionB", "2",
         "--tol", "0"],
    )
    assert body["verdict"] == "silent"


def test_witness_sandwich(capsys, tmp_path):
    rng = np.random.default_rng(0)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = write_state(tmp_path, 2, 4, amps)
    body = run_json(
        capsys,
        ["witness", "sandwich", "--state", state, "--regionA", "0",
         "--regionB", "3", "--depth", "1"],
    )
    assert body["holds"] is True
    assert body["i_shrunk"] <= body["i_evolved"] + 1e-8 <= body["i_grown"] + 2e-8


def test_witness_assemble(capsys, tmp_path):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps(
        {"K": 1.0, "xi": 1.0, "m": 10, "r0": 2.0, "c1": 3.0, "n": 1024}
    ))
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps([[0.5, 2]] * 10))
    body = run_json(
        capsys,
        ["witness", "assemble", "--profile", str(prof), "--certs", str(certs)],
    )
    assert abs(body["bound"] - 0.22529601341836394) < 1e-12


@pytest.mark.parametrize("D", [0, 1])
def test_witness_assemble_rejects_small_patch_dimension(capsys, tmp_path, D):
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps(
        {"K": 1.0, "xi": 1.0, "m": 10, "r0": 2.0, "c1": 3.0, "n": 1024}
    ))
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps([[0.5, D]]))
    code, out, err = run_cli(
        capsys,
        ["witness", "assemble", "--profile", str(prof), "--certs", str(certs)],
    )
    assert code == cli.EXIT_DATA, err


@pytest.mark.parametrize("field,value", [
    ("m", 1.9), ("n", 100.7), ("m", "10"), ("m", True), ("D", 2.9), ("D", "2"), ("D", 2.0),
    # K, xi, r0, c1 and each eps must be finite JSON numbers
    ("K", "1.0"), ("K", 10 ** 400), ("xi", True), ("xi", float("inf")), ("r0", "2"), ("c1", "3.0"),
    ("eps", "0.5"), ("eps", True),
])
def test_witness_assemble_rejects_non_integers(capsys, tmp_path, field, value):
    # m, n and each D must be JSON integers, not numbers that truncate to one
    profile = {"K": 1.0, "xi": 1.0, "m": 10, "r0": 2.0, "c1": 3.0, "n": 1024}
    cert = [0.5, 2]
    if field == "eps":
        cert[0] = value
    elif field == "D":
        cert[1] = value
    else:
        profile[field] = value
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps(profile))
    certs = tmp_path / "certs.json"
    certs.write_text(json.dumps([cert] * 10))
    code, out, err = run_cli(
        capsys,
        ["witness", "assemble", "--profile", str(prof), "--certs", str(certs)],
    )
    assert code == cli.EXIT_DATA, out
    assert out == "" and "data error" in err


def test_witness_assemble_bad_json(capsys, tmp_path):
    prof = tmp_path / "profile.json"
    prof.write_text("{not json")
    certs = tmp_path / "certs.json"
    certs.write_text("[]")
    code, out, err = run_cli(
        capsys,
        ["witness", "assemble", "--profile", str(prof), "--certs", str(certs)],
    )
    assert code == cli.EXIT_DATA


def test_certify(capsys):
    body = run_json(capsys, ["certify", "--patches", "1.0:2,1.0:2"])
    f = math.sqrt(1 - 1.0 / 16.0)
    assert abs(body["bound"] - 2 * math.log2(1 / f ** 2)) < 1e-12
    code, out, err = run_cli(capsys, ["certify", "--patches", "1.0"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--dense-limit", "0"], ["--enum-limit", "0"],
])
def test_bad_global_flag_is_usage_error(capsys, tmp_path, flags):
    # rejected before any command runs, whichever command follows
    state = write_state(tmp_path, 2, 3, [1, 0, 0, 0, 0, 0, 0, 0])
    code, out, err = run_cli(capsys, flags + [
        "witness", "sandwich", "--state", state, "--regionA", "0", "--regionB", "2",
        "--depth", "0"])
    assert code == cli.EXIT_USAGE
    assert "usage error" in err and out == ""


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["cover", "--q", "2", "--n", "1", "--bogus"])
    assert code == cli.EXIT_USAGE


def test_output_flag_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            ["--output", str(path), "cover", "--q", "3", "--n", "1", "--verify"],
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    body = json.loads(out1.read_text())
    assert body["config"]["seed"] == 0
    assert body["config"]["log_base"] == 2


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, ["--output", str(path), "cover", "--q", "2", "--n", "1"]
    )
    assert code == cli.EXIT_USAGE, err
    assert "usage error: cannot write --output file" in err and out == ""
    assert not path.exists()


def test_log_base_flag(capsys, tmp_path):
    state = t_state_path(tmp_path)
    body2 = run_json(capsys, ["magic", "--state", state, "--measures", "lf"])
    body_e = run_json(
        capsys, ["--log-base", "e", "magic", "--state", state, "--measures", "lf"]
    )
    assert abs(body_e["measures"]["lf"]["value"] -
               body2["measures"]["lf"]["value"] * math.log(2)) < 1e-9
