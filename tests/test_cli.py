"""Command-line front end: golden files per subcommand, determinism,
exit codes, option-value handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from favard import cli

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def assert_matches_golden_csv(out, name):
    # headers byte-exact; numeric cells to 1e-10 relative so the goldens
    # survive BLAS/libm variation across platforms
    golden = (GOLDEN / name).read_text()
    got_lines = out.strip().splitlines()
    want_lines = golden.strip().splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines[1:], want_lines[1:]):
        gv = np.array([float(c) for c in g.split(",")])
        wv = np.array([float(c) for c in w.split(",")])
        assert gv.shape == wv.shape
        assert np.allclose(gv, wv, rtol=1e-10, atol=1e-12), (g, w)


def assert_matches_golden_json(out, name):
    golden = json.loads((GOLDEN / name).read_text())
    got = json.loads(out)

    def compare(a, b, path=""):
        assert type(a) is type(b), path
        if isinstance(a, dict):
            assert set(a) == set(b), path
            for k in a:
                compare(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                compare(x, y, f"{path}[{i}]")
        elif isinstance(a, float):
            assert np.isclose(a, b, rtol=1e-8, atol=1e-12), (path, a, b)
        else:
            assert a == b, path

    compare(got, golden)


def test_golden_basis(capsys):
    rc, out = run_cli(["basis", "eval", "--family", "legendre",
                       "--n", "0:3", "--grid", "-20:20:5"], capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "basis_legendre.csv")


def test_golden_quad(capsys):
    rc, out = run_cli(["quad", "--family", "hermite", "--N", "5"], capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "quad_hermite.csv")


def test_golden_diffmat(capsys):
    rc, out = run_cli(["diffmat", "--family", "hermite", "--N", "4"], capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "diffmat_hermite.csv")


def test_golden_coeffs_xspace(capsys):
    rc, out = run_cli(["coeffs", "--family", "hermite",
                       "--f", "exp(-x^2)", "--N", "8"], capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "coeffs_hermite.csv")


def test_golden_coeffs_mt_fft(capsys):
    rc, out = run_cli(["coeffs", "--family", "mt", "--f", "1/(1+(2*x)^4)",
                       "--N", "64", "--method", "fft"], capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "coeffs_mt.csv")


def test_golden_decay(capsys):
    rc, out = run_cli(["decay", "--model", "exp", "--skip", "4",
                       "--in", str(GOLDEN / "coeffs_mt.csv")], capsys)
    assert rc == 0
    assert_matches_golden_json(out, "decay_mt.json")


def test_golden_periodic(capsys):
    rc, out = run_cli(["periodic", "eval", "--a", "0.5",
                       "--n", "0:2", "--grid", "-pi:pi:1.5"], capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "periodic_charlier.csv")


def test_golden_schrodinger(capsys):
    rc, out = run_cli(["schrodinger", "--basis", "hermite", "--N", "16",
                       "--f0", "exp(-x^2)", "--potential", "none",
                       "--T", "0.2", "--tau", "0.1", "--grid", "-2:2:2"],
                      capsys)
    assert rc == 0
    assert_matches_golden_csv(out, "schrodinger_free.csv")


def test_golden_verify(capsys):
    rc, out = run_cli(["verify", "gram", "--family", "hermite", "--N", "8"],
                      capsys)
    assert rc == 0
    assert_matches_golden_json(out, "verify_gram.json")


def test_determinism_byte_identical():
    cmd = [sys.executable, "-m", "favard.cli", "coeffs", "--family", "hermite",
           "--f", "exp(-x^2)*sin(x)", "--N", "24"]
    env = dict(os.environ, FAVARD_THREADS="2")
    a = subprocess.run(cmd, capture_output=True, env=env, check=True)
    b = subprocess.run(cmd, capture_output=True, env=env, check=True)
    assert a.stdout == b.stdout
    assert len(a.stdout) > 0


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "quad.csv"
    rc, out = run_cli(["quad", "--family", "legendre", "--N", "3",
                       "--out", str(target)], capsys)
    assert rc == 0
    text = target.read_text()
    assert text.startswith("node,weight\n")
    assert len(text.strip().splitlines()) == 4


def test_exit_code_usage_errors(capsys):
    cases = [
        ["basis", "eval", "--family", "nosuch", "--n", "0:2", "--grid", "0:1:1"],
        ["basis", "eval", "--family", "hermite", "--n", "3:0", "--grid", "0:1:1"],
        ["basis", "eval", "--family", "hermite", "--n", "0:2", "--grid", "5:1:1"],
        ["quad", "--family", "hermite", "--N", "0"],
        ["coeffs", "--family", "hermite", "--f", "exp(-x^2", "--N", "8"],
        ["decay", "--model", "cubic", "--in", "whatever.csv"],
        ["schrodinger", "--basis", "hermite", "--N", "8", "--f0", "exp(-x^2)",
         "--T", "0.35", "--tau", "0.1"],
        ["verify", "bogus", "--family", "hermite", "--N", "8"],
        ["nosuchcommand"],
    ]
    for argv in cases:
        rc = cli.main(argv)
        capsys.readouterr()
        assert rc == 2, argv


def test_exit_code_runtime_failure(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = cli.main(["decay", "--model", "exp", "--in", str(bad)])
    capsys.readouterr()
    assert rc == 1


def test_verify_expected_fail_keeps_exit_zero(capsys):
    # pw-support on a non-bandlimited family reports pass=false but is
    # flagged expected, so the process still succeeds
    rc, out = run_cli(["verify", "pw-support", "--family", "hermite",
                       "--N", "6"], capsys)
    assert rc == 0
    reports = json.loads(out)
    assert all(not r["pass"] and r["metadata"]["expected_fail"] for r in reports)


def test_verify_all_hermite(capsys):
    rc, out = run_cli(["verify", "all", "--family", "hermite", "--N", "10"],
                      capsys)
    assert rc == 0
    names = [r["name"] for r in json.loads(out)]
    assert names == ["gram", "recurrence", "cramer"]


def test_schrodinger_builds_grid_pair_once(monkeypatch, capsys):
    from favard import schrodinger as sch

    calls = []
    build = sch._grid_pair

    def counted(*args):
        calls.append(args[1:])
        return build(*args)

    monkeypatch.setattr(sch, "_grid_pair", counted)
    rc, out = run_cli(["schrodinger", "--basis", "hermite", "--N", "64",
                       "--f0", "exp(-x^2)", "--potential", "x^2",
                       "--T", "0.5", "--tau", "0.0625"], capsys)
    assert rc == 0
    assert out.startswith("t,x,re_u,im_u,norm\n")
    assert calls == [(64,)]


def test_leading_dash_option_values(capsys):
    # "--grid -20:20:0.05" style must parse even though the value starts
    # with a minus sign
    rc, out = run_cli(["basis", "eval", "--family", "hermite",
                       "--n", "0:1", "--grid", "-1:1:1"], capsys)
    assert rc == 0
    assert out.startswith("n,x,re_phi,im_phi\n")
    assert len(out.strip().splitlines()) == 7
