"""Command-line front end: golden files per subcommand, determinism,
exit codes, option-value handling."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from favard import cli
from favard.errors import TruncationLossWarning

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


def test_golden_verify_pw_support(capsys):
    rc, out = run_cli(["verify", "pw-support", "--family", "legendre"], capsys)
    assert rc == 0
    assert_matches_golden_json(out, "verify_pw_support.json")


def test_determinism_byte_identical():
    cmd = [sys.executable, "-m", "favard.cli", "coeffs", "--family", "hermite",
           "--f", "exp(-x^2)*sin(x)", "--N", "24"]
    # the child imports this package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(cli.__file__).resolve().parents[1]),
                                                      env.get("PYTHONPATH"))))
    a = subprocess.run(cmd, capture_output=True, check=True, env=env)
    b = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert a.stdout == b.stdout
    assert len(a.stdout) > 0


@pytest.mark.parametrize("basis,N", [("hermite", "512"), ("mt", "256")])
def test_schrodinger_bytes_do_not_depend_on_blas_threads(basis, N):
    # the eigenvectors come from one-thread LAPACK calls and the printed
    # synthesis sums in a fixed order, so the BLAS thread count moves no byte
    cmd = [sys.executable, "-m", "favard.cli", "schrodinger", "--basis", basis, "--N", N,
           "--f0", "exp(-x^2)", "--potential", "x^2", "--T", "0.5", "--tau", "0.0625"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(cli.__file__).resolve().parents[1]),
                                                      env.get("PYTHONPATH"))))
    outs = [subprocess.run(cmd, capture_output=True, check=True,
                           env={**env, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1]
    assert len(outs[0]) > 0


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
        # configuration errors that must be caught before any computation
        ["verify", "gram", "--family", "hermite", "--N", "0"],
        ["verify", "recurrence", "--family", "hermite", "--N", "0"],
        ["verify", "pw-support", "--family", "legendre", "--N", "0"],
        ["coeffs", "--family", "mt", "--f", "exp(-x^2)", "--N", "6", "--method", "fft"],
        ["coeffs", "--family", "mt", "--f", "exp(-x^2)", "--N", "6"],
        ["coeffs", "--family", "hermite", "--f", "exp(-x^2)", "--N", "8", "--method", "fft"],
        ["coeffs", "--family", "hermite", "--f", "exp(-x^2)", "--N", "8", "--method", "dct"],
        ["decay", "--model", "stretched:abc", "--in", "whatever.csv"],
        ["decay", "--model", "stretched:0", "--in", "whatever.csv"],
        ["decay", "--model", "stretched:-1", "--in", "whatever.csv"],
        ["verify", "gram", "--family", "nosuch"],
        ["verify", "tanh-jacobi-identity", "--family", "hermite"],
        ["verify", "ramanujan", "--a", "-1"],
        ["verify", "all", "--family", "tanhjacobi:0.75,0.75", "--a", "0"],
        ["coeffs", "--family", "tanhjacobi:0.75,0.75", "--f", "exp(-x^2)", "--N", "2"],
        ["schrodinger", "--basis", "legendre", "--N", "32", "--f0", "exp(-x^2)",
         "--T", "0.25", "--tau", "0.125"],
    ]
    for argv in cases:
        rc = cli.main(argv)
        out = capsys.readouterr().out
        assert rc == 2, argv
        assert out == "", argv


def test_exit_code_runtime_failure(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    rc = cli.main(["decay", "--model", "exp", "--in", str(bad)])
    capsys.readouterr()
    assert rc == 1


def test_file_errors_exit_one_with_one_line(tmp_path, capsys):
    # an unreadable --in or unwritable --out is a runtime failure: one
    # "favard:" line on stderr, nothing on stdout, and the code returned
    cases = [
        ["decay", "--model", "exp", "--in", str(tmp_path / "nosuch.csv")],
        ["quad", "--family", "hermite", "--N", "4", "--out", str(tmp_path / "no" / "x.csv")],
    ]
    for argv in cases:
        rc = cli.main(argv)
        got = capsys.readouterr()
        assert rc == 1, argv
        assert got.out == "", argv
        assert got.err.startswith("favard: ") and got.err.count("\n") == 1, got.err


def test_verify_builds_each_basis_size_once(monkeypatch, capsys):
    # the family is resolved while the command is configured, at one size,
    # and every check of the command shares that basis; cramer and
    # ramanujan read none
    sizes = []
    resolve = cli._resolve_family

    def counted(family, N):
        sizes.append(N)
        return resolve(family, N)

    monkeypatch.setattr(cli, "_resolve_family", counted)
    for argv, want in ((["verify", "all", "--family", "tanhjacobi:0.75,0.75"], [12]),
                       (["verify", "gram", "--family", "conthahn:1,1"], [12]),
                       (["verify", "all", "--family", "legendre", "--N", "5"], [12]),
                       (["verify", "pw-support", "--family", "legendre", "--N", "5"], [12]),
                       (["verify", "cramer", "--family", "legendre"], []),
                       (["verify", "ramanujan", "--family", "legendre"], [])):
        sizes.clear()
        rc, out = run_cli(argv, capsys)
        assert rc == 0 and json.loads(out), argv
        assert sizes == want, argv


def test_verify_pw_support_refuses_charlier(capsys):
    # a periodic family has no Fourier support to test: a configuration
    # error, found before any check runs
    rc = cli.main(["verify", "pw-support", "--family", "charlier:0.5", "--N", "4"])
    got = capsys.readouterr()
    assert rc == 2
    assert got.out == ""
    assert got.err.startswith("favard: pw-support") and got.err.count("\n") == 1, got.err


def _sweep_commands(family: str, coeffs_csv: str) -> list:
    """Every subcommand at small sizes; decay reads coeffs_csv, and
    periodic takes no family."""
    grid = ["--grid", "-1:1:0.5"]
    cmds = [
        ["basis", "eval", "--family", family, "--n", "0:2", *grid],
        ["quad", "--family", family, "--N", "4"],
        ["diffmat", "--family", family, "--N", "4"],
        ["coeffs", "--family", family, "--f", "exp(-x^2)", "--N", "8"],
        ["decay", "--model", "exp", "--skip", "0", "--in", coeffs_csv],
        ["periodic", "eval", "--a", "0.5", "--n", "0:2", *grid],
        ["schrodinger", "--basis", family, "--N", "8", "--f0", "exp(-x^2)",
         "--T", "0.2", "--tau", "0.1", *grid],
    ]
    return cmds + [["verify", check, "--family", family, "--N", "4"]
                   for check in ("all", *cli._CHECK_NAMES)]


@pytest.mark.parametrize("family", ["hermite", "mt", "charlier:0.5", "nosuch"])
def test_every_command_keeps_the_exit_contract(family, tmp_path, capsys):
    # exit 0, 1 or 2; nothing on stdout for a configuration error; stderr
    # empty or one "favard:" line, never an exception out of main; decay
    # reads what coeffs printed, or an empty file where coeffs failed
    coeffs_csv = tmp_path / "coeffs.csv"
    coeffs_csv.write_text("")
    for argv in _sweep_commands(family, str(coeffs_csv)):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback on the command line
            pytest.fail(f"{argv} raised {exc!r}")
        got = capsys.readouterr()
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert got.out == "", argv
        assert got.err == "" or (got.err.startswith("favard: ")
                                 and got.err.count("\n") == 1), (argv, got.err)
        if argv[0] == "coeffs" and rc == 0:
            coeffs_csv.write_text(got.out)


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


def test_verify_gram_legendre_n24_passes(capsys):
    rc, out = run_cli(["verify", "gram", "--family", "legendre", "--N", "24"],
                      capsys)
    assert rc == 0
    report, = json.loads(out)
    assert report["pass"] and report["max_abs_error"] <= 1e-14
    assert report["metadata"]["strategy"] == "nyquist-lattice+zeta-tail"


def test_verify_gram_hermite_n256_passes(capsys):
    # the Gauss-Hermite rule holds rows past |x| = 15 (a window read 0.54)
    rc, out = run_cli(["verify", "gram", "--family", "hermite", "--N", "256"], capsys)
    assert rc == 0
    report, = json.loads(out)
    assert report["pass"] and report["max_abs_error"] <= 1e-12
    assert report["metadata"]["strategy"] == "gauss-hermite"


def test_verify_gram_custom_weight_passes(capsys):
    rc, out = run_cli(["verify", "gram", "--family", "custom-weight:exp(-x^4)"], capsys)
    assert rc == 0
    report, = json.loads(out)
    assert report["pass"] and report["tolerance"] == 1e-8
    assert report["metadata"]["strategy"] == "nyquist-lattice"


def test_verify_gram_laguerre0_takes_the_mt_route(capsys):
    # laguerre:0 is the Malmquist-Takenaka table under another name; a window
    # cannot hold its 1/x tails (it read 2.1e-2)
    rc, out = run_cli(["verify", "gram", "--family", "laguerre:0"], capsys)
    assert rc == 0
    report, = json.loads(out)
    assert report["pass"] and report["max_abs_error"] <= 1e-14
    assert report["metadata"]["strategy"] == "theta-substitution"


def test_verify_gram_conthahn_n256_takes_the_gauss_jacobi_route(capsys):
    # conthahn is tanhjacobi's measure at dilation 1, so its Gram takes the
    # Gauss-Jacobi rule; the lattice's quadrature rows did not converge here
    rc, out = run_cli(["verify", "gram", "--family", "conthahn:1,1", "--N", "256"], capsys)
    assert rc == 0
    report, = json.loads(out)
    assert report["pass"] and report["max_abs_error"] <= 1e-12
    assert report["metadata"]["strategy"] == "gauss-jacobi"


@pytest.mark.parametrize("pair", ["1,1", "0.5,0.5", "1,0.5", "0.75,0.25"])
def test_verify_all_conthahn_passes(pair, capsys):
    rc, out = run_cli(["verify", "all", "--family", f"conthahn:{pair}"], capsys)
    assert rc == 0
    reports = json.loads(out)
    assert [r["name"] for r in reports] == ["gram", "recurrence"]
    assert all(r["pass"] for r in reports)


def test_tanh_jacobi_identity_runs_for_unequal_parameters(capsys):
    # a != b carries the gamma-pair phase and passes like a = b; verify all
    # runs the identity for every tanhjacobi:a,b
    rc, out = run_cli(["verify", "tanh-jacobi-identity", "--family", "tanhjacobi:0.75,0.5"],
                      capsys)
    assert rc == 0
    report, = json.loads(out)
    assert report["pass"] and report["max_abs_error"] <= 1e-12
    rc, out = run_cli(["verify", "all", "--family", "tanhjacobi:1,0.5"], capsys)
    assert rc == 0
    reports = json.loads(out)
    assert [r["name"] for r in reports] == ["gram", "recurrence", "tanh-jacobi-identity",
                                           "ramanujan"]
    assert all(r["pass"] for r in reports)


def test_accuracy_error_exits_one_without_traceback(monkeypatch, capsys):
    # favard's own errors derive from RuntimeError; the handler stage turns
    # them into a one-line message, as it does a ValueError
    from favard import basis as basis_mod
    from favard.errors import AccuracyError

    def exhausted(*args, **kwargs):
        raise AccuracyError("oscillatory transform did not reach tol", estimate=1e-4)

    monkeypatch.setattr(basis_mod, "oscillatory_transform", exhausted)
    rc = cli.main(["basis", "eval", "--family", "genhermite:1", "--n", "0:3",
                   "--grid", "-1:1:0.5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "favard: oscillatory transform did not reach tol\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("check", ["gram", "recurrence", "all"])
def test_verify_reports_a_quadrature_route_that_gives_up(monkeypatch, capsys, check):
    # verify turns the error into a failing report: every report prints,
    # and the exit code is 1
    from favard import basis as basis_mod
    from favard.errors import AccuracyError

    def exhausted(*args, **kwargs):
        raise AccuracyError("oscillatory transform did not reach tol=1e-10; estimate 1.65e-08",
                            estimate=1.65e-8)

    monkeypatch.setattr(basis_mod, "oscillatory_transform", exhausted)
    rc = cli.main(["verify", check, "--family", "custom-weight:exp(-abs(x))"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    reports = json.loads(captured.out)
    assert [r["name"] for r in reports] == (["gram", "recurrence"] if check == "all" else [check])
    for r in reports:
        assert r["pass"] is False and r["max_abs_error"] == math.inf
        assert r["metadata"]["estimate"] == 1.65e-8
        assert r["metadata"]["error"].startswith("oscillatory transform did not reach")
        assert r["metadata"]["family"] == "custom-weight:exp(-abs(x))"


def test_schrodinger_builds_grid_pair_once(monkeypatch, capsys):
    from favard import schrodinger as sch

    calls = []
    build = sch._GRIDS["hermite"]

    def counted(D):
        calls.append(D.N)
        return build(D)

    monkeypatch.setitem(sch._GRIDS, "hermite", counted)
    rc, out = run_cli(["schrodinger", "--basis", "hermite", "--N", "64",
                       "--f0", "exp(-x^2)", "--potential", "x^2",
                       "--T", "0.5", "--tau", "0.0625"], capsys)
    assert rc == 0
    assert out.startswith("t,x,re_u,im_u,norm\n")
    assert calls == [64]


def test_schrodinger_hermite_sweeps_the_table_once(monkeypatch, capsys):
    # the grid pair's scale row and the printed rows come from one sweep
    from favard import basis as basis_mod

    calls = []
    table = basis_mod.hermite_function_table

    def counted(nmax, x):
        calls.append(nmax)
        return table(nmax, x)

    monkeypatch.setattr(basis_mod, "hermite_function_table", counted)
    for N in (64, 63):
        rc, _ = run_cli(["schrodinger", "--basis", "hermite", "--N", str(N), "--f0", "exp(-x^2)",
                         "--potential", "x^2", "--T", "0.5", "--tau", "0.0625"], capsys)
        assert rc == 0
    assert calls == [63, 62]


@pytest.mark.parametrize("basis", ["hermite", "mt"])
def test_schrodinger_leaves_the_path_coordinates_once(monkeypatch, capsys, basis):
    # the states after the 8 steps leave as one stack, after the final
    # state's own leave (mt's kicks leave one state each, as before)
    from favard import schrodinger as sch

    shapes = []
    setup = sch._strang_setup

    def counted(bas, N):
        path = setup(bas, N)
        leave = type(path).leave
        monkeypatch.setattr(path, "leave", lambda z: shapes.append(z.shape) or leave(path, z))
        return path

    monkeypatch.setattr(sch, "_strang_setup", counted)
    rc, out = run_cli(["schrodinger", "--basis", basis, "--N", "64", "--f0", "exp(-x^2)",
                       "--potential", "x^2", "--T", "0.5", "--tau", "0.0625"], capsys)
    assert rc == 0
    assert shapes[-1] == (8,) + shapes[-2]
    assert sum(len(shape) == len(shapes[-1]) for shape in shapes) == 1


@pytest.mark.parametrize("N", [64, 512])
def test_schrodinger_hermite_t0_rows_are_analysis_times_closed_table(capsys, N):
    # bit for bit a = analyze(f0 at the nodes) times the closed table on the
    # grid, each built on its own, summed in einsum's fixed order
    from favard import basis as basis_mod
    from favard import schrodinger as sch
    from favard.expr import compile_function

    rc, out = run_cli(["schrodinger", "--basis", "hermite", "--N", str(N), "--f0", "exp(-x^2)",
                       "--potential", "x^2", "--T", "0.5", "--tau", "0.0625"], capsys)
    assert rc == 0
    grid = np.arange(-8.0, 8.5, 0.5)
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in out.splitlines()[1:1 + grid.size]])
    path = sch._strang_setup(basis_mod.make_basis("hermite", N=N + 2), N)
    a = path.analyze(np.asarray(compile_function("exp(-x^2)")(path.nodes), dtype=complex))
    u = np.einsum("i,ij->j", a, basis_mod.phi_grid(basis_mod.make_basis("hermite", N=N + 2),
                                                   N - 1, grid))
    assert np.array_equal(rows[:, 0], np.zeros(grid.size)) and np.array_equal(rows[:, 1], grid)
    assert np.array_equal(rows[:, 2], u.real) and np.array_equal(rows[:, 3], u.imag)
    assert np.array_equal(rows[:, 4], np.full(grid.size, np.linalg.norm(a)))


def test_schrodinger_mt_keeps_the_whole_line(capsys):
    # the bilateral window holds exp(-x^2): its norm (pi/2)^(1/4) and u(0) = 1
    argv = ["schrodinger", "--basis", "mt", "--f0", "exp(-x^2)", "--potential", "x^2",
            "--T", "0.5", "--tau", "0.0625"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationLossWarning)
        for N, at_zero in ((256, 1e-10), (512, 1e-12)):
            rc, out = run_cli(argv + ["--N", str(N)], capsys)
            assert rc == 0
            rows = np.array([[float(c) for c in line.split(",")] for line in out.splitlines()[1:]])
            assert abs(rows[0, 4] / (math.pi / 2.0) ** 0.25 - 1.0) < 1e-15
            zero = rows[(rows[:, 0] == 0.0) & (rows[:, 1] == 0.0)][0]
            assert abs(zero[2] - 1.0) < at_zero and abs(zero[3]) < at_zero
            assert np.max(np.abs(rows[:, 4] - rows[0, 4])) < 1e-12
    assert cli.main(argv + ["--N", "255"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("family", ["hermite", "mt"])
def test_schrodinger_runs_one_strang_pass(monkeypatch, capsys, family):
    from favard import basis as basis_mod
    from favard import schrodinger as sch

    steps = []
    run = sch._run

    def counted(*args):
        steps.append(args[4])
        return run(*args)

    monkeypatch.setattr(sch, "_run", counted)
    rc, out = run_cli(["schrodinger", "--basis", family, "--N", "64", "--f0", "exp(-x^2)",
                       "--potential", "x^2", "--T", "0.5", "--tau", "0.0625",
                       "--grid", "-2:2:1"], capsys)
    assert rc == 0 and steps == [8]
    rows = np.array([[float(c) for c in line.split(",")] for line in out.splitlines()[1:]])
    # the same states from eight one-step passes, each entering and leaving the path
    bas = basis_mod.make_basis(family, N=64)
    path = sch._strang_setup(bas, 64)
    states = [path.analyze(np.exp(-path.nodes.astype(complex) ** 2))]
    for _ in range(8):
        states.append(run(path, 0.0625, states[-1], lambda x: x * x, 1)[0])
    grid = np.arange(-2.0, 3.0)
    if family == "mt":  # the bilateral window n = -32..31
        table = basis_mod.malmquist_takenaka(np.arange(-32, 32)[:, None], grid)
    else:
        table = basis_mod.phi_grid(bas, 63, grid)
    u = np.array(states) @ table
    assert np.allclose(rows[:, 2] + 1j * rows[:, 3], u.ravel(), rtol=0, atol=1e-13)
    assert np.allclose(rows[:, 4], np.repeat(np.linalg.norm(states, axis=1), grid.size),
                       rtol=0, atol=1e-13)


def test_leading_dash_option_values(capsys):
    # "--grid -20:20:0.05" style must parse even though the value starts
    # with a minus sign
    rc, out = run_cli(["basis", "eval", "--family", "hermite",
                       "--n", "0:1", "--grid", "-1:1:1"], capsys)
    assert rc == 0
    assert out.startswith("n,x,re_phi,im_phi\n")
    assert len(out.strip().splitlines()) == 7


def test_value_flags_are_the_subcommands_value_options():
    parser = cli._build_parser()
    assert cli._value_flags() == {
        "--family", "--n", "--grid", "--method", "--out", "--N", "--f", "--window",
        "--in", "--model", "--skip", "--a", "--basis", "--f0", "--T", "--tau",
        "--potential"}
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        # the subcommand's required arguments, then each value option given -1
        base = [name]
        for action in sub._actions:
            if not action.option_strings:
                base.append(action.choices[0] if action.choices else "x")
            elif action.required:
                base += [action.option_strings[0], "1"]
        for action in sub._actions:
            if action.nargs == 0 or action.choices:
                continue
            for flag in action.option_strings:
                argv = cli._join_negative_values(base + [flag, "-1"])
                value = getattr(parser.parse_args(argv), action.dest)
                assert value in ("-1", -1), (name, flag, value)


def test_main_reuses_one_parser_across_calls(monkeypatch, capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    sequence = [
        ["quad", "--family", "legendre", "--N", "4"],
        ["quad", "--family", "hermite", "--N", "0"],
        ["--help"],
        ["decay", "--model", "exp", "--in", str(bad)],
        ["quad", "--family", "legendre", "--N", "4"],
    ]

    def call(argv):
        rc = cli.main(argv)
        got = capsys.readouterr()
        return rc, got.out, got.err

    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        cli._value_flags.cache_clear()
        fresh.append(call(argv))
    assert [rc for rc, _, _ in fresh] == [0, 2, 0, 1, 0]

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "favard":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    cli._value_flags.cache_clear()
    assert [call(argv) for argv in sequence] == fresh
    assert len(built) == 1


def _csv_per_cell(header, rows):
    # reference: each cell formatted on its own, %.17g for floats, str() otherwise
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def test_csv_matches_per_cell_formatting():
    floats = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
              1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e-310, 2.0 ** 70]
    ints = [-(2 ** 63), -7, -1, 0, 3, 10 ** 20, 2 ** 64, 42, -12, 5, 1, 0]
    columns = [ints, floats, floats[::-1]]
    # %.17g of a NumPy scalar must equal that of the Python float
    rows = list(zip(ints, floats, [np.float64(v) for v in floats[::-1]]))
    assert cli._csv("n,a,b", columns) == _csv_per_cell("n,a,b", rows)
    assert cli._csv("x", [[0.5]]) == "x\n0.5\n"


def test_coeffs_abs_column_is_abs_of_the_complex_coefficient(capsys):
    rc, out = run_cli(["coeffs", "--family", "mt", "--f", "1/(1+(2*x)^4)", "--N", "64",
                       "--method", "fft"], capsys)
    assert rc == 0
    for line in out.splitlines()[1:]:
        n, re, im, mag = line.split(",")
        assert mag == "%.17g" % abs(np.complex128(complex(float(re), float(im)))), n


def test_coeffs_window_is_the_xspace_interval(capsys):
    # --window lo:hi is the interval of the x-space rule, endpoints as given;
    # a third field (a step the rule never took) is refused before output
    from favard import coeffs
    from favard.basis import make_basis
    from favard.expr import compile_function

    argv = ["coeffs", "--family", "hermite", "--f", "exp(-x^2)", "--N", "8"]
    rc, out = run_cli(argv + ["--window", "-20:20"], capsys)
    assert rc == 0
    vec = coeffs.coeffs_xspace(compile_function("exp(-x^2)"), make_basis("hermite", N=10), 8,
                               window=(-20.0, 20.0))
    want = "".join("%d,%.17g,%.17g,%.17g\n" % (n, v.real, v.imag, abs(v))
                   for n, v in zip(vec.indices, vec.values))
    assert out == "n,re,im,abs\n" + want
    assert vec.values[1] == 0.0  # the symmetric window folds: odd rows of an even f
    rc = cli.main(argv + ["--window", "-20:20:0.3"])
    got = capsys.readouterr()
    assert rc == 2 and got.out == "" and "window must be lo:hi" in got.err


@pytest.mark.parametrize("window", ["-pi:pi", "-0.3:0.3"])
def test_coeffs_symmetric_window_folds_whatever_its_ends(capsys, window):
    # np.linspace does not mirror these windows bit for bit; the grid built
    # from its nonnegative half does, so the odd coefficients of an even f are 0
    rc, out = run_cli(["coeffs", "--family", "hermite", "--f", "exp(-x^2)", "--N", "2",
                       "--window", window], capsys)
    assert rc == 0
    assert out.splitlines()[2] == "1,0,0,0"


def test_coeffs_default_window_keeps_its_points():
    from favard import coeffs
    from favard.basis import make_basis

    seen = []
    coeffs.coeffs_xspace(lambda x: seen.append(x.copy()) or np.exp(-x * x),
                         make_basis("hermite", N=10), 8)
    assert np.array_equal(seen[0], np.linspace(-30.0, 30.0, 8193))


@pytest.mark.parametrize("method", ["dct", "auto"])
def test_coeffs_dct_prints_the_library_values(method, capsys):
    from favard import coeffs
    from favard.expr import compile_function

    rc, out = run_cli(["coeffs", "--family", "tanhjacobi:0.75,0.75", "--f", "exp(-x^2)",
                       "--N", "64", "--method", method], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,re,im,abs" and len(lines) == 65
    want = coeffs.tanh_chebyshev_coeffs(compile_function("exp(-x^2)"), (0.75, 0.75), 64)
    for k, line in enumerate(lines[1:]):
        n, re, im, _ = line.split(",")
        assert int(n) == k and complex(float(re), float(im)) == want.values[k]


def test_basis_method_closed_needs_a_closed_form(capsys):
    # a family without a closed form is refused before anything is printed
    rc, out = run_cli(["basis", "eval", "--family", "jacobi:1,1", "--n", "0:1",
                       "--grid", "0:1:0.5", "--method", "closed"], capsys)
    assert rc == 2 and out == ""
    argv = ["basis", "eval", "--family", "legendre", "--n", "0:1", "--grid", "0:1:0.5"]
    rc, closed = run_cli(argv + ["--method", "closed"], capsys)
    assert rc == 0
    assert closed == run_cli(argv, capsys)[1]


def test_perfbench_tracer_layers_resolve():
    # the benchmark's tracer wraps these names through getattr; a missing
    # one would raise in every traced run
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_favard_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"favard.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"favard.{module}.{name}"
