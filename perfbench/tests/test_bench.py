"""Tests of the benchmark itself: seeded op streams, span accounting,
oracle sensitivity and exit codes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibrate
import oracles as O
import run
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent

# CLI commands that take seconds each; their oracles are the same kinds
# (report verdicts, norm columns) as cheaper commands that are tested.
SLOW_CLI = ("verify all --family legendre", "--N 512", "conthahn")


@pytest.fixture(scope="module")
def contexts():
    return {name: workloads.setup(name) for name in workloads.WORKLOADS}


def _labels(stream, rounds=2):
    return [[op.label for chain in stream.round() for op in chain] for _ in range(rounds)]


# ------------------------------------------------------------ op streams


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_stream(contexts, name):
    a = workloads.Stream(contexts[name], 11)
    b = workloads.Stream(contexts[name], 11)
    assert _labels(a) == _labels(b)
    # identical draws leave the generators in identical states, so every
    # random input (coefficients, shifts, grids, tau) matched as well
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    assert _labels(workloads.Stream(contexts[name], 12)) != _labels(workloads.Stream(contexts[name], 11))


def test_same_seed_same_inputs(contexts):
    ctx = contexts["transforms"]
    first = [workloads.Stream(ctx, 5).round()[0][0] for _ in range(2)]
    assert first[0].label == first[1].label
    r0, r1 = (op.run(None) for op in first)
    if hasattr(r0, "values"):
        r0, r1 = r0.values, r1.values
    elif hasattr(r0, "weights"):
        r0, r1 = r0.weights, r1.weights
    assert np.array_equal(np.asarray(r0), np.asarray(r1))


def test_round_is_the_whole_mix(contexts):
    ctx = contexts["transforms"]
    counts = workloads.mix(ctx)
    labels = [op.label for chain in workloads.Stream(ctx, 3).round() for op in chain]
    assert len(labels) == sum(counts.values())
    assert len(set(labels)) == len(labels)


def test_known_defects_are_in_the_mix(contexts):
    labels = set()
    for name in workloads.WORKLOADS:
        stream = workloads.Stream(contexts[name], 0)
        labels |= {op.label for chain in stream.round() for op in chain}
    assert set(workloads.KNOWN_DEFECTS) <= labels


# ---------------------------------------------------------------- tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_is_total_minus_children():
    tracer = Tracer(clock=FakeClock())

    inner = tracer.wrap("diffop.apply", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("diffop.expm_apply", body)
    outer()
    # clock ticks: outer start 1, inner 2..3, inner 4..5, outer end 6
    assert tracer.total["diffop.apply"] == 2.0
    assert tracer.total["diffop.expm_apply"] == 5.0
    assert tracer.self_time["diffop.expm_apply"] == 5.0 - 2.0
    assert tracer.self_time["diffop.apply"] == tracer.total["diffop.apply"]
    assert tracer.calls["diffop.apply"] == 2
    assert tracer.metrics()["diffop.expm_apply.krylov_per_call"][0] == 2.0


def test_errors_counted_once_per_module():
    tracer = Tracer(clock=FakeClock())

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("basis.phi", fail)
    same = tracer.wrap("basis.make_basis", inner)
    other = tracer.wrap("verify.check_gram", same)
    with pytest.raises(ValueError):
        other()
    assert tracer.errors["basis"] == 1
    assert tracer.errors["verify"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    import favard
    from favard import cli, coeffs, diffop, expr, quadrature

    original = quadrature.golub_welsch
    tracer = Tracer()
    with tracer:
        assert coeffs.golub_welsch is quadrature.golub_welsch is favard.golub_welsch
        assert quadrature.golub_welsch is not original
        assert cli.compile_function is expr.compile_function
        D = diffop.build(favard.make_basis("hermite", N=32).jacobi, 32)
        diffop.expm_apply(D, 0.5, np.ones(32, dtype=complex))
    assert quadrature.golub_welsch is original and coeffs.golub_welsch is original
    assert tracer.calls["diffop.expm_apply"] == 1
    assert tracer.krylov_calls >= 1
    metrics = tracer.metrics()
    assert len(metrics) == 118
    assert all(math.isfinite(v) for v, _unit in metrics.values())


def test_n_exponent_recovers_planted_slope():
    tracer = Tracer()
    tracer.sizes["coeffs.mt_coeffs_fft"] = [(n, 1e-6 * n ** 1.5) for n in (64, 128, 256, 512)]
    assert abs(tracer.n_exponent("coeffs.mt_coeffs_fft") - 1.5) < 1e-12
    assert tracer.n_exponent("quadrature.golub_welsch") == 0.0


# --------------------------------------------------------------- oracles


def _perturb(result):
    """The same result with one entry moved by 1e-3 (relative)."""
    if isinstance(result, tuple):  # CLI (exit code, stdout)
        return result
    if hasattr(result, "with_values"):
        vals = result.values.copy()
        vals[len(vals) // 2] += 1e-3 * (1.0 + abs(vals[len(vals) // 2]))
        return result.with_values(vals)
    if hasattr(result, "weights"):
        w = result.weights.copy()
        w[0] *= 1.001
        return dataclasses.replace(result, weights=w)
    if hasattr(result, "param"):
        return dataclasses.replace(result, param=result.param * 1.05)
    if isinstance(result, list):
        return [_perturb(result[0])] + result[1:]
    if isinstance(result, float):
        return result * (1.0 + 1e-6)
    arr = np.array(result, dtype=complex)
    arr.flat[arr.size // 2] += 1e-3
    return arr


def _first_of_each_kind(ctx, seed=4):
    seen, out = set(), []
    for chain in workloads.Stream(ctx, seed).round():
        kinds = tuple(op.kind for op in chain)
        if kinds in seen or any(op.label in workloads.KNOWN_DEFECTS for op in chain):
            continue
        seen.add(kinds)
        out.append(chain)
    return out


@pytest.mark.parametrize("name", ["transforms", "propagate"])
def test_library_oracles_reject_perturbed_results(contexts, name):
    ctx = contexts[name]
    for chain in _first_of_each_kind(ctx):
        prev = None
        for op in chain:
            result = op.run(prev)
            assert op.check(result).passed, op.label
            assert not op.check(_perturb(result)).passed, op.label
            prev = result


def _perturb_csv(text: str, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = value
    lines[1] = ",".join(cells) + "\n"
    return "".join(lines)


def _perturbed_outputs(text: str):
    """Outputs an oracle must reject, keyed by what was changed."""
    if text.lstrip().startswith("["):  # verification reports
        reports = json.loads(text)
        reports[0]["pass"] = False
        reports[0]["metadata"].pop("expected_fail", None)
        yield json.dumps(reports, indent=2) + "\n"
        return
    if text.lstrip().startswith("{"):  # decay fit
        payload = json.loads(text)
        payload["param"] *= 1.05
        yield json.dumps(payload, indent=2) + "\n"
        return
    yield _perturb_csv(text, 1, "nan")


def _check(op, result):
    """The verdict on ``result`` as the runner reaches it, unreadable output included."""
    return run.execute(dataclasses.replace(op, run=lambda _p: result), None)[2]


NUMERIC_CLI = {"basis eval --family legendre": 2, "quad": 1, "diffmat": 2,
               "coeffs": 3, "schrodinger --basis hermite": 4}


def test_cli_oracles_reject_perturbed_outputs(contexts):
    ctx = contexts["cli"]
    chains = workloads.Stream(ctx, 4).round()
    tested = 0
    for chain in chains:
        prev = None
        for op in chain:
            if any(tag in op.label for tag in SLOW_CLI) or op.label in workloads.KNOWN_DEFECTS:
                break
            code, text = op.run(prev)
            ctx.reference_bytes.pop(op.label, None)
            assert _check(op, (code, text)).passed, op.label
            assert not _check(op, (code + 1, text)).passed, op.label
            assert not _check(op, (code, text + " ")).passed, op.label  # bytes changed
            bad = list(_perturbed_outputs(text))
            for key, column in NUMERIC_CLI.items():
                if op.label.startswith("cli " + key):
                    _header, rows = O.parse_csv(text)
                    bad.append(_perturb_csv(text, column, f"{rows[0, column] * 1.01 + 1e-3:.17g}"))
            for wrong in bad:
                ctx.reference_bytes[op.label] = wrong
                assert not _check(op, (code, wrong)).passed, op.label
            ctx.reference_bytes[op.label] = text
            prev = (code, text)
            tested += 1
    assert tested >= 12


def test_known_defects_fail_their_oracles(contexts):
    ctx = contexts["transforms"]
    seen = 0
    for chain in workloads.Stream(ctx, 1).round():
        for op in chain:
            if op.label.startswith(("golub_welsch hermite", "coeffs_fourier_side hermite")):
                check = op.check(op.run(None))
                if op.label.endswith(("N=12", "N=16", "N=24", "N=32")):
                    continue  # N=32 is a defect of golub_welsch only
                assert not check.passed, op.label
                assert workloads.known_failure(op.label, check.error), op.label
                seen += 1
    assert seen == 8 + 3


def test_legendre_defect_shows_in_every_grid(contexts):
    ctx = contexts["transforms"]
    for seed in (0, 1, 2):
        for chain in workloads.Stream(ctx, seed).round():
            for op in chain:
                if op.kind != "phi_grid":
                    continue
                check = op.check(op.run(None))
                if op.label.startswith("phi_grid legendre"):
                    assert not check.passed, (seed, op.label)
                    assert workloads.known_failure(op.label, check.error), (seed, op.label)
                else:
                    assert check.passed, (seed, op.label)


class RiggedDraws:
    """Stands in for the generator: L, then the given grid points."""

    def __init__(self, L, x):
        self.draws = [L, np.array(x, dtype=float)]

    def uniform(self, *_args):
        return self.draws.pop(0)


def test_seeded_points_move_out_to_the_probes():
    gap = workloads.PROBE_GAP
    x = workloads.grid_points(RiggedDraws(12.0, [math.pi + 1e-7, -2 * math.pi - 3e-6,
                                                 math.pi + 2e-5, 1e-7, 1.0]))
    probes = np.concatenate([workloads.SIN_ZEROS - gap, workloads.SIN_ZEROS + gap])
    expected = np.sort(np.concatenate([[math.pi + gap, -2 * math.pi - gap,
                                        math.pi + 2e-5, 1e-7, 1.0], probes]))
    assert np.array_equal(x, expected)


def test_known_defect_that_grows_is_unexpected():
    label = "golub_welsch hermite N=64"
    recorded = workloads.KNOWN_DEFECTS[label].error
    assert workloads.known_failure(label, recorded)
    for error in (100.0 * recorded, math.inf, math.nan):
        assert not workloads.known_failure(label, error)
    assert not workloads.known_failure("golub_welsch legendre N=64", 1e-7)


def test_sturm_radius_matches_dense_eigenvalues():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(40)
    b = rng.uniform(0.5, 2.0, 39)
    J = np.diag(c) + np.diag(b, 1) + np.diag(b, -1)
    assert abs(O.sturm_radius(b, c) - np.max(np.abs(np.linalg.eigvalsh(J)))) < 1e-12


def test_gauss_error_reports_underflowed_reference_as_infinite():
    err = O.gauss_error(np.array([0.0, 1.0]), np.array([0.5, 1e-300]),
                        np.array([0.0, 1.0]), np.array([0.5, 0.0]))
    assert err == math.inf


# --------------------------------------------------------------- runner


def test_tail_has_ten_samples_beyond():
    value, pct, index = run.tail([float(i) for i in reversed(range(100))])
    assert value == 89.0 and pct == 90.0 and index == 10


def test_oracle_that_cannot_run_is_not_an_op_failure():
    def missing_table():
        raise KeyError("reference table missing")

    def broken(_result):
        return O.Check(O.reference(missing_table), 1e-8)

    op = workloads.Op("probe", "probe", lambda _p: 1.0, broken)
    with pytest.raises(O.OracleUnavailable):
        run.execute(op, None)
    failing = workloads.Op("probe", "probe", lambda _p: 1 / 0, broken)
    _result, _latency, check = run.execute(failing, None)
    assert not check.passed and "ZeroDivisionError" in check.note


def test_malformed_output_is_a_failed_op(contexts):
    ctx = contexts["cli"]
    ops = [op for chain in workloads.Stream(ctx, 2).round() for op in chain]
    for wrong in ("n,x,re_phi,im_phi\n0,1,oops,0\n", "not json\n", ""):
        for op in ops:
            if op.label.startswith(("cli basis eval --family legendre", "cli decay",
                                    "cli verify all --family hermite")):
                bad = dataclasses.replace(op, run=lambda _p, t=wrong: (0, t))
                _result, _latency, check = run.execute(bad, None)
                assert not check.passed and check.error == math.inf, (op.label, wrong)


def test_phase_runs_a_fixed_number_of_rounds():
    class Mix:
        def round(self):
            return [[workloads.Op("k", f"op {i}", lambda _p: 1.0,
                                  lambda _r: O.Check(0.0, 1.0))] for i in range(3)]

    samples = run.run_phase(Mix(), 4)
    assert [s.round for s in samples] == [r for r in range(4) for _ in range(3)]
    assert run.rounds_for("transforms", 20.0, run.MIN_ROUNDS) == round(20.0 / run.ROUND_S["transforms"])
    assert run.rounds_for("cli", 1.0, run.MIN_ROUNDS) == run.MIN_ROUNDS
    assert run.rounds_for("cli", 1.0) == 1


def test_rescaling_leaves_out_the_loop_run_after_the_op():
    loop = [1e-3 * (1.0 + 0.01 * (i % 5)) for i in range(40)]
    before = calibrate.speed_factors(loop)
    loop[21] *= 3.0  # op 20 leaves the machine slow for the loop run after it
    assert calibrate.speed_factors(loop)[20] == before[20]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
