"""Command-line front end: CSV/JSON emitters over the library modules.

Every subcommand validates its whole configuration (grids, ranges,
expressions, family names) before any computation starts, writes CSV with a
header row and %.17g numbers (or schema-versioned JSON for reports), and is
deterministic for a fixed argument list.  Exit codes: 0 success, 1 a
verification check failed or a file could not be read or written, 2 usage
or configuration error; a failure prints one ``favard:`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import basis as basis_mod
from . import coeffs as coeffs_mod
from . import diffop
from . import quadrature
from . import schrodinger as sch
from . import verify as verify_mod
from .errors import AccuracyError, EigenError
from .expr import ParseError, compile_function, evaluate, parse as expr_parse

__all__ = ["main"]

_FMT = "%.17g"
_STDOUT_TOKENS = {None, "-", "csv", "json"}


def _eval_scalar(text: str, what: str) -> float:
    """Numeric CLI field; accepts expressions like 'pi' or '-pi/2'."""
    try:
        return float(evaluate(expr_parse(text.strip()), 0.0))
    except (ParseError, ValueError) as exc:
        raise ValueError(f"invalid {what} {text!r}: {exc}") from None


def _parse_fields(spec: str, what: str, form: str) -> list[float]:
    """The numeric fields of a ``what`` given as ``form`` (lo:hi or lo:hi:step);
    ValueError unless it has that many and hi > lo."""
    parts = spec.split(":")
    if len(parts) != form.count(":") + 1:
        raise ValueError(f"{what} must be {form}, got {spec!r}")
    fields = [_eval_scalar(p, f"{what} {name}") for p, name in zip(parts, ("start", "end", "step"))]
    if not fields[1] > fields[0]:
        raise ValueError(f"{what} needs hi > lo, got {spec!r}")
    if not math.isfinite(fields[1] - fields[0]):
        raise ValueError(f"{what} width hi - lo is past the double range, got {spec!r}")
    return fields


def _parse_grid(spec: str) -> np.ndarray:
    lo, hi, step = _parse_fields(spec, "grid", "lo:hi:step")
    if step <= 0.0:
        raise ValueError(f"grid needs step > 0, got {spec!r}")
    count = (hi - lo) / step + 1e-9
    try:
        count = int(count) + 1
        return lo + step * np.arange(count)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"grid {spec!r} has {count} points, more than can be allocated") from None


def _parse_n_range(spec: str) -> tuple[int, int]:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"index range must be n or lo:hi, got {spec!r}") from None
    if hi < lo:
        raise ValueError(f"empty index range {spec!r}")
    return lo, hi


def _emit(out: str | None, text: str) -> None:
    if out in _STDOUT_TOKENS:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _csv(header: str, columns) -> str:
    """CSV text of equal-length, non-empty columns in one formatting call:
    %.17g for a column of floats, %s for a column of ints."""
    row = ",".join(_FMT if isinstance(col[0], float) else "%s" for col in columns) + "\n"
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    return header + "\n" + (row * len(columns[0])) % cells


def _grid_columns(labels, grid: np.ndarray, rows: np.ndarray) -> list:
    """Columns label, x, re, im of a table whose row k holds the values on
    ``grid`` for labels[k]: rows outer, grid points inner."""
    m = grid.size
    return [np.repeat(labels, m).tolist(), np.tile(grid, len(labels)).tolist(),
            rows.real.ravel().tolist(), rows.imag.ravel().tolist()]


def _resolve_family(family: str, N: int):
    """The basis of ``family`` with recurrence coefficients past index N."""
    return basis_mod.make_basis(family, N=max(N + 2, 8))


def _on_the_line(bas, what: str):
    """``bas``; ValueError naming ``what`` if its measure is a lattice."""
    if bas.measure.kind == "discrete":
        raise ValueError(f"{what} needs a measure on the line, not the lattice of {bas.family}")
    return bas


def _cmd_basis(bas, n_range, grid, method, out) -> int:
    lo, hi = n_range
    table = basis_mod.phi_grid(bas, hi, grid, method=method)
    columns = _grid_columns(np.arange(lo, hi + 1), grid, table[lo:hi + 1])
    _emit(out, _csv("n,x,re_phi,im_phi", columns))
    return 0


def _cmd_quad(bas, N, out) -> int:
    rule = quadrature.golub_welsch(bas.jacobi, N)
    _emit(out, _csv("node,weight", [rule.nodes.tolist(), rule.weights.tolist()]))
    return 0


def _cmd_diffmat(bas, N, out) -> int:
    D = diffop.build(bas.jacobi, N)
    rows = []
    for m in range(N):
        if m > 0:
            rows.append((m, m - 1, float(D.sub[m - 1]), 0.0))
        rows.append((m, m, 0.0, float(D.diag[m])))
        if m + 1 < N:
            rows.append((m, m + 1, -float(D.sub[m]), 0.0))
    _emit(out, _csv("row,col,re,im", list(zip(*rows))))
    return 0


def _cmd_coeffs(bas, f, N, method, window, out) -> int:
    if method == "fft":
        vec = coeffs_mod.mt_coeffs_fft(f, N)
    elif method == "dct":
        vec = coeffs_mod.tanh_chebyshev_coeffs(f, coeffs_mod.tanh_cheb_kind(bas), N)
    else:
        vec = coeffs_mod.coeffs_xspace(f, bas, N, window=window)
    re, im = vec.values.real, vec.values.imag
    # np.hypot rounds as abs() of a complex scalar does; np.abs on a complex
    # array may take a vector loop that differs in the last bit
    columns = [vec.indices.tolist(), re.tolist(), im.tolist(), np.hypot(re, im).tolist()]
    _emit(out, _csv("n,re,im,abs", columns))
    return 0


def _cmd_decay(source, model, skip, out) -> int:
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as handle:
            text = handle.read()
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].split(",")[0].strip() != "n":
        raise ValueError("decay expects the coeffs CSV (header n,re,im,abs)")
    ns, vals = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        ns.append(int(cells[0]))
        vals.append(complex(float(cells[1]), float(cells[2])))
    ns = np.asarray(ns)
    n_start = int(ns.min())
    if not np.array_equal(ns, np.arange(n_start, n_start + len(ns))):
        raise ValueError("coefficient indices must be contiguous")
    vec = coeffs_mod.CoefficientVector(np.asarray(vals), n_start=n_start)
    fit = coeffs_mod.decay_fit(vec, model, skip=skip)
    payload = {
        "schema": "favard.decay/1",
        "model": fit.model,
        "param": fit.param,
        "amplitude": fit.amplitude,
        "r2": fit.r2,
        "n_used": fit.n_used,
    }
    if fit.p is not None:
        payload["p"] = fit.p
    _emit(out, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_schrodinger(bas, N, f0, V, tau, steps, grid, out) -> int:
    path = sch._strang_setup(bas, N)
    table = np.asarray(path.rows(grid), dtype=complex)
    a = path.analyze(np.asarray(f0(path.nodes), dtype=complex))
    # the states after each step leave the path's coordinates in one product
    stepped = sch._run(path, tau, a, V, steps, np.copy)[1]
    states = [a, *(path.leave(np.stack(stepped)) if stepped else [])]
    # einsum sums in a fixed order: a BLAS product's order follows its thread count
    u = np.einsum("si,ij->sj", np.array(states), table)
    norms = [float(np.linalg.norm(vec)) for vec in states]
    columns = _grid_columns([k * tau for k in range(steps + 1)], grid, u)
    columns.append(np.repeat(norms, grid.size).tolist())
    _emit(out, _csv("t,x,re_u,im_u,norm", columns))
    return 0


_CHECK_NAMES = ("gram", "recurrence", "cramer", "ramanujan",
                "tanh-jacobi-identity", "pw-support")


def _verify_checks(which: str, key) -> list:
    """The checks of ``verify which`` on the measure named ``key``; ``all`` is gram and
    recurrence plus cramer (Hermite measure), pw-support (Legendre measure), or
    tanh-jacobi-identity and ramanujan (continuous Hahn measures)."""
    if which != "all":
        return [which]
    extra = {("hermite", 0.0): ["cramer"], ("jacobi", 0.0, 0.0): ["pw-support"]}.get(key, [])
    if key is not None and key[0] == "hahn":
        extra = ["tanh-jacobi-identity", "ramanujan"]
    return ["gram", "recurrence", *extra]


def _cmd_verify(bas, checks, N, a, out) -> int:
    reports = []
    for name in checks:
        if name in ("gram", "recurrence"):
            fn = verify_mod.check_gram if name == "gram" else verify_mod.check_recurrence
            reports.append(fn(bas, N))
        elif name == "cramer":
            reports.append(verify_mod.check_cramer(max(N, 50)))
        elif name == "ramanujan":
            reports.append(verify_mod.check_ramanujan(a))
        elif name == "tanh-jacobi-identity":
            reports.append(verify_mod.check_tanh_jacobi_identity(bas, min(N, 6)))
        else:  # pw-support
            reports.extend(verify_mod.pw_support_reports(bas, range(min(N, 3))))
    payload = [r.as_dict() for r in reports]
    _emit(out, json.dumps(payload, indent=2) + "\n")
    bad = [r for r in reports if not r.passed and not r.metadata.get("expected_fail")]
    return 1 if bad else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every main() call:
    parse_args leaves it unchanged and returns a fresh namespace."""
    root = argparse.ArgumentParser(
        prog="favard",
        description="Orthonormal function systems with tridiagonal differentiation matrices.",
    )
    subs = root.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("basis", help="evaluate basis functions on a grid")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--family", required=True)
    p.add_argument("--n", default="0:3", help="index range lo:hi")
    p.add_argument("--grid", default="-20:20:0.05", help="lo:hi:step (fields may use pi)")
    p.add_argument("--method", choices=["auto", "quadrature", "closed"], default="auto")
    p.add_argument("--out", default=None)

    p = subs.add_parser("quad", help="Gauss nodes and weights of a family's measure")
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default=None)

    p = subs.add_parser("diffmat", help="tridiagonal differentiation matrix entries")
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--out", default=None)

    p = subs.add_parser("coeffs", help="expansion coefficients of a function")
    p.add_argument("--family", required=True)
    p.add_argument("--f", required=True, help="expression in x")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--method", choices=["auto", "fft", "dct", "xspace"], default="auto")
    p.add_argument("--window", default="-30:30",
                   help="xspace window lo:hi (fields may use pi)")
    p.add_argument("--out", default=None)

    p = subs.add_parser("decay", help="fit a decay model to coefficients CSV")
    p.add_argument("--in", dest="infile", default="-", help="coeffs CSV path or - for stdin")
    p.add_argument("--model", required=True,
                   help="exp | alg | stretched:<p> (e.g. stretched:0.5)")
    p.add_argument("--skip", type=int, default=8)
    p.add_argument("--out", default=None)

    p = subs.add_parser("periodic", help="periodic Charlier system: basis eval of charlier:<a>")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--a", default="0.5")
    p.add_argument("--n", default="0:3")
    p.add_argument("--grid", default="-pi:pi:0.05", help="lo:hi:step (fields may use pi)")
    p.add_argument("--out", default=None)

    p = subs.add_parser("schrodinger", help="Strang-split Schroedinger propagation")
    p.add_argument("--basis", required=True, help="hermite (or genhermite:0) or mt")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--f0", required=True, help="initial data, expression in x")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--potential", default="none", help="expression in x, or none")
    p.add_argument("--grid", default="-8:8:0.5")
    p.add_argument("--out", default=None)

    p = subs.add_parser("verify", help="run verification checks, emit JSON reports")
    p.add_argument("check", help="all or one of: " + ", ".join(_CHECK_NAMES))
    p.add_argument("--family", default="hermite")
    p.add_argument("--N", type=int, default=12)
    p.add_argument("--a", default="0.5", help="ramanujan parameter")
    p.add_argument("--out", default=None)
    return root


def _coeffs_method(bas, method: str, N: int) -> str:
    """The transform coeffs runs: ``auto`` takes the family's fast one if it
    has one; fft and dct are refused where they do not apply."""
    kind = coeffs_mod.tanh_cheb_kind(bas)
    if method == "auto":
        method = "fft" if bas.bilateral else "dct" if kind is not None else "xspace"
    if method == "fft":
        if not bas.bilateral:
            raise ValueError("--method fft is only available for the mt family")
        coeffs_mod.check_mt_fft_size(N)
    elif method == "dct":
        if kind is None:
            raise ValueError("--method dct needs a tanh-Chebyshev family "
                             "(tanhjacobi with parameters in {1/4, 3/4})")
        coeffs_mod.check_tanh_cheb_size(N)
    return method


def _configure(args: argparse.Namespace) -> functools.partial:
    """Validate the whole invocation; return its handler with every input bound."""
    sub = args.subcommand
    if getattr(args, "N", 1) < 1:  # quad, diffmat, coeffs, schrodinger and verify take --N
        raise ValueError("N must be positive")
    if sub == "periodic":  # basis eval --family charlier:<a>
        a = _eval_scalar(args.a, "charlier parameter")
        args = argparse.Namespace(**vars(args), family=f"charlier:{a!r}", method="auto")
    if sub in ("basis", "periodic"):
        grid = _parse_grid(args.grid)
        n_range = _parse_n_range(args.n)
        if n_range[0] < 0:
            raise ValueError(f"{sub} eval needs nonnegative indices")
        bas = _resolve_family(args.family, n_range[1])
        if args.method == "closed" and bas.closed_table is None:
            raise ValueError(f"family {args.family!r} has no closed form")
        if args.method == "quadrature":
            _on_the_line(bas, "--method quadrature")
        return functools.partial(_cmd_basis, bas, n_range, grid, args.method, args.out)
    if sub in ("quad", "diffmat"):
        handler = _cmd_quad if sub == "quad" else _cmd_diffmat
        return functools.partial(handler, _resolve_family(args.family, args.N), args.N, args.out)
    if sub == "coeffs":
        bas = _on_the_line(_resolve_family(args.family, min(args.N, 256)), "coeffs")
        method = _coeffs_method(bas, args.method, args.N)
        f = compile_function(args.f)
        window = tuple(_parse_fields(args.window, "window", "lo:hi"))
        return functools.partial(_cmd_coeffs, bas, f, args.N, method, window, args.out)
    if sub == "decay":
        names = {"exp": "exponential", "alg": "algebraic"}
        model = names.get(args.model, args.model)
        coeffs_mod.parse_decay_model(model)
        if args.skip < 0:
            raise ValueError("skip must be nonnegative")
        return functools.partial(_cmd_decay, args.infile, model, args.skip, args.out)
    if sub == "schrodinger":
        if args.tau <= 0.0 or args.T < 0.0:
            raise ValueError("need T >= 0 and tau > 0")
        steps = args.T / args.tau
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("T must be an integer multiple of tau")
        bas = _resolve_family(args.basis, args.N)
        f0 = compile_function(args.f0)
        V = None if args.potential.strip().lower() == "none" else compile_function(args.potential)
        grid = _parse_grid(args.grid)
        sch._grid_builder(bas, args.N)  # raises where there is no Strang grid pair
        return functools.partial(_cmd_schrodinger, bas, args.N, f0, V, args.tau,
                                 int(round(steps)), grid, args.out)
    if sub == "verify":
        if args.check != "all" and args.check not in _CHECK_NAMES:
            raise ValueError(f"unknown check {args.check!r}; "
                             f"expected all or one of {', '.join(_CHECK_NAMES)}")
        a = _eval_scalar(args.a, "ramanujan parameter")
        # every check but cramer and ramanujan reads one basis, built here,
        # which checks the family; its measure's key picks what all runs
        bas = None
        if args.check not in ("cramer", "ramanujan"):
            bas = _resolve_family(args.family, max(args.N, 12))
        key = bas and bas.measure.key
        checks = _verify_checks(args.check, key)
        if a <= 0.0 and "ramanujan" in checks:
            raise ValueError("ramanujan parameter --a must be positive")
        if "tanh-jacobi-identity" in checks and not (key and key[0] == "hahn"):
            raise ValueError("tanh-jacobi-identity needs a continuous Hahn family, "
                             "conthahn:a,b or tanhjacobi:a,b")
        if "pw-support" in checks:
            _on_the_line(bas, "pw-support")
        return functools.partial(_cmd_verify, bas, checks, args.N, a, args.out)
    raise ValueError(f"unknown subcommand {sub!r}")


@functools.cache
def _value_flags() -> frozenset[str]:
    """Every option of a subcommand that takes a value."""
    (subs,) = (a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return frozenset(flag for sub in subs.choices.values() for action in sub._actions
                     if action.nargs != 0 for flag in action.option_strings)


def _join_negative_values(argv):
    """Fold '--grid -20:20:0.05' into '--grid=-20:20:0.05' so argparse does
    not mistake a leading-minus value for an option."""
    value_flags, out = _value_flags(), []
    for tok in argv:
        if out and out[-1] in value_flags and tok.startswith("-") and tok != "-":
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handler = _configure(args)
    except (ValueError, ParseError) as exc:
        print(f"favard: {exc}", file=sys.stderr)
        return 2
    try:
        return handler()
    except (ValueError, ParseError, OSError, AccuracyError, EigenError) as exc:
        print(f"favard: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
