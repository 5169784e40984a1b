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
from . import periodic as periodic_mod
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


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be lo:hi:step, got {spec!r}")
    lo = _eval_scalar(parts[0], "grid start")
    hi = _eval_scalar(parts[1], "grid end")
    step = _eval_scalar(parts[2], "grid step")
    if step <= 0.0 or hi <= lo:
        raise ValueError(f"grid needs hi > lo and step > 0, got {spec!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _parse_window(spec: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be lo:hi, got {spec!r}")
    lo = _eval_scalar(parts[0], "window start")
    hi = _eval_scalar(parts[1], "window end")
    if not hi > lo:
        raise ValueError(f"window needs hi > lo, got {spec!r}")
    return lo, hi


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
    """TransformedBasis for continuous families, PeriodicBasis for charlier."""
    head, _, tail = family.partition(":")
    if head == "charlier":
        a = _eval_scalar(tail or "0.5", "charlier parameter")
        return periodic_mod.charlier_basis(a, N=max(N + 2, 8))
    return basis_mod.make_basis(family, N=max(N + 2, 8))


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


def _cmd_periodic(bas, n_range, grid, out) -> int:
    ns = np.arange(n_range[0], n_range[1] + 1)
    table = np.array([periodic_mod.periodic_phi(bas, int(n), grid) for n in ns])
    _emit(out, _csv("n,x,re_phi,im_phi", _grid_columns(ns, grid, table)))
    return 0


def _cmd_schrodinger(bas, N, f0, V, tau, steps, grid, out) -> int:
    path = sch._strang_setup(bas, N)
    # rows first: a Hermite grid pair builds its scale in the same table sweep
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


def _verify_reports(family, bas, which, N, a) -> list:
    head = family.partition(":")[0]
    reports = []

    def add(name):
        if name in ("gram", "recurrence"):
            fn = verify_mod.check_gram if name == "gram" else verify_mod.check_recurrence
            reports.append(fn(bas, N))
        elif name == "cramer":
            reports.append(verify_mod.check_cramer(max(N, 50)))
        elif name == "ramanujan":
            reports.append(verify_mod.check_ramanujan(a))
        elif name == "tanh-jacobi-identity":
            tj_a, tj_b, _ = bas.tanh_jacobi
            reports.append(verify_mod.check_tanh_jacobi_identity(tj_a, tj_b, min(N, 6)))
        elif name == "pw-support":
            reports.extend(verify_mod.pw_support_reports(bas, range(min(N, 3))))
        else:
            raise ValueError(f"unknown check {name!r}")

    if which == "all":
        add("gram")
        add("recurrence")
        if head == "hermite":
            add("cramer")
        if head == "tanhjacobi":
            add("tanh-jacobi-identity")
            add("ramanujan")
        if head == "legendre":
            add("pw-support")
    else:
        add(which)
    return reports


def _cmd_verify(family, bas, which, N, a, out) -> int:
    reports = _verify_reports(family, bas, which, N, a)
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

    p = subs.add_parser("periodic", help="periodic Charlier system")
    p.add_argument("action", choices=["eval"])
    p.add_argument("--a", default="0.5")
    p.add_argument("--n", default="0:3")
    p.add_argument("--grid", default="-pi:pi:0.05", help="lo:hi:step (fields may use pi)")
    p.add_argument("--out", default=None)

    p = subs.add_parser("schrodinger", help="Strang-split Schroedinger propagation")
    p.add_argument("--basis", required=True, help="hermite or mt")
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
    head = bas.family.partition(":")[0]
    kind = coeffs_mod.tanh_cheb_kind(bas)
    if method == "auto":
        method = "fft" if head == "mt" else "dct" if kind is not None else "xspace"
    if method == "fft":
        if head != "mt":
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
    if sub == "basis":
        grid = _parse_grid(args.grid)
        n_range = _parse_n_range(args.n)
        if n_range[0] < 0:
            raise ValueError("basis eval needs nonnegative indices")
        bas = _resolve_family(args.family, n_range[1])
        if isinstance(bas, periodic_mod.PeriodicBasis):
            raise ValueError("use the periodic subcommand for charlier families")
        if args.method == "closed" and bas.closed_table is None:
            raise ValueError(f"family {args.family!r} has no closed form")
        return functools.partial(_cmd_basis, bas, n_range, grid, args.method, args.out)
    if sub == "quad":
        if args.N < 1:
            raise ValueError("N must be positive")
        bas = _resolve_family(args.family, args.N)
        return functools.partial(_cmd_quad, bas, args.N, args.out)
    if sub == "diffmat":
        if args.N < 1:
            raise ValueError("N must be positive")
        bas = _resolve_family(args.family, args.N)
        return functools.partial(_cmd_diffmat, bas, args.N, args.out)
    if sub == "coeffs":
        if args.N < 1:
            raise ValueError("N must be positive")
        bas = _resolve_family(args.family, min(args.N, 256))
        if isinstance(bas, periodic_mod.PeriodicBasis):
            raise ValueError("coeffs supports continuous families only")
        method = _coeffs_method(bas, args.method, args.N)
        f = compile_function(args.f)
        window = _parse_window(args.window)
        return functools.partial(_cmd_coeffs, bas, f, args.N, method, window, args.out)
    if sub == "decay":
        names = {"exp": "exponential", "alg": "algebraic"}
        model = names.get(args.model, args.model)
        coeffs_mod.parse_decay_model(model)
        if args.skip < 0:
            raise ValueError("skip must be nonnegative")
        return functools.partial(_cmd_decay, args.infile, model, args.skip, args.out)
    if sub == "periodic":
        a = _eval_scalar(args.a, "charlier parameter")
        if a <= 0.0:
            raise ValueError("charlier parameter must be positive")
        n_range = _parse_n_range(args.n)
        if n_range[0] < 0:
            raise ValueError("periodic eval needs nonnegative indices")
        grid = _parse_grid(args.grid)
        bas = periodic_mod.charlier_basis(a, N=max(n_range[1] + 2, 8))
        return functools.partial(_cmd_periodic, bas, n_range, grid, args.out)
    if sub == "schrodinger":
        if args.N < 1:
            raise ValueError("N must be positive")
        if args.tau <= 0.0 or args.T < 0.0:
            raise ValueError("need T >= 0 and tau > 0")
        steps = args.T / args.tau
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("T must be an integer multiple of tau")
        bas = _resolve_family(args.basis, args.N)
        if isinstance(bas, periodic_mod.PeriodicBasis):
            raise ValueError("schrodinger supports hermite and mt bases")
        f0 = compile_function(args.f0)
        V = None if args.potential.strip().lower() == "none" else compile_function(args.potential)
        grid = _parse_grid(args.grid)
        sch._grid_builder(bas.family, args.N)  # raises where there is no Strang grid pair
        return functools.partial(_cmd_schrodinger, bas, args.N, f0, V, args.tau,
                                 int(round(steps)), grid, args.out)
    if sub == "verify":
        if args.check != "all" and args.check not in _CHECK_NAMES:
            raise ValueError(f"unknown check {args.check!r}; "
                             f"expected all or one of {', '.join(_CHECK_NAMES)}")
        if args.N < 1:
            raise ValueError("N must be positive")
        a = _eval_scalar(args.a, "ramanujan parameter")
        head = args.family.partition(":")[0]
        if a <= 0.0 and (args.check == "ramanujan"
                         or (args.check == "all" and head == "tanhjacobi")):
            raise ValueError("ramanujan parameter --a must be positive")
        if args.check == "tanh-jacobi-identity" and head != "tanhjacobi":
            raise ValueError("tanh-jacobi-identity needs --family tanhjacobi:a,b")
        # every check but cramer and ramanujan reads one basis, built here,
        # which checks the family; the identity reads (a, b) from it
        bas = None
        if args.check not in ("cramer", "ramanujan"):
            bas = _resolve_family(args.family, max(args.N, 12))
            if args.check == "pw-support" and isinstance(bas, periodic_mod.PeriodicBasis):
                raise ValueError("pw-support needs a continuous family, not charlier")
        return functools.partial(_cmd_verify, args.family, bas, args.check, args.N, a,
                                 args.out)
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
    value_flags = _value_flags()
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in value_flags and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and argv[i + 1] != "-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
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
