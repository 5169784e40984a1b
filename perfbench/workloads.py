"""The three benchmark workloads: seeded op streams, set-up and oracles.

A workload is a closed loop with one caller.  Its ops come in rounds: one
round holds every (op kind, family, N) of the workload's mix once, in an
order and with inputs drawn from the seeded generator, so each round does
the same mix of work and a run always measures whole rounds.  An op is one
call into favard (or one in-process ``favard`` command); its oracle is
evaluated outside the timed call.

Known defects of the package are part of the mix on purpose.  They are
listed in ``KNOWN_DEFECTS`` with their measured errors and count as failed
ops; any other failure, or a known-defect op whose error grew well past the
recorded one, makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles as O

WORKLOADS = ("transforms", "propagate", "cli")

WHY = {
    "transforms": "each (family, N) is used about once, so coeffs, quadrature and "
                  "recurrence tables do the work and no operator is reused",
    "propagate": "one (family, N=512) operator set is reused by every op, so "
                 "schrodinger and diffop dominate and a per-size cache would pay off",
    "cli": "the only workload through favard.cli.main: expr, verify, periodic, "
           "stieltjes and the quadrature path of phi_grid run here",
}

GW_SIZES = (12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
MT_SIZES = tuple(2 ** p for p in range(8, 17))
TANH_SIZES = tuple(2 ** p for p in range(8, 15))
TANH_KINDS = ((0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75))
FOURIER_SIZES = (32, 64, 128, 256)
XSPACE_SIZES = (16, 32, 64)
GRID_FAMILIES = ("hermite", "legendre", "mt", "tanhjacobi:0.75,0.75")
GRID_NMAX = (16, 32, 64)
PROPAGATE_N = 512

_WEIGHTS = ("Gauss weights are squared eigenvector entries, accurate only in "
            "absolute terms, so small tail weights lose relative accuracy")


@dataclass(frozen=True)
class Defect:
    """A known defect of the package: its cause and the largest error its
    op showed at the commit that defined the benchmark."""

    cause: str
    error: float


# A known-defect op that fails with an error up to this multiple of its
# recorded one is the known defect; a larger or non-finite error (which is
# what raising, a non-finite result, changed output bytes or an undocumented
# exit code give) is a new failure.
DEFECT_MARGIN = 10.0

# Ops that fail because of a defect in the package, label -> Defect.  They
# stay in the mix with the same tolerance as every other op and count as
# failed.  Errors are as measured: Gauss rules and the CLI are seed-free,
# coeffs_fourier_side the largest over seeds 0-7 (its shift is seeded) and
# phi_grid the one at the probes next to SIN_ZEROS, which every grid holds
# and no seeded point comes closer to than they do.
KNOWN_DEFECTS = {
    **{f"golub_welsch hermite N={N}": Defect(_WEIGHTS, err) for N, err in (
        (32, 2.1e-7), (48, 1.6e-3), (64, 8.1e4), (96, 2.1e23), (128, 1.8e44),
        (192, 3.9e78), (256, 2.9e109), (384, 3.7e174), (512, 1.2e237))},
    **{f"coeffs_fourier_side hermite N={N}": Defect(
        "divides by sqrt(w) at nodes whose Gauss weight lost relative accuracy", err)
       for N, err in ((64, 3.9e-2), (128, 2.7e27), (256, 2.1e86))},
    **{f"phi_grid legendre nmax={n}": Defect(
        "the closed form loses digits near nonzero multiples of pi, as one over the "
        "distance to them (against mpmath); at the probes 1e-5 away it misses the 1e-12 "
        "tolerance", 5.4e-12)
       for n in GRID_NMAX},
    "cli verify gram --family custom-weight:exp(-x^4)": Defect(
        "window Gram residual against the check's 1e-8 tolerance (exit code 1)", 8.4e-4),
}


def known_failure(label: str, error: float) -> bool:
    """Whether a failed op with this error is one of the known defects."""
    defect = KNOWN_DEFECTS.get(label)
    return defect is not None and error <= DEFECT_MARGIN * defect.error


@dataclass
class Op:
    """One timed call and the oracle for its result.

    ``run(prev)`` is the timed call; ``prev`` is the result of the op before
    it in the same chain (the decay fit reads the coefficients it follows).
    ``check(result)`` returns an ``O.Check`` and runs untimed.
    """

    kind: str
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], O.Check]


@dataclass
class Context:
    """What set-up built: bases and operators, plus untimed oracle caches."""

    workload: str
    objects: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    reference_bytes: dict = field(default_factory=dict)
    tracer: Any = None

    def cached(self, key, make):
        """A reference value, built once; see ``O.reference``."""
        if key not in self.cache:
            self.cache[key] = O.reference(make)
        return self.cache[key]


# ------------------------------------------------------------------ set-up


def setup(workload: str) -> Context:
    """Import favard and build the workload's bases and operators."""
    ctx = Context(workload)
    if workload == "transforms":
        from favard import basis
        # coeffs_fourier_side(N) runs a 2N+32 point rule; grow the Hermite
        # recurrence table to that size here rather than in a timed op.
        ctx.objects["hermite"] = basis.make_basis("hermite", N=max(GW_SIZES))
        ctx.objects["hermite"].ensure(2 * max(FOURIER_SIZES) + 32)
        ctx.objects["legendre"] = basis.make_basis("legendre", N=max(GW_SIZES))
        for family in GRID_FAMILIES:
            if family not in ctx.objects:
                ctx.objects[family] = basis.make_basis(family, N=max(GRID_NMAX) + 1)
    elif workload == "propagate":
        from favard import basis, diffop
        for family in ("hermite", "legendre", "mt"):
            bas = basis.make_basis(family, N=PROPAGATE_N)
            ctx.objects[family] = bas
            ctx.objects[f"D_{family}"] = diffop.build(bas.jacobi, PROPAGATE_N)
    elif workload == "cli":
        import favard.cli  # noqa: F401  (the workload calls favard.cli.main)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


# -------------------------------------------------------------- transforms


def _rel_check(values, expected, scale: float, tol: float) -> O.Check:
    return O.Check(O.max_abs(values, expected) / scale, tol)


def _mt_ops(ctx: Context, N: int, rng) -> list[list[Op]]:
    from favard import coeffs

    idx = rng.choice(np.arange(-6, 7), size=3, replace=False)
    c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = O.mt_span(idx, c)
    n_start = -N // 2 + 1

    def check_span(res) -> O.Check:
        if res.n_start != n_start:
            return O.Check(math.inf, 1e-12)
        expected = np.zeros(N, dtype=complex)
        expected[idx - n_start] = c
        return _rel_check(res.values, expected, float(np.max(np.abs(c))), 1e-12)

    def check_norm(res) -> O.Check:
        norm2 = float(np.sum(np.abs(res.values) ** 2))
        return O.Check(abs(norm2 - O.MT_README_NORM2) / O.MT_README_NORM2, 1e-10)

    def check_rate(fit) -> O.Check:
        return O.Check(abs(fit.param - O.MT_README_RATE) / O.MT_README_RATE, 0.02)

    span = Op("mt_coeffs_fft", f"mt_coeffs_fft span N={N}",
              lambda _p: coeffs.mt_coeffs_fft(f, N), check_span)
    readme = Op("mt_coeffs_fft", f"mt_coeffs_fft readme N={N}",
                lambda _p: coeffs.mt_coeffs_fft(O.mt_readme, N), check_norm)
    fit = Op("decay_fit", f"decay_fit mt readme N={N}",
             lambda prev: coeffs.decay_fit(prev, "exponential", skip=8), check_rate)
    return [[span], [readme, fit]]


def _tanh_op(kind, N: int, rng) -> Op:
    from favard import coeffs

    a, b = kind
    idx = rng.choice(12, size=3, replace=False)
    c = rng.standard_normal(3)
    f = O.tanh_span(a, b, idx, c)

    def check(res) -> O.Check:
        expected = np.zeros(N)
        expected[idx] = c
        return _rel_check(res.values, expected, float(np.max(np.abs(c))), 1e-12)

    return Op("tanh_chebyshev_coeffs", f"tanh_chebyshev_coeffs {a},{b} N={N}",
              lambda _p: coeffs.tanh_chebyshev_coeffs(f, kind, N), check)


def _signed_shift(rng) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))


def _fourier_op(ctx: Context, N: int, rng) -> Op:
    from favard import coeffs

    s = _signed_shift(rng)
    F = O.coherent_fourier(s)
    bas = ctx.objects["hermite"]
    return Op("coeffs_fourier_side", f"coeffs_fourier_side hermite N={N}",
              lambda _p: coeffs.coeffs_fourier_side(F, bas, N),
              lambda res: O.Check(
                  O.max_abs(res.values, O.reference(O.coherent_coeffs, s, N)), 1e-9))


def _xspace_ops(ctx: Context, N: int, rng) -> list[Op]:
    from favard import coeffs

    s = _signed_shift(rng)
    f_h = O.coherent_x(s)
    herm = ctx.objects["hermite"]
    hermite = Op("coeffs_xspace", f"coeffs_xspace hermite N={N}",
                 lambda _p: coeffs.coeffs_xspace(f_h, herm, N),
                 lambda res: O.Check(
                     O.max_abs(res.values, O.reference(O.coherent_coeffs, s, N)), 1e-9))

    k = int(rng.choice((12, 14, 16)))
    f_l = O.legendre_bump_x(k)
    leg = ctx.objects["legendre"]
    projector = ctx.cached(("legendre-projector", 64), lambda: O.LegendreProjector(64))
    # Truncating the default window at |x| = 30 leaves a tail bounded by
    # 2 int_30^inf |f| |phi_n| <= 4 k! 2^{k+1} sqrt((2N-1)/pi) 30^{-(k+1)}
    # / (sqrt(2 pi) (k+1)), with a factor 2 for the Bessel envelope.
    tail = (4.0 * math.factorial(k) * 2.0 ** (k + 1) * math.sqrt((2 * N - 1) / math.pi)
            * 30.0 ** (-(k + 1)) / (math.sqrt(2.0 * math.pi) * (k + 1)))
    legendre = Op("coeffs_xspace", f"coeffs_xspace legendre N={N}",
                  lambda _p: coeffs.coeffs_xspace(f_l, leg, N),
                  lambda res: O.Check(
                      O.max_abs(res.values, O.reference(projector.coeffs, k)[:N]), tail + 1e-12))
    return [hermite, legendre]


def _gauss_op(ctx: Context, family: str, N: int) -> Op:
    from favard import quadrature

    bas = ctx.objects[family]

    def check(rule) -> O.Check:
        ref = ctx.cached(("gauss", family, N), lambda: O.gauss_rule(family, N))
        return O.Check(O.gauss_error(rule.nodes, rule.weights, *ref), 1e-8)

    return Op("golub_welsch", f"golub_welsch {family} N={N}",
              lambda _p: quadrature.golub_welsch(bas.jacobi, N), check)


# Nonzero multiples of pi in the grids' range.  The transformed Legendre
# closed form divides by a vanishing quantity there: its error grows as one
# over the distance to them (and is not finite on them).  Seeded points hit
# that window in about one grid in 200, so whether a run showed the defect
# was up to the seed; instead every grid holds the points PROBE_GAP on either
# side of each, and seeded points closer than that are moved out to it.  The
# Legendre defect then shows in every grid op, at the same size.
SIN_ZEROS = math.pi * np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
PROBE_GAP = 1e-5


def grid_points(rng) -> np.ndarray:
    """1024 seeded points on [-L, L], 4 <= L <= 12, and the probes around
    SIN_ZEROS, sorted."""
    L = float(rng.uniform(4.0, 12.0))
    x = rng.uniform(-L, L, 1024)
    k = np.rint(x / math.pi)
    gap = x - k * math.pi
    near = (k != 0.0) & (np.abs(gap) < PROBE_GAP)
    x[near] = k[near] * math.pi + np.copysign(PROBE_GAP, gap[near])
    return np.sort(np.concatenate([x, SIN_ZEROS - PROBE_GAP, SIN_ZEROS + PROBE_GAP]))


def _grid_op(ctx: Context, family: str, nmax: int, rng) -> Op:
    from favard import basis

    x = grid_points(rng)
    bas = ctx.objects[family]
    return Op("phi_grid", f"phi_grid {family} nmax={nmax}",
              lambda _p: basis.phi_grid(bas, nmax, x),
              lambda table: O.Check(
                  O.max_abs(table, O.reference(O.closed_table, family, nmax, x)), 1e-12))


def transforms_round(ctx: Context, rng) -> list[list[Op]]:
    chains: list[list[Op]] = []
    for N in MT_SIZES:
        chains += _mt_ops(ctx, N, rng)
    for kind in TANH_KINDS:
        for N in TANH_SIZES:
            chains.append([_tanh_op(kind, N, rng)])
    for N in FOURIER_SIZES:
        chains.append([_fourier_op(ctx, N, rng)])
    for N in XSPACE_SIZES:
        chains += [[op] for op in _xspace_ops(ctx, N, rng)]
    for family in ("hermite", "legendre"):
        for N in GW_SIZES:
            chains.append([_gauss_op(ctx, family, N)])
    for family in GRID_FAMILIES:
        for nmax in GRID_NMAX:
            chains.append([_grid_op(ctx, family, nmax, rng)])
    return chains


# --------------------------------------------------------------- propagate

STRANG_T = 0.5
STRANG_STEPS = (25, 50, 100)
STRANG_SHIFT = 1.0  # |s| of the initial coherent state; the seed picks its sign
EXPM_TAUS = (0.25, 0.5, 1.0)
FREE_GRID = np.linspace(-6.0, 6.0, 49)


def _strang_op(ctx: Context, steps: int, rng) -> Op:
    from favard import schrodinger

    s = float(rng.choice((-1.0, 1.0))) * STRANG_SHIFT
    tau = STRANG_T / steps
    a = O.coherent_coeffs(s, PROPAGATE_N).astype(complex)
    bas = ctx.objects["hermite"]
    expected = O.harmonic_phases(a, STRANG_T)
    return Op("strang_propagate", f"strang_propagate hermite steps={steps}",
              lambda _p: schrodinger.strang_propagate(a, tau, steps, lambda x: x * x, bas),
              lambda res: O.Check(O.max_abs(res.values, expected),
                                  O.strang_bound(s, STRANG_T, tau)))


def _free_op(ctx: Context, rng) -> Op:
    from favard import schrodinger

    s = _signed_shift(rng)
    t = float(rng.uniform(0.2, 1.0))
    a = O.coherent_coeffs(s, PROPAGATE_N).astype(complex)
    D = ctx.objects["D_hermite"]
    table = ctx.cached("hermite-free-grid",
                       lambda: O.hermite_recurrence_table(PROPAGATE_N - 1, FREE_GRID))
    exact = O.free_gaussian(s, t, FREE_GRID)
    return Op("free_coeff_step", "free_coeff_step hermite",
              lambda _p: schrodinger.free_coeff_step(D, t, a),
              lambda out: O.Check(O.max_abs(np.asarray(out) @ table, exact), 1e-9))


def _batch(rng, head: np.ndarray) -> list[np.ndarray]:
    """A closed-form vector followed by three random ones on the first 64 modes."""
    out = [head.astype(complex)]
    for _ in range(3):
        v = np.zeros(PROPAGATE_N, dtype=complex)
        v[:64] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        out.append(v)
    return out


def _expm_op(ctx: Context, family: str, size: float, rng) -> Op:
    from favard import diffop

    tau = float(rng.choice((-1.0, 1.0))) * size
    D = ctx.objects[f"D_{family}"]
    if family == "hermite":
        s = _signed_shift(rng)
        head = O.coherent_coeffs(s, PROPAGATE_N)
        expected = O.coherent_coeffs(s - tau, PROPAGATE_N)
    else:
        k = int(rng.choice((12, 14, 16)))
        projector = ctx.cached(("legendre-projector", PROPAGATE_N),
                               lambda: O.LegendreProjector(PROPAGATE_N))
        head = projector.coeffs(k)
        expected = projector.coeffs(k, tau)
    batch = _batch(rng, head)

    def check(outs) -> O.Check:
        # translation of the closed-form head, unitarity of every vector
        if len(outs) != len(batch):
            return O.Check(math.inf, 1e-10, note=f"{len(outs)} results for {len(batch)} vectors")
        norms = (abs(float(np.linalg.norm(w)) - float(np.linalg.norm(v))) / float(np.linalg.norm(v))
                 for v, w in zip(batch, outs))
        return O.Check(O.worst([O.max_abs(outs[0], expected), *norms]), 1e-10)

    return Op("expm_apply", f"expm_apply {family} |tau|={size:g}",
              lambda _p: [diffop.expm_apply(D, tau, v) for v in batch], check)


BANDS = {"hermite": O.hermite_bands, "legendre": O.legendre_bands, "mt": O.laguerre_bands}


def _apply_op(ctx: Context, family: str, rng) -> Op:
    from favard import diffop

    D = ctx.objects[f"D_{family}"]
    batch = [rng.standard_normal(PROPAGATE_N) + 1j * rng.standard_normal(PROPAGATE_N)
             for _ in range(4)]
    b, c = BANDS[family](PROPAGATE_N)

    def check(outs) -> O.Check:
        if len(outs) != len(batch):
            return O.Check(math.inf, 1e-13, note=f"{len(outs)} results for {len(batch)} vectors")
        scale = float(np.max(np.abs(b))) + float(np.max(np.abs(c)))
        return O.Check(O.worst(O.max_abs(w, O.reference(O.band_apply, b, c, v))
                               / (scale * float(np.max(np.abs(v))))
                               for v, w in zip(batch, outs)), 1e-13)

    return Op("apply", f"apply {family}",
              lambda _p: [diffop.apply(D, v) for v in batch], check)


def _radius_op(ctx: Context, family: str) -> Op:
    from favard import diffop

    D = ctx.objects[f"D_{family}"]
    b, c = BANDS[family](PROPAGATE_N)

    def check(radius) -> O.Check:
        ref = ctx.cached(("radius", family), lambda: O.sturm_radius(b[: PROPAGATE_N - 1], c))
        return O.Check(abs(radius - ref) / ref, 1e-12)

    return Op("spectral_radius", f"spectral_radius {family}",
              lambda _p: diffop.spectral_radius(D), check)


def propagate_round(ctx: Context, rng) -> list[list[Op]]:
    # Three Strang runs, one free step, six exp(tau D) batches, three
    # applies and three radii: the expm batches sit at the latency median.
    # Step counts and |tau| (which sets the Krylov size) take each value once
    # per round and the Strang shift is fixed in size, so neither the cost of
    # a round nor its largest error depends on the seed.
    ops = [_strang_op(ctx, steps, rng) for steps in STRANG_STEPS]
    ops.append(_free_op(ctx, rng))
    for family in ("hermite", "legendre"):
        ops += [_expm_op(ctx, family, size, rng) for size in EXPM_TAUS]
    for family in ("hermite", "legendre", "mt"):
        ops.append(_apply_op(ctx, family, rng))
        ops.append(_radius_op(ctx, family))
    return [[op] for op in ops]


# --------------------------------------------------------------------- cli


def cli_call(ctx: Context, argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """favard.cli.main(argv) in-process with stdout and stderr captured."""
    import favard.cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = favard.cli.main(list(argv))
    finally:
        sys.stdin = saved
    text = out.getvalue()
    if ctx.tracer is not None:
        ctx.tracer.count("cli.main.output_bytes", len(text.encode()))
    return code, text


def _rows(text: str, cols: int) -> np.ndarray:
    """The numeric rows of CSV output with ``cols`` columns.  Output that
    does not parse or holds a non-finite number raises, which fails the op
    (see ``run.execute``)."""
    header, rows = O.parse_csv(text)
    if len(header) != cols:
        raise ValueError(f"{len(header)} CSV columns, expected {cols}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite entries")
    return rows


def _finite(text: str, cols: int) -> O.Check:
    """For outputs with no closed form: well-formed, finite and not empty."""
    return O.Check(0.0 if _rows(text, cols).size else math.inf, 1e-8)


def _cli_legendre_eval(text: str, nmax: int, grid: np.ndarray) -> O.Check:
    """Rows n = 0..nmax (outer) by x on the requested grid (inner)."""
    rows = _rows(text, 4)
    n = np.repeat(np.arange(nmax + 1), grid.size)
    x = np.tile(grid, nmax + 1)
    if rows.shape[0] != n.size:
        return O.Check(math.inf, 1e-8, note=f"{rows.shape[0]} rows, expected {n.size}")
    table = O.reference(O.legendre_table, nmax, grid)
    err = O.worst((O.max_abs(rows[:, 0], n), O.max_abs(rows[:, 1], x),
                   O.max_abs(rows[:, 2] + 1j * rows[:, 3], table.reshape(-1))))
    return O.Check(err, 1e-8)


def _cli_quad(text: str, N: int) -> O.Check:
    rows = _rows(text, 2)
    if rows.shape[0] != N:
        return O.Check(math.inf, 1e-8, note=f"{rows.shape[0]} nodes, expected {N}")
    return O.Check(O.gauss_error(rows[:, 0], rows[:, 1], *O.reference(O.gauss_rule, "hermite", N)),
                   1e-8)


def _cli_diffmat(text: str, N: int) -> O.Check:
    """Laguerre(0) bands: D[r, r-1] = r, D[r, r] = i(2r+1), D[r, r+1] = -(r+1)."""
    rows = _rows(text, 4)
    if rows.shape[0] != 3 * N - 2:
        return O.Check(math.inf, 1e-8, note=f"{rows.shape[0]} entries, expected {3 * N - 2}")
    errs = []
    for r, c, re, im in rows:
        r, c = int(r), int(c)
        want = {r - 1: (float(r), 0.0), r: (0.0, 2.0 * r + 1.0), r + 1: (-(r + 1.0), 0.0)}.get(c)
        if want is None:
            return O.Check(math.inf, 1e-8, note=f"entry ({r}, {c}) outside the band")
        errs += [abs(re - want[0]), abs(im - want[1])]
    return O.Check(O.worst(errs), 1e-8)


def _cli_norm(text: str, expected_norm: float) -> O.Check:
    """The norm column is conserved and equals the initial state's norm."""
    norms = _rows(text, 5)[:, 4]
    if norms.size == 0:
        return O.Check(math.inf, 1e-8, note="no time steps")
    err = O.worst((float(np.max(np.abs(norms - norms[0]))) / norms[0],
                   abs(norms[0] - expected_norm) / expected_norm))
    return O.Check(err, 1e-8)


def _cli_parseval(text: str) -> O.Check:
    rows = _rows(text, 4)
    norm2 = float(np.sum(rows[:, 3] ** 2))
    return O.Check(abs(norm2 - O.MT_README_NORM2) / O.MT_README_NORM2, 1e-10)


def _cli_decay(text: str) -> O.Check:
    param = float(json.loads(text)["param"])
    return O.Check(abs(param - O.MT_README_RATE) / O.MT_README_RATE, 0.02)


def _cli_verify(text: str) -> O.Check:
    """The reports' own verdicts; error is the largest reported error."""
    reports = json.loads(text)
    if not reports:
        return O.Check(math.inf, 0.0, note="no reports")
    err = O.worst(float(r["max_abs_error"]) for r in reports)
    bad = [r["name"] for r in reports if not r["pass"] and not r["metadata"].get("expected_fail")]
    return O.Check(err, max(float(r["tolerance"]) for r in reports), verdict=not bad,
                   note="failed: " + ", ".join(bad) if bad else "")


def _cli_op(ctx: Context, argv: list[str], content: Callable[[str], O.Check],
            code: int | None = 0, uses_stdin: bool = False) -> Op:
    """A CLI op: exit code, warm-up bytes and a content oracle must all hold.

    ``code`` is the documented exit code; ``None`` stands for the rule of
    the checking commands: 1 when a check ran and failed, else 0.  A wrong
    exit code or output that differs from the warm-up bytes makes the error
    infinite, since the output cannot be trusted.
    """
    label = "cli " + " ".join(argv)

    def run(prev):
        return cli_call(ctx, argv, prev[1] if uses_stdin and prev is not None else None)

    def check(result) -> O.Check:
        got_code, text = result
        verdict = content(text)
        want = code if code is not None else (0 if verdict.passed else 1)
        reference = ctx.reference_bytes.setdefault(label, text)
        if got_code != want:
            problem = f"exit code {got_code}, documented {want}"
        elif text != reference:
            problem = "output bytes differ from the warm-up run"
        else:
            return verdict
        return O.Check(math.inf, verdict.tolerance, verdict=False,
                       note="; ".join(filter(None, (problem, verdict.note))))

    return Op("cli", label, run, check)


def _grid_spec(lo: float, hi: float, step: float) -> str:
    return f"{lo:g}:{hi:g}:{step:g}"


def cli_commands(ctx: Context, rng) -> list[list[Op]]:
    """The README commands as chains, each once per round, drawn once per
    run.  The seed picks grids and sizes among choices of equal cost."""
    span = float(rng.choice((2.0, 3.0, 4.0)))
    quad_n = int(rng.integers(10, 15))
    diff_n = int(rng.integers(6, 11))
    step = span / 8.0
    eval_grid = -span + step * np.arange(17)
    norm_gauss = (math.pi / 2.0) ** 0.25  # ||exp(-x^2)||
    schrod = ["--f0", "exp(-x^2)", "--potential", "x^2", "--T", "0.5", "--tau", "0.0625"]
    chains = [
        [_cli_op(ctx, ["basis", "eval", "--family", "legendre", "--n", "0:4",
                       "--grid", _grid_spec(-span, span, step)],
                 lambda t: _cli_legendre_eval(t, 4, eval_grid))],
        [_cli_op(ctx, ["basis", "eval", "--family", "jacobi:0.5,1.5", "--n", "0:3",
                       "--grid", _grid_spec(-2.0, 2.0, 0.5), "--method", "quadrature"],
                 lambda t: _finite(t, 4))],
        [_cli_op(ctx, ["quad", "--family", "hermite", "--N", str(quad_n)],
                 lambda t: _cli_quad(t, quad_n))],
        [_cli_op(ctx, ["diffmat", "--family", "laguerre:0.0", "--N", str(diff_n)],
                 lambda t: _cli_diffmat(t, diff_n))],
        [_cli_op(ctx, ["coeffs", "--family", "mt", "--f", "1/(1+(2*x)^4)", "--N", "256",
                       "--method", "fft"], _cli_parseval),
         _cli_op(ctx, ["decay", "--model", "exp", "--skip", "8"], _cli_decay, uses_stdin=True)],
        [_cli_op(ctx, ["periodic", "eval", "--a", "0.5", "--n", "0:3", "--grid", "-pi:pi:0.25"],
                 lambda t: _finite(t, 4))],
        [_cli_op(ctx, ["schrodinger", "--basis", "hermite", "--N", "64"] + schrod,
                 lambda t: _cli_norm(t, norm_gauss))],
        [_cli_op(ctx, ["schrodinger", "--basis", "hermite", "--N", "512"] + schrod,
                 lambda t: _cli_norm(t, norm_gauss))],
        [_cli_op(ctx, ["schrodinger", "--basis", "mt", "--N", "256"] + schrod,
                 lambda t: _finite(t, 5))],
    ]
    for family in ("hermite", "mt", "tanhjacobi:0.75,0.75", "legendre"):
        chains.append([_cli_op(ctx, ["verify", "all", "--family", family], _cli_verify, None)])
    for family in ("conthahn:1,1", "custom-weight:exp(-x^4)", "charlier:0.5"):
        for check in ("gram", "recurrence"):
            chains.append([_cli_op(ctx, ["verify", check, "--family", family], _cli_verify,
                                   None)])
    return chains


# -------------------------------------------------------------- op streams


class Stream:
    """The seeded op stream of one workload run."""

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)
        self._cli = cli_commands(ctx, self.rng) if ctx.workload == "cli" else None

    def _chains(self) -> list[list[Op]]:
        if self.ctx.workload == "transforms":
            return transforms_round(self.ctx, self.rng)
        if self.ctx.workload == "propagate":
            return propagate_round(self.ctx, self.rng)
        return list(self._cli)

    def round(self) -> list[list[Op]]:
        """The next round: every chain of the mix once, in seeded order."""
        chains = self._chains()
        order = self.rng.permutation(len(chains))
        return [chains[i] for i in order]

    def warmup(self) -> list[list[Op]]:
        """One chain per distinct op kind (every command, for cli)."""
        seen, out = set(), []
        for chain in self._chains():
            kinds = tuple(op.label if op.kind == "cli" else op.kind for op in chain)
            if kinds not in seen:
                seen.add(kinds)
                out.append(chain)
        return out


def mix(ctx: Context) -> dict[str, int]:
    """Ops per round by kind, for the report."""
    stream = Stream(ctx, 0)
    counts: dict[str, int] = {}
    for chain in stream._chains():
        for op in chain:
            counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts
