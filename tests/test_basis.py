"""Transformed bases: closed forms against high-precision references,
quadrature transform against closed forms, phase freedom, validation.

Frozen constants below were produced with mpmath at 40 digits.
"""

import dataclasses
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import _panels
from favard import basis as bas
from favard import recurrence as rec
from favard import specfun
from favard import verify as ver
from favard.errors import AccuracyError
from favard.quadrature import _SQRT_2PI, _transform_edges, _transform_interval
from favard.basis import (
    hermite_function,
    hermite_function_table,
    make_basis,
    malmquist_takenaka,
    phi,
    phi_grid,
    phi_with_phase,
    tanh_jacobi,
    tanh_jacobi_table,
    transformed_legendre,
    transformed_legendre_table,
)
from test_recurrence import sweep_per_step

# phi_n = (-1)^n H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)); the (-1)^n is
# forced by the i^n e^{+ix xi} transform and gives the recurrence signs
# phi_n' = -b_{n-1} phi_{n-1} + b_n phi_{n+1} with b_n > 0
HERMITE_REF = [
    (0, 0.0, 0.75112554446494248),
    (3, 1.7, -0.48315902412087766),
    (10, 0.3, -0.072726725500382949),
    (25, 4.2, -0.035583472635513484),
    # large-n stability probes; a naive H_n e^{-x^2/2} evaluation overflows
    (200, 10.0, -0.19128996363059031),
    (500, 30.0, -0.17163999559405223),
]

LEGENDRE_REF = [
    (0, 0.3, 0.55576474108736016),
    (4, 2.5, 0.052318291382369332),
    (8, 17.0, 0.044870828756918153),
]

MT_REF = [
    (0, 0.0, 0.79788456080286536 + 0.0j),
    (3, 0.8, 0.30399969166366071 - 0.2939557215352982j),
    (-2, 1.3, 0.25546043569121392 - 0.12953222091894748j),
]

TANH_JACOBI_REF = [
    (0.75, 0.75, 2, 0.6, 0.095005660076607413),
    (0.75, 0.75, 5, -1.1, -0.4047019062166649),
    (1.0, 1.5, 3, 0.4, 0.73882557981697677),
]


def test_hermite_function_frozen_values():
    for n, x, ref in HERMITE_REF:
        assert abs(hermite_function(n, x) - ref) < 1e-14, (n, x)


def test_hermite_function_table_matches_mpmath():
    # (-1)^n H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) at 30 digits, from
    # mpmath's Hermite polynomial rather than a recurrence; relative
    # accuracy down to the smallest normal double, one subnormal step below
    xs = [0.0, 1e-3, 7.5, 38.0, 45.0]
    table = hermite_function_table(1500, np.array(xs))
    for n in (0, 1, 511, 1500):
        for j, x in enumerate(xs):
            with mpmath.workdps(30):
                X = mpmath.mpf(x)
                norm = mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
                ref = float((-1) ** n * mpmath.hermite(n, X) * mpmath.exp(-X * X / 2) / norm)
            assert abs(table[n, j] - ref) <= 2e-13 * abs(ref) + 5e-324, (n, x)


def test_hermite_function_table_consistent():
    x = np.linspace(-6.0, 6.0, 31)
    table = hermite_function_table(12, x)
    assert table.shape == (13, 31)
    for n in (0, 5, 12):
        assert np.max(np.abs(table[n] - hermite_function(n, x))) < 1e-14


def test_hermite_phi_grid_is_one_table_scan():
    # the closed-form grid takes every row from one recurrence scan; each row
    # must be exactly the single-index evaluation, out into the underflow tails
    x = np.linspace(-38.0, 38.0, 153)
    got = phi_grid(make_basis("hermite", N=8), 64, x)
    want = np.stack([hermite_function(n, x) for n in range(65)])
    assert got.shape == (65, 153)
    assert np.array_equal(got, want)


def test_transformed_legendre_frozen_values():
    for n, x, ref in LEGENDRE_REF:
        assert abs(transformed_legendre(n, x) - ref) < 1e-14, (n, x)


def test_transformed_legendre_even_odd():
    x = np.linspace(0.2, 10.0, 25)
    for n in range(6):
        sym = 1.0 if n % 2 == 0 else -1.0
        vals = transformed_legendre(n, x)
        assert np.max(np.abs(transformed_legendre(n, -x) - sym * vals)) < 1e-13


@functools.lru_cache(maxsize=None)
def _mp_legendre(n, ax):
    """(-1)^n sqrt((n+1/2)/x) J_{n+1/2}(x) at x = ax >= 0, from mpmath."""
    if ax == 0.0:
        return 1.0 / math.sqrt(math.pi) if n == 0 else 0.0
    with mpmath.workdps(40):
        x = mpmath.mpf(ax)
        v = mpmath.sqrt((n + mpmath.mpf(1) / 2) / x) * mpmath.besselj(n + mpmath.mpf(1) / 2, x)
    return (-1) ** n * float(v)


# x = k pi and k pi +- 1e-5 for |k| <= 9 (k = 0 gives x = 0), plus a few
# negative and small points
_PI_PROBES = np.concatenate([np.pi * np.arange(-9, 10)[:, None]
                             + np.array([-1e-5, 0.0, 1e-5])]).ravel()
_EXTRA = np.array([-0.3, -7.7, 1e-3, 2e-8, -4e-12])


@pytest.mark.parametrize("nmax", [16, 64, 128])
def test_legendre_table_matches_mpmath(nmax):
    # the table runs forward where |x| >= nmax and one Miller pass below, so
    # the points straddle |x| = nmax on both sides of zero
    split = nmax + np.array([-0.25, 0.0, 0.25])
    x = np.unique(np.concatenate([_PI_PROBES, _EXTRA, split, -split]))
    table = transformed_legendre_table(nmax, x)
    assert table.shape == (nmax + 1, x.size)
    for n in sorted({0, 1, 2, 3, 7, 15, 16, 17, 31, 63, 64, 65, 100, 127, 128} & set(range(nmax + 1))):
        ref = np.array([_mp_legendre(n, abs(float(v))) * (1 if v >= 0 else (-1) ** n) for v in x])
        assert np.max(np.abs(table[n] - ref)) <= 1e-14, n


@pytest.mark.parametrize("nmax", [16, 64, 200])
def test_legendre_table_rows_match_single_rows(nmax):
    # rows n < nmax may come from the other side of the forward/backward
    # split than the single row does: equal at rounding level, and bit for
    # bit for the last row, which is the same sweep
    x = np.concatenate([np.linspace(-1.3 * nmax, 1.3 * nmax, 401), _PI_PROBES])
    table = transformed_legendre_table(nmax, x)
    for n in range(nmax + 1):
        assert np.max(np.abs(table[n] - transformed_legendre(n, x))) < 2e-15, n
    for n in (0, 1, 5, nmax):
        assert np.array_equal(transformed_legendre_table(n, x)[n], transformed_legendre(n, x))


@pytest.mark.parametrize("a,b", [(0.75, 0.75), (0.25, 0.75)])
def test_tanh_jacobi_table_matches_single_rows(a, b):
    # one polynomial scan in tanh x: every row is the single row bit for bit
    x = np.linspace(-9.0, 9.0, 181)
    table = tanh_jacobi_table(a, b, 40, x)
    assert table.shape == (41, 181)
    for n in range(41):
        assert np.array_equal(table[n], tanh_jacobi(a, b, n, x)), n


def _hermite_seed(x):
    # phi_0 as mantissa pi^{-1/4} 2^(t - floor t) and exponent floor t, t = -x^2 / (2 ln 2)
    t = -x * x / (2.0 * math.log(2.0))
    e = np.floor(t)
    return bas._PHI0_HERMITE * np.exp2(t - e), e.astype(np.int64)


def _hermite_scan_checked(nmax, x):
    # the scan with a range check after every step: rescale by 2^-512 where
    # max(|m_k|, |m_{k-1}|) passes 2^500, by 2^512 where it drops below
    # 2^-500, and materialize each row with ldexp; the step is the sweep's,
    # phi_{k+1} = ((0 - x) (1/b_k)) phi_k - (b_{k-1} (1/b_k)) phi_{k-1}
    x = np.clip(x, -bas._HERMITE_CLAMP, bas._HERMITE_CLAMP)
    cur, e = _hermite_seed(x)
    prev = np.zeros_like(cur)
    rows = np.empty((nmax + 1, x.size))
    rows[0] = np.ldexp(cur, e)
    for k in range(nmax):
        inv_b = 1.0 / math.sqrt((k + 1) * 0.5)
        ratio = math.sqrt(k * 0.5) * inv_b
        prev, cur = cur, (0.0 - x) * inv_b * cur - ratio * prev
        mag = np.maximum(np.abs(cur), np.abs(prev))
        high = mag > 2.0**500
        low = (mag < 2.0**-500) & (mag > 0)
        if np.any(high):
            cur = np.where(high, cur * 2.0**-512, cur)
            prev = np.where(high, prev * 2.0**-512, prev)
            e = np.where(high, e + 512, e)
        if np.any(low):
            cur = np.where(low, cur * 2.0**512, cur)
            prev = np.where(low, prev * 2.0**512, prev)
            e = np.where(low, e - 512, e)
        rows[k + 1] = np.ldexp(cur, e)
    return rows


_HERMITE_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                     1e-160, -2e-162, 2.0**26, -2.0**26, 3e7, -3e7, math.inf, -math.inf]),
    st.floats(-1e-300, 1e-300),
    st.floats(-60.0, 60.0),
    st.floats(allow_nan=False),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_HERMITE_POINTS, min_size=1, max_size=16), st.integers(0, 600))
def test_hermite_scan_matches_per_step_checks_bitwise(points, nmax):
    # rescaling only when the summed growth bound demands it, by another
    # power of two, changes no bit of any row: zero, tiny and subnormal
    # points, the clamp at 2^26 and points far past it included; the single
    # Hermite function is the last row
    x = np.array(points)
    got = bas.hermite_function_table(nmax, x)
    want = _hermite_scan_checked(nmax, x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(hermite_function(nmax, x).view(np.int64), want[-1].view(np.int64))


def _hermite_table_row_by_row(nmax, x):
    # the sweep one degree at a time, each row lifted by ldexp on its own
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)).ravel(),
                -bas._HERMITE_CLAMP, bas._HERMITE_CLAMP)
    hermite = rec.JacobiMatrix(np.sqrt(np.arange(1.0, nmax + 1.0) * 0.5), np.zeros(nmax))
    return sweep_per_step(hermite, nmax, x, _hermite_seed(x), alternate=True)


@pytest.mark.parametrize("reach, nmax", [
    (0.5, 3), (8.0, 1500), (60.0, 700), (2.0**13, 300), (2.0**26, 0), (2.0**26, 1),
    (2.0**26, 40), (2.0**26, 400), (2.0**40, 200),
])
def test_hermite_table_in_place_matches_row_by_row_bitwise(reach, nmax):
    # rows swept in place and lifted block by block are the row-by-row
    # lift; the reaches cover a rescale every 18 steps (2^26, the clamp)
    # down to none at all
    rng = np.random.default_rng(nmax)
    x = np.concatenate([rng.uniform(-reach, reach, 200),
                        [0.0, -0.0, 5e-324, -1e-310, reach, -reach, math.inf]])
    got = hermite_function_table(nmax, x)
    assert np.array_equal(got, _hermite_table_row_by_row(nmax, x))


def test_closed_tables_raise_no_runtime_warning():
    # x = 0 and subnormal x for the Bessel sweep, exp(2x) overflow for
    # tanh-Jacobi, an int64 overflow of the Hermite exponent (4e9), and
    # squares past the double range for Hermite and Malmquist-Takenaka
    x = np.array([0.0, -0.0, 5e-324, -1e-300, 1e-60, 3e-9, -800.0, 800.0, 4e9, 1e200,
                  -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        legendre = transformed_legendre_table(40, x)
        tanh = tanh_jacobi_table(0.75, 0.75, 40, x)
        hermite = hermite_function_table(40, x)
        mt = malmquist_takenaka(np.arange(-20, 21)[:, None], x)
        single = [hermite_function(3, 4e9), hermite_function(3, -1e300),
                  malmquist_takenaka(3, 1e300)]
        grids = {family: phi_grid(make_basis(family, N=8), 40, x)
                 for family in ("hermite", "legendre", "mt", "tanhjacobi:0.75,0.75")}
    for table in (legendre, tanh, hermite, mt, *grids.values()):
        assert np.all(np.isfinite(table))
    assert np.all(hermite[:, -3:] == 0.0)
    assert single[:2] == [0.0, 0.0]
    # |phi_n(x)| = sqrt(2/pi) / sqrt(1 + 4x^2), which is sqrt(2/pi) / (2|x|) here
    assert np.allclose(np.abs(mt[:, -3:]), math.sqrt(2.0 / math.pi) / (2.0 * np.abs(x[-3:])),
                       rtol=1e-15, atol=0.0)
    assert abs(abs(single[2]) - math.sqrt(2.0 / math.pi) / 2e300) <= 1e-15 * 1e-300
    assert np.max(np.abs(legendre[:, :2] - np.eye(41)[:, :1] / math.sqrt(math.pi))) < 1e-16
    # below 2^-27 the sweep is the leading series term x^n / (2n+1)!!
    for n in range(6):
        ref = _mp_legendre(n, 3e-9)
        assert abs(legendre[n, 5] - ref) <= 1e-15 * abs(ref), n


def test_ultraspherical_zero_uses_the_legendre_table():
    x = np.concatenate([np.linspace(-70.0, 70.0, 301), _PI_PROBES])
    want = phi_grid(make_basis("legendre", N=8), 48, x)
    got = phi_grid(make_basis("ultraspherical:0.0", N=8), 48, x)
    assert np.array_equal(got, want)


# the spellings of one measure; mt is laguerre:0 over all integers, and
# shares its rows n >= 0
SPELLINGS = [
    ("legendre", "ultraspherical:0", "jacobi:0,0"), ("hermite", "genhermite:0"),
    ("laguerre", "laguerre:0", "mt"), ("ultraspherical:-0.25", "jacobi:-0.25,-0.25"),
    ("ultraspherical:0.5", "jacobi:0.5,0.5"), ("ultraspherical:1.5", "jacobi:1.5,1.5"),
]


@pytest.mark.parametrize("names", SPELLINGS, ids="=".join)
def test_spellings_of_one_measure_agree(names):
    # one make_basis branch per measure: the same recurrence bits at every
    # size, the same weight, the same closed table and the same Gram check
    bases = [make_basis(name, N=8) for name in names]
    first = bases[0]
    assert len({b.measure.key for b in bases}) == 1, [b.measure.key for b in bases]
    for size in (64, 128, 256, 512, 1024, 2048, 4096):
        for basis in bases:
            basis.ensure(size - 1)
        bits = {(b.jacobi.b.tobytes(), b.jacobi.c.tobytes()) for b in bases}
        assert len(bits) == 1 and len(first.jacobi) == size, size
    xi = np.linspace(-40.0, 40.0, 4001)
    with np.errstate(divide="ignore"):
        weights = [b.measure.weight(xi) for b in bases]
    for basis, w in zip(bases[1:], weights[1:]):
        assert np.array_equal(w, weights[0]), basis.family
        assert basis.measure.breakpoints == first.measure.breakpoints, basis.family
        assert basis.closed_table is first.closed_table, basis.family
    reports = [ver.check_gram(b, 12).as_dict() for b in bases]
    for report in reports:
        report["metadata"].pop("family")
    assert all(report == reports[0] for report in reports), reports
    assert reports[0]["pass"] or first.closed_table is None, reports[0]


@pytest.mark.parametrize("family", ["hermite", "legendre", "ultraspherical:0.0", "mt",
                                    "laguerre", "tanhjacobi:0.75,0.75",
                                    "tanhjacobi:0.25,0.75", "conthahn:1,0.5",
                                    "tanhjacobi:0.75,0.25"])
def test_phi_is_last_row_of_phi_grid(family):
    # one table scan behind both: phi is row n of phi_grid at nmax = n, bit
    # for bit, for a grid, a 2-D x and a scalar x; on the bilateral MT basis
    # the rows n < 0 are malmquist_takenaka, which only the closed route serves
    basis = make_basis(family, N=8)
    x = np.concatenate([np.linspace(-40.0, 40.0, 161), _PI_PROBES])
    square = np.linspace(-12.0, 12.0, 24).reshape(4, 6)
    for n in (0, 1, 2, 9, 33):
        assert np.array_equal(phi(basis, n, x), phi_grid(basis, n, x)[n]), n
        want = phi_grid(basis, n, square.ravel())[n].reshape(4, 6)
        assert np.array_equal(phi(basis, n, square), want), n
        one = phi(basis, n, 0.7)
        assert type(one) is complex and one == phi_grid(basis, n, 0.7)[n][0], n
    if basis.bilateral:
        for n in (-1, -5):
            assert np.array_equal(phi(basis, n, square), malmquist_takenaka(n, square))
            assert phi(basis, n, 0.7) == malmquist_takenaka(n, 0.7)
            with pytest.raises(ValueError, match="n >= 0"):
                phi(basis, n, square, method="quadrature")


def test_single_rows_do_not_keep_their_table():
    # a single row is copied out of its (n+1) len(x) table, so the table is
    # freed when the call returns
    x = np.linspace(-3.0, 3.0, 7)
    rows = [hermite_function(9, x), transformed_legendre(9, x), tanh_jacobi(0.5, 0.5, 9, x),
            phi(make_basis("hermite", N=8), 9, x), phi(make_basis("conthahn:1,0.5", N=8), 9, x),
            rec.eval_poly(make_basis("legendre", N=12).jacobi, 9, x)]
    for row in rows:
        assert row.shape == x.shape and row.base is None


def test_malmquist_takenaka_frozen_values():
    for n, x, ref in MT_REF:
        assert abs(malmquist_takenaka(n, x) - ref) < 1e-14, (n, x)


def test_malmquist_takenaka_rational_form():
    # sqrt(2/pi) i^n (1+2ix)^n / (1-2ix)^(n+1)
    rng = np.random.default_rng(1)
    x = rng.uniform(-3.0, 3.0, 20)
    for n in (-3, 0, 1, 4):
        direct = (np.sqrt(2.0 / np.pi) * 1j ** n
                  * (1 + 2j * x) ** n / (1 - 2j * x) ** (n + 1))
        assert np.max(np.abs(malmquist_takenaka(n, x) - direct)) < 1e-13


def test_tanh_jacobi_frozen_values():
    for a, b, n, x, ref in TANH_JACOBI_REF:
        assert abs(tanh_jacobi(a, b, n, x) - ref) < 1e-14, (a, b, n, x)


def test_quadrature_path_matches_closed_forms():
    cases = [
        ("hermite", lambda n, x: hermite_function(n, x)),
        ("legendre", lambda n, x: transformed_legendre(n, x)),
        ("mt", lambda n, x: malmquist_takenaka(n, x)),
        ("tanhjacobi:0.75,0.75", lambda n, x: tanh_jacobi(0.75, 0.75, n, x)),
    ]
    x = np.array([-2.3, -0.7, 0.4, 1.9])
    for family, closed in cases:
        basis = make_basis(family, N=10)
        for n in (0, 3, 6):
            quad = phi_grid(basis, n, x, method="quadrature")[n]
            ref = closed(n, x)
            assert np.max(np.abs(quad - ref)) < 1e-9, (family, n)


@pytest.mark.parametrize("nmax", [31, 63])
@pytest.mark.parametrize("family", ["hermite", "legendre", "tanhjacobi:0.75,0.75",
                                    "tanhjacobi:0.25,0.75", "conthahn:1,1"])
def test_quadrature_rows_match_closed_tables(family, nmax):
    # the first level's panels are 4 pi / (1 + max|x|) wide, about 16 nodes
    # per wavelength of the kernel: the rows it accepts are the closed
    # table's at rounding level (tanhjacobi:0.25,0.75 with its gamma phase)
    basis = make_basis(family, N=nmax + 1)
    x = np.linspace(-40.0, 40.0, 33)
    quad = phi_grid(basis, nmax, x, method="quadrature")
    assert np.max(np.abs(quad - phi_grid(basis, nmax, x))) <= 1e-13


def _fixed_mesh_rows(basis, nmax, x):
    # rows i^n (1/sqrt(2 pi)) sum_j w_j p_n(xi_j) sqrt(w(xi_j)) e^{i x xi_j}
    # on one fixed whole-line mesh of panels pi / (8 (1 + max|x|)) wide,
    # a kernel entry per node: a level finer than the route ever needs
    meas = basis.measure
    basis.ensure(nmax)
    lo, hi = _transform_interval(meas, nmax)
    width = math.pi / (8.0 * (1.0 + float(np.max(np.abs(x)))))
    edges = _panels.build_edges(lo, hi, width, grade_lo=np.isfinite(meas.support[0]),
                                grade_hi=np.isfinite(meas.support[1]),
                                interior=meas.breakpoints)
    xi, w = _panels.panel_rule(edges)
    table = rec.eval_poly_table(basis.jacobi, nmax, xi) * (w * np.sqrt(meas.weight(xi)))
    arg = np.outer(xi, x)
    rows = table @ np.cos(arg) + 1j * (table @ np.sin(arg))
    return (1j ** (np.arange(nmax + 1) % 4))[:, None] * rows / _SQRT_2PI


@pytest.mark.parametrize("family", ["jacobi:0.5,1.5", "jacobi:-0.5,0.5", "genhermite:1",
                                    "laguerre:1", "custom-weight:exp(-x^4)"])
def test_quadrature_rows_match_a_fixed_fine_mesh(family):
    # families without a closed table: the adaptive route's accepted level
    # against a mesh 32 times finer than its first level
    basis = make_basis(family, N=16)
    x = np.linspace(-12.0, 12.0, 25)
    got = phi_grid(basis, 15, x, method="quadrature")
    assert np.max(np.abs(got - _fixed_mesh_rows(basis, 15, x))) <= 1e-12


def test_kinked_custom_weight_still_gives_up():
    # the kink of e^{-|x - 0.3|} is no breakpoint of the measure: the
    # levels never agree to 1e-10, and the two finest ones (panels 1/64 of
    # the first level's) carry the estimate
    basis = make_basis("custom-weight:exp(-abs(x-0.3))", N=8)
    with pytest.raises(AccuracyError) as info:
        phi_grid(basis, 6, np.linspace(-3.0, 3.0, 13), method="quadrature")
    assert 1.8e-7 < info.value.estimate < 2.0e-7


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 0.5), (1.0, 0.5), (0.75, 0.25)])
def test_conthahn_rows_are_dilated_tanh_jacobi_rows(a, b):
    # conthahn:a,b is tanhjacobi:a,b's measure at dilation 1, not 2: its
    # closed table is 2^{-1/2} times the tanh-Jacobi rows at x / 2, and it
    # matches the quadrature route, kept as the reference, phase included
    basis = make_basis(f"conthahn:{a},{b}", N=64)
    x = np.linspace(-30.0, 30.0, 121)
    closed = phi_grid(basis, 63, x)
    dilated = math.sqrt(0.5) * tanh_jacobi_table(a, b, 63, 0.5 * x)
    assert np.max(np.abs(closed - dilated)) <= 1e-15
    assert np.max(np.abs(closed - phi_grid(basis, 63, x, method="quadrature"))) <= 1e-13


def test_tanh_jacobi_rows_are_the_undilated_scan():
    # at dilation 2 both dilation factors are exactly 1.0, so the rows are
    # the envelope times the polynomial scan in tanh x, bit for bit
    a, b = 0.75, 0.25
    x = np.linspace(-20.0, 20.0, 161)
    lo, hi = 2.0 / (np.exp(2.0 * x) + 1.0), 2.0 / (np.exp(-2.0 * x) + 1.0)
    norm = math.sqrt(2.0 ** (2 * a + 2 * b - 1) * specfun.beta(2 * a, 2 * b))
    p = rec.eval_poly_table(bas._tanh_jacobi_matrix(a, b, 30), 30, np.tanh(x))
    want = p * (lo**a * hi**b / norm) * np.where(np.arange(31) % 2, -1.0, 1.0)[:, None]
    assert np.array_equal(tanh_jacobi_table(a, b, 30, x), want)


def test_phi_auto_equals_closed_form_path():
    basis = make_basis("hermite", N=8)
    x = np.linspace(-4.0, 4.0, 17)
    for n in (0, 4):
        assert np.max(np.abs(phi(basis, n, x) - hermite_function(n, x))) < 1e-12


def test_phi_with_phase_preserves_modulus():
    # a unimodular integrand phase keeps each |phi_n| pointwise when the
    # phase is constant, and keeps the L2 norm in general
    basis = make_basis("hermite", N=6)
    x = np.linspace(-5.0, 5.0, 11)
    shifted = phi_with_phase(basis, lambda xi: 0.7 * np.ones_like(xi), 3, x)
    plain = phi(basis, 3, x, method="quadrature")
    assert np.max(np.abs(shifted - np.exp(0.7j) * plain)) < 1e-10


def test_phi_with_phase_translation():
    # sigma(xi) = s*xi translates: phi_n(x + s)
    basis = make_basis("hermite", N=6)
    s = 0.6
    x = np.linspace(-3.0, 3.0, 13)
    moved = phi_with_phase(basis, lambda xi: s * xi, 2, x)
    assert np.max(np.abs(moved - hermite_function(2, x + s))) < 1e-9


def test_make_basis_validation():
    with pytest.raises(ValueError):
        make_basis("nosuch")
    with pytest.raises(ValueError):
        make_basis("tanhjacobi:0.75")  # needs two parameters
    with pytest.raises(ValueError):
        make_basis("tanhjacobi:-0.5,0.5")  # exponents must be positive
    with pytest.raises(ValueError):
        make_basis("hermite", N=0)


def test_bilateral_flag():
    assert make_basis("mt").bilateral
    assert not make_basis("hermite").bilateral


def test_generalized_hermite_quadrature_orthonormal():
    # family without a closed form: orthonormality through a wide window;
    # mu = 2 keeps sqrt(w) = xi^2 e^{-xi^2/2} smooth so phi_n decays fast
    basis = make_basis("genhermite:2.0", N=8)
    x = np.linspace(-12.0, 12.0, 2401)
    table = phi_grid(basis, 5, x, method="quadrature")
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    G = (table * w) @ table.conj().T
    assert np.max(np.abs(G - np.eye(6))) < 1e-6


def _unfolded_phi_grid(basis, nmax, x, sigma=None):
    # the quadrature route with one kernel entry e^{i (x xi + sigma(xi))} per
    # node and grid point, cos and sin for every row, over the whole-line
    # rule: phi_grid's kernel before it was factored by panel
    xs = np.asarray(x, dtype=float)
    meas = basis.measure
    basis.ensure(nmax)

    def sqrtw(xi):
        return np.sqrt(meas.weight(xi))

    freq = float(np.max(np.abs(xs), initial=0.0))
    interval = _transform_interval(meas, nmax)
    phases = 1j ** (np.arange(nmax + 1) % 4)
    prev = None
    for refine in range(7):
        xi, w = _panels.panel_rule(_transform_edges(meas, interval, nmax, freq, refine))
        table = rec.eval_poly_table(basis.jacobi, nmax, xi) * (w * sqrtw(xi))
        out = np.empty((nmax + 1, xs.size), dtype=complex)
        step = max(16, (1 << 21) // max(xi.size, 1))
        for start in range(0, xs.size, step):
            arg = np.outer(xi, xs[start:start + step])
            if sigma is not None:
                arg += sigma(xi)[:, None]
            out[:, start:start + step] = table @ np.cos(arg) + 1j * (table @ np.sin(arg))
        cur = phases[:, None] * out / _SQRT_2PI
        if prev is not None and np.max(np.abs(cur - prev)) <= 1e-10:
            return cur
        prev = cur
    raise AssertionError("reference kernel did not converge")


@pytest.mark.parametrize("family,folds", [
    ("conthahn:1,1", True), ("tanhjacobi:0.75,0.75", True), ("genhermite:1", True),
    ("jacobi:1,1", True), ("jacobi:0.5,1.5", False), ("laguerre:0", False),
])
def test_quadrature_fold_matches_unfolded_kernel(family, folds):
    # the kernel factored by panel and width class, and for a symmetric
    # measure without a phase the mirrored half rule (real parts of even
    # rows, imaginary parts of odd), move values only at rounding level
    basis = make_basis(family, N=8)
    assert basis.measure.symmetric == folds
    x = np.concatenate([np.linspace(-6.0, 6.0, 25), [0.0, 1e-3, 17.5]])
    got = phi_grid(basis, 7, x, method="quadrature")
    want = _unfolded_phi_grid(basis, 7, x)
    assert np.max(np.abs(got - want)) <= 1e-13
    if folds:
        # p_n has the parity of n, so every row is real
        assert np.all(got.imag == 0.0)


@pytest.mark.parametrize("family,t", [
    ("conthahn:1,1", 0.05), ("genhermite:1", 0.2), ("conthahn:1,0.5", 0.0),
])
def test_quadrature_phase_matches_direct_kernel(family, t):
    # a phase enters the table as the complex factor e^{i sigma(xi)}: the
    # free-flow phase -xi^2 t passed as free_propagate passes it, and the
    # basis's own gamma-pair phase (conthahn with a != b)
    basis = make_basis(family, N=8)
    x = np.concatenate([np.linspace(-5.0, 5.0, 21), [1e-3, 9.5]])
    sigma = (lambda xi: -xi * xi * t) if t else None
    got = phi_grid(basis, 5, x, sigma=sigma, method="quadrature")
    want = _unfolded_phi_grid(basis, 5, x, sigma=bas._combine_sigma(basis, sigma))
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(got - want)) <= 1e-13


def test_half_rule_mirrors_the_whole_line_rule():
    # with 0 as a breakpoint (genhermite) the whole-line rule is the half
    # rule and its mirror image, with the same weights (the fold doubles them)
    meas = make_basis("genhermite:1", N=8).measure
    interval = _transform_interval(meas, 7)
    xi, w = _panels.panel_rule(_transform_edges(meas, interval, 7, 4.0, 1))
    hx, hw = _panels.panel_rule(_transform_edges(meas, interval, 7, 4.0, 1, half=True))
    order = np.argsort(hx)
    assert hx.min() > 0.0
    upper = np.argsort(xi[xi > 0.0])
    assert np.array_equal(xi[xi > 0.0][upper], hx[order])
    assert np.array_equal(w[xi > 0.0][upper], hw[order])
    # no zero-width panel below 0 either, so the halves have equal node counts
    assert np.allclose(np.sort(-xi[xi < 0.0]), hx[order], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("family", ["jacobi:0.5,1.5", "conthahn:1,0.5"])
def test_quadrature_phi_and_phase_are_rows_of_phi_grid(family):
    # phi's and phi_with_phase's quadrature values are phi_grid's rows bit
    # for bit, for a scalar and a 2-D x; conthahn:1,0.5 carries a phase, and
    # without its closed table phi's auto route is the quadrature route too
    basis = dataclasses.replace(make_basis(family, N=8), closed_table=None)
    x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    sigma = lambda xi: 0.4 * xi
    for n in (0, 3):
        row = phi_grid(basis, n, x.ravel(), method="quadrature")[n]
        assert np.array_equal(phi(basis, n, x, method="quadrature"), row.reshape(3, 4))
        assert np.array_equal(phi(basis, n, x), row.reshape(3, 4))
        one = phi(basis, n, 0.7, method="quadrature")
        assert type(one) is complex
        assert one == phi_grid(basis, n, 0.7, method="quadrature")[n][0]
    moved = phi_grid(basis, 3, x.ravel(), sigma=sigma, method="quadrature")[3]
    assert np.array_equal(phi_with_phase(basis, sigma, 3, x), moved.reshape(3, 4))
    one = phi_grid(basis, 3, 0.7, sigma=sigma, method="quadrature")[3][0]
    assert phi_with_phase(basis, sigma, 3, 0.7) == one


@pytest.mark.parametrize("family", ["conthahn:1,0.5", "jacobi:0.5,1.5"])
def test_phi_with_phase_is_a_row_of_phi_grid(family):
    # the transform sizes its rule from max|x| alone, so phi_with_phase is
    # row n of phi_grid under the same phase bit for bit, whatever the
    # phase and with conthahn's own gamma-pair phase combined in
    basis = make_basis(family, N=16)
    x = np.linspace(-4.0, 4.0, 17)
    for sigma in (lambda xi: 0.3 * xi, lambda xi: -2.0 * xi * xi):
        for n in (3, 12):
            want = phi_grid(basis, n, x, sigma=sigma)[n]
            assert np.array_equal(phi_with_phase(basis, sigma, n, x), want)


@pytest.mark.parametrize("size", [1, 7, 40])
def test_phi_makes_one_transform_call(monkeypatch, size):
    # the quadrature route transforms all of x at once, whatever its length
    calls = []
    transform = bas.oscillatory_transform

    def counted(*args, **kwargs):
        calls.append(1)
        return transform(*args, **kwargs)

    monkeypatch.setattr(bas, "oscillatory_transform", counted)
    basis = make_basis("jacobi:0.5,1.5", N=8)
    x = np.linspace(-2.0, 2.0, size)
    phi(basis, 2, x)
    assert len(calls) == 1
    phi_with_phase(basis, lambda xi: 0.3 * xi, 2, x)
    assert len(calls) == 2


def test_quadrature_route_on_an_empty_grid():
    basis = make_basis("jacobi:1,1", N=8)
    table = phi_grid(basis, 1, np.array([]), method="quadrature")
    assert table.shape == (2, 0) and table.dtype == complex
    row = phi(basis, 1, np.array([]), method="quadrature")
    assert row.shape == (0,) and row.dtype == complex


def test_method_validation():
    jac = make_basis("jacobi:1,1", N=8)
    leg = make_basis("legendre", N=8)
    x = np.array([0.0, 0.5])
    for basis in (jac, leg):
        with pytest.raises(ValueError, match="unknown method"):
            phi_grid(basis, 1, x, method="bogus")
        with pytest.raises(ValueError, match="unknown method"):
            phi(basis, 1, x, method="bogus")
    with pytest.raises(ValueError, match="no closed form"):
        phi_grid(jac, 1, x, method="closed")
    with pytest.raises(ValueError, match="no closed form"):
        phi(jac, 1, x, method="closed")
    # a phase exists only on the quadrature route
    with pytest.raises(ValueError, match="no closed form"):
        phi_grid(leg, 1, x, sigma=lambda xi: 0.1 * xi, method="closed")
    assert np.array_equal(phi_grid(leg, 1, x, method="closed"), phi_grid(leg, 1, x))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the truncated support cuts off the rows' "
                   "own support; 0.022 off the closed table with no error")
def test_hermite_quadrature_route_at_degree_255_raises_or_matches_the_closed_table():
    x = np.linspace(-3.0, 3.0, 7)
    try:
        got = phi_grid(make_basis("hermite", N=300), 255, x, method="quadrature")
    except AccuracyError:
        return
    assert np.max(np.abs(got - hermite_function_table(255, x))) < 1e-9
