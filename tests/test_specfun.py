"""Special functions against high-precision reference values.

Frozen constants below were produced with mpmath at 40 digits.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favard import specfun
from favard.basis import transformed_legendre, transformed_legendre_table


# |Gamma(a + i*xi)|^2, mpmath oracle
GAMMA_ABS2 = [
    (0.75, 0.0, 1.5016460946806297),
    (0.75, 0.5, 0.8622542805205044),
    (0.75, 2.0, 0.016525976206225623),
    (1.5, 1.0, 0.33876868924927293),
    (0.5, 3.0, 0.00050705001979210004),
]

# J_{m+1/2}(x), mpmath oracle
BESSEL_J_HALF = [
    (0, 0.7, 0.61436106679126507),
    (3, 2.2, 0.091081316093538333),
    (7, 15.0, -0.081212945103300846),
]


def test_gamma_abs2_frozen_values():
    for a, xi, ref in GAMMA_ABS2:
        got = specfun.gamma_abs2(a, xi)
        assert abs(got - ref) < 1e-14 * max(1.0, abs(ref) / 1e-3), (a, xi)


def test_gamma_abs2_vectorized_and_even():
    xi = np.linspace(-4.0, 4.0, 41)
    v = specfun.gamma_abs2(0.75, xi)
    assert v.shape == xi.shape
    assert np.all(v > 0)
    assert np.max(np.abs(v - v[::-1]) / v) < 1e-13  # even in xi


def test_gamma_abs2_half_integer_closed_forms():
    # |Gamma(1/2 + i xi)|^2 = pi / cosh(pi xi); |Gamma(1 + i xi)|^2 = pi xi / sinh(pi xi)
    xi = np.array([0.25, 1.0, 2.5])
    ref_half = np.pi / np.cosh(np.pi * xi)
    assert np.max(np.abs(specfun.gamma_abs2(0.5, xi) / ref_half - 1.0)) < 1e-13
    ref_one = np.pi * xi / np.sinh(np.pi * xi)
    assert np.max(np.abs(specfun.gamma_abs2(1.0, xi) / ref_one - 1.0)) < 1e-13


def test_bessel_j_half_frozen_values():
    for m, x, ref in BESSEL_J_HALF:
        assert abs(specfun.bessel_j_half(m, x) - ref) < 1e-14, (m, x)


def test_bessel_j_half_spherical_identity():
    # J_{n+1/2}(x) = sqrt(2x/pi) j_n(x)
    import scipy.special
    x = np.linspace(0.1, 30.0, 50)
    for n in (0, 2, 5):
        lhs = specfun.bessel_j_half(n, x)
        rhs = np.sqrt(2 * x / np.pi) * scipy.special.spherical_jn(n, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("m", [5, 16, 32, 64])
def test_bessel_j_half_at_and_near_multiples_of_pi(m):
    # j_0 = sin(x)/x vanishes at k pi, so the downward recurrence (x < m)
    # must not be normalized by j_0 alone; k runs past m to cover the
    # forward branch as well
    mpmath.mp.dps = 40
    x = np.array([k * np.pi + d for k in range(1, 26) for d in (-1e-5, 0.0, 1e-5)])
    got = specfun.bessel_j_half(m, x)
    ref = np.array([float(mpmath.besselj(m + 0.5, mpmath.mpf(float(v)))) for v in x])
    assert np.max(np.abs(got - ref)) < 1e-14


def test_gamma_and_beta_consistency():
    # B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), against 40 digits
    assert abs(specfun.beta(2.0, 3.0) - 1.0 / 12.0) < 1e-16
    mpmath.mp.dps = 40
    for a, b in ((0.5, 0.5), (1.5, 4.25), (0.1, 7.0), (40.0, 55.5)):
        ref = float(mpmath.beta(a, b))
        assert abs(specfun.beta(a, b) - ref) < 1e-13 * ref, (a, b)
    with pytest.raises(ValueError):
        specfun.beta(0.0, 1.0)


def test_gamma_abs2_no_overflow_large_xi():
    # decays like e^{-pi |xi|}; must underflow gracefully, never overflow
    v = specfun.gamma_abs2(0.75, np.array([50.0, 200.0, 500.0]))
    assert np.all(np.isfinite(v))
    assert np.all(v >= 0)


def _mpmath_gamma_abs2(a, xi):
    with mpmath.workdps(40):
        return np.array([float(abs(mpmath.gamma(a + 1j * mpmath.mpf(float(v)))) ** 2)
                         for v in xi])


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 3.5, 8.0])
def test_gamma_abs2_climb_matches_mpmath(a):
    # the closed forms' error grows as pi |xi| eps, the rounding of the
    # argument of e^(-pi |xi|): about 8e-14 at |xi| = 200; a = 8 is the
    # longest climb
    assert a <= specfun._CLIMB_MAX
    xi = np.concatenate((np.linspace(-200.0, 200.0, 161), [1e-9, 1e-3, 0.3]))
    ref = _mpmath_gamma_abs2(a, xi)
    got = specfun.gamma_abs2(a, xi)
    assert np.max(np.abs(got - ref) / ref) < 1e-13


@pytest.mark.parametrize("a", [3.5, 8.0, 20.0])
def test_gamma_abs2_matches_mpmath_to_xi_240(a):
    # past pi |xi| = 700 e^(-pi |xi|) nears the subnormal range while
    # |Gamma(a + i xi)|^2 is still a normal double; the climb hands those
    # points to loggamma, whose error also grows as pi |xi| eps
    xi = np.concatenate((np.linspace(-240.0, 240.0, 193), [1e-9, 0.3]))
    ref = _mpmath_gamma_abs2(a, xi)
    keep = ref > 1e-300
    assert np.count_nonzero(keep & (np.abs(xi) > 700.0 / np.pi)) >= 4
    got = specfun.gamma_abs2(a, xi)
    rel = np.abs(got[keep] - ref[keep]) / ref[keep]
    assert np.max(rel) < 2.0 * np.pi * 240.0 * np.finfo(float).eps


@pytest.mark.parametrize("a", [0.5, 1.0, 7.5, 8.0, 20.0])
def test_gamma_abs2_climb_far_tail_underflows_cleanly(a):
    # the truncation scan reaches 1e9: e^(-pi |xi|) is 0 before any climbing
    # product can overflow, so there is no inf * 0 and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = specfun.gamma_abs2(a, np.array([1e3, 1e6, 1e9, -1e9]))
    assert np.all(np.isfinite(v)) and np.all(v >= 0.0)


@pytest.mark.parametrize("nmax", [0, 2, 5, 40])
def test_sph_scan_runs_match_masks_bitwise(nmax):
    # an ascending grid hands each branch its points as one slice; shuffled,
    # the same points go through boolean masks; every sweep is elementwise,
    # so the rows agree bit for bit
    grids = [
        np.concatenate([[0.0, 1e-300, 1e-9], np.linspace(1e-3, 3.0 * nmax + 3.0, 501)]),
        (np.arange(64) + 0.5) * 3.0 + max(nmax, 1),  # forward branch alone
        np.linspace(0.0, 4.0 * nmax + 4.0, 257),
    ]
    perm = np.random.default_rng(nmax).permutation
    for x in grids:
        shuffle = perm(x.size)
        got = specfun._sph_scan(nmax, x)
        mixed = specfun._sph_scan(nmax, x[shuffle])
        want = np.empty_like(mixed)
        want[:, shuffle] = mixed
        assert np.array_equal(got, want)


def _forward_reference(nmax, x):
    # the forward recurrence as separate out-of-place expressions
    j0 = np.sin(x) / x
    rows = [j0, (j0 - np.cos(x)) / x]
    for k in range(1, nmax):
        rows.append((2 * k + 1) / x * rows[k] - rows[k - 1])
    return np.array(rows[: nmax + 1])


@st.composite
def _sph_grids(draw):
    # zero, series points below 2^-27, Miller points below max(nmax, 1) and
    # forward points, of either sign, in any order
    nmax = draw(st.integers(0, 64))
    split = float(max(nmax, 1))
    point = st.one_of(
        st.just(0.0),
        st.floats(0.0, specfun._SPH_TINY, exclude_min=True, exclude_max=True),
        st.floats(specfun._SPH_TINY, split, exclude_max=True),
        st.floats(split, 1e4),
    )
    x = np.array(draw(st.lists(point, min_size=1, max_size=24)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                   min_size=x.size, max_size=x.size)))
    return nmax, signs * x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_sph_grids())
def test_sph_sweep_in_place_matches_single_rows(grid):
    # the table fills its rows in place and a single row is the last row of
    # the table at nmax = n, so the last row agrees everywhere, and every
    # row agrees on the points that take the same
    # branch for every index (forward, series, zero); the forward rows are
    # the out-of-place recurrence bit for bit
    nmax, x = grid
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = transformed_legendre_table(nmax, x)
        rows = [transformed_legendre(n, x) for n in range(nmax + 1)]
        r = np.abs(x)
        forward = r >= max(nmax, 1)
        reference = _forward_reference(nmax, r[forward])
    assert np.array_equal(table[nmax], rows[nmax])
    same = forward | (r < specfun._SPH_TINY)
    for n in range(nmax + 1):
        assert np.array_equal(table[n, same], rows[n][same]), n
    scale = np.sqrt((2 * np.arange(nmax + 1) + 1) / np.pi)[:, None]
    sign = np.where((np.arange(nmax + 1) % 2 == 1)[:, None] & (x[forward] > 0), -1.0, 1.0)
    assert np.array_equal(table[:, forward], sign * (reference * scale))


def _sph_down_out_of_place(nmax, x, rows, fired):
    # the Miller sweep with each value formed in temporaries and copied into
    # its row, and the overflow mask built at every step
    start = nmax + int(np.ceil(np.sqrt(40.0 * (nmax + 1)))) + 18
    jp = np.zeros_like(x)
    jc = np.full_like(x, 2.0**-512)
    for k in range(start, 0, -1):
        n = k - 1
        jp, jc = jc, (2 * k + 1) / x * jc - jp
        if n <= nmax:
            rows[n] = jc
        big = np.abs(jc) > specfun._SPH_BIG
        if np.any(big):
            fired.append(n)
            jp = np.where(big, jp / specfun._SPH_BIG, jp)
            jc = np.where(big, jc / specfun._SPH_BIG, jc)
            if n <= nmax:
                rows[n:, big] /= specfun._SPH_BIG
    _, e = np.frexp(np.maximum(np.abs(jc), np.abs(jp)))
    jc = np.ldexp(jc, -e)
    jp = np.ldexp(jp, -e)
    j0, j1 = specfun._sph_j01(x, np.empty_like(x), np.empty_like(x))
    scale = (j0 * jc + j1 * jp) / (jc * jc + jp * jp)
    rows *= np.ldexp(scale, -e)


@pytest.mark.parametrize("nmax", [4, 5, 9, 16, 63, 100, 128, 255])
def test_sph_scan_in_place_matches_out_of_place_bitwise(monkeypatch, nmax):
    # every branch (forward, Miller, series, zero), as slices on the sorted
    # grid and through masks on the shuffled one; from nmax = 9 on, the
    # points x = 2^-26 .. 1 send the Miller values past 2^830
    rng = np.random.default_rng(nmax)
    x = np.sort(np.concatenate([
        [0.0, 2.0**-40, 2.0**-28], 2.0 ** -np.arange(0.0, 26.5, 0.5),
        rng.uniform(0.0, 1.5 * nmax + 2.0, 300), np.pi * np.arange(1, 9),
        [nmax - 0.25, nmax, nmax + 0.25]]))
    grids = (x, rng.permutation(x))
    got = [specfun._sph_scan(nmax, g) for g in grids]
    fired = []
    monkeypatch.setattr(specfun, "_sph_down",
                        lambda n, xs, rows: _sph_down_out_of_place(n, xs, rows, fired))
    want = [specfun._sph_scan(nmax, g) for g in grids]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    # the rescale runs on rows already kept from nmax = 9 on, and before
    # the first kept row too from nmax = 16 on
    assert (min(fired, default=nmax + 1) <= nmax) == (nmax >= 9)
    assert (max(fired, default=-1) > nmax) == (nmax >= 16)
