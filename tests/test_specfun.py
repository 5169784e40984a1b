"""Special functions against high-precision reference values.

Frozen constants below were produced with mpmath at 40 digits.
"""

import mpmath
import numpy as np
import pytest

from favard import specfun


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
    assert abs(specfun.gamma(0.5) - np.sqrt(np.pi)) < 1e-15
    assert abs(specfun.gamma(5.0) - 24.0) < 1e-13
    assert abs(specfun.beta(2.0, 3.0) - 1.0 / 12.0) < 1e-16
    assert abs(specfun.log_gamma(101.0) - np.sum(np.log(np.arange(1.0, 101.0)))) < 1e-10


def test_gamma_abs2_no_overflow_large_xi():
    # decays like e^{-pi |xi|}; must underflow gracefully, never overflow
    v = specfun.gamma_abs2(0.75, np.array([50.0, 200.0, 500.0]))
    assert np.all(np.isfinite(v))
    assert np.all(v >= 0)
