"""Transformed bases: closed forms against high-precision references,
quadrature transform against closed forms, phase freedom, validation.

Frozen constants below were produced with mpmath at 40 digits.
"""

import numpy as np
import pytest

from favard import basis as bas
from favard.basis import (
    hermite_function,
    hermite_function_table,
    make_basis,
    malmquist_takenaka,
    phi,
    phi_grid,
    phi_with_phase,
    tanh_jacobi,
    transformed_legendre,
)

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
