"""Orthonormal function systems on the real line whose differentiation
matrices are tridiagonal and skew-Hermitian.

Every system here is the Fourier transform of an orthonormal polynomial
family against the square root of its weight: given recurrence coefficients
(b_n, c_n) of the polynomials, the functions

    phi_n(x) = (i^n / sqrt(2 pi)) int e^{ix xi} p_n(xi) sqrt(w(xi)) d xi

are orthonormal in L2(R) and satisfy phi_n' = -b_{n-1} phi_{n-1}
+ i c_n phi_n + b_n phi_{n+1}.  The package provides the classical families
(Hermite functions, transformed Legendre, Malmquist-Takenaka, tanh-Jacobi,
periodic Charlier), quadrature and fast transforms for expansion
coefficients, the skew-Hermitian differentiation operator with a unitary
exponential, a free/split-step Schroedinger solver, and runnable
verification checks.
"""

from .errors import (
    AccuracyError,
    DegenerateMeasureError,
    EigenError,
    TruncationLossWarning,
)
from .recurrence import (
    JacobiMatrix,
    MeasureSpec,
    build_jacobi,
    charlier_bilateral,
    conthahn_coeffs,
    conthahn_measure,
    custom_measure,
    eval_poly,
    eval_poly_table,
    hermite_measure,
    jacobi_coeffs,
    jacobi_measure,
    laguerre_measure,
    legendre_measure,
    stieltjes,
    ultraspherical_measure,
)
from .quadrature import QuadratureRule, golub_welsch, integrate
from .basis import (
    TransformedBasis,
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
from .diffop import DiffMatrix, apply, build, expm_apply, flow, spectral_radius
from .coeffs import (
    CoefficientVector,
    DecayFit,
    coeffs_fourier_side,
    coeffs_xspace,
    decay_fit,
    mt_coeffs_fft,
    tanh_chebyshev_coeffs,
)
from .periodic import charlier_basis, periodic_gram, periodic_phi
from .schrodinger import (
    PropagatedState,
    fft_grid_reference,
    free_coeff_step,
    free_propagate,
    free_psi,
    strang_propagate,
    strang_step,
)
from .verify import (
    CheckReport,
    check_cramer,
    check_gram,
    check_pw_support,
    pw_support_reports,
    check_ramanujan,
    check_recurrence,
    check_tanh_jacobi_identity,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "DegenerateMeasureError",
    "EigenError",
    "TruncationLossWarning",
    "JacobiMatrix",
    "MeasureSpec",
    "build_jacobi",
    "charlier_bilateral",
    "conthahn_coeffs",
    "conthahn_measure",
    "custom_measure",
    "eval_poly",
    "eval_poly_table",
    "hermite_measure",
    "jacobi_coeffs",
    "jacobi_measure",
    "laguerre_measure",
    "legendre_measure",
    "stieltjes",
    "ultraspherical_measure",
    "QuadratureRule",
    "golub_welsch",
    "integrate",
    "TransformedBasis",
    "hermite_function",
    "hermite_function_table",
    "make_basis",
    "malmquist_takenaka",
    "phi",
    "phi_grid",
    "phi_with_phase",
    "tanh_jacobi",
    "tanh_jacobi_table",
    "transformed_legendre",
    "transformed_legendre_table",
    "DiffMatrix",
    "apply",
    "build",
    "expm_apply",
    "flow",
    "spectral_radius",
    "CoefficientVector",
    "DecayFit",
    "coeffs_fourier_side",
    "coeffs_xspace",
    "decay_fit",
    "mt_coeffs_fft",
    "tanh_chebyshev_coeffs",
    "charlier_basis",
    "periodic_gram",
    "periodic_phi",
    "PropagatedState",
    "fft_grid_reference",
    "free_coeff_step",
    "free_propagate",
    "free_psi",
    "strang_propagate",
    "strang_step",
    "CheckReport",
    "check_cramer",
    "check_gram",
    "check_pw_support",
    "pw_support_reports",
    "check_ramanujan",
    "check_recurrence",
    "check_tanh_jacobi_identity",
    "__version__",
]
