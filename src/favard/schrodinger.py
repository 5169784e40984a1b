"""Free Schroedinger flow in transformed bases, plus Strang splitting.

For u_t = i u_xx the Fourier transform of the solution is the initial
transform times e^{-i xi^2 t}.  Absorbing that unimodular factor into the
transform that defines phi_n yields propagated basis functions

    psi_n(x, t) = (i^n / sqrt(2 pi)) int e^{ix xi} p_n(xi) e^{-i xi^2 t}
                  sqrt(w(xi)) d xi,

which stay orthonormal for every t, so u(x, t) = sum_n u_hat_n psi_n(x, t)
with time-independent coefficients.  With a potential, Strang splitting
alternates this free flow (a coefficient-space exponential of the squared
differentiation matrix) with pointwise phase multiplication on a physical
grid matched to the basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft

from . import basis as basis_mod
from . import diffop
from .coeffs import CoefficientVector, _fft_workers
from .errors import TruncationLossWarning

__all__ = [
    "TruncationLossWarning",
    "PropagatedState",
    "free_multiplier",
    "printed_multiplier",
    "free_psi",
    "free_propagate",
    "free_coeff_step",
    "strang_step",
    "strang_propagate",
    "fft_grid_reference",
]


def free_multiplier(xi, t: float):
    """Phase of the free-flow multiplier: e^{i sigma} with sigma = -t xi^2."""
    return -t * np.asarray(xi, dtype=float) ** 2


def printed_multiplier(xi, t: float):
    """Phase sigma = t^2 xi, a pure translation of the basis by t^2.

    Kept only for comparison; it is not the free Schroedinger flow (the
    equation u_t = i u_xx forces the -i xi^2 t phase).
    """
    return t * t * np.asarray(xi, dtype=float)


@dataclass(frozen=True)
class PropagatedState:
    """Coefficients of u(x, 0) together with the Fourier-side phase rule.

    The coefficients never change under free flow; time enters only through
    ``multiplier``, a callable (xi, t) -> real phase sigma(xi; t) applied
    inside the transform defining each basis function.
    """

    coeffs: CoefficientVector
    basis: basis_mod.TransformedBasis
    t: float = 0.0
    multiplier: Callable = field(default=free_multiplier)

    def __post_init__(self):
        if self.coeffs.n_start != 0:
            raise ValueError("propagation requires coefficients indexed from degree 0")
        if not np.all(np.isfinite(self.coeffs.values)):
            raise ValueError("coefficients must be finite")


def _require_quadrature(basis: basis_mod.TransformedBasis):
    if basis.measure is None or basis.measure.kind != "continuous":
        raise ValueError("free propagation needs a basis with a continuous-measure quadrature path")


def free_psi(basis: basis_mod.TransformedBasis, n: int, x, t: float,
             printed_form: bool = False):
    """psi_n(x, t): the basis function propagated under u_t = i u_xx.

    At t = 0 this is phi_n.  ``printed_form`` switches the multiplier phase
    from -xi^2 t to xi t^2 for side-by-side comparison; only the default
    solves the free equation.
    """
    _require_quadrature(basis)
    if t == 0.0:
        return basis_mod.phi(basis, n, x)
    rule = printed_multiplier if printed_form else free_multiplier
    return basis_mod.phi_with_phase(basis, lambda xi: rule(xi, t), n, x)


def free_propagate(state: PropagatedState, t: float):
    """Evaluator of u(., t) = sum_n u_hat_n psi_n(., t); linear in the coefficients."""
    _require_quadrature(state.basis)
    values = state.coeffs.values
    nmax = len(values) - 1
    rule = state.multiplier

    def u(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if t == 0.0:
            table = basis_mod.phi_grid(state.basis, nmax, xs)
        else:
            table = basis_mod.phi_grid(state.basis, nmax, xs,
                                       sigma=lambda xi: rule(xi, t),
                                       method="quadrature")
        out = values @ table
        return out if np.ndim(x) else complex(out)

    return u


def free_coeff_step(D: diffop.DiffMatrix, t: float, a):
    """exp(i t D_N^2) applied to coefficients: the truncated free flow.

    D_N^2 = -S J^2 S^-1, so the flow is the phase -t x^2 on the Gauss nodes x
    of D's cached eigensystem.

    This is the coefficient-side counterpart of free_propagate; the two
    agree up to basis truncation, with the gap shrinking as N grows.
    """
    v = np.asarray(getattr(a, "values", a), dtype=complex)
    if len(v) != D.N:
        raise ValueError(f"coefficient length {len(v)} does not match operator size {D.N}")
    x, _ = D.eigensystem
    out = diffop._eigen_apply(D, np.exp(-1j * t * x * x), v)
    if hasattr(a, "with_values"):
        return a.with_values(out)
    return out


def _hermite_grid(basis: basis_mod.TransformedBasis, N: int):
    """Gauss-Hermite synthesis/analysis pair exact on span{phi_0..phi_{N-1}}.

    The analysis weights are the Christoffel numbers written through the
    orthonormal Hermite functions, omega_i = 1 / sum_{k<N} phi_k(x_i)^2,
    which stays O(1) at every node (no underflowing e^{-x^2} factors).
    """
    from . import quadrature

    basis.ensure(N - 1)
    rule = quadrature.golub_welsch(basis.jacobi, N)
    nodes = np.asarray(rule.nodes, dtype=float)
    table = basis_mod.hermite_function_table(N - 1, nodes)
    omega = 1.0 / np.sum(table**2, axis=0)
    synth = table.T.astype(complex)  # (M, N)
    analyze = lambda u: diffop._real_times(table, omega * u)
    return nodes, synth, analyze


def _mt_grid(N: int, M: int | None = None):
    """Uniform theta-grid pair for the Malmquist-Takenaka basis.

    On theta_j = -pi + (j + 1/2) h the basis is a pure Fourier mode times a
    common factor, so synthesis is a dense matmul and analysis one FFT; the
    round trip is exact for functions in span{phi_0..phi_{N-1}}.
    """
    if M is None:
        M = 4 * N
    h = 2.0 * math.pi / M
    theta = -math.pi + (np.arange(M) + 0.5) * h
    nodes = 0.5 * np.tan(0.5 * theta)
    common = math.sqrt(2.0 / math.pi) * np.cos(0.5 * theta)
    ns = np.arange(N)
    synth = (common[:, None]
             * (1j ** (ns % 4))[None, :]
             * np.exp(1j * np.multiply.outer(theta, ns + 0.5)))  # (M, N)

    pref = (h / (2.0 * math.sqrt(2.0 * math.pi))) * (1j ** (ns % 4)) * np.exp(-0.5j * ns * h)

    def analyze(u):
        g = (1.0 - 1j * np.tan(0.5 * theta)) * u
        spectrum = scipy.fft.fft(g, workers=_fft_workers())
        return pref * spectrum[ns]

    return nodes, synth, analyze


def _grid_pair(basis: basis_mod.TransformedBasis, N: int):
    if basis.family == "hermite":
        return _hermite_grid(basis, N)
    if basis.family == "mt":
        return _mt_grid(N)
    raise ValueError(
        "Strang splitting needs a fast synthesis/analysis path; "
        "supported bases: hermite, mt"
    )


class _StrangWork:
    """Precomputed machinery for repeated Strang steps of a fixed size."""

    def __init__(self, basis: basis_mod.TransformedBasis, N: int, tau: float):
        basis.ensure(N - 1)
        self.D = diffop.build(basis.jacobi, N)
        x, _ = self.D.eigensystem
        self.half_flow = np.exp(-0.5j * tau * x * x)  # exp(i tau/2 D^2) in D's eigenbasis
        self.nodes, self.synth, self.analyze = _grid_pair(basis, N)
        self.tau = tau

    def run(self, v: np.ndarray, V, steps: int) -> tuple[np.ndarray, list[float]]:
        """``steps`` Strang steps from v, with the norm after each.

        The state stays in D's eigenbasis, where the free half-steps are
        diagonal, so the closing half-step of one step and the opening
        half-step of the next need no change of basis between them.
        """
        z = diffop._to_spectral(self.D, v)
        norms = []
        for _ in range(steps):
            z = self.half_flow * z
            if V is not None:
                u = self.synth @ diffop._from_spectral(self.D, z)
                u = u * np.exp(-1j * self.tau * np.asarray(V(self.nodes), dtype=float))
                z = diffop._to_spectral(self.D, self.analyze(u))
            z = self.half_flow * z
            norms.append(float(np.linalg.norm(z)))
        return diffop._from_spectral(self.D, z), norms

    def step(self, v: np.ndarray, V) -> np.ndarray:
        return self.run(v, V, 1)[0]


def _check_drift(before: float, after: float, where: str):
    if before > 0.0 and abs(after - before) > 1e-6 * before:
        warnings.warn(
            f"norm drift {abs(after - before) / before:.3e} in {where}: "
            "initial data or potential content left the resolved span",
            TruncationLossWarning,
            stacklevel=3,
        )


def strang_step(a, tau: float, V, basis: basis_mod.TransformedBasis) -> CoefficientVector:
    """One Strang step for u_t = i u_xx - i V(x) u.

    Half-step of the free flow exp(i tau/2 D_N^2) in coefficient space, a
    full potential step e^{-i tau V(x)} applied pointwise on the physical
    grid matched to the basis, then another free half-step.  ``V`` may be
    None for a pure free step.  Warns when the step loses more than 1e-6
    of the norm to analysis/synthesis truncation.
    """
    v = np.asarray(getattr(a, "values", a), dtype=complex)
    work = _StrangWork(basis, len(v), tau)
    out = work.step(v, V)
    _check_drift(float(np.linalg.norm(v)), float(np.linalg.norm(out)), "strang_step")
    if hasattr(a, "with_values"):
        return a.with_values(out)
    return CoefficientVector(out, basis=basis, meta={"method": "strang", "tau": tau})


def strang_propagate(a, tau: float, steps: int, V,
                     basis: basis_mod.TransformedBasis,
                     record: bool = False):
    """``steps`` Strang steps of size tau, reusing the precomputed flow.

    Returns the final CoefficientVector, or (vector, norms) with the norm
    after every step when ``record`` is set.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    v = np.asarray(getattr(a, "values", a), dtype=complex)
    norm0 = float(np.linalg.norm(v))
    v, norms = _StrangWork(basis, len(v), tau).run(v, V, steps)
    _check_drift(norm0, float(np.linalg.norm(v)), "strang_propagate")
    out = a.with_values(v) if hasattr(a, "with_values") else CoefficientVector(
        v, basis=basis, meta={"method": "strang", "tau": tau, "steps": steps})
    if record:
        return out, np.asarray(norms)
    return out


def fft_grid_reference(f0, t: float, window: tuple[float, float] = (-40.0, 40.0),
                       M: int = 8192):
    """Free-flow reference on a periodic FFT grid: returns (x, u(x, t)).

    Exact for the periodized problem; accurate for the whole-line problem
    as long as the solution stays negligible near the window edges.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError("window must satisfy lo < hi")
    L = hi - lo
    x = lo + L * np.arange(M) / M
    k = 2.0 * math.pi * scipy.fft.fftfreq(M, d=L / M)
    spectrum = scipy.fft.fft(np.asarray(f0(x), dtype=complex))
    u = scipy.fft.ifft(np.exp(-1j * k * k * t) * spectrum)
    return x, u
