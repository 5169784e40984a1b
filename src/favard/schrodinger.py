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
grid matched to the basis.  That set-up (D with its eigensystem, the grid
and its synthesis/analysis pair) is built once per basis and size and kept
on the basis, so repeated Strang calls pay only for their steps.

On the Gauss-Hermite grid the potential step needs no grid pair at all when
D folds (its diagonal is exactly zero, see ``diffop``): in D's eigenbasis it
is z -> conj(K) Phi K z with K = V^T diag(i^k) V, and K is fixed by two real
half-size blocks.  Every other case (MT, a Hermite table with numerically
computed, nonzero c) synthesizes on the grid and analyzes back.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft

from . import basis as basis_mod
from . import diffop
from .coeffs import CoefficientVector
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

    At t = 0 this is ``phi(basis, n, x)``; otherwise it is
    ``phi_with_phase`` with the multiplier phase, row n of one quadrature
    transform over all of x.  ``printed_form`` switches the multiplier phase
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
    x = D.eigensystem.x
    out = diffop._eigen_apply(D, np.exp(-1j * t * x * x), v)
    if hasattr(a, "with_values"):
        return a.with_values(out)
    return out


def _hermite_grid(D: diffop.DiffMatrix):
    """Gauss-Hermite synthesis/analysis pair exact on span{phi_0..phi_{N-1}}.

    The nodes are D's Gauss nodes.  D's eigenvectors are signed so that
    V[k, i] = p_k(x_i) sqrt(lambda_i), and phi_k = (-1)^k p_k sqrt(w), so
    phi_k(x_i) = (-1)^k c_i V[k, i] with c_i = sqrt(w(x_i) / lambda_i).  The
    last row gives c_i = |phi_{N-1}(x_i)| / |V[N-1, i]|: one Hermite function
    and no Hermite function table (|V[N-1, i]| >= 1.5e-2 for N <= 4096).
    Synthesis is then c V^T P and analysis P V / c with P = diag((-1)^k):
    the Christoffel weights omega_i = c_i^2 cancel.  c is built on the first
    call, which a folded Strang step never makes.
    """
    eig = D.eigensystem
    parity = (-1.0) ** np.arange(D.N)

    @functools.cache
    def scale():
        unit = np.zeros(D.N)
        unit[-1] = 1.0
        last = eig.t_times(unit).real  # V[N-1, :]
        return np.abs(basis_mod.hermite_function(D.N - 1, eig.x)) / np.abs(last)

    synthesize = lambda a: scale() * eig.t_times(parity * a)
    analyze = lambda u: parity * eig.times(u / scale())
    return eig.x, synthesize, analyze


def _folded_hermite_kick(eig: diffop.FoldedEigensystem):
    """The potential step z -> conj(K) Phi K z in a folded Hermite eigenbasis.

    On the Gauss-Hermite grid, synthesis of S V z is c K z with
    K = V^T diag(i^k) V, and analysis back to the eigenbasis is conj(K) / c,
    so c cancels.  In folded coordinates (e, d) of z (see diffop.FoldedEigensystem),
    K z = A e + i B d at x and A e - i B d at -x, with the real blocks
    A = U^T diag((-1)^{k/2}) U over the even rows k and
    B = W^T diag((-1)^{(k-1)/2}) W over the odd rows; conj(K) flips the sign
    of the B term.
    """
    def signed_gram(M):
        # row j of U is k = 2j and of W is k = 2j+1: both signs are (-1)^j
        return M.T @ (M * ((-1.0) ** np.arange(M.shape[0]))[:, None])

    A, B = signed_gram(eig.U), signed_gram(eig.W)

    def kick(z, phase):
        e, d = eig.fold(z)
        u = phase * eig.unfold(diffop._real_times(A, e), 1j * diffop._real_times(B, d))
        e, d = eig.fold(u)
        return eig.unfold(diffop._real_times(A, e), -1j * diffop._real_times(B, d))

    return kick


def _mt_grid(N: int):
    """Uniform theta-grid pair for the Malmquist-Takenaka basis.

    On theta_j = -pi + (j + 1/2) h, h = 2 pi / M with M = 4N, the basis
    is a pure Fourier mode times a common factor,
    phi_n(x_j) = sqrt(2/pi) cos(theta_j/2) i^n e^{i (n + 1/2) theta_j}, so
    synthesis is one zero-padded inverse FFT of (-i)^n e^{i n h/2} a_n and
    analysis one FFT; the round trip is exact for functions in
    span{phi_0..phi_{N-1}}.
    """
    M = 4 * N
    h = 2.0 * math.pi / M
    theta = -math.pi + (np.arange(M) + 0.5) * h
    tan_half = np.tan(0.5 * theta)
    nodes = 0.5 * tan_half
    ns = np.arange(N)
    common = M * math.sqrt(2.0 / math.pi) * np.cos(0.5 * theta) * np.exp(0.5j * theta)
    shift = diffop._I_POWERS[-ns % 4] * np.exp(0.5j * ns * h)

    def synthesize(a):
        return common * scipy.fft.ifft(shift * a, n=M)

    pref = (h / (2.0 * math.sqrt(2.0 * math.pi))) * diffop._I_POWERS[ns % 4] * np.exp(-0.5j * ns * h)
    factor = 1.0 - 1j * tan_half

    def analyze(u):
        spectrum = scipy.fft.fft(factor * u)
        return pref * spectrum[ns]

    return nodes, synthesize, analyze


def _grid_pair(basis: basis_mod.TransformedBasis, D: diffop.DiffMatrix):
    """(nodes, synthesize, analyze) for the N = D.N leading basis functions."""
    if basis.family == "hermite":
        return _hermite_grid(D)
    if basis.family == "mt":
        return _mt_grid(D.N)
    raise ValueError(
        "Strang splitting needs a fast synthesis/analysis path; "
        "supported bases: hermite, mt"
    )


def _potential_kick(basis: basis_mod.TransformedBasis, D: diffop.DiffMatrix,
                    synthesize, analyze):
    """(z, phase) -> the pointwise phase applied on the grid, in D's eigenbasis."""
    if basis.family == "hermite" and isinstance(D.eigensystem, diffop.FoldedEigensystem):
        return _folded_hermite_kick(D.eigensystem)
    return lambda z, phase: diffop._to_spectral(
        D, analyze(synthesize(diffop._from_spectral(D, z)) * phase))


def _strang_setup(basis: basis_mod.TransformedBasis, N: int):
    """(D, nodes, synthesize, analyze, kick) for size N, built once per basis and N.

    The entries live on the basis and are built from ``basis.jacobi``; when
    that object is replaced (``ensure`` growing the table, whose leading
    coefficients need not be the old ones, or a direct assignment) every
    entry is dropped before use.
    """
    basis.ensure(N - 1)
    cache = basis._strang
    if cache.get("jacobi") is not basis.jacobi:
        cache.clear()
        cache["jacobi"] = basis.jacobi
    if N not in cache:
        D = diffop.build(basis.jacobi, N)
        nodes, synthesize, analyze = _grid_pair(basis, D)
        cache[N] = (D, nodes, synthesize, analyze,
                    _potential_kick(basis, D, synthesize, analyze))
    return cache[N]


class _StrangWork:
    """Strang machinery for one basis, size N and step tau.

    D, its eigensystem, the grid pair and the potential step come from the
    per-basis, per-size cache (_strang_setup); only the half-step phase
    depends on tau.
    """

    def __init__(self, basis: basis_mod.TransformedBasis, N: int, tau: float):
        self.D, self.nodes, self.synthesize, self.analyze, self.kick = _strang_setup(basis, N)
        x = self.D.eigensystem.x
        self.half_flow = np.exp(-0.5j * tau * x * x)  # exp(i tau/2 D^2) in D's eigenbasis
        self.tau = tau

    def run(self, v: np.ndarray, V, steps: int,
            record: bool = False) -> tuple[np.ndarray, list[float] | None]:
        """``steps`` Strang steps from v, with the norm after each when ``record``.

        The state stays in D's eigenbasis, where the free half-steps are
        diagonal, so the closing half-step of one step and the opening
        half-step of the next need no change of basis between them.
        """
        if V is not None:
            phase = np.exp(-1j * self.tau * np.asarray(V(self.nodes), dtype=float))
        z = diffop._to_spectral(self.D, v)
        norms = [] if record else None
        for _ in range(steps):
            z = self.half_flow * z
            if V is not None:
                z = self.kick(z, phase)
            z = self.half_flow * z
            if record:
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
    v, norms = _StrangWork(basis, len(v), tau).run(v, V, steps, record)
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
