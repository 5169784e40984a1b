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
half-size blocks.  A Strang run then keeps its state in half-size even/odd
coordinates from the first step to the last (``_FoldedPath``).  Every other
case (MT, a Hermite table with numerically computed, nonzero c) keeps the
state in D's eigenbasis and synthesizes on the grid and analyzes back.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    v = diffop._vector_of(a)
    if len(v) != D.N:
        raise ValueError(f"coefficient length {len(v)} does not match operator size {D.N}")
    x = D.eigensystem.x
    return diffop._rewrap(a, diffop._eigen_apply(D, np.exp(-1j * t * x * x), v))


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


def _mt_grid(D: diffop.DiffMatrix):
    """Uniform theta-grid pair for the Malmquist-Takenaka basis.

    On theta_j = -pi + (j + 1/2) h, h = 2 pi / M with M = 4N, the basis
    is a pure Fourier mode times a common factor,
    phi_n(x_j) = sqrt(2/pi) cos(theta_j/2) i^n e^{i (n + 1/2) theta_j}, so
    synthesis is one zero-padded inverse FFT of (-i)^n e^{i n h/2} a_n and
    analysis one FFT; the round trip is exact for functions in
    span{phi_0..phi_{N-1}}.
    """
    import scipy.fft

    N = D.N
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


# (nodes, synthesize, analyze) for the N = D.N leading basis functions, by family
_GRIDS = {"hermite": _hermite_grid, "mt": _mt_grid}


def _grid_builder(family: str):
    """The grid-pair builder of a basis family; ValueError if it has none."""
    build = _GRIDS.get(family)
    if build is None:
        raise ValueError(
            "Strang splitting needs a fast synthesis/analysis path; "
            "supported bases: hermite, mt"
        )
    return build


class _EigenbasisPath:
    """Strang state in D's eigenbasis; the potential step goes through the grid pair."""

    def __init__(self, D: diffop.DiffMatrix, nodes, synthesize, analyze):
        self.D, self.nodes, self.synthesize, self.analyze = D, nodes, synthesize, analyze
        self.x = D.eigensystem.x

    def enter(self, v: np.ndarray) -> np.ndarray:
        return diffop._to_spectral(self.D, v)

    def leave(self, z: np.ndarray) -> np.ndarray:
        return diffop._from_spectral(self.D, z)

    def kick(self, phase: np.ndarray):
        D, synthesize, analyze = self.D, self.synthesize, self.analyze
        return lambda z: diffop._to_spectral(D, analyze(synthesize(diffop._from_spectral(D, z)) * phase))


class _FoldedPath:
    """Strang state of a folded Hermite operator in unitary even/odd coordinates.

    With m = h + r node pairs (x >= 0, the centre first when N is odd), a
    state z over the nodes is kept as the 2 x m array
    f = [(z(x) + z(-x)) / sqrt2; -i (z(x) - z(-x)) / sqrt2], with z(0) itself
    in the centre slot of the first row and 0 in that of the second.  The map
    is unitary, so norms carry over, and the free half-step
    e^{-i tau x^2 / 2} is even in x: one phase per pair.  On the
    Gauss-Hermite grid the potential step is z -> conj(K) Phi K z with
    K = V^T diag(i^k) V (the c of the grid pair cancels).  In these
    coordinates K = diag(1, i) G for the stack G of the real symmetric blocks
    c A c and 2 B, where A = U^T diag((-1)^j) U, B = W^T diag((-1)^j) W
    (padded by a zero row and column at the centre) and c is 1 at the centre
    and sqrt2 elsewhere.  With the phases P at x and Q at -x,
    p = (P + Q) / 2 and q = (P - Q) / 2, the step is

        g = G f,   f <- G (p g - q [g_1; g_0]),

    and an even potential (P = Q bit for bit on the mirrored nodes) leaves
    the rows uncoupled.  Each product is one batched matmul of the blocks on
    the 2 x m x 2 real view of f.
    """

    def __init__(self, D: diffop.DiffMatrix, nodes, synthesize, analyze):
        self.D, self.nodes, self.synthesize, self.analyze = D, nodes, synthesize, analyze
        eig = D.eigensystem
        self.eig, self.N, self.h, self.r = eig, D.N, eig.h, eig.r
        m = self.h + self.r
        self.x = eig.x[self.h:]
        self.scale = np.full(m, math.sqrt(2.0))
        self.scale[:self.r] = 1.0
        signs = (-1.0) ** np.arange(m)
        self.blocks = np.zeros((2, m, m))
        np.matmul(eig.U.T, eig.U * signs[:, None], out=self.blocks[0])
        np.matmul(eig.W.T, eig.W * signs[:self.h, None], out=self.blocks[1, self.r:, self.r:])
        # c A c and 2 B by exact factors where they exist: sqrt2^2 = 2 + 4e-16
        # on every entry would drift the norm by about 4e-16 a product
        self.blocks *= 2.0
        if self.r:
            A = self.blocks[0]
            A[0, 1:] *= math.sqrt(0.5)
            A[1:, 0] *= math.sqrt(0.5)
            A[0, 0] *= 0.5

    def enter(self, v: np.ndarray) -> np.ndarray:
        w = diffop._I_POWERS[np.arange(self.N) % 4] * v
        f = np.zeros((2, self.h + self.r), dtype=complex)
        f[0] = self.scale * diffop._real_times(self.eig.U.T, w[0::2])
        f[1, self.r:] = -1j * math.sqrt(2.0) * diffop._real_times(self.eig.W.T, w[1::2])
        return f

    def leave(self, f: np.ndarray) -> np.ndarray:
        out = np.empty(self.N, dtype=complex)
        out[0::2] = diffop._real_times(self.eig.U, self.scale * f[0])
        out[1::2] = diffop._real_times(self.eig.W, 1j * math.sqrt(2.0) * f[1, self.r:])
        return diffop._I_POWERS[-np.arange(self.N) % 4] * out

    def kick(self, phase: np.ndarray):
        P, Q = phase[self.h:], phase[:self.h + self.r][::-1]
        p, q = 0.5 * (P + Q), 0.5 * (P - Q)
        coupled = np.any(q)
        g = np.empty((2, self.h + self.r), dtype=complex)

        def kick(f):  # overwrites f
            np.matmul(self.blocks, _pairs(f), out=_pairs(g))
            if coupled:
                g[:] = p * g - q * g[::-1]
            else:
                np.multiply(p, g, out=g)
            np.matmul(self.blocks, _pairs(g), out=_pairs(f))
            return f

        return kick


def _pairs(f: np.ndarray) -> np.ndarray:
    """The real (..., 2) view of a contiguous complex array: real and imaginary parts."""
    return f.view(float).reshape(*f.shape, 2)


def _strang_setup(basis: basis_mod.TransformedBasis, N: int):
    """The Strang path for size N, built once per basis and N.

    _FoldedPath for a folded Hermite operator, _EigenbasisPath otherwise.
    The paths live on the basis and are built from ``basis.jacobi``; when
    that object is replaced (``ensure`` growing the table, whose leading
    coefficients need not be the old ones, or a direct assignment) every
    path is dropped before use.
    """
    grid = _grid_builder(basis.family)
    basis.ensure(N - 1)
    cache = basis._strang
    if cache.get("jacobi") is not basis.jacobi:
        cache.clear()
        cache["jacobi"] = basis.jacobi
    if N not in cache:
        D = diffop.build(basis.jacobi, N)
        folded = basis.family == "hermite" and isinstance(D.eigensystem, diffop.FoldedEigensystem)
        cache[N] = (_FoldedPath if folded else _EigenbasisPath)(D, *grid(D))
    return cache[N]


def _run(path, tau: float, v: np.ndarray, V, steps: int,
         each: Callable | None = None) -> tuple[np.ndarray, list | None]:
    """``steps`` Strang steps of size tau from v, and ``each(z)`` of the state z
    in the path's coordinates after every step when ``each`` is given.

    The state enters the path's coordinates once and leaves them once
    (``each=path.leave`` gives the coefficient vector after every step).
    The free half-steps exp(i tau/2 D^2) are diagonal there, so the closing
    half-step of one step and the opening half-step of the next need no
    change of basis between them.
    """
    half_flow = np.exp(-0.5j * tau * path.x * path.x)
    kick = None
    if V is not None:
        kick = path.kick(np.exp(-1j * tau * np.asarray(V(path.nodes), dtype=float)))
    z = path.enter(v)
    seen = None if each is None else []
    for _ in range(steps):
        np.multiply(half_flow, z, out=z)
        if kick is not None:
            z = kick(z)
        np.multiply(half_flow, z, out=z)
        if seen is not None:
            seen.append(each(z))
    return path.leave(z), seen


def _check_drift(before: float, after: float, where: str):
    if before > 0.0 and abs(after - before) > 1e-6 * before:
        # the warning points at the first caller outside this module
        level = 2
        while sys._getframe(level).f_globals.get("__name__") == __name__:
            level += 1
        warnings.warn(
            f"norm drift {abs(after - before) / before:.3e} in {where}: "
            "initial data or potential content left the resolved span",
            TruncationLossWarning,
            stacklevel=level + 1,
        )


def strang_step(a, tau: float, V, basis: basis_mod.TransformedBasis) -> CoefficientVector:
    """One Strang step for u_t = i u_xx - i V(x) u: ``strang_propagate`` with one step.

    Half-step of the free flow exp(i tau/2 D_N^2) in coefficient space, a
    full potential step e^{-i tau V(x)} applied pointwise on the physical
    grid matched to the basis, then another free half-step.  ``V`` may be
    None for a pure free step.
    """
    return strang_propagate(a, tau, 1, V, basis)


def strang_propagate(a, tau: float, steps: int, V,
                     basis: basis_mod.TransformedBasis,
                     record: bool = False):
    """``steps`` Strang steps of size tau on the basis's cached path for the size of a.

    Returns the final CoefficientVector, or (vector, norms) with the norm
    after every step when ``record`` is set.  Warns when the run loses more
    than 1e-6 of the norm to analysis/synthesis truncation.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    v = diffop._vector_of(a)
    norm0 = float(np.linalg.norm(v))
    v, norms = _run(_strang_setup(basis, len(v)), tau, v, V, steps,
                    (lambda z: float(np.linalg.norm(z))) if record else None)
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
    import scipy.fft

    L = hi - lo
    x = lo + L * np.arange(M) / M
    k = 2.0 * math.pi * scipy.fft.fftfreq(M, d=L / M)
    spectrum = scipy.fft.fft(np.asarray(f0(x), dtype=complex))
    u = scipy.fft.ifft(np.exp(-1j * k * k * t) * spectrum)
    return x, u
