"""Free Schroedinger flow in transformed bases, plus Strang splitting.

For u_t = i u_xx the Fourier transform of the solution is the initial
transform times e^{-i xi^2 t}.  Absorbing that unimodular factor into the
transform that defines phi_n yields propagated basis functions

    psi_n(x, t) = (i^n / sqrt(2 pi)) int e^{ix xi} p_n(xi) e^{-i xi^2 t}
                  sqrt(w(xi)) d xi,

which stay orthonormal for every t, so u(x, t) = sum_n u_hat_n psi_n(x, t)
with time-independent coefficients.  On coefficients the free flow is
e^{i t D^2}, ``diffop.flow`` with P(z) = i z^2; with a potential, Strang
splitting alternates its half-steps (its factor at tau/2) with pointwise
phase multiplication on a grid matched to the basis.  That set-up (D with
its eigensystem, the grid and its synthesis/analysis pair) is built once
per basis and size and kept on the basis, so repeated Strang calls pay
only for their steps.

On the Gauss-Hermite grid the potential step needs no grid pair at all when
D folds (its diagonal is exactly zero, see ``diffop``): in D's eigenbasis it
is z -> conj(K) Phi K z with K = V^T diag(i^k) V, and K is fixed by two real
half-size blocks.  A Strang run then keeps its state in D's real Schur
coordinates from the first step to the last (``_FoldedPath``).

Malmquist-Takenaka (MT) Strang is bilateral, on the window
n = -N/2..N/2-1: phi_n for n >= 0 alone span only the functions whose
Fourier transform vanishes for xi < 0, and the mirror phi_{-n-1} =
-i conj(phi_n) makes D two conjugate blocks of one N/2-point Laguerre
eigensystem (``_BilateralPath``), stepped through the square N-point
theta-grid FFT pair.  A Hermite table with numerically computed, nonzero c
keeps the state in D's eigenbasis and synthesizes on the grid and analyzes
back (``_EigenbasisPath``).  Every path enters and leaves through the maps
of D's eigensystem.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import basis as basis_mod
from . import diffop, quadrature
from .coeffs import CoefficientVector
from .errors import TruncationLossWarning
from .recurrence import JacobiMatrix

__all__ = [
    "TruncationLossWarning",
    "PropagatedState",
    "free_multiplier",
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


@dataclass(frozen=True)
class PropagatedState:
    """Coefficients of u(x, 0) in a basis.

    The coefficients never change under free flow; time enters only as the
    argument of ``free_propagate``, through the phase ``free_multiplier``
    applied inside the transform defining each basis function.
    """

    coeffs: CoefficientVector
    basis: basis_mod.TransformedBasis

    def __post_init__(self):
        if self.coeffs.n_start != 0:
            raise ValueError("propagation requires coefficients indexed from degree 0")
        if not np.all(np.isfinite(self.coeffs.values)):
            raise ValueError("coefficients must be finite")


def _require_quadrature(basis: basis_mod.TransformedBasis):
    if basis.measure is None or basis.measure.kind != "continuous":
        raise ValueError("free propagation needs a basis with a continuous-measure quadrature path")


def _free_phase(t: float):
    """The phase ``free_multiplier`` at time t, or None at t = 0."""
    return None if t == 0.0 else (lambda xi: free_multiplier(xi, t))


def free_psi(basis: basis_mod.TransformedBasis, n: int, x, t: float):
    """psi_n(x, t): the basis function propagated under u_t = i u_xx.

    The value is ``phi_with_phase`` with the phase ``free_multiplier``,
    row n of ``phi_grid(basis, n, x, sigma=...)``: at t = 0 no phase is
    passed, so the family's closed table serves where it has one, and at
    any other t the rows are one quadrature transform over all of x.
    """
    _require_quadrature(basis)
    return basis_mod.phi_with_phase(basis, _free_phase(t), n, x)


def free_propagate(state: PropagatedState, t: float):
    """Evaluator of u(., t) = sum_n u_hat_n psi_n(., t); linear in the coefficients.

    u(x) is the coefficients times the rows of one ``phi_grid`` call with
    the phase of ``free_psi``, in the shape of x (a Python complex for a
    scalar x).
    """
    _require_quadrature(state.basis)
    values = state.coeffs.values
    nmax = len(values) - 1
    sigma = _free_phase(t)

    def u(x):
        table = basis_mod.phi_grid(state.basis, nmax, x, sigma=sigma)
        return basis_mod._row(values @ table, x)

    return u


def free_coeff_step(D: diffop.DiffMatrix, t: float, a):
    """exp(i t D_N^2) a, the truncated free flow: ``diffop.flow`` with P(z) = i z^2.

    The coefficient-side counterpart of free_propagate; the two agree up to
    basis truncation, with the gap shrinking as N grows.
    """
    return diffop.flow(D, t, (0, 0, 1j), a)


def _hermite_scale(D: diffop.DiffMatrix) -> np.ndarray:
    """c_i = sqrt(w(x_i) / lambda_i) at D's coordinate nodes x_i, for the Hermite weight w.

    lambda_i are the Christoffel weights of the N-point Gauss rule:
    1 / lambda_i = sum_{k<N} p_k(x_i)^2 = total_i 4^last_i from one
    ``_christoffel_sums`` sweep over D's own bands, so c carries their
    relative accuracy at every node (Gautschi 2004, sec. 3.1) and is formed
    from logarithms, in range for any N.
    """
    x = D.eigensystem.coord_nodes
    total, last, _ = quadrature._christoffel_sums(x, JacobiMatrix(D.sub, D.diag[:-1]), D.N)
    return np.exp(0.5 * np.log(total) + math.log(2.0) * last - 0.5 * x * x
                  - 0.25 * math.log(math.pi))


def _hermite_grid(D: diffop.DiffMatrix):
    """Gauss-Hermite synthesis/analysis pair exact on span{phi_0..phi_{N-1}}.

    The nodes are D's Gauss nodes.  D's eigenvectors are signed so that
    V[k, i] = p_k(x_i) sqrt(lambda_i), and phi_k = (-1)^k p_k sqrt(w), so
    phi_k(x_i) = (-1)^k c_i V[k, i] with c_i = sqrt(w(x_i) / lambda_i)
    (``_hermite_scale``, from the Gauss rule's Christoffel sums), and the
    grid values c V^T P a (P = diag((-1)^k)) are c times D's coordinates of
    S^-1 a.  When D folds, z(+-x) = (f_0 +- i f_1) / sqrt2 for the pair
    coordinates f of S^-1 a, and f = [E; iO] for [E; O] = enter(sign * a),
    S's real row sign: the grid holds E -+ O at +-x, scaled by c / sqrt2 (by
    c at the centre node of odd N, which is f_0 alone).  Analysis inverts
    synthesis; the Christoffel weights c_i^2 cancel.  The scale is built on
    first use, which a folded Strang step never makes.  ``rows(grid)`` is
    phi_0..phi_{N-1} on grid.
    """
    eig, N = D.eigensystem, D.N
    if isinstance(eig, diffop.FoldedEigensystem):
        sign, h, r = diffop._row_signs(N), eig.h, eig.r
        fold = np.where(np.arange(h + r) < r, 1.0, math.sqrt(0.5))
        # f_0 - f_1 at x >= 0 and f_0 + f_1 at -x, and back (the centre is its own mirror)
        nodes = lambda f: np.concatenate(((f[0] + f[1])[r:][::-1], f[0] - f[1]))

        def pairs(u):
            plus, minus = u[h:], np.concatenate((u[h:h + r], u[:h][::-1]))
            return np.stack((0.5 * (plus + minus), 0.5 * (minus - plus)))
    else:
        sign, fold = diffop._I_POWERS[np.arange(N) % 4], 1.0
        nodes = pairs = lambda z: z
    scale = functools.cache(lambda: fold * _hermite_scale(D))
    synthesize = lambda a: nodes(scale() * eig.enter(sign * a))
    analyze = lambda u: sign.conj() * eig.leave(pairs(u) / scale())
    rows = lambda grid: basis_mod.hermite_function_table(N - 1, grid)
    return eig.x, synthesize, analyze, rows


def _mt_grid(D: diffop.DiffMatrix):
    """Square theta-grid pair for the Malmquist-Takenaka window n = -K..K-1, K = D.N.

    On the N = 2K points x_j of ``basis._mt_theta_grid`` every phi_n is one
    Fourier mode e^{i n theta_j} times a factor common to all n: analysis is
    the window of one FFT of (1 - 2ix) u times the per-n factor of the map
    ``mt_coeffs_fft`` reads (``basis._mt_coefficients`` at offset 1/2, taken
    once), and synthesis divides by it before one inverse FFT and by (1 - 2ix) after.
    |phi_n(x_j)|^2 dx/dtheta = 1 / (2 pi) at every node, so with the weights
    h dx/dtheta the pair is exactly unitary: the potential step keeps the
    norm to rounding.  ``rows(grid)`` is phi_n on grid for the window's n.
    """
    import scipy.fft

    K = D.N
    N = 2 * K
    nodes = basis_mod._mt_theta_grid(N)[2]
    factor = 1.0 - 2j * nodes
    per_n = basis_mod._mt_coefficients(np.ones(N, dtype=complex), 0.5, -K, N)
    bins = (np.arange(N) + K) % N  # bin n mod N of the window's n, and back
    synthesize = lambda a: scipy.fft.ifft((a / per_n)[bins]) / factor
    analyze = lambda u: per_n * scipy.fft.fft(factor * u)[bins]
    rows = lambda grid: basis_mod.malmquist_takenaka(np.arange(-K, K)[:, None], grid)
    return nodes, synthesize, analyze, rows


# (nodes, synthesize, analyze, rows) of a family's grid pair, built from D:
# for the D.N leading basis functions, for mt for the window n = -D.N..D.N-1
_GRIDS = {"hermite": _hermite_grid, "mt": _mt_grid}


def _grid_builder(family: str, N: int):
    """The grid-pair builder of a basis family for size N; ValueError if it has none."""
    build = _GRIDS.get(family)
    if build is None:
        raise ValueError(
            "Strang splitting needs a fast synthesis/analysis path; "
            "supported bases: hermite, mt"
        )
    if family == "mt" and N % 2:
        raise ValueError(f"mt Strang splitting takes the window n = -N/2..N/2-1 and needs "
                         f"an even N, got {N}")
    return build


class _EigenbasisPath:
    """Strang state in D's coordinates; the potential step goes through the grid pair."""

    def __init__(self, D: diffop.DiffMatrix, nodes, synthesize, analyze, rows):
        self.D, self.nodes, self.synthesize, self.analyze, self.rows = (
            D, nodes, synthesize, analyze, rows)
        self.eig = D.eigensystem
        self.x = self.eig.coord_nodes

    def enter(self, v: np.ndarray) -> np.ndarray:
        return self.eig.enter(v)

    def leave(self, z: np.ndarray) -> np.ndarray:  # a stack of states z[s] leaves as rows
        return self.eig.leave(z)

    def kick(self, phase: np.ndarray):
        enter, leave, synthesize, analyze = self.enter, self.leave, self.synthesize, self.analyze
        return lambda z: enter(analyze(synthesize(leave(z)) * phase))


class _BilateralPath(_EigenbasisPath):
    """Strang state of the Malmquist-Takenaka window n = -K..K-1 in the eigenbasis of D's blocks.

    phi_{-m-1} = -i conj(phi_m), and D couples n = -1 and n = 0 by zero
    (b_{-1} = 0), so D is block diagonal: the n >= 0 block is the K x K
    section D+ = S (iJ) S^-1 of the Laguerre(0) matrix J = V diag(x) V^T,
    and in the mirrored index m = -n-1 the n < 0 block is
    conj(D+) = conj(S) (-iJ) conj(S)^-1.  Both square to -x^2 on the same
    V, so the free half-step is one phase e^{-i tau x^2 / 2} on both.  The
    state is the 2 x K array [V^T S^-1 a+; V^T S a-] with a+ = a_{0..K-1}
    and a- = a_{-1..-K}; S = S^-1 diag((-1)^m), so both rows enter through
    D's map, in one real product with V^T (and leave in one with V).
    """

    def __init__(self, D: diffop.DiffMatrix, *grid):
        super().__init__(D, *grid)
        self.parity = (-1.0) ** np.arange(D.N)

    def enter(self, v: np.ndarray) -> np.ndarray:
        K = self.D.N
        return self.eig.enter(np.stack((v[K:], self.parity * v[K - 1::-1])))

    def leave(self, z: np.ndarray) -> np.ndarray:
        """The window's coefficients; a stack of states z[s] leaves in one product, as rows."""
        K = self.D.N
        y = self.eig.leave(z)
        out = np.empty(z.shape[:-2] + (2 * K,), dtype=complex)
        out[..., K:] = y[..., 0, :]
        np.multiply(self.parity, y[..., 1, :], out=out[..., K - 1::-1])
        return out


class _FoldedPath(_EigenbasisPath):
    """Strang state of a folded Hermite operator in D's real Schur coordinates.

    The state is the 2 x m array f of ``FoldedEigensystem`` over the
    m = h + r node pairs (x >= 0, the centre first when N is odd).  The map
    is orthogonal, so norms carry over, and the free half-step
    e^{-i tau x^2 / 2} is even in x: one phase per pair.  On the
    Gauss-Hermite grid the potential step is z -> conj(K) Phi K z with
    K = V^T diag(i^k) V (the scale of the grid pair cancels).  In these
    coordinates K = diag(1, i) G for the stack G of the real symmetric
    blocks Q^T diag((-1)^j) Q and P^T diag((-1)^j) P, the second padded by a
    zero row and column at the centre.  With the phases Phi at x and at -x,
    p = (Phi(x) + Phi(-x)) / 2 and q = (Phi(x) - Phi(-x)) / 2, the step is

        g = G f,   f <- G (p g - q [g_1; g_0]),

    and an even potential (equal phases on the mirrored nodes, bit for bit)
    leaves the rows uncoupled.  Each product is one batched matmul of the
    blocks on the 2 x m x 2 real view of f.
    """

    def __init__(self, D: diffop.DiffMatrix, *grid):
        super().__init__(D, *grid)
        r, m = self.eig.r, self.x.size
        # Q and P are orthogonal, so with Y and Z their odd-j rows the blocks
        # are I - 2 Y^T Y and I - 2 Z^T Z: one symmetric product of half the
        # rows each, with no sqrt2 to drift the norm
        Y, Z = self.eig.Q[1::2], self.eig.P[1::2]
        self.blocks = np.zeros((2, m, m))
        np.matmul(Y.T, Y, out=self.blocks[0])
        self.blocks[1, r:, r:] = Z.T @ Z
        self.blocks *= -2.0
        diag = np.arange(m)
        self.blocks[0, diag, diag] += 1.0
        self.blocks[1, diag[r:], diag[r:]] += 1.0  # not at the padded centre

    def kick(self, phase: np.ndarray):
        h, m = self.eig.h, self.x.size
        plus, minus = phase[h:], phase[:m][::-1]
        p, q = 0.5 * (plus + minus), 0.5 * (plus - minus)
        coupled = np.any(q)
        g = np.empty((2, m), dtype=complex)

        def kick(f):  # overwrites f
            np.matmul(self.blocks, diffop._pairs(f), out=diffop._pairs(g))
            if coupled:
                g[:] = p * g - q * g[::-1]
            else:
                np.multiply(p, g, out=g)
            np.matmul(self.blocks, diffop._pairs(g), out=diffop._pairs(f))
            return f

        return kick


def _strang_setup(basis: basis_mod.TransformedBasis, N: int):
    """The Strang path for size N, built once per basis and N.

    _BilateralPath for mt, on D's N/2 x N/2 section; _FoldedPath for a
    folded Hermite operator, _EigenbasisPath otherwise.  The paths live on
    the basis and are built from ``basis.jacobi``; when that object is
    replaced (``ensure`` growing the table, whose leading coefficients need
    not be the old ones, or a direct assignment) every path is dropped
    before use.
    """
    grid = _grid_builder(basis.family, N)
    size = N // 2 if basis.bilateral else N
    basis.ensure(size - 1)
    cache = basis._strang
    if cache.get("jacobi") is not basis.jacobi:
        cache.clear()
        cache["jacobi"] = basis.jacobi
    if N not in cache:
        D = diffop.build(basis.jacobi, size)
        if basis.bilateral:
            path = _BilateralPath
        elif isinstance(D.eigensystem, diffop.FoldedEigensystem):
            path = _FoldedPath
        else:
            path = _EigenbasisPath
        cache[N] = path(D, *grid(D))
    return cache[N]


def _run(path, tau: float, v: np.ndarray, V, steps: int,
         each: Callable | None = None) -> tuple[np.ndarray, list | None]:
    """``steps`` Strang steps of size tau from v, and ``each(z)`` of the state z
    in the path's coordinates after every step when ``each`` is given.

    The state enters the path's coordinates once and leaves them once
    (``each=np.copy`` keeps the state after every step, whose stack
    ``path.leave`` takes to coefficients in one product).
    The free half-steps exp(i tau/2 D^2) are diagonal there, the factor of
    ``free_coeff_step`` at tau/2, so the closing half-step of one step and the
    opening half-step of the next need no change of basis between them.
    """
    half_flow = diffop._factors(path.eig, 0.5 * tau, (0, 0, 1j))[0]
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
                     basis: basis_mod.TransformedBasis):
    """``steps`` Strang steps of size tau on the basis's cached path for the size of a.

    For mt the N values of a are the coefficients of n = -N/2..N/2-1, N
    even; a CoefficientVector on another window (``mt_coeffs_fft`` gives
    n = -N/2+1..N/2) raises ValueError rather than being read shifted.
    Returns the final CoefficientVector.  Warns when the run loses more
    than 1e-6 of the norm to analysis/synthesis truncation.  The state
    after every step is ``_run``'s to give, as the ``schrodinger`` command
    takes it.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    v = diffop._vector_of(a)
    path = _strang_setup(basis, len(v))  # refuses an odd mt size
    K = len(v) // 2
    start = getattr(a, "n_start", None)
    if basis.bilateral and start is not None and start != -K:
        raise ValueError(f"mt Strang splitting takes the window n = {-K}..{K - 1}, "
                         f"but the coefficients are indexed n = {start}..{start + 2 * K - 1}")
    norm0 = float(np.linalg.norm(v))
    v = _run(path, tau, v, V, steps)[0]
    _check_drift(norm0, float(np.linalg.norm(v)), "strang_propagate")
    return a.with_values(v) if hasattr(a, "with_values") else CoefficientVector(
        v, -(len(v) // 2) if basis.bilateral else 0,
        meta={"method": "strang", "tau": tau, "steps": steps})


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
