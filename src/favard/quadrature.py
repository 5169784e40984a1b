"""Gauss quadrature from recurrence coefficients, and oscillatory transforms."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from . import _panels
from .errors import AccuracyError, EigenError
from .recurrence import JacobiMatrix, MeasureSpec, _truncated_interval

__all__ = ["QuadratureRule", "golub_welsch", "integrate", "oscillatory_transform"]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss rule for a unit-mass measure: nodes ascending, weights non-negative.

    A weight is zero only where the true Gauss weight lies below the smallest
    normal double (``np.finfo(float).tiny``); every other weight carries
    relative accuracy.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    measure: MeasureSpec | None = None


# Bound, in bits, on the growth of max(|p_k|, |p_{k-1}|) between two
# rescalings of the Christoffel sum: squares stay below 2^960, so a sum of
# up to 2^60 of them cannot overflow.
_GROWTH_BITS = 480.0
# Recurrence steps per block; the squares of a block are summed at once.
_BLOCK = 32


def _christoffel_weights(nodes: np.ndarray, jacobi: JacobiMatrix) -> np.ndarray:
    """Unit-sum Gauss weights 1 / sum_{k<N} p_k(x_i)^2 at the N nodes x_i.

    Every term of the sum is positive and each p_k(x_i) comes from the
    orthonormal recurrence, so the weights carry relative accuracy however
    small they are (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, sec. 3.1).  A per-node power-of-two scale keeps the
    values in range for any N: a rescale happens only when a precomputed
    bound on the growth since the last one would exceed ``_GROWTH_BITS``.
    Weights below the smallest normal double are returned as 0.0.
    """
    N = nodes.size
    n = N - 1
    b, c = jacobi.b[:n], jacobi.c[:n]
    inv_b = 1.0 / b
    b_prev = np.concatenate(([0.0], b[:-1]))
    # p_{k+1} = (x - c_k) / b_k * p_k - b_{k-1} / b_k * p_{k-1}; at every
    # node |p_{k+1}| <= growth_k * max(|p_k|, |p_{k-1}|).
    reach = np.maximum(np.abs(nodes[-1] - c), np.abs(nodes[0] - c))
    growth = np.log2(np.maximum((reach + b_prev) * inv_b, 1.0)).tolist()
    ratio = (b_prev * inv_b).tolist()
    prev, cur = np.zeros(N), np.ones(N)
    total = np.ones(N)  # sum of p_k^2 so far, in units of 4^exps
    exps = np.zeros(N)
    rows = np.empty((_BLOCK, N))
    k0, bits = 0, 0.0
    while k0 < n:
        if bits + growth[k0] > _GROWTH_BITS:
            e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            cur, prev, total = np.ldexp(cur, -e), np.ldexp(prev, -e), np.ldexp(total, -2 * e)
            exps += e
            bits = 0.0
        k1 = k0
        # a block takes at least one step, so a single step's bound above
        # _GROWTH_BITS cannot stall the loop
        while k1 < n and k1 - k0 < _BLOCK and (k1 == k0 or bits + growth[k1] <= _GROWTH_BITS):
            bits += growth[k1]
            k1 += 1
        block = rows[: k1 - k0]
        scaled = np.subtract(nodes, c[k0:k1, None])
        scaled *= inv_b[k0:k1, None]
        for j, row in enumerate(block):
            np.multiply(scaled[j], cur, out=row)
            row -= ratio[k0 + j] * prev
            prev, cur = cur, row
        # keep the last two rows before the block buffer is reused
        prev, cur = prev.copy(), cur.copy()
        np.square(block, out=block)
        total += block.sum(axis=0)
        k0 = k1
    log_w = -np.log(total) - (2.0 * math.log(2.0)) * exps
    weights = np.exp(log_w - log_w.max())
    weights /= weights.sum()
    weights[weights < np.finfo(float).tiny] = 0.0
    return weights


def golub_welsch(jacobi: JacobiMatrix, N: int, measure: MeasureSpec | None = None) -> QuadratureRule:
    """N-point Gauss rule from the leading N x N block of the Jacobi matrix.

    Nodes are the eigenvalues of the symmetric tridiagonal block (LAPACK
    ``sterf``, pinned so no library default decides it).  Weights come from
    the Christoffel sum w_i = 1 / sum_{k<N} p_k(x_i)^2 over the normalized
    recurrence rather than from squared eigenvector entries: they carry
    relative accuracy, so tail weights far below 1e-16 are right to about
    1e-11 of their own size (Hermite, N up to 4096), not merely small.
    Weights are normalized to unit sum; a weight whose true value is below
    ``np.finfo(float).tiny`` is returned as 0.0, since a subnormal cannot
    carry relative accuracy.  The rule integrates polynomials of degree
    <= 2N - 1 exactly against the measure underlying ``jacobi``.
    """
    if N <= 0:
        raise ValueError("N must be positive")
    if N > len(jacobi):
        raise IndexError(f"need {N} coefficient pairs, have {len(jacobi)}")
    if N == 1:
        return QuadratureRule(nodes=np.array([jacobi.c[0]]), weights=np.ones(1),
                              exactness=1, measure=measure)
    try:
        # JacobiMatrix has already checked that its coefficients are finite
        nodes = eigvalsh_tridiagonal(jacobi.c[:N], jacobi.b[: N - 1], check_finite=False,
                                     lapack_driver="sterf")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenError(f"tridiagonal eigensolve failed for N={N}: {exc}") from exc
    weights = _christoffel_weights(nodes, jacobi)
    return QuadratureRule(nodes=nodes, weights=weights, exactness=2 * N - 1, measure=measure)


def integrate(f, rule: QuadratureRule) -> float | complex:
    """Integral of f against the rule's measure: sum of w_i f(x_i)."""
    vals = np.asarray(f(rule.nodes))
    if not np.all(np.isfinite(vals)):
        bad = int(np.nonzero(~np.isfinite(np.atleast_1d(vals)))[0][0])
        raise ValueError(f"integrand non-finite at node {rule.nodes[bad]!r}")
    total = np.sum(rule.weights * vals)
    return complex(total) if np.iscomplexobj(vals) else float(total)


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _transform_edges(support, breakpoints, sqrt_weight, degree, freq, refine, half=False):
    """Panel edges on the truncated support, panels at most pi/(1 + freq) wide.

    With ``half`` the edges cover [0, hi] only, with the panel width of the
    whole rule, grading toward 0 when 0 is a breakpoint: for a symmetric
    measure the rule on them, with doubled weights, stands for the whole line.
    """
    lo, hi = _truncated_interval(sqrt_weight, support, degree)
    width = min((hi - lo) / max(8, degree), math.pi / (1.0 + freq)) / 2.0**refine
    return _panels.build_edges(
        0.0 if half else lo,
        hi,
        width=width,
        grade_lo=0.0 in breakpoints if half else np.isfinite(support[0]),
        grade_hi=np.isfinite(support[1]),
        interior=breakpoints,
    )


def _transform_nodes(support, breakpoints, sqrt_weight, degree, freq, refine,
                     half=False):
    """Panel rule on ``_transform_edges``; with ``half`` the weights are doubled."""
    edges = _transform_edges(support, breakpoints, sqrt_weight, degree, freq, refine, half)
    xs, ws = _panels.panel_rule(edges)
    return (xs, 2.0 * ws) if half else (xs, ws)


def oscillatory_transform(poly, sqrt_weight, support, x: float, tol: float = 1e-10,
                          *, degree: int = 0, breakpoints=(), extra_phase=None,
                          extra_freq: float = 0.0, max_refine: int = 4) -> complex:
    """(1/sqrt(2 pi)) * integral of e^{i x xi} poly(xi) sqrt_weight(xi) d xi.

    Composite fixed-order Gauss panels of width at most pi/(1 + |x|) resolve
    the Fourier kernel directly; infinite supports are truncated where
    sqrt_weight (times |xi|^degree, for a degree-``degree`` polynomial
    factor) drops below 1e-18 of its peak.  The panel count is doubled until
    two successive refinements agree to ``tol``; failure to converge within
    the budget raises AccuracyError carrying the achieved estimate.

    ``extra_phase`` adds a real phase sigma(xi) inside the kernel and
    ``extra_freq`` should then bound max |sigma'| so panels stay resolved.
    """
    freq = abs(x) + extra_freq
    prev = None
    est = np.inf
    for refine in range(max_refine + 1):
        xs, ws = _transform_nodes(support, breakpoints, sqrt_weight, degree, freq, refine)
        phase = x * xs
        if extra_phase is not None:
            phase = phase + extra_phase(xs)
        val = complex(np.sum(ws * poly(xs) * sqrt_weight(xs) * np.exp(1j * phase)) / _SQRT_2PI)
        if prev is not None:
            est = abs(val - prev)
            if est <= tol:
                return val
        prev = val
    raise AccuracyError(
        f"oscillatory transform did not reach tol={tol:g}; estimate {est:g}",
        estimate=est,
    )
