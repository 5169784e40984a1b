"""Composite Gauss-Legendre panels with geometric grading at marked points.

Shared backend for measure discretization and oscillatory integrals.  A
fixed-order Gauss rule is applied on each panel; panels shrink geometrically
toward support endpoints and interior breakpoints so integrable algebraic
singularities of a weight do not degrade convergence.
"""

import numpy as np

from .expr import EvalError

__all__ = ["GL_ORDER", "GL_NODES", "GL_WEIGHTS", "SCAN_RADII", "build_edges", "panel_rule",
           "scan", "truncation_point", "width_classes"]

GL_ORDER = 32
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)

# The radii at which a weight's tail is read to truncate an infinite side:
# 1200 of them, spaced geometrically from 1e-2 to 1e9.
SCAN_RADII = np.geomspace(1e-2, 1e9, 1200)
_CUT = 1e-18  # the share of a weight's scanned maximum below which its tail is cut

# Geometric grading: 42 levels of ratio 1/4 put the innermost edge at
# 4^-42 ~ 5e-26 of the graded width from the endpoint, enough for exponents
# down to -1/2.  At a nonzero endpoint e grading stops at the last level at
# least _GRADE_ULPS ulps of e away from it, about 731: a narrower panel's
# 32 nodes round onto a handful of values, and its outermost node, at
# (1 - t_max) / 2 of its width from e, would round onto e itself.
_GRADE_LEVELS = 42
_GRADE_RATIO = 0.25
_GRADE_ULPS = 2.0 / (1.0 - GL_NODES[-1])


def _graded(a: float, b: float, toward_a: bool) -> np.ndarray:
    """Strictly increasing edges subdividing [a, b] geometrically toward one end."""
    d = (b - a) * _GRADE_RATIO ** np.arange(_GRADE_LEVELS, 0, -1)
    d = d[d >= _GRADE_ULPS * np.spacing(abs(a if toward_a else b))]
    if toward_a:
        return np.concatenate(([a], a + d, [b]))
    return np.concatenate(([a], b - d[::-1], [b]))


def _segment_edges(a, b, width, grade_a, grade_b):
    n = max(1, int(np.ceil((b - a) / width)))
    if grade_a and grade_b and n == 1:
        n = 2
    base = np.linspace(a, b, n + 1)
    first = _graded(base[0], base[1], toward_a=True)[:-1] if grade_a else base[:1]
    last = _graded(base[n - 1], base[n], toward_a=False)[1:] if grade_b else base[n:]
    return np.concatenate((first, base[1:n], last))


def build_edges(lo, hi, width, grade_lo=False, grade_hi=False, interior=()):
    """Strictly increasing panel edges covering [lo, hi], panel width <= ``width``.

    ``interior`` points split the domain and are graded from both sides;
    ``grade_lo``/``grade_hi`` request grading toward the outer endpoints.
    """
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        raise ValueError(f"invalid panel interval [{lo}, {hi}]")
    pts = [p for p in sorted(set(interior)) if lo < p < hi]
    bounds = [lo] + pts + [hi]
    out = []
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        ga = grade_lo if i == 0 else True
        gb = grade_hi if i == len(bounds) - 2 else True
        seg = _segment_edges(a, b, width, ga, gb)
        out.append(seg if i == 0 else seg[1:])
    return np.concatenate(out)


def panel_rule(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite fixed-order rule on ``edges``."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * GL_NODES).ravel()
    w = (half[:, None] * GL_WEIGHTS[None, :]).ravel()
    return x, w


def width_classes(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The panels of ``edges`` grouped by width: ``(half, mids, counts)``.

    Class c holds ``counts[c]`` panels of half-width ``half[c]``; their
    midpoints m_q are the next ``counts[c]`` entries of ``mids``, in
    increasing order, and their nodes are m_q + half[c] t_k with the
    GL_ORDER Gauss offsets t_k.  Panels whose half-widths differ by at most
    four ulps of their larger edge magnitude, as those cut from one
    linspace do, form one class with their mean half-width; that moves the
    rule only at rounding level.  A graded panel is a class of its own, or
    shares one with its mirror image (or, when it is only a few ulps wide,
    with other such panels).  Classes come in increasing width.
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    scale = np.maximum(np.abs(edges[:-1]), np.abs(edges[1:]))
    order = np.argsort(half, kind="stable")
    tol = 4.0 * np.finfo(float).eps * np.maximum(scale[order][:-1], scale[order][1:])
    starts = np.concatenate(([0], np.flatnonzero(np.diff(half[order]) > tol) + 1))
    counts = np.diff(np.append(starts, half.size))
    label = np.empty(half.size, dtype=int)
    label[order] = np.repeat(np.arange(starts.size), counts)
    # a stable sort by class keeps each class's midpoints in increasing order
    mids = mid[np.argsort(label, kind="stable")]
    return np.add.reduceat(half[order], starts) / counts, mids, counts


def scan(fn, side: int) -> np.ndarray:
    """fn at side * SCAN_RADII, the samples ``truncation_point`` cuts from.

    ``side`` is +1 or -1.  The samples depend on the weight alone, not on
    the degree, so a measure keeps them (``MeasureSpec.tails``).  Where fn is
    not finite (cosh overflowing in exp(-x^2) cosh(x)) its tail is 0 if the
    finite sample before is below _CUT of the finite maximum; any other
    non-finite sample raises an expression's EvalError, or stays for
    ``truncation_point`` to refuse.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            vals, error = np.asarray(fn(side * SCAN_RADII), dtype=float), None
        except EvalError as err:
            vals, error = err.values, err
    bad = ~np.isfinite(vals)
    if bad.any():
        before = np.maximum.accumulate(np.where(bad, -1, np.arange(bad.size)))[bad]
        if before[0] >= 0 and np.all(vals[before] <= _CUT * vals[~bad].max()):
            return np.where(bad, 0.0, vals)
        if error is not None:
            raise error
    return vals


def truncation_point(vals: np.ndarray, degree: int = 0) -> float:
    """Radius beyond which a weight times ``max(1,|ξ|)**degree`` is negligible.

    ``vals`` is the weight on one side at the radii r of SCAN_RADII
    (``scan``).  The returned radius R satisfies
    w(r) r^degree <= _CUT * (scanned maximum) for every scanned r >= R.
    Raises ValueError when a sample is not finite, or when no such radius
    exists within 1e9 (the integrand does not decay).
    """
    if not np.all(np.isfinite(vals)):
        raise ValueError("weight evaluation produced non-finite values")
    # Points where the weight has underflowed to zero are negligible no
    # matter the polynomial factor; flooring them instead would make the
    # r^degree term dominate the scan for large degree.
    rs = SCAN_RADII
    logs = np.full(rs.shape, -np.inf)
    pos = vals > 0.0
    logs[pos] = np.log(vals[pos]) + degree * np.log(np.maximum(rs[pos], 1.0))
    top = np.max(logs)
    above = np.nonzero(logs > top + np.log(_CUT))[0]
    if above.size == 0:
        return float(rs[0])
    last = above[-1]
    if last >= rs.size - 1:
        raise ValueError("weight does not decay fast enough to truncate")
    return float(rs[last + 1])
