"""Golub-Welsch quadrature: nodes/weights vs scipy references, tail
weights in relative error, and polynomial exactness; composite panel edges
and their width classes."""

import math

import numpy as np
import pytest
import scipy.special

from favard import _panels
from favard import basis as bas
from favard import recurrence as rec
from favard.quadrature import _transform_edges, _transform_interval, golub_welsch, integrate


def test_gauss_hermite_matches_scipy():
    m = rec.hermite_measure()
    J = rec.stieltjes(m, 12)
    rule = golub_welsch(J, 12)
    nodes, weights = scipy.special.roots_hermite(12)
    # package measure has unit mass: weights scale by 1/sqrt(pi)
    assert np.max(np.abs(np.sort(rule.nodes) - np.sort(nodes))) < 1e-12
    assert np.max(np.abs(rule.weights - weights / np.sqrt(np.pi))) < 1e-13
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13


def test_gauss_legendre_matches_scipy():
    m = rec.legendre_measure()
    J = rec.stieltjes(m, 16)
    rule = golub_welsch(J, 16)
    nodes, weights = scipy.special.roots_legendre(16)
    assert np.max(np.abs(np.sort(rule.nodes) - np.sort(nodes))) < 1e-13
    assert np.max(np.abs(rule.weights - weights / 2.0)) < 1e-14


def test_gauss_laguerre_matches_scipy():
    for alpha in (0.0, 1.0):
        m = rec.laguerre_measure(alpha)
        J = rec.stieltjes(m, 10)
        rule = golub_welsch(J, 10)
        nodes, weights = scipy.special.roots_genlaguerre(10, alpha)
        mass = scipy.special.gamma(alpha + 1.0)
        assert np.max(np.abs(np.sort(rule.nodes) - np.sort(nodes))) < 1e-10
        assert np.max(np.abs(rule.weights - weights / mass)) < 1e-13


def test_weights_positive_and_exactness_degree():
    m = rec.hermite_measure()
    J = rec.stieltjes(m, 20)
    rule = golub_welsch(J, 20)
    assert np.all(rule.weights > 0)


def test_moment_exactness_gaussian_weight():
    # E[xi^(2k)] under exp(-xi^2)/sqrt(pi) is (2k-1)!! / 2^k
    m = rec.hermite_measure()
    J = rec.stieltjes(m, 8)
    rule = golub_welsch(J, 8)
    for k, exact in ((0, 1.0), (1, 0.5), (2, 0.75), (3, 15.0 / 8.0)):
        got = integrate(lambda xi, k=k: xi ** (2 * k), rule)
        assert abs(got - exact) < 1e-13


def test_orthonormal_product_exactness():
    # integrate p_j p_k exactly for j + k <= 2N - 1
    m = rec.legendre_measure()
    J = rec.stieltjes(m, 24)
    N = 12
    rule = golub_welsch(J, N)
    table = rec.eval_poly_table(J, 2 * N - 1, rule.nodes)
    for j in range(N):
        for k in range(N - 1):
            got = np.sum(rule.weights * table[j] * table[k])
            assert abs(got - (1.0 if j == k else 0.0)) < 1e-13


def _normal_range_rel_error(weights, ref):
    # compare only where the reference is a normal double: a subnormal
    # carries too few bits to be compared in relative error
    normal = ref >= np.finfo(float).tiny
    return np.max(np.abs(weights[normal] - ref[normal]) / ref[normal])


def test_tail_weights_relative_accuracy():
    # Gauss weights reach 1e-102 in the Hermite tails at N=128 and 1e-155
    # for Laguerre at N=96; each must be right relative to its own size,
    # since coeffs_fourier_side divides by sqrt(w) at the same nodes.
    for N in (64, 96, 128):
        J = rec.build_jacobi(rec.hermite_coeffs, N)
        rule = golub_welsch(J, N)
        _, weights = scipy.special.roots_hermite(N)
        assert _normal_range_rel_error(rule.weights, weights / np.sqrt(np.pi)) < 1e-10
    N = 96
    J = rec.build_jacobi(lambda n: rec.laguerre_coeffs(0.0, n), N)
    rule = golub_welsch(J, N)
    _, weights = scipy.special.roots_genlaguerre(N, 0.0)
    assert _normal_range_rel_error(rule.weights, weights) < 1e-10


def test_smallest_hermite_weight_matches_mpmath_christoffel():
    mpmath = pytest.importorskip("mpmath")
    N = 96
    rule = golub_welsch(rec.build_jacobi(rec.hermite_coeffs, N), N)
    with mpmath.workdps(40):
        # largest zero of H_96 by Newton from scipy's node, then the
        # Christoffel number 1 / sum_{k<N} p_k(x)^2 of the unit-mass measure
        x = mpmath.mpf(scipy.special.roots_hermite(N)[0][-1])
        for _ in range(8):
            x -= mpmath.hermite(N, x) / (2 * N * mpmath.hermite(N - 1, x))
        p_prev, p, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
        for k in range(N - 1):
            p_prev, p = p, (x * p - mpmath.sqrt(mpmath.mpf(k) / 2) * p_prev) / mpmath.sqrt(
                mpmath.mpf(k + 1) / 2)
            total += p * p
        exact = float(1 / total)
    assert 7e-76 < exact < 8e-76
    assert abs(rule.weights[-1] - exact) < 1e-10 * exact
    assert abs(rule.weights[0] - exact) < 1e-10 * exact


def test_smallest_normal_hermite_weights_to_a_few_ulps():
    # the ten smallest normal weights at N = 4096, near 1e-305, against the
    # Christoffel sum at the rule's own nodes in 200-bit fixed point: exact
    # integer arithmetic on p_k 2^200, b_k = sqrt((k+1)/2) rounded to 2^-200.
    # A weight formed as e^{log w} rounds log w ~ -700 first and was off by
    # up to 7.9e-14 here
    from fractions import Fraction

    N, F = 4096, 200
    rule = golub_welsch(rec.build_jacobi(rec.hermite_coeffs, N), N)
    smallest = np.argsort(np.where(rule.weights > 0.0, rule.weights, np.inf))[:10]
    b = [math.isqrt((k + 1) << (2 * F - 1)) for k in range(N - 1)]
    inv_b = [(1 << 2 * F) // bk for bk in b]
    worst = 0.0
    for i in smallest:
        x = int(Fraction(rule.nodes[i]) * (1 << F))
        p_prev, p = 1 << F, (x * inv_b[0]) >> F
        total = p_prev * p_prev + p * p
        for k in range(1, N - 1):
            p_prev, p = p, ((x * p - b[k - 1] * p_prev) >> F) * inv_b[k] >> F
            total += p * p
        exact = Fraction(1 << 2 * F, total)
        worst = max(worst, abs(float(Fraction(rule.weights[i]) / exact) - 1.0))
    assert 1e-308 < rule.weights[smallest].min() and rule.weights[smallest].max() < 1e-300
    assert worst < 3e-14


def test_large_n_weights_finite_nonnegative_normalized():
    N = 1024
    rule = golub_welsch(rec.build_jacobi(rec.hermite_coeffs, N), N)
    assert np.all(np.isfinite(rule.weights))
    assert np.all(rule.weights >= 0.0)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-13


def _transform_edges_of(family, degree, freq, refine, half):
    meas = bas.make_basis(family, N=8).measure
    return _transform_edges(meas, _transform_interval(meas, degree), degree, freq, refine,
                            half=half)


def test_custom_weight_checks_scan_the_weight_once_per_side(monkeypatch, capsys):
    # the mass, the Stieltjes discretization, the Gram band and every
    # transform's interval are cut from one scan of the weight per side
    # (parent: 10 scans for verify gram, 6 for verify recurrence)
    from favard import cli, expr
    from favard import verify as ver

    compile_function = expr.compile_function
    scans = []

    def counted(text):
        fn = compile_function(text)

        def weight(x):
            if np.shape(x) == _panels.SCAN_RADII.shape and np.array_equal(
                    np.abs(x), _panels.SCAN_RADII):
                scans.append(int(np.sign(x[0])))
            return fn(x)

        return weight

    monkeypatch.setattr(expr, "compile_function", counted)
    basis = bas.make_basis("custom-weight:exp(-x^4)", N=12)
    assert ver.check_gram(basis, 12).passed
    assert ver.check_recurrence(basis, 10).passed
    assert sorted(scans) == [-1, 1]
    for check in ("gram", "recurrence"):
        scans.clear()
        assert cli.main(["verify", check, "--family", "custom-weight:exp(-x^4)"]) == 0
        assert sorted(scans) == [-1, 1]
    capsys.readouterr()


def _scanned_truncation_point(fn, side, degree):
    # the per-call scan the measure's tails replace, kept as the reference
    rs = np.geomspace(1e-2, 1e9, 1200)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.asarray(fn(side * rs), dtype=float)
    assert np.all(np.isfinite(vals))
    logs = np.full(rs.shape, -np.inf)
    pos = vals > 0.0
    logs[pos] = np.log(vals[pos]) + degree * np.log(np.maximum(rs[pos], 1.0))
    above = np.nonzero(logs > np.max(logs) + np.log(1e-18))[0]
    return float(rs[0]) if above.size == 0 else float(rs[above[-1] + 1])


@pytest.mark.parametrize("family", ["hermite", "laguerre:1", "custom-weight:exp(-x^4)",
                                    "conthahn:1,1"])
def test_cut_points_are_the_per_call_scans_bit_for_bit(family):
    meas = bas.make_basis(family, N=8).measure

    def root(xi):
        return np.sqrt(meas.weight(xi))

    def scanned(fn, degree):
        lo, hi = meas.support
        return (lo if np.isfinite(lo) else -_scanned_truncation_point(fn, -1, degree),
                hi if np.isfinite(hi) else _scanned_truncation_point(fn, 1, degree))

    # a custom weight's tails are its mass scan times 1/mass: what the
    # normalized weight gives at the scan radii
    for side, vals in meas.tails().items():
        assert np.array_equal(vals, meas.weight(side * _panels.SCAN_RADII))
    for degree in (0, 11, 63):
        assert rec._truncated_interval(meas.support, meas.tails(), degree) == scanned(
            meas.weight, degree)
        assert _transform_interval(meas, degree) == scanned(root, degree)


@pytest.mark.parametrize("edges", [
    # graded toward +-1, where levels below half an ulp of 1 collapse
    lambda: _panels.build_edges(-1.0, 1.0, 0.1, grade_lo=True, grade_hi=True),
    lambda: _transform_edges_of("jacobi:0.5,1.5", 3, 2.0, 0, half=False),
    # interior breakpoints, graded from both sides
    lambda: _panels.build_edges(-3.0, 7.0, 0.5, interior=(1.0, 2.5)),
    lambda: _transform_edges_of("genhermite:1", 7, 4.0, 1, half=False),
    # half rules: graded at +1 only, and at the breakpoint 0
    lambda: _transform_edges_of("jacobi:1,1", 3, 2.0, 0, half=True),
    lambda: _transform_edges_of("genhermite:1", 7, 4.0, 1, half=True),
    # one panel per segment, graded at both ends
    lambda: _panels.build_edges(0.0, 0.2, 0.3, grade_lo=True, grade_hi=True),
], ids=["pm1", "jacobi", "interior", "genhermite", "jacobi-half", "genhermite-half", "short"])
def test_panel_edges_strictly_increasing(edges):
    # no panel of zero width: a repeated edge would be 32 nodes of weight 0
    e = edges()
    assert np.all(np.diff(e) > 0.0)
    _, w = _panels.panel_rule(e)
    assert np.all(w > 0.0)


def test_width_classes_reproduce_the_panel_rule():
    edges = _panels.build_edges(-1.0, 1.0, 0.1, grade_lo=True, grade_hi=True)
    half, mids, counts = _panels.width_classes(edges)
    assert counts.sum() == edges.size - 1
    assert np.all(np.diff(half) > 0.0)
    # the 18 panels cut from one linspace share a class; a graded panel is
    # alone or with its mirror image, unless it is only a few ulps of 1 wide
    eps = np.finfo(float).eps
    assert counts.max() == 18
    assert np.all((counts <= 2) | (counts == 18) | (half <= 4 * eps))
    # nodes m_q + h t_k and weights h W_k are the panel rule to rounding
    x, w = _panels.panel_rule(edges)
    hq = np.repeat(half, counts)[:, None]
    cx = (mids[:, None] + hq * _panels.GL_NODES).ravel()
    cw = (hq * _panels.GL_WEIGHTS).ravel()
    assert np.max(np.abs(np.sort(cx) - np.sort(x))) <= 4 * eps
    assert abs(cw.sum() - w.sum()) <= 4 * eps
    start = 0
    for n in counts:
        assert np.all(np.diff(mids[start:start + n]) > 0.0)
        start += n


def test_grading_stops_near_a_nonzero_endpoint():
    # at +-1 the innermost panel is the first level at least _GRADE_ULPS
    # ulps of 1 wide, so no Gauss node rounds onto the endpoint and a
    # Chebyshev weight stays finite; at 0 all 42 levels are kept
    edges = _panels.build_edges(-1.0, 1.0, 0.1, grade_lo=True, grade_hi=True)
    floor = _panels._GRADE_ULPS * np.spacing(1.0)
    for width in (edges[1] - edges[0], edges[-1] - edges[-2]):
        assert floor <= width < 4 * floor
    x, w = _panels.panel_rule(edges)
    assert np.all(np.abs(x) < 1.0)
    cheb = np.sum(w / np.sqrt((1.0 - x) * (1.0 + x)))
    assert abs(cheb - np.pi) < 1e-7
    zero = _panels.build_edges(0.0, 1.0, 0.1, grade_lo=True)
    assert zero.size == 11 + _panels._GRADE_LEVELS
    assert zero[1] == 0.1 * _panels._GRADE_RATIO ** _panels._GRADE_LEVELS


ZERO_DIAGONAL = {
    "hermite": (rec.hermite_coeffs, lambda k, mp: mp.sqrt(mp.mpf(k + 1) / 2)),
    "legendre": (lambda n: rec.ultraspherical_coeffs(0.0, n),
                 lambda k, mp: (k + 1) / mp.sqrt(mp.mpf(2 * k + 1) * (2 * k + 3))),
}


@pytest.mark.parametrize("family", sorted(ZERO_DIAGONAL))
@pytest.mark.parametrize("N", [512, 1023, 1024])
def test_smallest_nodes_have_relative_accuracy(family, N):
    # the four smallest positive nodes against 40-digit Newton on the
    # orthonormal recurrence; a solver that squares B or works on the full
    # N x N block loses relative accuracy here (sterf: about 1e-13)
    mpmath = pytest.importorskip("mpmath")
    coeff, mp_b = ZERO_DIAGONAL[family]
    rule = golub_welsch(rec.build_jacobi(coeff, N), N)
    got = rule.nodes[(N + 1) // 2:][:4]
    with mpmath.workdps(40):
        b = [mp_b(k, mpmath) for k in range(N)]

        def p_and_slope(x):
            p_prev, p, d_prev, d = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for k in range(N):
                back = b[k - 1] if k else 0
                p_prev, p, d_prev, d = (p, (x * p - back * p_prev) / b[k],
                                        d, (p + x * d - back * d_prev) / b[k])
            return p, d

        for x0 in got:
            x = mpmath.mpf(x0)
            for _ in range(3):
                p, d = p_and_slope(x)
                x -= p / d
            assert abs(x0 - float(x)) <= 1e-14 * float(x)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 63, 64, 1023])
def test_zero_diagonal_rule_is_mirror_exact(N):
    # nodes and weights are symmetric bit for bit, and odd N has the centre 0.0
    for coeff, _ in ZERO_DIAGONAL.values():
        rule = golub_welsch(rec.build_jacobi(coeff, N), N)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert np.all(np.diff(rule.nodes) > 0.0)
        if N % 2:
            assert rule.nodes[N // 2] == 0.0 and not np.signbit(rule.nodes[N // 2])


@pytest.mark.parametrize("N", [2, 3, 64, 65, 512])
def test_zero_diagonal_rule_matches_full_eigensolve(N):
    # the split route against sterf on the whole block and the Christoffel
    # weights at its nodes: the same rule to rounding (the weights next to
    # +-1 move by about 2e-11 of themselves per ulp of their node at N = 512)
    import scipy.linalg

    from favard.quadrature import _christoffel_sums, _unit_weights
    J = rec.build_jacobi(lambda n: rec.ultraspherical_coeffs(1.5, n), N)
    rule = golub_welsch(J, N)
    nodes = scipy.linalg.eigvalsh_tridiagonal(np.zeros(N), J.b[:N - 1], lapack_driver="sterf")
    weights = _unit_weights(*_christoffel_sums(nodes, J, N)[:2])
    assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
    assert np.max(np.abs(rule.weights / weights - 1.0)) < 1e-10


@pytest.mark.parametrize("family, N", [
    *[(family, N) for family in ("hermite", "legendre", "laguerre:1", "jacobi:0.5,1.5",
                                 "genhermite:1", "conthahn:1,1")
      for N in (1, 2, 3, 63, 64, 512)],
    ("hermite", 4096), ("legendre", 4096)])
def test_gauss_rules_have_unit_nonnegative_weights_without_warnings(family, N):
    # one scaled sweep sums the Christoffel weights at any N: nothing
    # overflows or warns, and the weights are a probability vector
    import warnings

    basis = bas.make_basis(family, N=8)
    basis.ensure(N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = golub_welsch(basis.jacobi, N)
    assert rule.nodes.size == N and np.all(np.diff(rule.nodes) > 0.0)
    assert np.all(rule.weights >= 0.0)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-14
