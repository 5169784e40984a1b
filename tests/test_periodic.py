"""Periodic systems from the bilateral Charlier measure: lattice sums,
orthonormality on the circle, exact differential recurrence."""

import math

import numpy as np
import pytest

from favard import cli
from favard import periodic as per


def direct_lattice_sum(basis, n, x):
    # independent assembly: i^n sum_k sqrt(sigma_k) p_n(k) e^{ikx} with the
    # bilateral masses recomputed from scratch (a^|k|/|k|!, total 2e^a - 1)
    a = basis.measure.name.split(":")[1]
    a = float(a)
    ks = basis.measure.points
    logm = np.array([abs(k) * math.log(a) - math.lgamma(abs(k) + 1.0) for k in ks])
    masses = np.exp(logm) / (2.0 * math.exp(a) - 1.0)
    table = per._poly_table(basis, n)
    return (1j ** n) * np.sum(np.sqrt(masses) * table[n] * np.exp(1j * ks * x))


def test_phi0_frozen_value():
    basis = per.charlier_basis(0.5, N=16)
    got = per.periodic_phi(basis, 0, 0.0)
    # frozen from the direct lattice-sum oracle
    assert abs(got - 2.3466885836778277) < 1e-14
    assert abs(got.imag) < 1e-15


def test_periodic_phi_matches_direct_sum():
    basis = per.charlier_basis(0.5, N=16)
    for n, x in ((0, 0.0), (2, 1.1), (5, -2.4), (9, 0.7)):
        direct = direct_lattice_sum(basis, n, x)
        got = per.periodic_phi(basis, n, x)
        assert abs(got - direct) < 1e-13, (n, x)


def test_lattice_grows_until_tail_invariant():
    # truncation tail sum_{|k|>K} sigma_k p_n(k)^2 must sit below 1e-20,
    # which pushes K well past the naive a^K/K! heuristic
    for a, N, K in ((0.5, 8, 27), (0.5, 16, 35), (0.5, 32, 47), (1.0, 16, 39)):
        basis = per.charlier_basis(a, N=N)
        assert basis.K == K, (a, N)
        assert per._tail_beyond(a, basis.jacobi, basis.K, N - 1) < 1e-20


def test_explicit_small_K_rejected():
    with pytest.raises(ValueError):
        per.charlier_basis(0.5, N=16, K=12)


def test_two_pi_periodicity_and_realness():
    basis = per.charlier_basis(0.5, N=12)
    x = np.linspace(-3.0, 3.0, 11)
    for n in (0, 3, 8):
        v = per.periodic_phi(basis, n, x)
        w = per.periodic_phi(basis, n, x + 2.0 * np.pi)
        assert np.max(np.abs(v - w)) < 1e-12
        # i^n phase makes the functions real on the real line
        assert np.max(np.abs(v.imag)) < 1e-12


def test_gram_identity_trapezoid():
    basis = per.charlier_basis(0.5, N=8)
    G = per.periodic_gram(basis, 8, M=4096)
    assert np.max(np.abs(G - np.eye(8))) < 1e-12


def test_gram_rejects_coarse_trapezoid():
    basis = per.charlier_basis(0.5, N=8)
    with pytest.raises(ValueError):
        per.periodic_gram(basis, 8, M=basis.K)  # < 4K breaks exactness


def test_differential_recurrence_exact():
    basis = per.charlier_basis(0.5, N=16)
    assert per.periodic_diff_check(basis, 4) < 1e-13
    assert per.periodic_diff_check(basis, 14) < 1e-12


def test_normalization_l2_on_circle():
    # orthonormal in L2(dx/2pi): the mean of |phi_n|^2 over a period is 1
    basis = per.charlier_basis(1.0, N=6)
    M = 4 * basis.K + 8
    x = -np.pi + 2.0 * np.pi * np.arange(M) / M
    for n in (0, 4):
        v = per.periodic_phi(basis, n, x)
        assert abs(np.mean(np.abs(v) ** 2) - 1.0) < 1e-12


def test_charlier_parameter_validation():
    with pytest.raises(ValueError):
        per.charlier_basis(0.0, N=8)
    with pytest.raises(ValueError):
        per.charlier_basis(-1.0, N=8)


# The cutoffs the lattice-by-lattice search (each K_0 + 4j built and tested
# in turn) chose.  Where the factorial-decay lattice K_0 holds fewer than the
# N + 1 points that N coefficients need (0.1 at N = 32, N = 64 for 0.5, 1
# and 2) the candidates start at the first K_0 + 4j that holds them; at
# N = 2 K_0 + 1 (0.1 at N = 27, K_0 = 13) that is K_0 + 4, and the cutoff is
# the one the search from K_0 chose
PARENT_K = {
    0.1: {8: 21, 14: 25, 27: 33, 32: 37},
    0.5: {8: 27, 14: 31, 32: 47, 64: 71},
    1.0: {8: 31, 14: 39, 32: 55, 64: 79},
    2.0: {8: 37, 14: 45, 32: 65, 64: 89},
    5.0: {8: 51, 14: 59, 32: 83, 64: 115},
}


@pytest.mark.parametrize("a", sorted(PARENT_K))
def test_cutoff_search_builds_at_most_twice(monkeypatch, a):
    # one recurrence on the generous lattice tests every candidate cutoff;
    # the basis is then built once at the chosen K: the same K as the
    # lattice-by-lattice search, with the tail invariant on its own recurrence
    lattices = []
    stieltjes = per.rec.stieltjes

    def counted(measure, N, M=None):
        lattices.append(int(measure.support[1]))
        return stieltjes(measure, N, M)

    monkeypatch.setattr(per.rec, "stieltjes", counted)
    for N, K in PARENT_K[a].items():
        lattices.clear()
        basis = per.charlier_basis(a, N=N)
        assert basis.K == K, (a, N)
        assert len(lattices) <= 2 and lattices[-1] == K, (a, N, lattices)
        assert per._tail_beyond(a, basis.jacobi, K, N - 1) < 1e-20


@pytest.mark.parametrize("a,N", [(0.1, 32), (0.1, 37), (0.5, 64), (1.0, 64), (2.0, 64)])
def test_cutoff_search_starts_at_a_lattice_with_room(a, N):
    # the factorial-decay lattice K_0 holds fewer than N + 1 points here;
    # the search starts at the first one that holds them, and the basis is
    # orthonormal and satisfies its recurrence
    basis = per.charlier_basis(a, N=N)
    assert 2 * basis.K + 1 >= N + 1
    gram = per.periodic_gram(basis, N, M=4 * basis.K)
    assert np.max(np.abs(gram - np.eye(N))) < 1e-10
    assert per.periodic_diff_check(basis, N - 1) < 1e-12


@pytest.mark.parametrize("a,N,K", [(0.1, 40, None), (0.1, 48, None), (0.1, 64, None),
                                   (0.2, 64, None), (0.1, 64, 80)])
def test_charlier_refuses_degrees_it_cannot_resolve(a, N, K):
    # the recurrence's polynomials are orthonormal on their lattice only to
    # 7e-10 (0.1, 40), 2e-7 (0.1, 48; 0.2, 64) and 1e-2 (0.1, 64, at any K)
    with pytest.raises(ValueError, match="orthonormal on their"):
        per.charlier_basis(a, N=N, K=K)


def test_periodic_eval_builds_a_small_parameter_lattice(capsys):
    assert cli.main(["periodic", "eval", "--a", "0.1", "--n", "0:30"]) == 0
    assert capsys.readouterr().out.count("\n") > 31
    assert cli.main(["periodic", "eval", "--a", "0.1", "--n", "0:62"]) == 2
    assert "orthonormal on their" in capsys.readouterr().err


def test_tails_equal_the_single_cutoff_tail_bitwise():
    basis = per.charlier_basis(0.5, N=14)
    cuts = [19, 23, 27, 31, 35]
    tails = per._tails(0.5, basis.jacobi, cuts, 13)
    assert list(tails) == [per._tail_beyond(0.5, basis.jacobi, K, 13) for K in cuts]
    assert tails[-1] < 1e-20 <= tails[0]


def test_cutoff_search_steps_on_when_its_own_recurrence_fails(monkeypatch):
    # a cutoff the generous lattice passes is tested again on the recurrence
    # built at it; when that fails the search steps on by 4, building each
    # lattice: here the generous test passes K_0 = 19 itself, and the
    # search still ends at 27
    tails = per._tails
    monkeypatch.setattr(per, "_tails", lambda a, jacobi, cuts, nmax:
                        np.zeros(len(cuts)) if len(cuts) > 1
                        else tails(a, jacobi, cuts, nmax))
    assert per.charlier_basis(0.5, N=8).K == 27
