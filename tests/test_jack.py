"""Triangular eigenfunction solver tests."""

from fractions import Fraction

import pytest

from macdunkl import DegenerateSpectrumError, dominates
from macdunkl.operators import window
from macdunkl.verify import jack
from macdunkl.verify.jack import jack_solve


def test_weight2_block_at_beta_one():
    got = dict(jack_solve(2, 2, 1))
    assert got[(1, 1)] == {(1, 1): 1}
    assert got[(2,)] == {(2,): 1, (1, 1): 1}


def test_weight2_top_at_beta_two():
    got = dict(jack_solve(2, 2, 2))
    assert got[(2,)] == {(2,): 1, (1, 1): Fraction(4, 3)}


def test_general_beta_coefficient():
    # the subdominant coordinate of the weight-2 vector is 2b/(1+b)
    for b in (Fraction(1, 2), Fraction(3), Fraction(5, 7)):
        got = dict(jack_solve(2, 2, b))
        assert got[(2,)][(1, 1)] == 2 * b / (1 + b)


def test_dominance_triangular_and_joint_eigen():
    # post-checks inside jack_solve enforce H_2/H_3 joint eigenvectors
    for n in (2, 3):
        for lam, coords in jack_solve(n, 4, 1):
            for mu in coords:
                assert dominates(lam, mu)
            assert coords[lam] == 1


def test_degenerate_beta_rejected():
    # at n=2, b=-1 the weight-2 eigenvalues 4+2b and 2 collide
    with pytest.raises(DegenerateSpectrumError) as exc:
        jack_solve(2, 2, Fraction(-1))
    assert exc.value.partitions == ((2,), (1, 1))
    # at b = 0 the squared-part sums (3,3) and (4,1,1) collide at weight 6
    with pytest.raises(DegenerateSpectrumError):
        jack_solve(3, 6, Fraction(0))


def test_schur_specialization_weight3():
    # at b = 1 the solver returns Schur polynomials; s_(2,1) at n=3 is
    # m_(2,1) + 2 m_(1,1,1)
    got = dict(jack_solve(3, 3, 1))
    assert got[(2, 1)] == {(2, 1): 1, (1, 1, 1): 2}


def test_blocks_come_from_one_window(monkeypatch):
    # H_2 and H_3 are read once, on the window the explicit-form checks
    # verify; each weight block is a slice of it
    asked = []
    matrix = jack.primitive_matrix

    def spy(factor, n, basis):
        asked.append((factor[1:], basis))
        return matrix(factor, n, basis)

    monkeypatch.setattr(jack, "primitive_matrix", spy)
    for n, degree in ((1, 3), (3, 4), (4, 5)):
        del asked[:]
        table = jack_solve(n, degree, Fraction(7, 5))
        assert asked == [((2,), window(degree, n)), ((3,), window(degree, n))]
        assert [lam for lam, _ in table] == list(window(degree, n))

