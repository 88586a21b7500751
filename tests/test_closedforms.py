"""Closed-form operator tests: safe coefficients, order matching, Dunkl forms."""

from fractions import Fraction

import pytest

from macdunkl import BetaPoly, MultiPoly, Ring, monomial_symmetric
from macdunkl.errors import DomainError
from macdunkl.multipoly import partitions_upto
from macdunkl.operators import extract_order, h_op, operator_matrix
from macdunkl.rings import binom_ff
from macdunkl.tbinom import TPoly
from macdunkl.verify.closedforms import (
    CoeffForm,
    X_FORMS,
    _binom_npoly,
    _gcd,
    build_closed_form,
    coeff_x,
    lin,
    safe_coeff,
    third_order_scalar,
)

RB = Ring.uni("b")


def test_coeff_x_regular_values():
    # binom(n-3, r-2)(n-2r)/(r-1) away from the singular line
    assert coeff_x(6, 3) == Fraction(0)          # n = 2r
    assert coeff_x(7, 3) == Fraction(4 * 1, 2)   # binom(4,1)*1/2
    assert coeff_x(5, 2) == Fraction(1, 1)       # binom(2,0)*1/1


def test_coeff_x_rank1_rewriting():
    # the rewritten form binom(n-3, r-1)(n-2r)/(n-r-1) gives 1 at r=1
    for n in range(2, 8):
        assert coeff_x(n, 1) == 1


def test_coeff_x_top_rank():
    # fixed r, reduced as a rational function of n: at r = n = 2 the
    # binomial factor is the constant polynomial 1 and n-2r = -2
    assert coeff_x(2, 2) == -2


def test_coeff_x_stays_exact():
    for n in range(2, 9):
        for r in range(1, n + 1):
            assert type(coeff_x(n, r)) is Fraction


def test_gcd_of_polynomials_in_n():
    # (n-1)(n-2) and (n-2)(n+3) share n-2; the gcd is monic
    assert _gcd(TPoly((2, -3, 1)), TPoly((-6, 1, 1))) == TPoly((-2, 1))
    # 2(n-2)(n+1) and 3(n-2)
    assert _gcd(TPoly((-4, -2, 2)), TPoly((-6, 3))) == TPoly((-2, 1))
    # coprime
    assert _gcd(TPoly((1, 1)), TPoly((1, 0, 1))) == TPoly.one()
    g = _gcd(TPoly((2, -3, 1)), TPoly((-6, 1, 1)))
    assert TPoly((2, -3, 1)).exact_divide(g) == TPoly((-1, 1))


def test_binom_npoly_is_the_falling_factorial():
    for a in range(-3, 2):
        for k in range(-1, 5):
            p = _binom_npoly(a, k)
            for n in range(0, 9):
                value = Fraction(0)
                for c in reversed(p.coeffs):
                    value = value * n + c
                assert value == binom_ff(n + a, k), (a, k, n)


def test_safe_coeff_singular_everywhere():
    form = CoeffForm(1, num=[lin(0, 0, 1)], den=[lin(0, 1, -1)])
    with pytest.raises(DomainError):
        safe_coeff((form,), 5, 1, "test coefficient")


def test_build_unknown_name():
    with pytest.raises(DomainError):
        build_closed_form("nope", 3, 1)


def test_ord1_2_1_is_l1_plus_beta():
    n = 2
    op = build_closed_form("ord1", 2, 1)
    p1 = monomial_symmetric((1,), n, RB)
    assert op(p1) == p1 + p1.scale(BetaPoly.var())
    m2 = monomial_symmetric((2,), n, RB)
    assert op(m2) == m2.scale(2 + BetaPoly.var())


def test_ord3_dunkl_2_1_on_p1():
    op = build_closed_form("ord3_dunkl", 2, 1)
    p1 = monomial_symmetric((1,), 2, RB)
    b = BetaPoly.var()
    cube = (1 + b) * (1 + b) * (1 + b)
    assert op(p1) == p1.scale(cube.scale_div(6))


def test_h3_explicit_2_on_p1():
    op = build_closed_form("h3_explicit", 2, 1)
    p1 = monomial_symmetric((1,), 2, RB)
    b = BetaPoly.var()
    assert op(p1) == p1.scale((1 + b) * (1 + b))


def test_third_order_scalar_value():
    # (2,1): beta^3 n^2(n-1)^2/24 with n=2 gives 1/6
    assert third_order_scalar(2, 1) == Fraction(1, 6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_explicit_forms_match_small(n):
    basis = partitions_upto(3, n)
    for k, name in ((1, "h1_explicit"), (2, "h2_explicit"), (3, "h3_explicit")):
        actual = operator_matrix(h_op(k, n, RB), basis)
        closed = operator_matrix(build_closed_form(name, n, 1), basis)
        assert actual == closed, (n, k)
    b_form = operator_matrix(build_closed_form("h2_explicit_b", n, 1), basis)
    assert b_form == operator_matrix(h_op(2, n, RB), basis)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_beta2_h3_both_forms(n):
    basis = partitions_upto(3, n)
    lhs = operator_matrix(build_closed_form("beta2_h3", n, 1), basis)
    rhs1 = operator_matrix(build_closed_form("beta2_h3_rhs1", n, 1), basis)
    rhs2 = operator_matrix(build_closed_form("beta2_h3_rhs2", n, 1), basis)
    assert lhs == rhs1
    assert lhs == rhs2


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_orders_match_expansion_small(n, r):
    degree = 3
    basis = partitions_upto(degree, n)
    for k, name in ((1, "ord1"), (2, "ord2"), (3, "ord3_dunkl")):
        got = extract_order(n, r, k, degree, 4)
        closed = operator_matrix(build_closed_form(name, n, r), basis)
        assert got == closed, (n, r, k)


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2), (4, 2)])
def test_raw_assembly_equals_dunkl_form(n, r):
    degree = 3
    basis = partitions_upto(degree, n)
    raw = operator_matrix(build_closed_form("ord3_raw", n, r), basis)
    dunkl = operator_matrix(build_closed_form("ord3_dunkl", n, r), basis)
    assert raw == dunkl


def test_display_forms_at_n3():
    degree = 3
    basis = partitions_upto(degree, 3)
    d1 = operator_matrix(build_closed_form("ord3_display_r1", 3, 1), basis)
    assert d1 == extract_order(3, 1, 3, degree, 4)
    d2 = operator_matrix(build_closed_form("ord3_display_r2", 3, 2), basis)
    assert d2 == extract_order(3, 2, 3, degree, 4)


def test_dn1_h4_sanity_n2():
    op = build_closed_form("dn1_h4", 2, 1)
    p1 = monomial_symmetric((1,), 2, RB)
    b = BetaPoly.var()
    quad = (1 + b) * (1 + b) * (1 + b) * (1 + b)
    assert op(p1) == p1.scale(quad.scale_div(24))
    assert extract_order(2, 1, 4, 1, 4).entries[((1,), (1,))] == quad.scale_div(24)
