"""Closed-form operator tests: safe coefficients, order matching, Dunkl forms."""

from fractions import Fraction

import pytest

from macdunkl import BetaPoly, Ring
from macdunkl.errors import DomainError
from macdunkl.multipoly import partitions_upto
from macdunkl.operators import OperatorMatrix, extract_order, h_op, operator_matrix, primitive_matrix
from macdunkl.rings import binom_ff
from macdunkl.tbinom import TPoly, scaled_taylor_coeff_closed
from macdunkl.verify import closedforms
from macdunkl.verify.closedforms import (
    B21,
    B22,
    B31,
    H1,
    H2,
    H3,
    L1,
    L2,
    L3,
    M11,
    BH2_FORMS,
    H1SQ_FORMS,
    CoeffForm,
    X_FORMS,
    _binom_npoly,
    _gcd,
    _product,
    _reduced,
    beta2_h3_lhs,
    beta2_h3_rhs_b,
    beta2_h3_rhs_pairs,
    coeff_x,
    first_order,
    h1_explicit,
    h2_explicit_b,
    h2_explicit_pairs,
    h3_explicit,
    lin,
    rank1_fourth_order,
    safe_coeff,
    second_order,
    third_order_display_r1,
    third_order_display_r2,
    third_order_dunkl,
    third_order_raw,
    third_order_slice,
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


ALL_FORMS = X_FORMS + H1SQ_FORMS + BH2_FORMS


def _unreduced_value(form, n, r):
    """The form at (n, r) from its unreduced polynomials in n: common
    factors n - n0 are divided out one at a time, with no gcd and no cache;
    None when the denominator still vanishes at n0."""
    const = form.const(r) if callable(form.const) else form.const
    num = TPoly((const,))
    for a, b in form.binoms:
        num = num * _binom_npoly(a, r + b)
    for fac in form.num:
        num = num * TPoly(fac(r))
    den = TPoly.one()
    for fac in form.den:
        den = den * TPoly(fac(r))

    def at(p):
        return sum(Fraction(c) * n**i for i, c in enumerate(p.coeffs))

    if not den:
        return None
    while num and not at(num) and not at(den):
        num = num.exact_divide(TPoly((-n, 1)))
        den = den.exact_divide(TPoly((-n, 1)))
    if not at(den):
        return None
    return at(num) / at(den)


def test_coefficients_match_the_unreduced_oracle():
    singular = set()
    for i, form in enumerate(ALL_FORMS):
        for n in range(2, 13):
            for r in range(0, n + 2):
                expected = _unreduced_value(form, n, r)
                assert form.evaluate(n, r) == expected, (i, n, r)
                if expected is None:
                    singular.add((i, n, r))
    # r = 1 leaves the first X form's denominator r - 1 identically zero;
    # at r = 0 the H_2 form's numerator is zero and its n - 2 vanishes at n = 2
    assert singular == {(0, n, 1) for n in range(2, 13)} | {(3, 2, 0)}
    assert _reduced(X_FORMS[0], 1) is None
    assert _reduced(BH2_FORMS[0], 0) is not None
    # at r = n = 2 the reduced first X form is regular: binom_ff(n-3, 0) = 1
    assert X_FORMS[0].evaluate(2, 2) == -2


def test_each_coefficient_is_reduced_once_per_rank(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return _gcd(a, b)

    monkeypatch.setattr(closedforms, "_gcd", counting)
    _reduced.cache_clear()
    for form in ALL_FORMS:
        for r in range(0, 14):
            before = len(calls)
            for n in range(max(2, r - 1), 13):
                form.evaluate(n, r)
            reduced = _reduced(form, r)
            assert len(calls) - before == (1 if reduced and reduced[0] else 0), r
    assert calls
    before = len(calls)
    for form in ALL_FORMS:
        for n in range(2, 13):
            for r in range(0, n + 2):
                form.evaluate(n, r)
    assert len(calls) == before


def _column(mat, lam):
    """The image of m_lam as {mu: coordinate}."""
    return {mu: v for (mu, col), v in mat.entries.items() if col == lam}


def test_ord1_2_1_is_l1_plus_beta():
    m = first_order(2, 1, partitions_upto(2, 2))
    b = BetaPoly.var()
    assert _column(m, (1,)) == {(1,): 1 + b}
    assert _column(m, (2,)) == {(2,): 2 + b}


def test_ord3_dunkl_2_1_on_p1():
    m = third_order_dunkl(2, 1, partitions_upto(1, 2))
    b = BetaPoly.var()
    cube = (1 + b) * (1 + b) * (1 + b)
    assert _column(m, (1,)) == {(1,): cube * Fraction(1, 6)}


def test_h3_explicit_2_on_p1():
    m = h3_explicit(2, partitions_upto(1, 2))
    b = BetaPoly.var()
    assert _column(m, (1,)) == {(1,): (1 + b) * (1 + b)}


def test_third_order_scalar_value():
    # the b^3 scalar of the h^3 coefficient is the h^3 coefficient of the
    # scaled t-binomial; (2,1): beta^3 n^2(n-1)^2/24 with n=2 gives 1/6
    assert scaled_taylor_coeff_closed(2, 1, 3) == BetaPoly.term(Fraction(1, 6), 3)
    basis = partitions_upto(2, 2)
    assert third_order_slice(3, 2, 1, basis).entries == {(lam, lam): Fraction(1, 6) for lam in basis}


def test_printed_scalars_are_scaled_tbinom_coefficients():
    # the b^2 scalar of the h^2 form and the b^3 scalar of the h^3 form, as
    # printed, are the h^2 and h^3 coefficients of t^(r(r-1)/2) [n r]
    for n in range(1, 15):
        for r in range(1, n + 1):
            h2 = Fraction(r, 24) * binom_ff(n, r) * ((3 * r + 1) * n * n + (1 - 7 * r) * n + 2 * r)
            h3 = Fraction(binom_ff(n, r) * r * r * n * (n - 1), 48) * ((r + 1) * n + 1 - 3 * r)
            assert scaled_taylor_coeff_closed(n, r, 2) == BetaPoly.term(h2, 2), (n, r)
            assert scaled_taylor_coeff_closed(n, r, 3) == BetaPoly.term(h3, 3), (n, r)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_h_explicit_forms_match_small(n):
    basis = partitions_upto(3, n)
    for k, form in ((1, h1_explicit), (2, h2_explicit_pairs), (3, h3_explicit)):
        actual = operator_matrix(h_op(k, n, RB), basis)
        assert actual == form(n, basis), (n, k)
    b_form = h2_explicit_b(n, basis)
    assert b_form == operator_matrix(h_op(2, n, RB), basis)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_beta2_h3_both_forms(n):
    basis = partitions_upto(3, n)
    lhs = beta2_h3_lhs(n, basis)
    rhs1 = beta2_h3_rhs_pairs(n, basis)
    rhs2 = beta2_h3_rhs_b(n, basis)
    assert lhs == rhs1
    assert lhs == rhs2


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_orders_match_expansion_small(n, r):
    degree = 3
    basis = partitions_upto(degree, n)
    for k, form in ((1, first_order), (2, second_order), (3, third_order_dunkl)):
        got = extract_order(n, r, k, degree, 4)
        assert got == form(n, r, basis), (n, r, k)


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2), (4, 2)])
def test_raw_assembly_equals_dunkl_form(n, r):
    degree = 3
    basis = partitions_upto(degree, n)
    assert third_order_raw(n, r, basis) == third_order_dunkl(n, r, basis)


def test_display_forms_at_n3():
    degree = 3
    basis = partitions_upto(degree, 3)
    assert third_order_display_r1(3, basis) == extract_order(3, 1, 3, degree, 4)
    assert third_order_display_r2(3, basis) == extract_order(3, 2, 3, degree, 4)


def test_dn1_h4_sanity_n2():
    m = rank1_fourth_order(2, partitions_upto(1, 2))
    b = BetaPoly.var()
    quad = (1 + b) * (1 + b) * (1 + b) * (1 + b)
    assert _column(m, (1,)) == {(1,): quad * Fraction(1, 24)}
    assert extract_order(2, 1, 4, 1, 4).entries[((1,), (1,))] == quad * Fraction(1, 24)



@pytest.mark.parametrize(
    "n,r,factors",
    [
        # x = 0 at n = 2r and binom_ff(1, -1) = 0: five factors are left
        (4, 2, {H1, H2, L1, L2, B21}),
        (5, 3, {H1, H2, H3, L1, L2, L3, B21, B22, B31, M11}),
    ],
    ids=("4-2", "5-3"),
)
def test_each_primitive_is_built_once_across_forms(monkeypatch, n, r, factors):
    """The h^2 and h^3 forms share their primitives and their products: a
    cold evaluation builds each distinct factor's matrix once, a repeat
    builds none and multiplies no matrices."""
    built = []
    products = []
    from_operator = OperatorMatrix.from_operator
    matmul = OperatorMatrix.__matmul__

    def counting(op, basis, n, ring):
        built.append(op)
        return from_operator(op, basis, n, ring)

    def counting_products(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(OperatorMatrix, "from_operator", staticmethod(counting))
    monkeypatch.setattr(OperatorMatrix, "__matmul__", counting_products)
    primitive_matrix.cache_clear()
    _product.cache_clear()
    basis = partitions_upto(3, n)

    def evaluate():
        second_order(n, r, basis)
        third_order_dunkl(n, r, basis)
        third_order_raw(n, r, basis)
        for j in range(4):
            third_order_slice(j, n, r, basis)

    evaluate()
    assert len(built) == len(factors)
    assert products
    del products[:]
    evaluate()
    assert len(built) == len(factors)
    assert products == []


def test_cached_products_equal_fresh_builds(monkeypatch):
    """Callers share the cached products: after every closed form has been
    evaluated on the windows of n <= 5, each product seen still equals one
    built afresh from fresh primitive matrices."""
    seen = set()

    def recording(factors, n, basis):
        seen.add((factors, n, basis))
        return _product(factors, n, basis)

    monkeypatch.setattr(closedforms, "_product", recording)
    for n in range(2, 6):
        basis = tuple(partitions_upto(3, n))
        for r in range(1, n + 1):
            first_order(n, r, basis)
            second_order(n, r, basis)
            third_order_dunkl(n, r, basis)
            third_order_raw(n, r, basis)
            for j in range(4):
                third_order_slice(j, n, r, basis)
        for form in (
            third_order_display_r1, third_order_display_r2, h1_explicit, h2_explicit_b,
            h2_explicit_pairs, h3_explicit, beta2_h3_lhs, beta2_h3_rhs_b,
            beta2_h3_rhs_pairs, rank1_fourth_order,
        ):
            form(n, basis)
    assert {factors for factors, _, _ in seen} >= {(H1, H1), (H1, H1, H1), (B21, L1)}
    for factors, n, basis in seen:
        fresh = primitive_matrix.__wrapped__(factors[0], n, basis)
        for factor in factors[1:]:
            fresh = fresh @ primitive_matrix.__wrapped__(factor, n, basis)
        assert _product(factors, n, basis) == fresh, factors
