"""Closed-form operator tests: the h^3 coefficients, order matching, Dunkl forms."""

from fractions import Fraction
from math import factorial

import pytest

from macdunkl import BetaPoly, Ring, operators
from macdunkl.multipoly import partitions_upto
from macdunkl.operators import OperatorMatrix, extract_order, h_op, operator_matrix, primitive_matrix
from macdunkl.rings import binom_ff
from macdunkl.tbinom import TPoly, scaled_taylor_coeff_closed
from macdunkl.verify import closedforms, typesums, verify_identity
from macdunkl.verify.closedforms import (
    B21,
    B22,
    B31,
    B41,
    H1,
    H2,
    H3,
    L1,
    L2,
    L3,
    M11,
    _combo,
    _product,
    beta2_h3_lhs,
    beta2_h3_rhs_b,
    beta2_h3_rhs_pairs,
    coeff_bh2,
    coeff_h1sq,
    coeff_x,
    first_order,
    h1_explicit,
    h2_explicit_b,
    h2_explicit_pairs,
    h3_explicit,
    rank1_fourth_order,
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


def _binom_npoly(a_shift, k):
    """binom_ff(n + a_shift, k) as a polynomial in n; zero when k < 0."""
    if k < 0:
        return TPoly()
    out = TPoly((Fraction(1, factorial(k)),))
    for t in range(k):
        out = out * TPoly((a_shift - t, 1))
    return out


# The coefficients as printed: prod binom_ff(n + a, r + c) over binoms
# (a, c), times the numerator factors over the denominator factors, each
# factor a map r -> ascending coefficients in n.  The X coefficient's
# denominator r - 1 is identically zero at r = 1, where its rewritten form
# binom(n-3, r-1)(n-2r)/(n-r-1) is printed instead.
PRINTED = {
    "x": ([(-3, -2)], [lambda r: [-2 * r, 1]], [lambda r: [r - 1]]),
    "x at r = 1": ([(-3, -1)], [lambda r: [-2 * r, 1]], [lambda r: [-r - 1, 1]]),
    "h1sq": (
        [(-3, -1)],
        [lambda r: [8 * r * r - 6 * r, -9 * r * r + 6 * r, 3 * r * r - 3 * r + 1]],
        [lambda r: [-r, 1], lambda r: [-r - 1, 1]],
    ),
    "bh2": ([(-2, -1)], [lambda r: [6 * r, -7 * r, 3 * r - 1]], [lambda r: [-2, 1]]),
}


def _unreduced_value(form, n, r):
    """The form at (n, r) from its unreduced polynomials in n: common
    factors n - n0 are divided out one at a time, with no gcd and no cache;
    None when the denominator still vanishes at n0."""
    binoms, nums, dens = form
    num = TPoly((1,))
    for a, b in binoms:
        num = num * _binom_npoly(a, r + b)
    for fac in nums:
        num = num * TPoly(fac(r))
    den = TPoly.one()
    for fac in dens:
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
    for n in range(2, 13):
        for r in range(1, n + 2):
            x_form = PRINTED["x at r = 1" if r == 1 else "x"]
            for name, form, coeff in (
                ("x", x_form, coeff_x),
                ("h1sq", PRINTED["h1sq"], coeff_h1sq),
                ("bh2", PRINTED["bh2"], coeff_bh2),
            ):
                expected = _unreduced_value(form, n, r)
                assert expected is not None, (name, n, r)
                assert coeff(n, r) == expected, (name, n, r)
    # as printed, the X coefficient is singular at r = 1 for every n
    assert all(_unreduced_value(PRINTED["x"], n, 1) is None for n in range(2, 13))


def test_coefficients_at_the_printed_ranks():
    """(X, H_2, H_1^2) at r = 1 and r = 2 are the coefficients printed in
    third_order_display_r1 and third_order_display_r2."""
    for n in range(1, 31):
        assert (coeff_x(n, 1), coeff_bh2(n, 1), coeff_h1sq(n, 1)) == (1, 2 * n - 3, 1), n
        assert (coeff_x(n, 2), coeff_bh2(n, 2), coeff_h1sq(n, 2)) == (
            n - 4, 5 * n * n - 14 * n + 12, 7 * n - 10
        ), n


def _forward_difference(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


@pytest.mark.parametrize("r", range(1, 10))
def test_coefficient_degrees_in_n(r):
    """At rank r the X and H_1^2 coefficients have degree r - 1 in n and
    the H_2 one degree r: over n = 0..44 the next forward difference
    vanishes and the one before it does not."""
    for coeff, degree in ((coeff_x, r - 1), (coeff_h1sq, r - 1), (coeff_bh2, r)):
        values = [coeff(n, r) for n in range(45)]
        assert not any(_forward_difference(values, degree + 1)), (coeff.__name__, r)
        assert any(_forward_difference(values, degree)), (coeff.__name__, r)


@pytest.mark.parametrize("n", range(6, 13))
def test_third_order_forms_beyond_the_suite_grid(n):
    """The h^3 forms at degree 3 against the Macdonald expansion for every
    rank, past the order3 suite's n <= 5; this reaches the H_1^2
    coefficient's printed-singular points n = r and n = r + 1."""
    names = ["ord3_matches", "ord3_raw_eq_dunkl"] + [f"ord5_beta{j}" for j in range(4)]
    for r in range(1, n + 1):
        for name in names:
            verdict = verify_identity(name, n=n, r=r, degree=3)
            assert verdict.status == "pass", (name, n, r, verdict.residual)


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
    cold evaluation builds each distinct factor's matrix once (one
    ``primitive_matrix`` cache miss each), a repeat builds none and
    multiplies no matrices."""
    products = []
    matmul = OperatorMatrix.__matmul__

    def counting_products(a, b):
        products.append((a, b))
        return matmul(a, b)

    def built():
        return primitive_matrix.cache_info().misses

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
    assert built() == len(factors)
    assert products
    del products[:]
    evaluate()
    assert built() == len(factors)
    assert products == []


def test_type_closed_sides_share_their_primitives(monkeypatch):
    """The six type closed sides at one (n, window) build each factor once:
    B_{2,1}, B_{3,1} and L_1 serve types 3-5 (and L_1 all six).  The six
    raw sides then build each support sum (raw_op, tid) once and share
    L_1.  A second pass of the six type checks builds no primitive and
    forms no kernel column."""
    n, r, degree = 6, 3, 2
    basis = tuple(partitions_upto(degree, n))
    calls = []
    original = operators._kernel_column

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(operators, "_kernel_column", counted)
    primitive_matrix.cache_clear()
    _product.cache_clear()

    def evaluate(terms):
        return [_combo(n, basis, terms(n, r, tid)).beta_slice(0) for tid in range(1, 7)]

    def factors(terms):
        return {f for tid in range(1, 7) for c, _, fs in terms(n, r, tid) if c for f in fs}

    first = evaluate(typesums._closed_terms)
    closed = factors(typesums._closed_terms)
    assert closed == {B41, B21, B31, L1, typesums.U2, typesums.U6}
    assert primitive_matrix.cache_info().misses == len(closed)
    assert {1, 2, 3} <= set(calls)
    del calls[:]
    raw = evaluate(typesums._raw_terms)
    supports = {(typesums.raw_op, tid) for tid in range(1, 7)}
    assert factors(typesums._raw_terms) == supports | {L1}
    assert primitive_matrix.cache_info().misses == len(closed) + len(supports)
    assert set(calls) == {1}
    assert raw == first
    del calls[:]
    for tid in range(1, 7):
        assert verify_identity(f"type{tid}_matches", n=n, r=r, degree=degree).passed
    assert evaluate(typesums._closed_terms) == first
    assert primitive_matrix.cache_info().misses == len(closed) + len(supports)
    assert calls == []


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
