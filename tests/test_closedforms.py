"""Closed-form operator tests: the h^3 coefficients, order matching, Dunkl forms."""

import random
from fractions import Fraction
from math import factorial

import pytest

from macdunkl import BetaPoly, Ring, operators
from macdunkl.errors import DomainError
from macdunkl.multipoly import partitions_upto
from macdunkl.operators import (
    OperatorMatrix,
    extract_order,
    h_op,
    operator_matrix,
    primitive_matrix,
    window,
)
from macdunkl.rings import binom_ff, qnorm
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
    _combo_literal,
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
    third_order_display,
    third_order_dunkl,
    third_order_raw,
    third_order_slice,
)
from macdunkl.verify.identities import _difference

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
    third_order_display at r = 1 and r = 2."""
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
    m = _combo(2, partitions_upto(2, 2), first_order(2, 1))
    b = BetaPoly.var()
    assert _column(m, (1,)) == {(1,): 1 + b}
    assert _column(m, (2,)) == {(2,): 2 + b}


def test_ord3_dunkl_2_1_on_p1():
    m = _combo(2, partitions_upto(1, 2), third_order_dunkl(2, 1))
    b = BetaPoly.var()
    cube = (1 + b) * (1 + b) * (1 + b)
    assert _column(m, (1,)) == {(1,): cube * Fraction(1, 6)}


def test_h3_explicit_2_on_p1():
    m = _combo(2, partitions_upto(1, 2), h3_explicit(2))
    b = BetaPoly.var()
    assert _column(m, (1,)) == {(1,): (1 + b) * (1 + b)}


def test_third_order_scalar_value():
    # the b^3 scalar of the h^3 coefficient is the h^3 coefficient of the
    # scaled t-binomial; (2,1): beta^3 n^2(n-1)^2/24 with n=2 gives 1/6
    assert scaled_taylor_coeff_closed(2, 1, 3) == BetaPoly.term(Fraction(1, 6), 3)
    basis = partitions_upto(2, 2)
    slice3 = _combo(2, basis, third_order_slice(3, 2, 1)).beta_slice(0)
    assert slice3.entries == {(lam, lam): Fraction(1, 6) for lam in basis}


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
        assert actual == _combo(n, basis, form(n)), (n, k)
    b_form = _combo(n, basis, h2_explicit_b(n))
    assert b_form == operator_matrix(h_op(2, n, RB), basis)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_beta2_h3_both_forms(n):
    basis = partitions_upto(3, n)
    lhs = _combo(n, basis, beta2_h3_lhs(n)).beta_slice(0)
    rhs1 = _combo(n, basis, beta2_h3_rhs_pairs(n)).beta_slice(0)
    rhs2 = _combo(n, basis, beta2_h3_rhs_b(n)).beta_slice(0)
    assert lhs == rhs1
    assert lhs == rhs2


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_orders_match_expansion_small(n, r):
    degree = 3
    basis = partitions_upto(degree, n)
    for k, form in ((1, first_order), (2, second_order), (3, third_order_dunkl)):
        got = extract_order(n, r, k, degree, 4)
        assert got == _combo(n, basis, form(n, r)), (n, r, k)


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2), (4, 2)])
def test_raw_assembly_equals_dunkl_form(n, r):
    degree = 3
    basis = partitions_upto(degree, n)
    assert _combo(n, basis, third_order_raw(n, r)) == _combo(n, basis, third_order_dunkl(n, r))


def test_display_forms_at_n3():
    degree = 3
    basis = partitions_upto(degree, 3)
    assert _combo(3, basis, third_order_display(3, 1)) == extract_order(3, 1, 3, degree, 4)
    assert _combo(3, basis, third_order_display(3, 2)) == extract_order(3, 2, 3, degree, 4)


def test_dn1_h4_sanity_n2():
    m = _combo(2, partitions_upto(1, 2), rank1_fourth_order(2, 1))
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
        _combo(n, basis, second_order(n, r))
        _combo(n, basis, third_order_dunkl(n, r))
        _combo(n, basis, third_order_raw(n, r))
        for j in range(4):
            _combo(n, basis, third_order_slice(j, n, r)).beta_slice(0)

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


# the forms printed at fixed ranks, each with a rank it takes
FIXED_RANK_FORMS = ((third_order_display, 1), (third_order_display, 2), (rank1_fourth_order, 1))


def test_fixed_rank_forms_refuse_other_ranks():
    for n in range(1, 6):
        with pytest.raises(DomainError, match=r"^printed specializations exist for r = 1, 2$"):
            third_order_display(n, 3)
        with pytest.raises(DomainError, match=r"^the h\^4 closed form exists for r = 1$"):
            rank1_fourth_order(n, 2)


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
            _combo(n, basis, first_order(n, r))
            _combo(n, basis, second_order(n, r))
            _combo(n, basis, third_order_dunkl(n, r))
            _combo(n, basis, third_order_raw(n, r))
            for j in range(4):
                _combo(n, basis, third_order_slice(j, n, r)).beta_slice(0)
        for form, r in FIXED_RANK_FORMS:
            _combo(n, basis, form(n, r))
        for form in (
            h1_explicit, h2_explicit_b, h2_explicit_pairs, h3_explicit, beta2_h3_lhs,
            beta2_h3_rhs_b, beta2_h3_rhs_pairs,
        ):
            _combo(n, basis, form(n))
    assert {factors for factors, _, _ in seen} >= {(H1, H1), (H1, H1, H1), (B21, L1)}
    for factors, n, basis in seen:
        fresh = primitive_matrix.__wrapped__(factors[0], n, basis)
        for factor in factors[1:]:
            fresh = fresh @ primitive_matrix.__wrapped__(factor, n, basis)
        assert _product(factors, n, basis) == fresh, factors


def _term_tables():
    """(key, n, table) of every term table in the package on its grid:
    the closed forms at n <= 8, every 1 <= r <= n and every slice j <= 3,
    and both type sides at every 0 <= r <= n and every type id."""
    by_n = (
        h1_explicit, h2_explicit_pairs, h2_explicit_b, h3_explicit, beta2_h3_lhs,
        beta2_h3_rhs_pairs, beta2_h3_rhs_b,
    )
    for n in range(1, 9):
        for form, r in FIXED_RANK_FORMS:
            yield (form.__name__, n, r), n, form(n, r)
        for form in by_n:
            yield (form.__name__, n), n, form(n)
        for r in range(1, n + 1):
            for form in (first_order, second_order, third_order_dunkl, third_order_raw):
                yield (form.__name__, n, r), n, form(n, r)
            for j in range(4):
                yield ("third_order_slice", j, n, r), n, third_order_slice(j, n, r)
        for r in range(n + 1):
            for tid in range(1, 7):
                for terms in (typesums._raw_terms, typesums._closed_terms):
                    yield (terms.__name__, n, r, tid), n, terms(n, r, tid)


def test_every_term_table_is_exact():
    """Each coefficient is an int or a Fraction (a float or a bool would
    pass unnoticed: BetaPoly.term(0.5, 1) == BetaPoly.term(Fraction(1, 2), 1)),
    each b power an int >= 0, and each distinct factor builds through
    primitive_matrix on a small window at the least n it appears at."""
    least_n = {}
    for key, n, table in _term_tables():
        for c, j, factors in table:
            assert type(c) in (int, Fraction), (key, c)
            assert type(j) is int and j >= 0, (key, j)
            for factor in factors:
                least_n.setdefault(factor, n)
    assert {H1, H2, H3, L1, L2, L3, B21, B22, B31, B41, M11} <= set(least_n)
    for factor, n in least_n.items():
        basis = tuple(partitions_upto(2, n))
        assert primitive_matrix(factor, n, basis).basis == basis, factor


# -- the accumulation pass against its literal oracle ---------------------

# factors whose products carry denominators: d_P is 2 for the h^2 and h^3
# slices and 24 for the h^4 slice of rank 1, and 1 for the Dunkl and
# kernel primitives
SLICE2, SLICE3, SLICE4 = ((operators.slice_op, 2, 2),), ((operators.slice_op, 2, 3),), (
    (operators.slice_op, 1, 4),
)
SEEDED_FACTORS = (
    (), (), (H1,), (H2,), (H1, H1), (B21, L1), (M11,), SLICE2, SLICE3, SLICE4,
    (SLICE2[0], H1), (H1, SLICE3[0]),
)


def _seeded_table(seed: int, size: int = 12):
    """A seeded term table: coefficients over the coprime denominators
    1, 2, 3, 5, 7, 11, 13 with either sign, b shifts 0..3, and factors
    drawn from SEEDED_FACTORS, empty products included."""
    rng = random.Random(f"combo:{seed}")
    table = []
    for _ in range(size):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.choice((1, 2, 3, 5, 7, 11, 13)))
        table.append((qnorm(c), rng.randint(0, 3), rng.choice(SEEDED_FACTORS)))
    return table


def _parity_grid():
    """{family: [(n, window, table)]} of every table the registry
    evaluates: the closed forms at n <= 6 and every valid r on
    window(3, n), each type side at (6, 3) and (7, 3) on window(2, n);
    and eight seeded tables on window(3, 4)."""
    grid = {f"seeded_{seed}": [(4, window(3, 4), _seeded_table(seed))] for seed in range(8)}
    for n in range(1, 7):
        basis = window(3, n)
        for r in range(1, n + 1):
            for form in (first_order, second_order, third_order_raw, third_order_dunkl):
                grid.setdefault(form.__name__, []).append((n, basis, form(n, r)))
            for j in range(4):
                grid.setdefault(f"third_order_slice_{j}", []).append(
                    (n, basis, third_order_slice(j, n, r))
                )
        for form, r in FIXED_RANK_FORMS:
            if r <= n:
                grid.setdefault(f"{form.__name__}_r{r}", []).append((n, basis, form(n, r)))
        for form in (
            h1_explicit, h2_explicit_pairs, h2_explicit_b, h3_explicit, beta2_h3_lhs,
            beta2_h3_rhs_pairs, beta2_h3_rhs_b,
        ):
            grid.setdefault(form.__name__, []).append((n, basis, form(n)))
    for n, r in ((6, 3), (7, 3)):
        for tid in range(1, 7):
            for terms in (typesums._raw_terms, typesums._closed_terms):
                grid.setdefault(f"{terms.__name__}_{tid}", []).append(
                    (n, window(2, n), terms(n, r, tid))
                )
    return grid


PARITY_GRID = _parity_grid()


def _assert_same_entries(got, want):
    """Entry by entry, the same b-polynomials with the same coefficient
    types.  The literal adds through BetaPoly.__add__, which leaves an
    integral sum of fractions as Fraction(k, 1); the accumulation pass
    normalizes every coefficient, so its type is that of qnorm of the
    literal's."""
    assert (got.n, got.ring, got.basis) == (want.n, want.ring, want.basis)
    assert got.entries.keys() == want.entries.keys()
    for key, entry in got.entries.items():
        coeffs = want.entries[key].coeffs
        assert type(entry) is BetaPoly and entry.coeffs == coeffs, key
        types = {e: type(qnorm(c)) for e, c in coeffs.items()}
        assert {e: type(c) for e, c in entry.coeffs.items()} == types, key


@pytest.mark.parametrize("family", sorted(PARITY_GRID))
def test_accumulation_matches_the_literal_sum(family):
    nonzero = False
    for n, basis, table in PARITY_GRID[family]:
        got = _combo(n, basis, table)
        _assert_same_entries(got, _combo_literal(n, basis, table))
        nonzero = nonzero or not got.is_zero()
    assert nonzero, family


def test_parity_sees_one_changed_coefficient():
    n, basis, table = 4, window(3, 4), third_order_dunkl(4, 2)
    want = _combo_literal(n, basis, table)
    _assert_same_entries(_combo(n, basis, table), want)
    for i, (c, j, factors) in enumerate(table):
        changed = table[:i] + [(c + 1, j, factors)] + table[i + 1:]
        with pytest.raises(AssertionError):
            _assert_same_entries(_combo(n, basis, changed), want)


def test_accumulation_builds_no_intermediate_matrix(monkeypatch):
    """On cached products, _combo neither adds nor scales a matrix and
    does no BetaPoly arithmetic: each entry is built once from its sums."""
    n, basis = 4, window(3, 4)
    tables = [third_order_dunkl(4, 2), third_order_raw(4, 2), h3_explicit(4)]
    want = [_combo_literal(n, basis, table) for table in tables]
    calls = []

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(*args):
            calls.append(f"{cls.__name__}.{name}")
            return original(*args)

        monkeypatch.setattr(cls, name, counted)

    for name in ("__add__", "scale"):
        spy(OperatorMatrix, name)
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        spy(BetaPoly, name)
    got = [_combo(n, basis, table) for table in tables]
    assert calls == []
    monkeypatch.undo()
    for g, w in zip(got, want):
        _assert_same_entries(g, w)


def test_an_inexact_coefficient_is_refused():
    # the two float terms cancel to 0.0: a sum that dropped zeros without
    # normalizing each coefficient first would pass them unnoticed
    terms = [(0.5, 0, (L1,)), (-0.5, 0, (L1,))]
    for combo in (_combo, _combo_literal):
        with pytest.raises(TypeError, match="^coefficients must be int or Fraction, got float 0.5$"):
            combo(3, window(2, 3), terms)
    # the literal skips a zero term before it looks at its type
    with pytest.raises(TypeError, match="^coefficients must be int or Fraction, got float 0.0$"):
        _combo(3, window(2, 3), [(0.0, 0, (L1,))])


def test_seeded_tables_mix_what_they_claim():
    """The seeded tables hold negative coefficients over coprime
    denominators, identity terms with b shifts j > 0, and products whose
    own denominators d_P exceed 1."""
    terms = [t for seed in range(8) for t in _seeded_table(seed)]
    assert any(c < 0 for c, _, _ in terms)
    assert {5, 7, 11, 13} <= {Fraction(c).denominator for c, _, _ in terms}
    assert any(not f and j > 0 for _, j, f in terms)
    basis = window(3, 4)
    assert {closedforms._denominator(f, 4, basis) for _, _, f in terms} >= {1, 2, 24}


def _vanishing_tables():
    """(n, window, table) of tables that cancel exactly: seeded tables
    with their negations interleaved, and the residual tables of two
    passing checks, raw minus Dunkl at h^3 and D_2(4, 2) minus its form."""
    basis = window(3, 4)
    for seed in range(4):
        table = _seeded_table(seed)
        cancelling = table + [(-c, j, f) for c, j, f in table]
        random.Random(seed).shuffle(cancelling)
        yield 4, basis, cancelling
    yield 4, basis, _difference(third_order_raw(4, 2), third_order_dunkl(4, 2))
    yield 4, basis, _difference([(1, 0, SLICE2)], second_order(4, 2))


@pytest.mark.parametrize("case", range(6))
def test_a_table_that_cancels_builds_no_scalar(monkeypatch, case):
    """A table that cancels exactly gives the zero matrix, as the literal
    does, and _combo constructs no BetaPoly and no Fraction on the way:
    the spies count every BetaPoly built by its constructor, every
    Fraction the evaluator's modules make, and every BetaPoly add or
    product."""
    n, basis, table = list(_vanishing_tables())[case]
    assert _combo_literal(n, basis, table).is_zero()
    _combo(n, basis, table)  # warm the products
    built = []
    init = BetaPoly.__init__

    def counted_init(self, *args):
        built.append("BetaPoly")
        init(self, *args)

    class CountedFraction(Fraction):
        def __new__(cls, *args):
            built.append("Fraction")
            return Fraction(*args)

    monkeypatch.setattr(BetaPoly, "__init__", counted_init)
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(BetaPoly, name, lambda *args, name=name: built.append(name))
    monkeypatch.setattr(closedforms, "Fraction", CountedFraction)
    monkeypatch.setattr(operators, "Fraction", CountedFraction)
    assert _combo(n, basis, table).is_zero()
    assert built == []
    # the spies see the scalars of a table that does not vanish
    assert not _combo(n, basis, table + [(1, 1, ())]).is_zero()
    assert "BetaPoly" in built
