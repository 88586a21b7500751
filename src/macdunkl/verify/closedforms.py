"""Closed forms of the h-expansion coefficients, as term tables.

Each closed form is a function of (n, r), or of n alone, that returns
its terms [(c, j, factors)]: a rational c, a power j of b and a product
of primitive operators.  The forms of the slices D_k(n, r) all take
(n, r); those printed at one rank or two (``third_order_display``,
``rank1_fourth_order``) refuse any other.  A form takes no window and
builds no matrix; a check evaluates the table on its m-basis window
with ``_combo``, the one evaluator of every term table in the package:
the type sums' tables in ``typesums`` too, whose images of a polynomial
are read off the columns of the same matrices.

Three coefficients of the h^3 Dunkl form are printed as binomials times
fractions whose denominators, (r-1), (n-2) and (n-r)(n-r-1), vanish
inside the range.  At every integer r each of them is a polynomial in n:
with b(k) = binom_ff(n-3, k), absorption b(k) = b(k-1)(n-2-k)/k divides
the printed denominator out and leaves a sum of at most three binomials
b(k), so the coefficient is exact at every (n, r), singular points
included, and its degree in n is read off the top binomial (r-1 for the
H_3 and H_1^2 coefficients, r for the H_2 one).  The tests check these
sums against the printed fractions and against the printed rank-1 and
rank-2 specializations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from ..errors import DomainError
from ..multipoly import Ring
from ..operators import (
    OperatorMatrix,
    _from_integer_cells,
    b_op,
    h_op,
    l_op,
    m11_op,
    pair_ratio_op,
    primitive_matrix,
    reflection_square_op,
)
from ..rings import BetaPoly, binom_ff, qnorm
from ..tbinom import scaled_taylor_coeff_closed

RB = Ring.uni("b")


# -- the h^3 coefficients printed over vanishing denominators -------------


def coeff_x(n: int, r: int) -> Fraction:
    """binom(n-3, r-2)(n-2r)/(r-1), the coefficient of H_3/6,
    as b(r-1) - b(r-2)."""
    return Fraction(binom_ff(n - 3, r - 1) - binom_ff(n - 3, r - 2))


def coeff_h1sq(n: int, r: int) -> Fraction:
    """binom(n-3, r-1)((3r^2-3r+1)n^2 + (6r-9r^2)n + 8r^2-6r)/((n-r)(n-r-1)),
    the coefficient of b H_1^2/12, as
    3r(r-1) b(r-3) + (6r^2-6r-1) b(r-2) + (3r^2-3r+1) b(r-1)."""
    return Fraction(
        3 * r * (r - 1) * binom_ff(n - 3, r - 3)
        + (6 * r * r - 6 * r - 1) * binom_ff(n - 3, r - 2)
        + (3 * r * r - 3 * r + 1) * binom_ff(n - 3, r - 1)
    )


def coeff_bh2(n: int, r: int) -> Fraction:
    """binom(n-2, r-1)((3r-1)n^2 - 7rn + 6r)/(n-2), the coefficient of
    b H_2/12, as (3r^2+r+1) b(r-2) + (6r^2-3) b(r-1) + r(3r-1) b(r)."""
    return Fraction(
        (3 * r * r + r + 1) * binom_ff(n - 3, r - 2)
        + (6 * r * r - 3) * binom_ff(n - 3, r - 1)
        + r * (3 * r - 1) * binom_ff(n - 3, r)
    )


# -- term tables and their evaluation ------------------------------------
#
# A closed form is a polynomial in primitive operators: a list of terms
# (rational, b power, factors), where the factors are primitive operators
# composed right to left and the empty product is the identity.  A factor
# is named by its factory and arguments, e.g. (b_op, 3, 1) for B_{3,1} or
# (slice_op, r, k) for the slice D_k(n, r) itself;
# operators.primitive_matrix builds its matrix over b-polynomials once per
# (factor, n, window) and keeps it for the process, so a primitive's build
# is charged to the first check that needs it.  _combo evaluates a table
# as a matrix on an m-basis window; a check on a b-free form takes the b^0
# slice of that matrix itself.  Composition is the matrix product; _product
# keeps each product once per (factors, n, window), shared like the
# primitives, so a repeated check multiplies no matrices.  Beside each
# product _denominator keeps one int, the lcm d_P of its coefficients'
# denominators; no integer copy of a matrix is kept.  _combo takes D, the
# lcm of c's denominator times d_P over the terms, and adds the integer
# c D p / q for each coefficient p/q of each cached product's entries
# into one table {(mu, lam): {b power: int}}; each nonzero sum becomes a
# rational over D, and each entry's b-polynomial is built once, with no
# intermediate matrix per term.  A check is one table that must vanish
# (the checked side a term of it, or the form's terms negated), so a
# passing check builds no scalar at all.  The product is exact
# because the window holds every partition of each weight it touches and
# every primitive keeps the weight (the matrix builder refuses a window
# or an operator that breaks either).

L1, L2, L3, L4 = (l_op, 1), (l_op, 2), (l_op, 3), (l_op, 4)
H1, H2, H3 = (h_op, 1), (h_op, 2), (h_op, 3)
B21, B22, B23, B31, B32, B41 = (
    (b_op, 2, 1), (b_op, 2, 2), (b_op, 2, 3), (b_op, 3, 1), (b_op, 3, 2), (b_op, 4, 1)
)
M11 = (m11_op,)
PAIRS = (pair_ratio_op,)
REFL2 = (reflection_square_op,)


def _combo(n: int, basis, terms) -> OperatorMatrix:
    """Matrix over b-polynomials of sum c * b^j * (product of factors) over
    the terms (c, j, factors), accumulated in integers over one common
    denominator (see above), so a table that vanishes builds no scalar.
    A coefficient that is not an int or a Fraction, 0.0 included, is
    refused (TypeError)."""
    basis = tuple(basis)
    kept = []
    denom = 1
    for c, j, factors in terms:
        c = qnorm(c)
        if c:
            kept.append((c, j, factors))
            denom = lcm(denom, c.denominator * _denominator(factors, n, basis))
    table = {}
    for c, j, factors in kept:
        m = c.numerator * (denom // c.denominator)
        if not factors:
            for lam in basis:
                cell = table.setdefault((lam, lam), {})
                cell[j] = cell.get(j, 0) + m
            continue
        for key, v in _product(factors, n, basis).entries.items():
            cell = table.setdefault(key, {})
            for e, a in v.coeffs.items():
                e += j
                a = a * m if type(a) is int else a.numerator * (m // a.denominator)
                cell[e] = cell.get(e, 0) + a
    return _from_integer_cells(n, RB, basis, table, denom)


def _combo_literal(n: int, basis, terms) -> OperatorMatrix:
    """Oracle for ``_combo``: each term scaled as a whole matrix by the
    one-term BetaPoly c * b^j and added to the running sum."""
    basis = tuple(basis)
    out = OperatorMatrix(n, RB, basis, {})
    for c, j, factors in terms:
        if not c:
            continue
        scalar = BetaPoly.term(c, j)
        if not factors:
            out = out + OperatorMatrix(n, RB, basis, {(lam, lam): scalar for lam in basis})
            continue
        out = out + _product(factors, n, basis).scale(scalar)
    return out


@cache
def _product(factors, n: int, basis) -> OperatorMatrix:
    """Matrix of the primitives composed right to left, built once per
    (factors, n, basis) on the cached product of all but the last factor;
    callers must not mutate it."""
    last = primitive_matrix(factors[-1], n, basis)
    if len(factors) == 1:
        return last
    return _product(factors[:-1], n, basis) @ last


@cache
def _denominator(factors, n: int, basis) -> int:
    """The lcm of the denominators of the coefficients of the entries of
    ``_product``, 1 for the empty product: the one int kept per product
    beside its matrix."""
    if not factors:
        return 1
    entries = _product(factors, n, basis).entries.values()
    return lcm(*{a.denominator for v in entries for a in v.coeffs.values()})


def first_order(n: int, r: int):
    """h^1 coefficient: binom_ff(n-1,r-1) L_1 plus the scalar part.

    The scalar is the h^1 coefficient of the scaled t-binomial,
    (r/2) binom_ff(n,r)(n-1) b; with (n-r) in place of (n-1) the form would
    miss the prefactor's contribution and fail at r = n.
    """
    return [
        (Fraction(binom_ff(n - 1, r - 1)), 0, (L1,)),
        (scaled_taylor_coeff_closed(n, r, 1).coeff(1), 1, ()),
    ]


def second_order(n: int, r: int):
    """h^2 coefficient in Dunkl form; the H_1^2 term vanishes at r = 1.
    The scalar is the h^2 coefficient of the scaled t-binomial."""
    return [
        (Fraction(binom_ff(n - 2, r - 1), 2), 0, (H2,)),
        (Fraction(binom_ff(n - 2, r - 2), 2), 0, (H1, H1)),
        (Fraction(r * (n - 1) * binom_ff(n - 1, r - 1), 2), 1, (H1,)),
        (scaled_taylor_coeff_closed(n, r, 2).coeff(2), 2, ()),
    ]


def third_order_slice(j: int, n: int, r: int):
    """The b^j coefficient of the h^3 coefficient, all terms b-free;
    the b^3 slice is the h^3 coefficient of the scaled t-binomial."""
    if j == 3:
        return [(scaled_taylor_coeff_closed(n, r, 3).coeff(3), 0, ())]
    x = coeff_x(n, r)
    if j == 0:
        return [
            (x / 6, 0, (L3,)),
            (Fraction(binom_ff(n - 3, r - 2), 2), 0, (L2, L1)),
            (Fraction(binom_ff(n - 3, r - 3), 6), 0, (L1, L1, L1)),
        ]
    if j == 1:
        return [
            (x / 2, 0, (B22,)),
            (Fraction(r * (r - 1) * binom_ff(n, r), 4), 0, (L2,)),
            (Fraction(binom_ff(n - 3, r - 2)), 0, (B21, L1)),
            (Fraction(binom_ff(n - 3, r - 3) * n * (n - 1), 2), 0, (M11,)),
        ]
    if j == 2:
        return [
            (x, 0, (B31,)),
            (Fraction(((r - 1) * n + r) * binom_ff(n - 2, r - 1), 2), 0, (B21,)),
            (
                Fraction(binom_ff(n - 1, r - 1) * n * (r - 1), 24) * ((3 * r - 2) * n - r),
                0,
                (L1,),
            ),
        ]
    raise DomainError("slice index must be 0..3")


def third_order_raw(n: int, r: int):
    """h^3 coefficient assembled degreewise in b from its four slices."""
    return [
        (c, j, factors) for j in range(4) for c, _, factors in third_order_slice(j, n, r)
    ]


def third_order_dunkl(n: int, r: int):
    """h^3 coefficient as a polynomial in the Dunkl power sums H_k."""
    x = coeff_x(n, r)
    scalar2 = Fraction(r, 24) * binom_ff(n - 1, r - 1) * (
        (3 * r + 1) * n * n + (1 - 7 * r) * n + 2 * r
    )
    return [
        (x / 6, 0, (H3,)),
        (Fraction(binom_ff(n - 3, r - 2), 2), 0, (H2, H1)),
        (coeff_bh2(n, r) / 12, 1, (H2,)),
        (Fraction(binom_ff(n - 3, r - 3), 6), 0, (H1, H1, H1)),
        (coeff_h1sq(n, r) / 12, 1, (H1, H1)),
        (scalar2, 2, (H1,)),
        (scaled_taylor_coeff_closed(n, r, 3).coeff(3), 3, ()),
    ]


def third_order_display(n: int, r: int):
    """The printed rank-1 or rank-2 specialization of the h^3 Dunkl form;
    no other rank is printed."""
    if r == 1:
        return [
            (Fraction(1, 6), 0, (H3,)),
            (Fraction(2 * n - 3, 12), 1, (H2,)),
            (Fraction(1, 12), 1, (H1, H1)),
            (Fraction((n - 1) * (2 * n - 1), 12), 2, (H1,)),
            (Fraction(n * n * (n - 1) * (n - 1), 24), 3, ()),
        ]
    if r != 2:
        raise DomainError("printed specializations exist for r = 1, 2")
    return [
        (Fraction(n - 4, 6), 0, (H3,)),
        (Fraction(1, 2), 0, (H2, H1)),
        (Fraction(5 * n * n - 14 * n + 12, 12), 1, (H2,)),
        (Fraction(7 * n - 10, 12), 1, (H1, H1)),
        (Fraction((n - 1) * (7 * n * n - 13 * n + 4), 12), 2, (L1,)),
        (Fraction(n * n * (n - 1) * (n - 1) * (3 * n - 5), 24), 3, ()),
    ]


def h1_explicit(n: int):
    """H_1 = L_1."""
    return [(Fraction(1), 0, (L1,))]


def h2_explicit_pairs(n: int):
    """H_2 as L_2 + b * sum_{i<j} (x_i+x_j)/(x_i-x_j)(x_i d_i - x_j d_j)."""
    return [
        (Fraction(1), 0, (L2,)),
        (Fraction(1), 1, (PAIRS,)),
    ]


def h2_explicit_b(n: int):
    """H_2 as L_2 + 2b B_{2,1} - b(n-1) L_1."""
    return [
        (Fraction(1), 0, (L2,)),
        (Fraction(2), 1, (B21,)),
        (Fraction(-(n - 1)), 1, (L1,)),
    ]


def h3_explicit(n: int):
    """H_3 = L_3 + b(3B_{2,2} - (n-1)L_2 - m_{1,1})
           + b^2(2(3-n)B_{2,1} + 6B_{3,1} - (n-1)L_1)."""
    return [
        (Fraction(1), 0, (L3,)),
        (Fraction(3), 1, (B22,)),
        (Fraction(-(n - 1)), 1, (L2,)),
        (Fraction(-1), 1, (M11,)),
        (Fraction(2 * (3 - n)), 2, (B21,)),
        (Fraction(6), 2, (B31,)),
        (Fraction(-(n - 1)), 2, (L1,)),
    ]


def beta2_h3_lhs(n: int):
    """The double reflection sum, b-free."""
    return [(Fraction(1), 0, (REFL2,))]


def beta2_h3_rhs_pairs(n: int):
    """(3-n) * pair-ratio sum + 6 B_{3,1} - (n-1)(n-2) L_1, b-free."""
    return [
        (Fraction(3 - n), 0, (PAIRS,)),
        (Fraction(6), 0, (B31,)),
        (Fraction(-(n - 1) * (n - 2)), 0, (L1,)),
    ]


def beta2_h3_rhs_b(n: int):
    """2(3-n) B_{2,1} + 6 B_{3,1} - (n-1) L_1, b-free."""
    return [
        (Fraction(2 * (3 - n)), 0, (B21,)),
        (Fraction(6), 0, (B31,)),
        (Fraction(-(n - 1)), 0, (L1,)),
    ]


def rank1_fourth_order(n: int, r: int):
    """h^4 coefficient of the rank-1 operator: kernel-operator part plus
    the closed scalar part; no other rank has a closed h^4 form."""
    if r != 1:
        raise DomainError("the h^4 closed form exists for r = 1")
    return [
        (Fraction(1, 24), 0, (L4,)),
        (Fraction(1, 6), 1, (B23,)),
        (Fraction(1, 4), 2, (B22,)),
        (Fraction(1, 2), 2, (B32,)),
        (Fraction(1, 6), 3, (B21,)),
        (Fraction(1), 3, (B31,)),
        (Fraction(1), 3, (B41,)),
        (Fraction(scaled_taylor_coeff_closed(n, 1, 4).coeff(4)), 4, ()),
    ]
