"""Closed-form operators for the h-expansion coefficients.

Several closed-form coefficients are printed as binomials times rational
functions whose denominators (r-1, n-2, (n-r)(n-r-1), ...) can vanish
inside the validity range.  Each such coefficient is evaluated, for the
fixed integer r at hand, as an exact rational function of n: binomials
with lower index depending on r become falling-factorial polynomials in n
(identically zero when the lower index is negative), the fraction is
reduced by a polynomial gcd, and only then is n substituted.  Where the
printed denominator does not involve n (the (n-2r)/(r-1) coefficient), an
equivalent rewritten form with an n-dependent denominator is tried next.
Evaluation fails only if every equivalent form stays singular.

Coefficient sanity at the singular parameters (r = 1, r = n, n = 2) was
desk-checked against direct expansions of the rank-1 and top-rank
operators, which are plain exponentials.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..errors import DomainError
from ..multipoly import MultiPoly, Ring
from ..operators import (
    LinearOperator,
    b_op,
    h_op,
    l_op,
    m11_op,
    pair_ratio_op,
    reflection_square_op,
)
from ..rings import BetaPoly, binom_ff
from ..tbinom import TPoly, scaled_taylor_coeff_closed

RB = Ring.uni("b")


# -- polynomials in n over Q, as TPoly values ---------------------------


def _gcd(a: TPoly, b: TPoly) -> TPoly:
    """Monic greatest common divisor of two polynomials, a nonzero."""
    while b:
        a, b = b, a.divmod(b)[1]
    return TPoly([Fraction(c) / a.coeffs[-1] for c in a.coeffs])


def _value(a: TPoly, n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a.coeffs):
        acc = acc * n + c
    return acc


def _binom_npoly(a_shift: int, k: int) -> TPoly:
    """binom_ff(n + a_shift, k) as a polynomial in n; zero when k < 0."""
    if k < 0:
        return TPoly()
    out = TPoly((Fraction(1, factorial(k)),))
    for t in range(k):
        out = out * TPoly((a_shift - t, 1))
    return out


class CoeffForm:
    """const * prod binom_ff(n+a, r+b) * prod num_i(n; r) / prod den_j(n; r),
    where each polynomial factor is given as a function r -> ascending
    n-coefficients."""

    def __init__(self, const, binoms=(), num=(), den=()):
        self.const = const
        self.binoms = tuple(binoms)
        self.num = tuple(num)
        self.den = tuple(den)

    def evaluate(self, n: int, r: int):
        """Exact value, or None when the reduced denominator is singular."""
        cval = self.const(r) if callable(self.const) else self.const
        num = TPoly((cval,))
        for a, b in self.binoms:
            num = num * _binom_npoly(a, r + b)
        for fac in self.num:
            num = num * TPoly(fac(r))
        den = TPoly.one()
        for fac in self.den:
            den = den * TPoly(fac(r))
        if not den:
            return None
        if num:
            g = _gcd(num, den)
            if g.degree() > 0:
                num = num.exact_divide(g)
                den = den.exact_divide(g)
        dval = _value(den, n)
        if not dval:
            return None
        return _value(num, n) / dval


def lin(cn=0, cr=0, c0=0):
    """The factor cn*n + cr*r + c0 as an n-polynomial builder."""
    return lambda r: [cr * r + c0, cn]


def safe_coeff(forms, n: int, r: int, name: str = "coefficient") -> Fraction:
    """Evaluate the first applicable equivalent form."""
    for form in forms:
        val = form.evaluate(n, r)
        if val is not None:
            return val
    raise DomainError(f"{name} is singular at (n, r) = ({n}, {r}) in every known form")


# The coefficient binom_ff(n-3, r-2)(n-2r)/(r-1) and its rewriting with an
# n-dependent denominator, binom_ff(n-3, r-1)(n-2r)/(n-r-1).
X_FORMS = (
    CoeffForm(1, binoms=[(-3, -2)], num=[lin(1, -2, 0)], den=[lin(0, 1, -1)]),
    CoeffForm(1, binoms=[(-3, -1)], num=[lin(1, -2, 0)], den=[lin(1, -1, -1)]),
)

# binom_ff(n-3, r-1) * ((3r^2-3r+1)n^2 + (-9r^2+6r)n + (8r^2-6r)) / ((n-r)(n-r-1))
H1SQ_FORMS = (
    CoeffForm(
        1,
        binoms=[(-3, -1)],
        num=[lambda r: [8 * r * r - 6 * r, -9 * r * r + 6 * r, 3 * r * r - 3 * r + 1]],
        den=[lin(1, -1, 0), lin(1, -1, -1)],
    ),
)

# binom_ff(n-2, r-1) * (n^2(3r-1) - 7rn + 6r) / (n-2)
BH2_FORMS = (
    CoeffForm(
        1,
        binoms=[(-2, -1)],
        num=[lambda r: [6 * r, -7 * r, 3 * r - 1]],
        den=[lin(1, 0, -2)],
    ),
)


def coeff_x(n, r):
    return safe_coeff(X_FORMS, n, r, "binom_ff(n-3,r-2)(n-2r)/(r-1)")


# -- operator assembly -------------------------------------------------


def _combo(n: int, ring: Ring, terms, name: str) -> LinearOperator:
    """Linear combination of operators; terms are (rational, beta power, op
    or None for the identity)."""
    parts = []
    for c, j, op in terms:
        if not c:
            continue
        if ring.kind == "uni":
            scalar = BetaPoly.term(c, j)
        elif ring.kind == "q":
            if j:
                raise DomainError("beta power in a rational-ring combination")
            scalar = c
        else:
            raise DomainError("unsupported ring for closed forms")
        parts.append((scalar, op))

    def fn(f: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(n, ring)
        for scalar, op in parts:
            g = f if op is None else op(f)
            out = out + g.scale(scalar)
        return out

    return LinearOperator(n, ring, fn, name)


def first_order(n: int, r: int, ring: Ring = RB) -> LinearOperator:
    """h^1 coefficient: binom_ff(n-1,r-1) L_1 plus the scalar part.

    The scalar is the h^1 coefficient of the scaled t-binomial,
    (r/2) binom_ff(n,r)(n-1) b; with (n-r) in place of (n-1) the form would
    miss the prefactor's contribution and fail at r = n.
    """
    return _combo(
        n,
        ring,
        [
            (Fraction(binom_ff(n - 1, r - 1)), 0, l_op(1, n, ring)),
            (scaled_taylor_coeff_closed(n, r, 1).coeff(1), 1, None),
        ],
        f"ord1[{n},{r}]",
    )


def second_order(n: int, r: int, ring: Ring = RB) -> LinearOperator:
    """h^2 coefficient in Dunkl form; the H_1^2 term vanishes at r = 1."""
    h1 = h_op(1, n, ring)
    scalar2 = Fraction(r, 24) * binom_ff(n, r) * ((3 * r + 1) * n * n + (1 - 7 * r) * n + 2 * r)
    return _combo(
        n,
        ring,
        [
            (Fraction(binom_ff(n - 2, r - 1), 2), 0, h_op(2, n, ring)),
            (Fraction(binom_ff(n - 2, r - 2), 2), 0, h1 @ h1),
            (Fraction(r * (n - 1) * binom_ff(n - 1, r - 1), 2), 1, h1),
            (scalar2, 2, None),
        ],
        f"ord2[{n},{r}]",
    )


def third_order_beta0(n: int, r: int, ring: Ring = Ring.q()) -> LinearOperator:
    x = coeff_x(n, r)
    h1 = l_op(1, n, ring)
    return _combo(
        n,
        ring,
        [
            (x / 6, 0, l_op(3, n, ring)),
            (Fraction(binom_ff(n - 3, r - 2), 2), 0, l_op(2, n, ring) @ h1),
            (Fraction(binom_ff(n - 3, r - 3), 6), 0, h1 @ h1 @ h1),
        ],
        f"ord3_beta0[{n},{r}]",
    )


def third_order_beta1(n: int, r: int, ring: Ring = Ring.q()) -> LinearOperator:
    x = coeff_x(n, r)
    return _combo(
        n,
        ring,
        [
            (x / 2, 0, b_op(2, 2, n, ring)),
            (Fraction(r * (r - 1) * binom_ff(n, r), 4), 0, l_op(2, n, ring)),
            (Fraction(binom_ff(n - 3, r - 2)), 0, b_op(2, 1, n, ring) @ l_op(1, n, ring)),
            (Fraction(binom_ff(n - 3, r - 3) * n * (n - 1), 2), 0, m11_op(n, ring)),
        ],
        f"ord3_beta1[{n},{r}]",
    )


def third_order_beta2(n: int, r: int, ring: Ring = Ring.q()) -> LinearOperator:
    x = coeff_x(n, r)
    return _combo(
        n,
        ring,
        [
            (x, 0, b_op(3, 1, n, ring)),
            (Fraction(((r - 1) * n + r) * binom_ff(n - 2, r - 1), 2), 0, b_op(2, 1, n, ring)),
            (
                Fraction(binom_ff(n - 1, r - 1) * n * (r - 1), 24) * ((3 * r - 2) * n - r),
                0,
                l_op(1, n, ring),
            ),
        ],
        f"ord3_beta2[{n},{r}]",
    )


def third_order_scalar(n: int, r: int) -> Fraction:
    return Fraction(binom_ff(n, r) * r * r * n * (n - 1), 48) * ((r + 1) * n + 1 - 3 * r)


def third_order_raw(n: int, r: int, ring: Ring = RB) -> LinearOperator:
    """h^3 coefficient assembled degreewise in b from the three slice
    operators plus the scalar part."""
    s0 = third_order_beta0(n, r, ring)
    s1 = third_order_beta1(n, r, ring)
    s2 = third_order_beta2(n, r, ring)
    b = BetaPoly.var()

    def fn(f: MultiPoly) -> MultiPoly:
        out = s0(f)
        out = out + s1(f).scale(b)
        out = out + s2(f).scale(b * b)
        out = out + f.scale(BetaPoly.term(third_order_scalar(n, r), 3))
        return out

    return LinearOperator(n, ring, fn, f"ord3_raw[{n},{r}]")


def third_order_dunkl(n: int, r: int, ring: Ring = RB) -> LinearOperator:
    """h^3 coefficient as a polynomial in the Dunkl power sums H_k."""
    x = coeff_x(n, r)
    c_h1sq = safe_coeff(H1SQ_FORMS, n, r, "H1^2 coefficient")
    c_bh2 = safe_coeff(BH2_FORMS, n, r, "H2 coefficient")
    h1 = h_op(1, n, ring)
    h2 = h_op(2, n, ring)
    scalar2 = Fraction(r, 24) * binom_ff(n - 1, r - 1) * (
        (3 * r + 1) * n * n + (1 - 7 * r) * n + 2 * r
    )
    return _combo(
        n,
        ring,
        [
            (x / 6, 0, h_op(3, n, ring)),
            (Fraction(binom_ff(n - 3, r - 2), 2), 0, h2 @ h1),
            (c_bh2 / 12, 1, h2),
            (Fraction(binom_ff(n - 3, r - 3), 6), 0, h1 @ h1 @ h1),
            (c_h1sq / 12, 1, h1 @ h1),
            (scalar2, 2, h1),
            (third_order_scalar(n, r), 3, None),
        ],
        f"ord3_dunkl[{n},{r}]",
    )


def third_order_display_r1(n: int, ring: Ring = RB) -> LinearOperator:
    """The printed rank-1 specialization of the h^3 Dunkl form."""
    h1 = h_op(1, n, ring)
    return _combo(
        n,
        ring,
        [
            (Fraction(1, 6), 0, h_op(3, n, ring)),
            (Fraction(2 * n - 3, 12), 1, h_op(2, n, ring)),
            (Fraction(1, 12), 1, h1 @ h1),
            (Fraction((n - 1) * (2 * n - 1), 12), 2, h1),
            (Fraction(n * n * (n - 1) * (n - 1), 24), 3, None),
        ],
        f"ord3_display_r1[{n}]",
    )


def third_order_display_r2(n: int, ring: Ring = RB) -> LinearOperator:
    """The printed rank-2 specialization of the h^3 Dunkl form."""
    h1 = h_op(1, n, ring)
    return _combo(
        n,
        ring,
        [
            (Fraction(n - 4, 6), 0, h_op(3, n, ring)),
            (Fraction(1, 2), 0, h_op(2, n, ring) @ h1),
            (Fraction(5 * n * n - 14 * n + 12, 12), 1, h_op(2, n, ring)),
            (Fraction(7 * n - 10, 12), 1, h1 @ h1),
            (Fraction((n - 1) * (7 * n * n - 13 * n + 4), 12), 2, l_op(1, n, ring)),
            (Fraction(n * n * (n - 1) * (n - 1) * (3 * n - 5), 24), 3, None),
        ],
        f"ord3_display_r2[{n}]",
    )


def h1_explicit(n: int, ring: Ring = RB) -> LinearOperator:
    return l_op(1, n, ring)


def h2_explicit_pairs(n: int, ring: Ring = RB) -> LinearOperator:
    """H_2 as L_2 + b * sum_{i<j} (x_i+x_j)/(x_i-x_j)(x_i d_i - x_j d_j)."""
    pair = pair_ratio_op(n, ring)
    b = BetaPoly.var()

    def fn(f: MultiPoly) -> MultiPoly:
        return l_op(2, n, ring)(f) + pair(f).scale(b)

    return LinearOperator(n, ring, fn, f"h2_pairs[{n}]")


def h2_explicit_b(n: int, ring: Ring = RB) -> LinearOperator:
    """H_2 as L_2 + 2b B_{2,1} - b(n-1) L_1."""
    return _combo(
        n,
        ring,
        [
            (Fraction(1), 0, l_op(2, n, ring)),
            (Fraction(2), 1, b_op(2, 1, n, ring)),
            (Fraction(-(n - 1)), 1, l_op(1, n, ring)),
        ],
        f"h2_b[{n}]",
    )


def h3_explicit(n: int, ring: Ring = RB) -> LinearOperator:
    """H_3 = L_3 + b(3B_{2,2} - (n-1)L_2 - m_{1,1})
           + b^2(2(3-n)B_{2,1} + 6B_{3,1} - (n-1)L_1)."""
    return _combo(
        n,
        ring,
        [
            (Fraction(1), 0, l_op(3, n, ring)),
            (Fraction(3), 1, b_op(2, 2, n, ring)),
            (Fraction(-(n - 1)), 1, l_op(2, n, ring)),
            (Fraction(-1), 1, m11_op(n, ring)),
            (Fraction(2 * (3 - n)), 2, b_op(2, 1, n, ring)),
            (Fraction(6), 2, b_op(3, 1, n, ring)),
            (Fraction(-(n - 1)), 2, l_op(1, n, ring)),
        ],
        f"h3_explicit[{n}]",
    )


def beta2_h3_lhs(n: int, ring: Ring = Ring.q()) -> LinearOperator:
    return reflection_square_op(n, ring)


def beta2_h3_rhs_pairs(n: int, ring: Ring = Ring.q()) -> LinearOperator:
    """(3-n) * pair-ratio sum + 6 B_{3,1} - (n-1)(n-2) L_1."""
    pair = pair_ratio_op(n, ring)
    b31 = b_op(3, 1, n, ring)
    l1 = l_op(1, n, ring)

    def fn(f: MultiPoly) -> MultiPoly:
        return (
            pair(f).scale(3 - n)
            + b31(f).scale(6)
            - l1(f).scale((n - 1) * (n - 2))
        )

    return LinearOperator(n, ring, fn, f"beta2_h3_rhs1[{n}]")


def beta2_h3_rhs_b(n: int, ring: Ring = Ring.q()) -> LinearOperator:
    """2(3-n) B_{2,1} + 6 B_{3,1} - (n-1) L_1."""
    return _combo(
        n,
        ring,
        [
            (Fraction(2 * (3 - n)), 0, b_op(2, 1, n, ring)),
            (Fraction(6), 0, b_op(3, 1, n, ring)),
            (Fraction(-(n - 1)), 0, l_op(1, n, ring)),
        ],
        f"beta2_h3_rhs2[{n}]",
    )


def rank1_fourth_order(n: int, ring: Ring = RB) -> LinearOperator:
    """h^4 coefficient of the rank-1 operator: kernel-operator part plus
    the closed scalar part."""
    scalar = scaled_taylor_coeff_closed(n, 1, 4).coeff(4)
    return _combo(
        n,
        ring,
        [
            (Fraction(1, 24), 0, l_op(4, n, ring)),
            (Fraction(1, 6), 1, b_op(2, 3, n, ring)),
            (Fraction(1, 4), 2, b_op(2, 2, n, ring)),
            (Fraction(1, 2), 2, b_op(3, 2, n, ring)),
            (Fraction(1, 6), 3, b_op(2, 1, n, ring)),
            (Fraction(1), 3, b_op(3, 1, n, ring)),
            (Fraction(1), 3, b_op(4, 1, n, ring)),
            (Fraction(scalar), 4, None),
        ],
        f"dn1_h4[{n}]",
    )


_BUILDERS = {
    "ord1": lambda n, r: first_order(n, r),
    "ord2": lambda n, r: second_order(n, r),
    "ord3_raw": lambda n, r: third_order_raw(n, r),
    "ord3_dunkl": lambda n, r: third_order_dunkl(n, r),
    "ord3_display_r1": lambda n, r: third_order_display_r1(n),
    "ord3_display_r2": lambda n, r: third_order_display_r2(n),
    "ord5_beta0": lambda n, r: third_order_beta0(n, r),
    "ord5_beta1": lambda n, r: third_order_beta1(n, r),
    "ord5_beta2": lambda n, r: third_order_beta2(n, r),
    "h1_explicit": lambda n, r: h1_explicit(n),
    "h2_explicit": lambda n, r: h2_explicit_pairs(n),
    "h2_explicit_b": lambda n, r: h2_explicit_b(n),
    "h3_explicit": lambda n, r: h3_explicit(n),
    "beta2_h3": lambda n, r: beta2_h3_lhs(n),
    "beta2_h3_rhs1": lambda n, r: beta2_h3_rhs_pairs(n),
    "beta2_h3_rhs2": lambda n, r: beta2_h3_rhs_b(n),
    "dn1_h4": lambda n, r: rank1_fourth_order(n),
}


def build_closed_form(name: str, n: int, r: int = 1) -> LinearOperator:
    """Named closed-form operator; r is ignored by the r-independent ones."""
    if name not in _BUILDERS:
        raise DomainError(f"unknown closed form {name!r}")
    return _BUILDERS[name](n, r)
