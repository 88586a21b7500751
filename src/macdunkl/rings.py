"""Exact coefficient scalars: rationals and beta-polynomials.

Two coefficient rings appear throughout the library:

  * plain rationals, held as Python ``int`` or ``Fraction`` (always exact);
  * ``BetaPoly``, sparse polynomials in one symbol (written ``b`` by
    default) with rational coefficients, stored as ``{exponent: coeff}``
    with no zero values.

Every scalar the verifier computes from q and t is an integer
combination sum N q^a t^b, given as a table {(a, b): N}, and it is read
in one of two ways:

  * ``exp_sum_slice``: with q = exp(h) and t = exp(beta*h), beta the
    coupling symbol, q^a t^b is exp((a + b*beta) h), and the h^k
    coefficient sum N (a + b*beta)^k / k! is one ``BetaPoly``, read off
    the moments of the exponents; each h order is read on its own, with
    no truncated series;
  * ``rational_value``: the exact value at a rational (q, t), over one
    common denominator.

``render_scalar`` is the one text form of a scalar of either ring, and
``render_terms`` the one term loop of the univariate polynomials, so
every report prints a scalar the same way.  ``HJet`` only holds the
slices h^0..h^K side by side, with no arithmetic.

``binom`` uses the zero convention (out-of-range arguments give 0) so the
closed-form coefficient formulas built on top of it are total.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DomainError


def qnorm(value):
    """Normalize a rational scalar, preferring ``int`` when exact;
    TypeError for anything but an ``int`` or a ``Fraction``, so an inexact
    coefficient is refused where it enters."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return value
    if isinstance(value, int):
        return value
    raise TypeError(f"coefficients must be int or Fraction, got {type(value).__name__} {value!r}")


def as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def binom(n: int, r: int) -> int:
    """Binomial coefficient with the zero convention.

    Returns 0 whenever r < 0, r > n or n < 0, so coefficient formulas can
    be evaluated blindly at edge parameters.
    """
    if n < 0 or r < 0 or r > n:
        return 0
    return comb(n, r)


def binom_ff(upper: int, lower: int) -> int:
    """Binomial as the falling-factorial polynomial in its upper argument.

    Agrees with ``binom`` for upper >= 0; for negative upper it takes the
    polynomial value (nonzero), which is the evaluation rule for the
    closed-form coefficients of the h-expansion: those are polynomials
    in n, not subset counts.  Zero when lower < 0.
    """
    if lower < 0:
        return 0
    num = 1
    for t in range(lower):
        num *= upper - t
    return num // factorial(lower)


class BetaPoly:
    """Sparse univariate polynomial over the rationals.

    Used for the coupling-parameter polynomials that appear as
    h-expansion coefficients.  Instances are immutable by convention:
    no method mutates ``coeffs`` after construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if c:
                    clean[k] = qnorm(c)
        self.coeffs = clean

    @staticmethod
    def zero() -> "BetaPoly":
        return BetaPoly()

    @staticmethod
    def one() -> "BetaPoly":
        return BetaPoly({0: 1})

    @staticmethod
    def const(c) -> "BetaPoly":
        return BetaPoly({0: c})

    @staticmethod
    def var() -> "BetaPoly":
        return BetaPoly({1: 1})

    @staticmethod
    def term(c, k: int) -> "BetaPoly":
        return BetaPoly({k: c})

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, k: int):
        return self.coeffs.get(k, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, BetaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({0: qnorm(other)} if other else {})
        return NotImplemented

    def __hash__(self):
        # equal to a rational when constant, so it must hash as one
        if self.degree() <= 0:
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other) -> "BetaPoly":
        other = _coerce_beta(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = qnorm(s)
            else:
                out.pop(k, None)
        res = BetaPoly.__new__(BetaPoly)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "BetaPoly":
        res = BetaPoly.__new__(BetaPoly)
        res.coeffs = {k: -c for k, c in self.coeffs.items()}
        return res

    def __sub__(self, other) -> "BetaPoly":
        return self + (-_coerce_beta(other))

    def __rsub__(self, other) -> "BetaPoly":
        return _coerce_beta(other) + (-self)

    def __mul__(self, other) -> "BetaPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return BetaPoly.zero()
            res = BetaPoly.__new__(BetaPoly)
            res.coeffs = {k: qnorm(c * other) for k, c in self.coeffs.items()}
            return res
        if not isinstance(other, BetaPoly):
            return NotImplemented
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = BetaPoly.__new__(BetaPoly)
        res.coeffs = {k: qnorm(c) for k, c in out.items()}
        return res

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "BetaPoly":
        if m < 0:
            raise DomainError("negative power of a polynomial")
        out = BetaPoly.one()
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def evaluate(self, value):
        """Evaluate at a rational point, exactly."""
        acc = Fraction(0)
        v = as_fraction(value)
        for k, c in self.coeffs.items():
            acc += as_fraction(c) * v**k
        return qnorm(acc)

    def render(self, var: str = "b") -> str:
        """Canonical text form, ascending powers, e.g. ``1 + 2*b + b^2``."""
        return render_terms(sorted(self.coeffs.items()), var)

    def __repr__(self):
        return f"BetaPoly({self.render()})"


def _coerce_beta(value) -> BetaPoly:
    if isinstance(value, BetaPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BetaPoly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to BetaPoly")


def render_terms(terms, var: str) -> str:
    """Text of sum c var^k over the (k, c) pairs of terms, ascending in k,
    zero c skipped: ``1 - 2*t + 3*t^3``; ``0`` when every c is zero."""
    parts = []
    for k, c in terms:
        if c:
            parts.append(_render_term(c, var, k, first=not parts))
    return "".join(parts) or "0"


def _render_term(c, var: str, k: int, first: bool) -> str:
    sign = ""
    if not first:
        sign = " + " if (c > 0) else " - "
        if c < 0:
            c = -c
    elif c < 0:
        sign = "-"
        c = -c
    if k == 0:
        body = str(c)
    else:
        pw = var if k == 1 else f"{var}^{k}"
        body = pw if c == 1 else f"{c}*{pw}"
    return sign + body


class HJet:
    """The h^0..h^order coefficients of a series in h, each a ``BetaPoly``.

    A value only, with no arithmetic: ``operators.jet_matrix`` stacks the
    h^k slices of a Macdonald matrix into one per entry.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise DomainError("jet order must be non-negative")
        if len(coeffs) != order + 1:
            raise DomainError("jet needs exactly order+1 coefficients")
        self.order = order
        self.coeffs = tuple(coeffs)

    def coeff(self, k: int) -> BetaPoly:
        return self.coeffs[k] if 0 <= k <= self.order else BetaPoly.zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, HJet):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs


def exp_sum_slice(terms, k: int) -> BetaPoly:
    """The h^k coefficient of sum N exp((a + b*beta) h) over the
    ((a, b), N) items of terms, that is sum N (a + b*beta)^k / k!, read off
    the moments of the exponents: its beta^j coefficient is
    C(k, j) / k! * sum N a^(k-j) b^j.  With q = exp(h) and t = exp(beta h)
    it is the h^k coefficient of sum N q^a t^b."""
    if k < 0:
        raise DomainError("h order must be non-negative")
    moments = [0] * (k + 1)
    for (a, b), c in terms.items():
        for j in range(k + 1):
            moments[j] += c * a ** (k - j) * b**j
    return BetaPoly(
        {j: Fraction(comb(k, j) * m, factorial(k)) for j, m in enumerate(moments) if m}
    )


def rational_value(q: Fraction, t: Fraction, terms):
    """sum N q^a t^b over the ((a, b), N) items of terms, at rational q
    and t, over the common denominator qd^A td^B with A, B the largest
    exponents.  terms must not be empty."""
    qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
    A = max(a for a, _ in terms)
    B = max(b for _, b in terms)
    num = sum(N * qn**a * qd ** (A - a) * tn**b * td ** (B - b) for (a, b), N in terms.items())
    return qnorm(Fraction(num, qd**A * td**B))


def render_scalar(value, var: str = "b") -> str:
    """Canonical text of a ring scalar: a rational as ``str`` gives it, or
    a polynomial in var."""
    if isinstance(value, BetaPoly):
        return value.render(var)
    return str(value)
