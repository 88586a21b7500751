"""Exact coefficient scalars: rationals, beta-polynomials and h-jets.

Three coefficient rings appear throughout the library:

  * plain rationals, held as Python ``int`` or ``Fraction`` (always exact);
  * ``BetaPoly``, sparse polynomials in one symbol (written ``b`` by
    default) with rational coefficients, stored as ``{exponent: coeff}``
    with no zero values;
  * ``HJet``, truncated power series in ``h`` of a fixed order ``K``
    whose coefficients are ``BetaPoly`` values.  All jet arithmetic is
    exact truncation: results are computed modulo h^(K+1).

Every scalar the verifier computes from q and t is an integer
combination sum N q^a t^b, given as a table {(a, b): N}, and each ring
has one evaluator of such a table:

  * ``jet_exp_sum``: with q = exp(h) and t = exp(beta*h), beta the
    coupling symbol, q^a t^b is exp((a + b*beta) h), and the h^k
    coefficient sum N (a + b*beta)^k / k! is read off the moments of the
    exponents, with no jet multiplied; ``jet_q``, ``jet_t`` and the
    t-polynomial jets call it, and ``jet_exp`` stays as its oracle;
  * ``rational_value``: the exact value at a rational (q, t), over one
    common denominator.

``render_scalar`` is the one text form of a scalar of any of the three
rings, and ``render_terms`` the one term loop of the univariate
polynomials, so every report prints a scalar the same way.

``binom`` uses the zero convention (out-of-range arguments give 0) so the
closed-form coefficient formulas built on top of it are total.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import DomainError

DEFAULT_JET_ORDER = 4

Q = int | Fraction


def qnorm(value):
    """Normalize a rational scalar, preferring ``int`` when exact."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return value
    return value


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
    closed-form coefficients of the h-expansion: those are rational
    functions of n, not subset counts.  Zero when lower < 0.
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
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other) -> "BetaPoly":
        other = _coerce_beta(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
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
    """Truncated series in h of fixed order K with ``BetaPoly`` coefficients.

    ``coeffs[k]`` is the coefficient of h^k.  Mixing jets of different
    orders is a domain error; all products are truncated at order K.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int = DEFAULT_JET_ORDER, coeffs=None):
        if order < 0:
            raise DomainError("jet order must be non-negative")
        self.order = order
        if coeffs is None:
            self.coeffs = tuple(BetaPoly.zero() for _ in range(order + 1))
        else:
            cs = [_coerce_beta(c) for c in coeffs]
            if len(cs) != order + 1:
                raise DomainError("jet needs exactly order+1 coefficients")
            self.coeffs = tuple(cs)

    @staticmethod
    def const(c, order: int = DEFAULT_JET_ORDER) -> "HJet":
        out = [_coerce_beta(c)] + [BetaPoly.zero()] * order
        return HJet(order, out)

    @staticmethod
    def one(order: int = DEFAULT_JET_ORDER) -> "HJet":
        return HJet.const(1, order)

    @staticmethod
    def zero(order: int = DEFAULT_JET_ORDER) -> "HJet":
        return HJet(order)

    @staticmethod
    def single(k: int, coeff, order: int = DEFAULT_JET_ORDER) -> "HJet":
        """The jet  coeff * h^k."""
        if not 0 <= k <= order:
            raise DomainError("h power outside jet order")
        cs = [BetaPoly.zero()] * (order + 1)
        cs[k] = _coerce_beta(coeff)
        return HJet(order, cs)

    def coeff(self, k: int) -> BetaPoly:
        return self.coeffs[k] if 0 <= k <= self.order else BetaPoly.zero()

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HJet):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def _check(self, other: "HJet"):
        if self.order != other.order:
            raise DomainError("jets of different orders cannot be combined")

    def __add__(self, other) -> "HJet":
        if isinstance(other, (int, Fraction, BetaPoly)):
            other = HJet.const(other, self.order)
        self._check(other)
        return HJet(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "HJet":
        return HJet(self.order, [-a for a in self.coeffs])

    def __sub__(self, other) -> "HJet":
        if isinstance(other, (int, Fraction, BetaPoly)):
            other = HJet.const(other, self.order)
        return self + (-other)

    def __mul__(self, other) -> "HJet":
        if isinstance(other, (int, Fraction, BetaPoly)):
            b = _coerce_beta(other)
            return HJet(self.order, [a * b for a in self.coeffs])
        if not isinstance(other, HJet):
            return NotImplemented
        self._check(other)
        K = self.order
        out = [BetaPoly.zero() for _ in range(K + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return HJet(K, out)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "HJet":
        if m < 0:
            raise DomainError("negative jet power")
        out = HJet.one(self.order)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def render(self, hvar: str = "h", bvar: str = "b") -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            body = c.render(bvar)
            if k > 0:
                if body != "1":
                    body = f"({body})" if (" " in body) else body
                pw = hvar if k == 1 else f"{hvar}^{k}"
                body = pw if body == "1" else f"{body}*{pw}"
            parts.append(body)
        if not parts:
            return "0"
        return " + ".join(parts)

    def __repr__(self):
        return f"HJet[{self.order}]({self.render()})"


def jet_exp(u: HJet) -> HJet:
    """exp of a jet with zero constant term, truncated at the jet order.

    Computed as the finite sum of u^k / k! for k up to the order; the
    zero constant term makes every higher power vanish.
    """
    if u.coeffs[0]:
        raise DomainError("jet_exp needs a zero constant term")
    K = u.order
    out = HJet.one(K)
    power = HJet.one(K)
    for k in range(1, K + 1):
        power = power * u
        out = out + power * Fraction(1, factorial(k))
    return out


def jet_exp_sum(terms, order: int = DEFAULT_JET_ORDER) -> HJet:
    """The jet of sum N exp((a + b*beta) h) over the ((a, b), N) items of
    terms, read off the moments of the exponents: its h^k coefficient is
    sum_j C(k, j) beta^j / k! * sum N a^(k-j) b^j."""
    moments = {}
    for (a, b), c in terms.items():
        cb = c  # c b^j
        for j in range(order + 1):
            m = cb  # c a^i b^j
            for i in range(order + 1 - j):
                moments[i, j] = moments.get((i, j), 0) + m
                m *= a
                if not m:
                    break
            cb *= b
            if not cb:
                break
    return HJet(
        order,
        [
            BetaPoly({j: Fraction(comb(k, j) * m, factorial(k))
                      for j in range(k + 1) if (m := moments.get((k - j, j)))})
            for k in range(order + 1)
        ],
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


def jet_q(order: int = DEFAULT_JET_ORDER) -> HJet:
    """The jet of q = exp(h)."""
    return jet_exp_sum({(1, 0): 1}, order)


def jet_t(order: int = DEFAULT_JET_ORDER) -> HJet:
    """The jet of t = exp(b*h)."""
    return jet_exp_sum({(0, 1): 1}, order)


def render_scalar(value, var: str = "b") -> str:
    """Canonical text of a ring scalar: a rational as ``str`` gives it, a
    polynomial in var, or a jet in h whose coefficients are polynomials
    in var."""
    if isinstance(value, HJet):
        return value.render("h", var)
    if isinstance(value, BetaPoly):
        return value.render(var)
    return str(value)
