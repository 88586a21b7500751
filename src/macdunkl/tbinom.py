"""t-binomial coefficients as exact polynomials in t, and their h-slices.

The t-binomial [n r] is computed from the Pascal-type recurrence

    [n r] = [n-1 r-1] + t^r [n-1 r],    [n 0] = [n n] = 1,

and independently from the product formula
prod_k (1 - t^(n-k+1)) / (1 - t^k) via exact univariate division; the two
constructions are compared in the tests and the verification suite.

Under t = exp(b*h) each h^k coefficient of a t-polynomial is one
b-polynomial, read by ``TPoly.h_coeff``.  The module also provides the
closed forms for the first five Taylor coefficients of [n r] and of the
scaled product t^(r(r-1)/2) [n r]; the h^4 closed form of the scaled
product is stated for an ambiguous scaling exponent in its source, so
the verifier tests both candidates (see verify.identities).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, InexactDivisionError
from .rings import BetaPoly, binom, exp_sum_slice, qnorm, render_terms


class TPoly:
    """Dense univariate polynomial in t with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [qnorm(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def one() -> "TPoly":
        return TPoly((1,))

    @staticmethod
    def t_power(k: int) -> "TPoly":
        return TPoly((0,) * k + (1,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "TPoly") -> "TPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return TPoly(out)

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __mul__(self, other: "TPoly") -> "TPoly":
        if not self.coeffs or not other.coeffs:
            return TPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return TPoly(out)

    def divmod(self, other: "TPoly") -> tuple["TPoly", "TPoly"]:
        """Quotient and remainder of long division by a nonzero polynomial."""
        if not other.coeffs:
            raise DomainError("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + len(other.coeffs) - 1]
            q = c if lead == 1 else qnorm(Fraction(c) / Fraction(lead))
            quot[k] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        return TPoly(quot), TPoly(rem)

    def exact_divide(self, other: "TPoly") -> "TPoly":
        """Exact quotient; raises InexactDivisionError otherwise."""
        quot, rem = self.divmod(other)
        if rem:
            raise InexactDivisionError("inexact t-polynomial division", rem)
        return quot

    def h_coeff(self, k: int) -> BetaPoly:
        """The h^k coefficient under t = exp(b*h): t^j is exp(j b h)."""
        return exp_sum_slice({(0, j): c for j, c in enumerate(self.coeffs) if c}, k)

    def render(self, var: str = "t") -> str:
        return render_terms(enumerate(self.coeffs), var)

    def __repr__(self):
        return f"TPoly({self.render()})"


@lru_cache(maxsize=None)
def t_binomial(n: int, r: int) -> TPoly:
    """The t-binomial [n r], built from the additive recurrence."""
    if not 0 <= r <= n:
        raise DomainError(f"t-binomial needs 0 <= r <= n, got ({n}, {r})")
    if r == 0 or r == n:
        return TPoly.one()
    return t_binomial(n - 1, r - 1) + TPoly.t_power(r) * t_binomial(n - 1, r)


def t_binomial_product(n: int, r: int) -> TPoly:
    """The t-binomial [n r] from the product formula, via exact division."""
    if not 0 <= r <= n:
        raise DomainError(f"t-binomial needs 0 <= r <= n, got ({n}, {r})")
    num = TPoly.one()
    den = TPoly.one()
    for k in range(1, r + 1):
        num = num * (TPoly.one() - TPoly.t_power(n - k + 1))
        den = den * (TPoly.one() - TPoly.t_power(k))
    return num.exact_divide(den)


def scaled_t_binomial(n: int, r: int, half: bool = True) -> TPoly:
    """t^e [n r] with e = r(r-1)/2 (default) or e = r(r-1)."""
    e = r * (r - 1) // 2 if half else r * (r - 1)
    return TPoly.t_power(e) * t_binomial(n, r)


def _b(c, k: int) -> BetaPoly:
    return BetaPoly.term(Fraction(c), k) if c else BetaPoly.zero()


def taylor_coeff_closed(n: int, r: int, k: int) -> BetaPoly:
    """Closed form of the h^k Taylor coefficient of [n r] at t = exp(b*h)."""
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got ({n}, {r})")
    c = binom(n, r)
    if k == 0:
        return _b(c, 0)
    if k == 1:
        return _b(Fraction(r, 2) * c * (n - r), 1)
    if k == 2:
        return _b(Fraction(r, 24) * c * (n - r) * ((3 * r + 1) * n - 3 * r * r + 1), 2)
    if k == 3:
        return _b(Fraction(r * r * (r + 1), 48) * c * (n - r + 1) * (n - r) ** 2, 3)
    if k == 4:
        # The n-free term carries a factor r^2; without it the form only
        # matches the h^4 coefficient of [n r] at r <= 1.
        quint = (
            (15 * r**3 + 30 * r**2 + 5 * r - 2) * n**3
            + (-3 * r + 1) * (15 * r**3 + 25 * r**2 - 4) * n**2
            + (45 * r**5 + 30 * r**4 - 60 * r**3 - 12 * r**2 + 7 * r - 2) * n
            + (-15 * r**4 + 30 * r**2 - 7) * r**2
        )
        return _b(Fraction((n - r) * r, 5760) * c * quint, 4)
    raise DomainError("closed Taylor coefficients are available for k = 0..4")


def scaled_taylor_coeff_closed(n: int, r: int, k: int) -> BetaPoly:
    """Closed form of the h^k coefficient of t^(r(r-1)/2) [n r]."""
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got ({n}, {r})")
    c = binom(n, r)
    if k == 0:
        return _b(c, 0)
    if k == 1:
        return _b(Fraction(r, 2) * c * (n - 1), 1)
    if k == 2:
        return _b(Fraction(r, 24) * c * ((3 * r + 1) * n**2 + (1 - 7 * r) * n + 2 * r), 2)
    if k == 3:
        return _b(Fraction(r * r, 48) * c * n * (n - 1) * ((r + 1) * n + 1 - 3 * r), 3)
    if k == 4:
        quart = (
            (15 * r**3 + 30 * r**2 + 5 * r - 2) * n**4
            - 2 * (45 * r**3 + 20 * r**2 - 7 * r + 2) * n**3
            + (125 * r**3 - 54 * r**2 + 11 * r - 2) * n**2
            - 2 * r * (r - 1) * (9 * r + 1) * n
            - 8 * r**3
        )
        return _b(Fraction(r, 5760) * c * quart, 4)
    raise DomainError("closed Taylor coefficients are available for k = 0..4")
