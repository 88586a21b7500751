"""Sparse multivariate polynomials over the exact coefficient rings.

A ``MultiPoly`` in n variables stores ``{exponents: coeff}`` where
``exponents`` is a tuple.  The first n slots are the x-exponents; the
coefficient ring may add trailing slots:

  * ``Ring.q()``       rational coefficients, no extra slots;
  * ``Ring.uni(var)``  one extra slot holding the exponent of an auxiliary
    symbol (the coupling parameter ``b``, or ``t`` for t-polynomials).

Keeping the auxiliary symbols in the exponent key keeps all stored
coefficients plain ``int``/``Fraction`` values, which is what makes the
exact arithmetic fast enough for the operator computations.  Partitions
are plain tuples of weakly decreasing positive integers.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import itemgetter

from .errors import DomainError, InexactDivisionError, NonSymmetricError
from .rings import BetaPoly, qnorm, render_scalar

Partition = tuple[int, ...]


class Ring:
    """Coefficient ring descriptor for MultiPoly; a value, equal and
    hashing equal by (kind, var), so rings serve as cache keys."""

    __slots__ = ("kind", "var")

    def __init__(self, kind: str, var: str = "b"):
        self.kind = kind   # 'q' or 'uni'
        self.var = var     # auxiliary symbol name used for rendering

    def __eq__(self, other) -> bool:
        if other.__class__ is not Ring:
            return NotImplemented
        return self.kind == other.kind and self.var == other.var

    def __hash__(self) -> int:
        return hash((self.kind, self.var))

    @staticmethod
    def q() -> "Ring":
        return Ring("q")

    @staticmethod
    def uni(var: str = "b") -> "Ring":
        return Ring("uni", var)

    @property
    def aux_slots(self) -> int:
        return 0 if self.kind == "q" else 1

    def aux_keys_of(self, scalar):
        """Expand a ring scalar into {aux_exponents: rational} pairs."""
        if self.kind == "q":
            if isinstance(scalar, (int, Fraction)):
                return {(): scalar} if scalar else {}
            raise TypeError("rational ring scalar expected")
        if isinstance(scalar, (int, Fraction)):
            scalar = BetaPoly.const(scalar)
        if isinstance(scalar, BetaPoly):
            return {(k,): c for k, c in scalar.coeffs.items()}
        raise TypeError("BetaPoly ring scalar expected")

    def scalar_from_aux(self, pairs):
        """Rebuild a ring scalar from {aux_exponents: rational} pairs."""
        if self.kind == "q":
            acc = 0
            for _, c in pairs:
                acc += c
            return qnorm(acc)
        return BetaPoly({k[0]: c for k, c in pairs})


RING_Q = Ring.q()


class MultiPoly:
    """Sparse polynomial in x_1..x_n over a coefficient ring.

    ``terms`` maps full exponent tuples (x slots then aux slots) to
    nonzero int/Fraction values.  Instances are treated as immutable.
    """

    __slots__ = ("n", "ring", "terms")

    def __init__(self, n: int, ring: Ring = RING_Q, terms=None):
        self.n = n
        self.ring = ring
        self.terms = terms if terms is not None else {}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(n: int, ring: Ring = RING_Q) -> "MultiPoly":
        return MultiPoly(n, ring, {})

    @staticmethod
    def const(n: int, value, ring: Ring = RING_Q) -> "MultiPoly":
        base = (0,) * n
        out = {}
        for aux, c in ring.aux_keys_of(value).items():
            out[base + aux] = c
        return MultiPoly(n, ring, out)

    @staticmethod
    def variable(i: int, n: int, ring: Ring = RING_Q) -> "MultiPoly":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise DomainError(f"variable index {i} outside 1..{n}")
        key = [0] * (n + ring.aux_slots)
        key[i - 1] = 1
        return MultiPoly(n, ring, {tuple(key): 1})

    @staticmethod
    def monomial(exponents, n: int, ring: Ring = RING_Q, coeff=1) -> "MultiPoly":
        exps = tuple(exponents)
        if len(exps) != n:
            raise DomainError("exponent tuple length must equal n")
        base = exps + (0,) * ring.aux_slots
        return MultiPoly(n, ring, {base: coeff} if coeff else {})

    # -- inspection --------------------------------------------------

    def _width(self) -> int:
        return self.n + self.ring.aux_slots

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.ring, tuple(sorted(self.terms.items()))))

    def iter_terms(self):
        """Yield (x-exponent tuple, ring scalar) in canonical order."""
        n = self.n
        grouped = {}
        for k, c in self.terms.items():
            grouped.setdefault(k[:n], []).append((k[n:], c))
        for xk in sorted(grouped, key=_order_key, reverse=True):
            yield xk, self.ring.scalar_from_aux(grouped[xk])

    # -- arithmetic --------------------------------------------------

    def _compat(self, other: "MultiPoly"):
        if self.n != other.n or self.ring != other.ring:
            raise DomainError("polynomials over different spaces cannot be combined")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return MultiPoly(self.n, self.ring, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._compat(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return MultiPoly(self.n, self.ring, out)

    def __pow__(self, m: int) -> "MultiPoly":
        if m < 0:
            raise DomainError("negative polynomial power")
        out = MultiPoly.const(self.n, 1, self.ring)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def scale(self, scalar) -> "MultiPoly":
        """Multiply by a ring scalar (or a plain rational)."""
        if isinstance(scalar, (int, Fraction)):
            if not scalar:
                return MultiPoly.zero(self.n, self.ring)
            return MultiPoly(
                self.n, self.ring, {k: qnorm(c * scalar) for k, c in self.terms.items()}
            )
        aux = self.ring.aux_keys_of(scalar)
        if not aux:
            return MultiPoly.zero(self.n, self.ring)
        n = self.n
        out = {}
        for k, c in self.terms.items():
            for ak, ac in aux.items():
                nk = k[:n] + tuple(x + y for x, y in zip(k[n:], ak))
                s = out.get(nk, 0) + c * ac
                if s:
                    out[nk] = s
                else:
                    del out[nk]
        return MultiPoly(self.n, self.ring, out)

    # -- variable actions --------------------------------------------

    def swap(self, i: int, j: int) -> "MultiPoly":
        """Exchange the exponents of x_i and x_j (1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError("swap index out of range")
        if i == j:
            return self
        a, b = i - 1, j - 1
        out = {}
        for k, c in self.terms.items():
            if k[a] == k[b]:
                out[k] = c
            else:
                lk = list(k)
                lk[a], lk[b] = lk[b], lk[a]
                out[tuple(lk)] = c
        return MultiPoly(self.n, self.ring, out)

    def euler(self, i: int) -> "MultiPoly":
        """Apply x_i d/dx_i: scale each monomial by its x_i exponent."""
        if not 1 <= i <= self.n:
            raise DomainError("euler index out of range")
        a = i - 1
        out = {}
        for k, c in self.terms.items():
            e = k[a]
            if e:
                out[k] = c * e
        return MultiPoly(self.n, self.ring, out)

    def permute_vars(self, perm) -> "MultiPoly":
        """Relabel variables: new position of x_{i+1} is perm[i]+1."""
        n = self.n
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        if inverse == list(range(n)):
            return self
        # the new key reads slot inverse[p] of the old one; aux slots stay
        relabel = itemgetter(*inverse, *range(n, self._width()))
        return MultiPoly(self.n, self.ring, {relabel(k): c for k, c in self.terms.items()})

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        """Canonical text form with graded-lex descending term order."""
        if not self.terms:
            return "0"
        parts = []
        for xk, scalar in self.iter_terms():
            mono = "*".join(
                (f"x{i+1}" if e == 1 else f"x{i+1}^{e}")
                for i, e in enumerate(xk)
                if e
            )
            cs = render_scalar(scalar, self.ring.var)
            if " " in cs:
                cs = f"({cs})"
            if mono:
                body = mono if cs == "1" else f"{cs}*{mono}"
            else:
                body = cs
            parts.append(body)
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.render()})"


def _order_key(k):
    return (sum(k), k)


# -- exact division --------------------------------------------------


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g with a mandatory post-check q*g == f.

    Leading-term division under the graded-lex order; the cost is
    proportional to (number of quotient terms) * (size of g), so dividing
    a huge numerator by a huge divisor is cheap whenever the quotient is
    small.  Raises InexactDivisionError (carrying the remainder witness)
    when the division is not exact.
    """
    f._compat(g)
    if not g.terms:
        raise DomainError("division by the zero polynomial")
    glead = max(g.terms, key=_order_key)
    gcoeff = g.terms[glead]
    gitems = [(k, c) for k, c in g.terms.items() if k != glead]

    rem = dict(f.terms)
    quot = {}
    heap = [(-sum(k), tuple(-e for e in k)) for k in rem]
    heapq.heapify(heap)
    while heap:
        _, negk = heapq.heappop(heap)
        k = tuple(-e for e in negk)
        c = rem.get(k)
        if not c:
            continue
        tk = tuple(a - b for a, b in zip(k, glead))
        if any(e < 0 for e in tk):
            raise InexactDivisionError(
                "inexact polynomial division", MultiPoly(f.n, f.ring, rem)
            )
        if gcoeff == 1:
            tc = c
        elif gcoeff == -1:
            tc = -c
        else:
            tc = qnorm(Fraction(c) / Fraction(gcoeff))
        quot[tk] = tc
        del rem[k]
        for gk, gc in gitems:
            nk = tuple(a + b for a, b in zip(tk, gk))
            s = rem.get(nk, 0) - tc * gc
            if s:
                if nk not in rem:
                    heapq.heappush(heap, (-sum(nk), tuple(-e for e in nk)))
                rem[nk] = s
            else:
                rem.pop(nk, None)
    if rem:
        raise InexactDivisionError(
            "inexact polynomial division", MultiPoly(f.n, f.ring, rem)
        )
    q = MultiPoly(f.n, f.ring, quot)
    if q * g != f:
        raise InexactDivisionError("division post-check failed", (q * g) - f)
    return q


# -- symmetry and the monomial-symmetric basis ------------------------


def _symmetric_orbits(f: MultiPoly):
    """{(sorted x exponent, aux slots): [coefficient, count]} of f if f is
    symmetric, else None.  f is symmetric exactly when its keys, grouped
    by sorted x exponent and aux slots, form complete S_n orbits with one
    coefficient each; that is checked in one pass over the terms."""
    n = f.n
    orbits = {}
    for k, c in f.terms.items():
        key = (tuple(sorted(k[:n], reverse=True)), k[n:])
        seen = orbits.get(key)
        if seen is None:
            orbits[key] = [c, 1]
        elif seen[0] == c:
            seen[1] += 1
        else:
            return None
    if all(count == _orbit_size(x) for (x, _), (_, count) in orbits.items()):
        return orbits
    return None


def _violating_swap(f: MultiPoly):
    """The first adjacent transposition (i, i+1) that changes f; f must be
    non-symmetric."""
    for i in range(1, f.n):
        if f.swap(i, i + 1) != f:
            return (i, i + 1)


def symmetry_violation(f: MultiPoly):
    """Return None if f is symmetric, else a violating transposition (i, i+1).
    The verdict is the one-pass orbit check; exchanges are tried only to
    name the transposition."""
    return None if _symmetric_orbits(f) is not None else _violating_swap(f)


def is_symmetric(f: MultiPoly) -> bool:
    return symmetry_violation(f) is None


@lru_cache(maxsize=None)
def _distinct_permutations(values: tuple) -> tuple:
    """All distinct orderings of a multiset given as a tuple,
    lexicographically decreasing.  Cached: the callers pass the same
    padded partitions again and again."""
    values = sorted(values, reverse=True)
    out = []

    def rec(prefix, rest):
        if not rest:
            out.append(tuple(prefix))
            return
        used = set()
        for idx, v in enumerate(rest):
            if v in used:
                continue
            used.add(v)
            rec(prefix + [v], rest[:idx] + rest[idx + 1:])

    rec([], values)
    return tuple(out)


def _require_partition(lam, n: int):
    if any(p <= 0 for p in lam) or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise DomainError(f"not a partition: {lam}")
    if len(lam) > n:
        raise DomainError(f"partition {lam} has more than {n} parts")


def monomial_symmetric(lam, n: int, ring: Ring = RING_Q) -> MultiPoly:
    """The monomial symmetric polynomial m_lambda in n variables."""
    lam = tuple(lam)
    _require_partition(lam, n)
    padded = lam + (0,) * (n - len(lam))
    aux = (0,) * ring.aux_slots
    terms = {perm + aux: 1 for perm in _distinct_permutations(padded)}
    if not lam:
        return MultiPoly.const(n, 1, ring)
    return MultiPoly(n, ring, terms)


@lru_cache(maxsize=None)
def _orbit_size(values: tuple) -> int:
    """Number of distinct orderings of a multiset given as a tuple."""
    return factorial(len(values)) // prod(factorial(values.count(v)) for v in set(values))


def to_msym_coords(f: MultiPoly):
    """Coordinates of a symmetric polynomial in the m_lambda basis.

    Symmetry is the one-pass orbit check of ``symmetry_violation``; when
    it fails, the NonSymmetricError names a transposition.  The empty
    partition indexes the constant term.
    """
    n = f.n
    orbits = _symmetric_orbits(f)
    if orbits is None:
        bad = _violating_swap(f)
        raise NonSymmetricError(
            f"polynomial is not symmetric: exchanging x{bad[0]} and x{bad[1]} changes it",
            bad,
        )
    grouped = {}
    for (x, aux), (c, _) in orbits.items():
        grouped.setdefault(x[:n - x.count(0)], []).append((aux, c))
    return {lam: f.ring.scalar_from_aux(pairs) for lam, pairs in grouped.items()}


# -- partitions ------------------------------------------------------


def partitions_of(weight: int, max_parts: int, max_part: int | None = None):
    """Partitions of the given weight, at most max_parts parts, lex-descending."""
    if weight == 0:
        return [()]
    if max_parts == 0:
        return []
    out = []
    top = weight if max_part is None else min(weight, max_part)
    for first in range(top, 0, -1):
        for rest in partitions_of(weight - first, max_parts - 1, first):
            out.append((first,) + rest)
    return out


def partitions_upto(d: int, max_parts: int):
    """All partitions of weight 1..d with at most max_parts parts.

    Ordered by weight, then lex-descending within a weight (which refines
    dominance), matching the order used for triangular solves.
    """
    if d < 0:
        raise DomainError("negative degree bound")
    out = []
    for w in range(1, d + 1):
        out.extend(partitions_of(w, max_parts))
    return out


@lru_cache(maxsize=None)
def _kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu: the
    cells holding the largest entry form a horizontal strip lam/nu, that
    is lam[i+1] <= nu[i] <= lam[i]."""
    if not mu:
        return 0 if lam else 1
    total = 0
    for nu in product(*(range(low, top + 1) for low, top in zip(lam[1:] + (0,), lam))):
        if sum(lam) - sum(nu) == mu[-1]:
            total += _kostka(tuple(p for p in nu if p), mu[:-1])
    return total


@lru_cache(maxsize=None)
def kostka_table(weight: int, n: int):
    """{lam: ((mu, K_lam_mu), ...)} over the partitions of the weight with
    at most n parts, nonzero entries only, so that the Schur polynomial
    s_lam in n variables is sum K_lam_mu m_mu."""
    parts = partitions_of(weight, n)
    return {
        lam: tuple((mu, k) for mu in parts if (k := _kostka(lam, mu)))
        for lam in parts
    }


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal weight: lam >= mu."""
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


# -- Vandermonde products ---------------------------------------------


_VDM_CACHE: dict = {}


def vandermonde(n: int, ring: Ring = RING_Q, variables=None) -> MultiPoly:
    """Product of (x_i - x_j) over i < j in the given variable subset.

    Cached; callers must treat the result as immutable (all MultiPoly
    values are)."""
    if variables is None:
        variables = range(1, n + 1)
    variables = tuple(sorted(variables))
    key = (n, ring, variables)
    hit = _VDM_CACHE.get(key)
    if hit is not None:
        return hit
    out = MultiPoly.const(n, 1, ring)
    for a in range(len(variables)):
        for b in range(a + 1, len(variables)):
            out = out * (
                MultiPoly.variable(variables[a], n, ring)
                - MultiPoly.variable(variables[b], n, ring)
            )
    _VDM_CACHE[key] = out
    return out
