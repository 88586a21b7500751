"""Sparse multivariate polynomials over the exact coefficient rings.

A ``MultiPoly`` in n variables is a sum of monomials with nonzero
int/Fraction coefficients.  A monomial's exponent key has n + s slots:
the n x-exponents, then the s auxiliary slots of the coefficient ring:

  * ``Ring.q()``       rational coefficients, no extra slots;
  * ``Ring.uni(var)``  one extra slot holding the exponent of an auxiliary
    symbol (the coupling parameter ``b``, or ``t`` for t-polynomials).

Keeping the auxiliary symbols in the exponent key keeps all stored
coefficients plain ``int``/``Fraction`` values, which is what makes the
exact arithmetic fast enough for the operator computations.  Partitions
are plain tuples of weakly decreasing positive integers.

Each key is stored packed into one int (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): ``FIELD``-bit fields holding, from the top, the total degree (the
sum of all n + s slots), the n x-exponents and the aux slots.  Every
slot and the total degree lie in 0 .. BOUND - 1, BOUND = 2^(FIELD - 1),
so the top bit of each field, its guard bit, is clear.  Then:

  * packed ints order exactly as ``_order_key`` orders the tuples (total
    degree, then lex over all slots), the order of ``exact_div``;
  * the key of a product of monomials is the sum of their keys, so
    ``__mul__`` adds ints, after one check that the operands' degrees sum
    below BOUND;
  * a monomial divides another exactly when their difference has no guard
    bit set, since a negative field borrows into its own guard bit first.

A key with a negative slot, a width other than n + s, or a total degree
at or above BOUND is refused with DomainError where it enters: the
constructor, every scaling by a ring scalar and every product.  The
packed format is private to this module.  ``terms`` is a read-only
mapping view with the tuple keys (x slots, then aux slots), unpacked as
it is read; its ``len`` is that of the packed table.  Every loop that
reads exponents, the block and subset sums of ``operators`` included,
is a method or a function here.
"""

from __future__ import annotations

import heapq
from collections.abc import ItemsView, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import itemgetter
from struct import Struct

from .errors import DomainError, InexactDivisionError, NonSymmetricError
from .rings import BetaPoly, qnorm, render_scalar

Partition = tuple[int, ...]

# in a key of width n + s, the field of slot i (x_i for i <= n, 1-based)
# starts FIELD * (width - i) bits up and the degree FIELD * width bits up
FIELD = 16
BOUND = 1 << (FIELD - 1)
_MASK = (1 << FIELD) - 1


def _codec(width: int):
    """(pack, unpack, size) of the fields of a packed key of the given
    width, degree first: int.from_bytes(pack(degree, *slots), "big") is
    the key and unpack(key.to_bytes(size, "big")) its fields.  Neither
    validates."""
    fmt = Struct(f">{width + 1}H")
    return fmt.pack, fmt.unpack, fmt.size


def _require_degree(total: int):
    if total >= BOUND:
        raise DomainError(f"total degree {total} reaches the exponent bound {BOUND}")


def _pack(key, width: int) -> int:
    """The packed form of a tuple key; DomainError for a key of another
    width, with a negative slot, or of total degree at or above BOUND."""
    if len(key) != width:
        raise DomainError(f"exponent key {key!r} has {len(key)} slots, not {width}")
    if width and min(key) < 0:
        raise DomainError(f"exponent key {key!r} has a negative exponent")
    packed = sum(key)
    _require_degree(packed)
    for e in key:
        packed = packed << FIELD | e
    return packed


class _Items(ItemsView):
    """(tuple key, coefficient) pairs of a terms view, unpacked in one pass."""

    __slots__ = ()

    def __iter__(self):
        _, unpack, size = _codec(self._mapping._width)
        for key, c in self._mapping._packed.items():
            yield unpack(key.to_bytes(size, "big"))[1:], c


class _TermsView(Mapping):
    """The terms of a MultiPoly as a read-only mapping {exponent tuple:
    coefficient}, the tuple being the x slots then the aux slots."""

    __slots__ = ("_packed", "_width")

    def __init__(self, packed: dict, width: int):
        self._packed = packed
        self._width = width

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return (key for key, _ in self.items())

    def __getitem__(self, key):
        try:
            return self._packed[_pack(key, self._width)]
        except (DomainError, TypeError, KeyError):
            raise KeyError(key) from None

    def items(self):
        return _Items(self)

    def values(self):
        return self._packed.values()


class Ring:
    """Coefficient ring descriptor for MultiPoly; a value, equal and
    hashing equal by (kind, var), so rings serve as cache keys."""

    __slots__ = ("kind", "var", "aux_slots")

    def __init__(self, kind: str, var: str = "b"):
        self.kind = kind   # 'q' or 'uni'
        self.var = var     # auxiliary symbol name used for rendering
        self.aux_slots = 0 if kind == "q" else 1

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

    The constructor takes {exponent tuple: coefficient}, the tuple being
    the x slots then the aux slots, and packs it (see the module
    docstring); ``terms`` reads it back.  Instances are treated as
    immutable.
    """

    __slots__ = ("n", "ring", "_terms")

    def __init__(self, n: int, ring: Ring = RING_Q, terms=None):
        self.n = n
        self.ring = ring
        width = n + ring.aux_slots
        self._terms = {_pack(key, width): c for key, c in terms.items()} if terms else {}

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(n: int, ring: Ring = RING_Q) -> "MultiPoly":
        return _poly(n, ring, {})

    @staticmethod
    def const(n: int, value, ring: Ring = RING_Q) -> "MultiPoly":
        base = (0,) * n
        return MultiPoly(n, ring, {base + aux: c for aux, c in ring.aux_keys_of(value).items()})

    @staticmethod
    def variable(i: int, n: int, ring: Ring = RING_Q) -> "MultiPoly":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise DomainError(f"variable index {i} outside 1..{n}")
        width = n + ring.aux_slots
        return _poly(n, ring, {(1 << FIELD * width) | (1 << FIELD * (width - i)): 1})

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

    @property
    def terms(self) -> Mapping:
        """{exponent tuple: coefficient}, read-only, unpacked as read."""
        return _TermsView(self._terms, self._width())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self.ring, tuple(sorted(self._terms.items()))))

    def degree(self) -> int:
        """Total degree in the x variables; -1 for the zero polynomial."""
        n = self.n
        return max((sum(k[:n]) for k in self.terms), default=-1)

    def constant_term(self):
        """The ring scalar of the monomials free of x."""
        n = self.n
        return self.ring.scalar_from_aux(
            [(k[n:], c) for k, c in self.terms.items() if not any(k[:n])]
        )

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
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _poly(self.n, self.ring, out)

    def __neg__(self) -> "MultiPoly":
        return _poly(self.n, self.ring, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._compat(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return MultiPoly.zero(self.n, self.ring)
        top = FIELD * self._width()
        _require_degree((max(a) >> top) + (max(b) >> top))
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _poly(self.n, self.ring, out)

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
            return _poly(
                self.n, self.ring, {k: qnorm(c * scalar) for k, c in self._terms.items()}
            )
        return self.scale_by((), lambda e: scalar)

    def scale_by(self, variables, power) -> "MultiPoly":
        """Scale each monomial by the ring scalar power(e), e its total
        exponent in the given variables (1-based), in one pass: power(e)
        is expanded once per distinct e, and each aux key is packed into
        an offset once."""
        n, ring = self.n, self.ring
        width = n + ring.aux_slots
        shifts = [FIELD * (width - i) for i in variables]
        top = FIELD * width
        lead = max(self._terms, default=0) >> top
        zeros = (0,) * n
        offsets, by_aux = {}, {}
        out = {}
        for k, c in self._terms.items():
            e = sum((k >> s) & _MASK for s in shifts)
            pairs = offsets.get(e)
            if pairs is None:
                pairs = offsets[e] = []
                for aux, ac in ring.aux_keys_of(power(e)).items():
                    off = by_aux.get(aux)
                    if off is None:
                        off = by_aux[aux] = _pack(zeros + aux, width)
                        _require_degree(lead + (off >> top))
                    pairs.append((off, ac))
            for off, ac in pairs:
                nk = k + off
                s = out.get(nk, 0) + c * ac
                if s:
                    out[nk] = qnorm(s)
                else:
                    del out[nk]
        return _poly(n, ring, out)

    # -- variable actions --------------------------------------------

    def swap(self, i: int, j: int) -> "MultiPoly":
        """Exchange the exponents of x_i and x_j (1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError("swap index out of range")
        if i == j:
            return self
        width = self._width()
        si, sj = FIELD * (width - i), FIELD * (width - j)
        step = (1 << si) - (1 << sj)
        return _poly(self.n, self.ring, {
            k + (((k >> sj) & _MASK) - ((k >> si) & _MASK)) * step: c
            for k, c in self._terms.items()
        })

    def asymmetric_exchange(self, positions):
        """The first a in positions (0-based) such that exchanging x_(a+1)
        and x_(a+2) changes the polynomial, or None; no exchange is built.
        Each monomial whose two exponents differ must meet its partner
        with the same coefficient, compared once per pair, from the side
        where x_(a+1)'s exponent is larger."""
        terms = self._terms
        width = self._width()
        for a in positions:
            sj = FIELD * (width - a - 2)
            si = sj + FIELD
            step = (1 << si) - (1 << sj)
            for k, c in terms.items():
                u, v = (k >> si) & _MASK, (k >> sj) & _MASK
                if u == v:
                    continue
                swapped = k + (v - u) * step
                if not (swapped in terms if u < v else terms.get(swapped) == c):
                    return a
        return None

    def euler(self, i: int) -> "MultiPoly":
        """Apply x_i d/dx_i: scale each monomial by its x_i exponent."""
        if not 1 <= i <= self.n:
            raise DomainError("euler index out of range")
        s = FIELD * (self._width() - i)
        out = {}
        for k, c in self._terms.items():
            e = (k >> s) & _MASK
            if e:
                out[k] = c * e
        return _poly(self.n, self.ring, out)

    def permute_vars(self, perm) -> "MultiPoly":
        """Relabel variables: new position of x_{i+1} is perm[i]+1."""
        n = self.n
        inverse = [0] * n
        for i, p in enumerate(perm):
            inverse[p] = i
        if inverse == list(range(n)):
            return self
        # field 0 is the degree; the new x slot p reads old slot inverse[p];
        # aux slots stay
        width = self._width()
        relabel = itemgetter(0, *(i + 1 for i in inverse), *range(n + 1, width + 1))
        pack, unpack, size = _codec(width)
        return _poly(n, self.ring, {
            int.from_bytes(pack(*relabel(unpack(k.to_bytes(size, "big")))), "big"): c
            for k, c in self._terms.items()
        })

    def divided_difference(self, i: int, j: int) -> "MultiPoly":
        """d_ij f = (1 - K_ij) f / (x_i - x_j), term by term: with
        lo = min(u, v) and hi = max(u, v),
        (x_i^u x_j^v - x_i^v x_j^u)/(x_i - x_j)
        = sign(u - v) sum_{p < hi - lo} x_i^(lo+p) x_j^(hi-1-p).
        On packed keys the first term sets the two fields to (lo, hi - 1),
        which lowers the degree by one, and each next term adds
        step = x_i / x_j.  The aux slots ride along, so every ring takes
        the same path."""
        width = self._width()
        si, sj = FIELD * (width - i), FIELD * (width - j)
        step = (1 << si) - (1 << sj)
        drop = (1 << FIELD * width) + (1 << sj)
        out = {}
        get = out.get
        for k, c in self._terms.items():
            d = ((k >> si) & _MASK) - ((k >> sj) & _MASK)
            if d > 0:
                nk = k - drop - d * step
            elif d:
                nk, c, d = k - drop, -c, -d
            else:
                continue
            # most steps have d = 1: no range over long ints
            while True:
                s = get(nk, 0) + c
                if s:
                    out[nk] = s
                else:
                    del out[nk]
                d -= 1
                if not d:
                    break
                nk += step
        return _poly(self.n, self.ring, out)

    def lift(self, n: int, ring: Ring) -> "MultiPoly":
        """This polynomial, rational in x_1..x_k (k = self.n <= n), as a
        polynomial in x_1..x_n over the ring: the x fields move above
        zero x_(k+1)..x_n and aux fields."""
        k = self.n
        if self.ring.aux_slots or k > n:
            raise DomainError("lift takes a rational polynomial into at least as many variables")
        width = n + ring.aux_slots
        xmask = (1 << FIELD * k) - 1
        return _poly(n, ring, {
            ((p >> FIELD * k) << FIELD * width) | ((p & xmask) << FIELD * (width - k)): c
            for p, c in self._terms.items()
        })

    def orbit_sums(self) -> dict:
        """{x exponent sorted decreasing: {aux slots: sum}}: the sum of the
        coefficients over each S_n orbit of x exponents, per aux slots."""
        n = self.n
        _, unpack, size = _codec(self._width())
        sums = {}
        for k, c in self._terms.items():
            fields = unpack(k.to_bytes(size, "big"))
            row = sums.setdefault(tuple(sorted(fields[1:n + 1], reverse=True)), {})
            aux = fields[n + 1:]
            row[aux] = row.get(aux, 0) + c
        return sums

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        """Canonical text form with graded-lex descending term order."""
        if not self._terms:
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


_new = object.__new__


def _poly(n: int, ring: Ring, packed: dict) -> MultiPoly:
    """The polynomial with the given packed table, taken as it is."""
    f = _new(MultiPoly)
    f.n = n
    f.ring = ring
    f._terms = packed
    return f


def _order_key(k):
    return (sum(k), k)


# -- exact division --------------------------------------------------


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g with a mandatory post-check q*g == f.

    Leading-term division under the graded-lex order; the cost is
    proportional to (number of quotient terms) * (size of g), so dividing
    a huge numerator by a huge divisor is cheap whenever the quotient is
    small.  The heap holds negated packed keys, and the leading monomial
    of g divides a monomial exactly when their difference sets no guard
    bit.  Raises InexactDivisionError (carrying the remainder witness)
    when the division is not exact.
    """
    f._compat(g)
    if not g._terms:
        raise DomainError("division by the zero polynomial")
    width = f._width()
    guards = int.from_bytes(b"\x80\x00" * (width + 1), "big")
    glead = max(g._terms)
    gcoeff = g._terms[glead]
    gitems = [(k, c) for k, c in g._terms.items() if k != glead]

    rem = dict(f._terms)
    quot = {}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        c = rem.get(k)
        if not c:
            continue
        tk = k - glead
        if tk & guards:
            raise InexactDivisionError(
                "inexact polynomial division", _poly(f.n, f.ring, rem)
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
            nk = tk + gk
            s = rem.get(nk, 0) - tc * gc
            if s:
                if nk not in rem:
                    heapq.heappush(heap, -nk)
                rem[nk] = s
            else:
                rem.pop(nk, None)
    if rem:
        raise InexactDivisionError(
            "inexact polynomial division", _poly(f.n, f.ring, rem)
        )
    q = _poly(f.n, f.ring, quot)
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
    _, unpack, size = _codec(f._width())
    orbits = {}
    for k, c in f._terms.items():
        fields = unpack(k.to_bytes(size, "big"))
        key = (tuple(sorted(fields[1:n + 1], reverse=True)), fields[n + 1:])
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
    a = f.asymmetric_exchange(range(f.n - 1))
    return (a + 1, a + 2)


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
    degree = sum(lam)
    _require_degree(degree)
    pack = _codec(n + ring.aux_slots)[0]
    aux = (0,) * ring.aux_slots
    return _poly(n, ring, {
        int.from_bytes(pack(degree, *e, *aux), "big"): 1
        for e in _distinct_permutations(lam + (0,) * (n - len(lam)))
    })


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


def from_msym_coords(coords, n: int, ring: Ring = RING_Q) -> MultiPoly:
    """sum over mu of coords[mu] m_mu, coords[mu] a ring scalar: the
    inverse of ``to_msym_coords``.  The keys of one m_mu share their
    degree, so one key per aux slots is checked."""
    width = n + ring.aux_slots
    pack = _codec(width)[0]
    out = {}
    for mu, scalar in coords.items():
        perms = _distinct_permutations(mu + (0,) * (n - len(mu)))
        by_aux = [
            (aux, qnorm(c), _pack(perms[0] + aux, width) >> FIELD * width)
            for aux, c in ring.aux_keys_of(scalar).items()
        ]
        for e in perms:
            for aux, c, degree in by_aux:
                out[int.from_bytes(pack(degree, *e, *aux), "big")] = c
    return _poly(n, ring, out)


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
