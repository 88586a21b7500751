"""Linear operators on symmetric polynomials: q-shifts, Dunkl operators,
Vandermonde-kernel operators and Macdonald operators.

Every division by x_i - x_j on an operator path is the divided
difference d_ij f = (1 - K_ij) f / (x_i - x_j), evaluated term by term
as a geometric sum of monomials, never by forming a numerator and
dividing it.  The Dunkl operator is d_i = x_i d_i + b A_i with
A_i = x_i sum_(j != i) d_ij.  The kernel operators are built from the
same divided differences: the canonical-subset term of B_{k,l} is the
order-(k-1) divided difference d_(k-1,k) ... d_12 (x_1^(k-1) (x_1 d_1)^l f),
the pair-ratio term is (x_1 + x_2) d_12 (x_1 d_1 f), and the
reflection-square term is A_1 A_1 (x_1 d_1 f).  All of them, and the
power sum H_k = sum_i d_i^k, need a symmetric argument f (checked): then
the term of index i (or subset S) is a relabeling of the canonical one.

Macdonald operators use the alternant formula (Macdonald, Symmetric
Functions and Hall Polynomials, ch. VI 3), with delta = (n-1, ..., 0)
and a_e the alternant of x^e: D(n, r) m_lam = sum over the
rearrangements alpha of lam of e_r(q^alpha_1 t^(n-1), ..., q^alpha_n t^0)
a_(alpha+delta) / a_delta.  So every coordinate of D(n, r) m_lam is an
integer polynomial sum N q^a t^b.  It is computed once per (n, r, lam),
in integers only, and cached as the column {mu: {(a, b): N}}: the
r-subsets I of each alpha are counted by (a, b) = (sum_I alpha_i,
sum_I delta_i), and the Schur read-off and the Kostka step run over
those counts.  No m_lam is expanded.  Each coordinate is read by one of
the two readers of {(a, b): N} tables in ``rings``: its h^k coefficient
under q = exp(h), t = exp(b h) (``exp_sum_slice``, one b-polynomial per
h order), or its value at a rational (q, t) (``rational_value``).
``extract_order``, ``macdonald_matrix`` and ``macdonald_apply`` take the
reader alike.

Sums over all r-subsets whose terms are rational functions (the scalar
part of the Macdonald operator, the type families) put the canonical
subset's term over the full Vandermonde product, as a numerator g * cof
given by its two factors and never formed.  g must
be antisymmetric inside the subset and symmetric inside its complement,
cof symmetric inside the subset and antisymmetric inside the complement
(both checked exactly, cof once when it is built).  Then the numerator is
antisymmetric inside both blocks, the signed subset sum is a sum of
alternants a_e, and only the coefficients of g * cof at those e are
computed.  The Macdonald formula and the subset sums read a_e / a_delta
off in the Schur basis (a_(lam+delta) = a_delta s_lam) through one
function and turn it into monomial coordinates by a Kostka table, never
dividing by the n!-term product.

Subset sums exploit symmetry: for a symmetric argument f and an
order-preserving variable relabeling s, the term attached to subset S
equals the relabeling under s of the term attached to the canonical
subset {1..k}.  Each operator therefore evaluates one canonical term and
replicates it across subsets.  Literal evaluations are kept (functions
with a ``_literal`` suffix: per subset, per Dunkl chain, entry by entry,
or by exact division, the only callers of ``exact_div`` here) and the
tests compare each with its fast path.

Matrix products and commutators of rational and b-polynomial matrices
run in integers: each operand is scaled once by the lcm of its entry
denominators, and only the nonzero entries of the result are turned
back into scalars, so a commuting pair builds none.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import combinations
from math import lcm
from operator import add, sub

from .errors import DomainError, InexactDivisionError, NonSymmetricError
from .multipoly import (
    MultiPoly,
    Ring,
    _distinct_permutations,
    _require_partition,
    exact_div,
    kostka_table,
    monomial_symmetric,
    partitions_of,
    partitions_upto,
    symmetry_violation,
    to_msym_coords,
    vandermonde,
)
from .rings import BetaPoly, HJet, exp_sum_slice, qnorm, rational_value, render_scalar


# -- operators ----------------------------------------------------------


class LinearOperator:
    """A linear map on MultiPoly over a fixed (n, ring) space."""

    __slots__ = ("n", "ring", "fn")

    def __init__(self, n: int, ring: Ring, fn):
        self.n = n
        self.ring = ring
        self.fn = fn

    def __call__(self, f: MultiPoly) -> MultiPoly:
        if f.n != self.n or f.ring != self.ring:
            raise DomainError("operator got a polynomial over a different space")
        return self.fn(f)


# -- relabeling helpers ------------------------------------------------


def _subset_perm(subset, n: int):
    """Permutation sending 1..k onto the subset and the rest onto its
    complement, both order-preserving.  Entry p[i] is the 0-based new
    position of old variable i+1."""
    comp = [v for v in range(1, n + 1) if v not in subset]
    perm = [0] * n
    for i, v in enumerate(subset):
        perm[i] = v - 1
    for i, v in enumerate(comp):
        perm[len(subset) + i] = v - 1
    return tuple(perm)


def _subset_sign(subset, n: int) -> int:
    """Sign of ``_subset_perm(subset, n)``: the parity of the pairs v > w
    with v in the subset and w outside it."""
    inv = 0
    sset = set(subset)
    for i in subset:
        inv += sum(1 for j in range(1, i) if j not in sset)
    return -1 if inv % 2 else 1


def _sum_over_subsets(unit: MultiPoly, k: int) -> MultiPoly:
    """Sum of the relabelings of the canonical-subset term unit over all
    k-subsets."""
    n = unit.n
    subsets = combinations(range(1, n + 1), k)
    # the first subset is the canonical one: its relabeling is the identity
    out = unit if next(subsets, None) is not None else MultiPoly.zero(n, unit.ring)
    for subset in subsets:
        out = out + unit.permute_vars(_subset_perm(subset, n))
    return out


def _require_exchange_sign(f: MultiPoly, positions, sign: int, name: str):
    """Exchanging x_(a+1) and x_(a+2), for each a in positions, must
    multiply f by sign (1: symmetric, -1: antisymmetric); else
    InexactDivisionError carrying f."""
    terms = f.terms
    for a in positions:
        for key, c in terms.items():
            u, v = key[a], key[a + 1]
            swapped = key[:a] + (v, u) + key[a + 2:]
            # the values are compared once per pair, from its u >= v side
            if not (terms.get(swapped) == sign * c if u >= v else swapped in terms):
                kind = "symmetric" if sign == 1 else "antisymmetric"
                raise InexactDivisionError(
                    f"{name} is not {kind} under exchanging x{a + 1} and x{a + 2}", f
                )


def _by_x(f: MultiPoly):
    """{x exponent: [(aux exponents, coefficient), ...]} of f."""
    out = {}
    for key, c in f.terms.items():
        out.setdefault(key[:f.n], []).append((key[f.n:], c))
    return out


class _Cofactor:
    """The factor cof of a subset numerator g * cof (see
    ``_alternate_over_subsets``), checked once to be symmetric under
    exchanges inside the head block {1..k} and antisymmetric inside the
    tail block {k+1..n}, and indexed by x exponent."""

    __slots__ = ("poly", "k", "by_x", "degrees")

    def __init__(self, poly: MultiPoly, k: int):
        n = poly.n
        _require_exchange_sign(poly, range(k - 1), 1, "subset cofactor")
        _require_exchange_sign(poly, range(k, n - 1), -1, "subset cofactor")
        self.poly, self.k = poly, k
        self.by_x = _by_x(poly)
        self.degrees = {sum(x) for x in self.by_x}


def _alternate_over_subsets(g: MultiPoly, cof: _Cofactor) -> MultiPoly:
    """Sum of the signed relabelings of g * cof over all k-subsets, divided
    by the full Vandermonde product, read off in the Schur basis without
    forming g * cof.

    g * cof is the numerator of the canonical subset {1..k} over the
    Vandermonde product.  g must be antisymmetric under exchanges inside
    the head {1..k} and symmetric inside the tail {k+1..n} (else
    InexactDivisionError carrying g); cof has the opposite contract.  So
    g * cof is antisymmetric inside both blocks, and its signed subset sum
    is sum c a_e over its terms c x^e whose two blocks are strictly
    decreasing.  Only those coefficients are computed: for each lam of a
    degree the product can have, and each split of lam + delta into a
    head of k entries and a tail, both decreasing, the coefficient at that
    e is sum over a in g of g[a] cof[e - a].
    """
    g._compat(cof.poly)
    n, k = g.n, cof.k
    _require_exchange_sign(g, range(k - 1), -1, "subset numerator factor")
    _require_exchange_sign(g, range(k, n - 1), 1, "subset numerator factor")
    g_by_x = _by_x(g)
    offset = n * (n - 1) // 2
    weights = {sum(x) + d - offset for x in g_by_x for d in cof.degrees}
    # the coefficient is a convolution: loop over the smaller factor
    small, large = sorted((g_by_x, cof.by_x), key=len)
    alternants = []
    for w in sorted(weights):
        for lam in partitions_of(w, n):
            alpha = [p + n - 1 - i for i, p in enumerate(lam + (0,) * (n - len(lam)))]
            for head in combinations(alpha, k):
                e = head + tuple(v for v in alpha if v not in head)
                coeff = {}
                for x, pairs in small.items():
                    other = large.get(tuple(map(sub, e, x)))
                    if other:
                        for aux1, c1 in pairs:
                            for aux2, c2 in other:
                                aux = tuple(map(add, aux1, aux2))
                                coeff[aux] = coeff.get(aux, 0) + c1 * c2
                alternants.append((e, coeff))
    return _from_coords(_readoff_coords(alternants, n), n, g.ring)


def _readoff_coords(alternants, n: int):
    """sum c a_e / a_delta over the (e, {aux: c}) pairs, e an x exponent
    and aux a tuple of extra slots, in monomial coordinates
    {mu: {aux: c}} with no zero c.  a_e / a_delta is 0 when e repeats an
    entry, else s_(sort(e) - delta) times the sign of the permutation that
    sorts e, and s_lam = sum_mu K_lam_mu m_mu."""
    schur = {}
    for e, by_aux in alternants:
        if len(set(e)) < n:
            continue
        odd = sum(1 for i in range(n) for j in range(i + 1, n) if e[i] < e[j]) % 2
        alpha = sorted(e, reverse=True)
        lam = tuple(p - (n - 1 - i) for i, p in enumerate(alpha) if p > n - 1 - i)
        row = schur.setdefault(lam, {})
        for aux, c in by_aux.items():
            row[aux] = row.get(aux, 0) + (-c if odd else c)
    mcoords = {}
    for lam, by_aux in schur.items():
        by_aux = [(aux, c) for aux, c in by_aux.items() if c]
        if not by_aux:
            continue
        for mu, kk in kostka_table(sum(lam), n)[lam]:
            row = mcoords.setdefault(mu, {})
            for aux, c in by_aux:
                row[aux] = row.get(aux, 0) + c * kk
    out = {}
    for mu, by_aux in mcoords.items():
        nonzero = {aux: c for aux, c in by_aux.items() if c}
        if nonzero:
            out[mu] = nonzero
    return out


def _from_coords(coords, n: int, ring: Ring) -> MultiPoly:
    """sum over mu of m_mu times the scalar {aux: c} of coords[mu], c
    rational."""
    out = {}
    for mu, by_aux in coords.items():
        for e in _distinct_permutations(mu + (0,) * (n - len(mu))):
            for aux, c in by_aux.items():
                out[e + aux] = qnorm(c)
    return MultiPoly(n, ring, out)


def _require_symmetric(f: MultiPoly, opname: str):
    bad = symmetry_violation(f)
    if bad is not None:
        raise NonSymmetricError(
            f"{opname} requires a symmetric argument; exchanging x{bad[0]} and "
            f"x{bad[1]} changes the input",
            bad,
        )


# -- diagonal operators (monomial-exponent weights) ---------------------


def _exponent_weighted(f: MultiPoly, weight) -> MultiPoly:
    n = f.n
    return MultiPoly(
        n, f.ring, {k: c * w for k, c in f.terms.items() if (w := weight(k[:n]))}
    )


def l_op(k: int, n: int, ring: Ring) -> LinearOperator:
    """Power sum of the Euler operators: sum_i (x_i d_i)^k."""
    if k < 0:
        raise DomainError("l_op needs k >= 0")
    return LinearOperator(
        n, ring, lambda f: _exponent_weighted(f, lambda e: sum(v**k for v in e))
    )


def m11_op(n: int, ring: Ring) -> LinearOperator:
    def w(e):
        s1 = sum(e)
        s2 = sum(v * v for v in e)
        return (s1 * s1 - s2) // 2

    return LinearOperator(n, ring, lambda f: _exponent_weighted(f, w))


# -- q-shift ------------------------------------------------------------


def qshift_apply(i: int, qval, f: MultiPoly) -> MultiPoly:
    """Substitute x_i -> q x_i at a rational q: scale each monomial by
    qval^(x_i exponent)."""
    if not 1 <= i <= f.n:
        raise DomainError("shift index out of range")
    return _shift_subset(f, (i,), partial(_rational_power, qval))


def qshift_slice(i: int, k: int, f: MultiPoly) -> MultiPoly:
    """The h^k coefficient of f with x_i -> q x_i at q = exp(h): each
    monomial scaled by the h^k coefficient of exp(e h), e its x_i
    exponent.  f must have b-polynomial coefficients."""
    if not 1 <= i <= f.n:
        raise DomainError("shift index out of range")
    return _shift_subset(f, (i,), lambda e: exp_sum_slice({(e, 0): 1}, k))


def _shift_subset(f: MultiPoly, subset, power) -> MultiPoly:
    """Scale each monomial of f by the ring scalar power(e), e its total
    exponent in the variables of the subset."""
    n, ring = f.n, f.ring
    pieces = {}
    idx = [i - 1 for i in subset]
    for k, c in f.terms.items():
        e = sum(k[i] for i in idx)
        pieces.setdefault(e, {})[k] = c
    acc = MultiPoly.zero(n, ring)
    for e, terms in sorted(pieces.items()):
        acc = acc + MultiPoly(n, ring, terms).scale(power(e))
    return acc


def _rational_power(val, e: int):
    return qnorm(Fraction(val) ** e)


# -- divided differences -------------------------------------------------


def _divided_difference(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """d_ij f = (1 - K_ij) f / (x_i - x_j), term by term: with
    lo = min(u, v) and hi = max(u, v),
    (x_i^u x_j^v - x_i^v x_j^u)/(x_i - x_j)
    = sign(u - v) sum_{p < hi - lo} x_i^(lo+p) x_j^(hi-1-p).
    The aux slots ride along, so every ring takes the same path."""
    a, b = i - 1, j - 1
    out = {}
    for key, c in f.terms.items():
        u, v = key[a], key[b]
        if u == v:
            continue
        if u > v:
            lo, hi = v, u
        else:
            lo, hi, c = u, v, -c
        lk = list(key)
        for p in range(hi - lo):
            lk[a], lk[b] = lo + p, hi - 1 - p
            k = tuple(lk)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
    return MultiPoly(f.n, f.ring, out)


def _divided_difference_literal(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """``_divided_difference`` by dividing (1 - K_ij) f exactly by
    x_i - x_j."""
    return exact_div(
        f - f.swap(i, j), MultiPoly.variable(i, f.n, f.ring) - MultiPoly.variable(j, f.n, f.ring)
    )


def _reflection_sum(i: int, f: MultiPoly) -> MultiPoly:
    """A_i f = x_i sum_{j != i} d_ij f = sum_{j != i} x_i/(x_i-x_j)(1-K_ij) f."""
    acc = MultiPoly.zero(f.n, f.ring)
    for j in range(1, f.n + 1):
        if j != i:
            acc = acc + _divided_difference(f, i, j)
    # times x_i: raise every term's x_i exponent by one
    a = i - 1
    return MultiPoly(
        f.n, f.ring, {k[:a] + (k[a] + 1,) + k[i:]: c for k, c in acc.terms.items()}
    )


# -- Dunkl operators ----------------------------------------------------


def dunkl_apply(i: int, f: MultiPoly) -> MultiPoly:
    """Dunkl operator d_i = x_i d_i + b A_i."""
    if f.ring.kind == "q":
        raise DomainError("Dunkl operators need a coefficient ring containing b")
    return f.euler(i) + _reflection_sum(i, f).scale(BetaPoly.var())


def h_op_apply(k: int, f: MultiPoly) -> MultiPoly:
    """H_k = sum_i d_i^k on symmetric f.  d_i = K_1i d_1 K_1i and
    K_1i f = f, so d_i^k f = K_1i d_1^k f: one chain of d_1 and its
    relabelings."""
    if k < 1:
        raise DomainError("h_op needs k >= 1")
    _require_symmetric(f, f"H[{k}]")
    g = f
    for _ in range(k):
        g = dunkl_apply(1, g)
    return _sum_over_subsets(g, 1)


def h_op_apply_literal(k: int, f: MultiPoly) -> MultiPoly:
    """H_k = sum_i d_i^k applied to any f, one chain per i."""
    if k < 1:
        raise DomainError("h_op needs k >= 1")
    out = MultiPoly.zero(f.n, f.ring)
    for i in range(1, f.n + 1):
        g = f
        for _ in range(k):
            g = dunkl_apply(i, g)
        out = out + g
    return out


def h_op(k: int, n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, lambda f: h_op_apply(k, f))


# -- Vandermonde-kernel family ------------------------------------------


def b_op_apply(k: int, l: int, f: MultiPoly) -> MultiPoly:
    """B_{k,l} = sum over k-subsets S of sum_(s in S)
    x_s^(k-1) (x_s d_s)^l / prod_(t in S, t != s)(x_s - x_t) on symmetric f.
    The term of S = {1..k} is the divided difference
    d_(k-1,k) ... d_23 d_12 (x_1^(k-1) (x_1 d_1)^l f), since
    (x_s d_s)^l f = K_1s (x_1 d_1)^l f; it is replicated over all
    k-subsets by relabeling."""
    if k < 1 or l < 0:
        raise DomainError("b_op needs k >= 1 and l >= 0")
    n = f.n
    if k > n:
        return MultiPoly.zero(n, f.ring)
    if not f:
        return f
    _require_symmetric(f, f"B[{k},{l}]")
    g = f
    for _ in range(l):
        g = g.euler(1)
    g = MultiPoly.variable(1, n, f.ring) ** (k - 1) * g
    for i in range(1, k):
        g = _divided_difference(g, i, i + 1)
    return _sum_over_subsets(g, k)


def b_op_apply_literal(k: int, l: int, f: MultiPoly) -> MultiPoly:
    """Per-subset evaluation of B_{k,l}: each subset's numerator over its
    Vandermonde product, resolved by exact division."""
    n, ring = f.n, f.ring
    if k > n:
        return MultiPoly.zero(n, ring)
    out = MultiPoly.zero(n, ring)
    for subset in combinations(range(1, n + 1), k):
        num = MultiPoly.zero(n, ring)
        for pos, s in enumerate(subset):
            g = f
            for _ in range(l):
                g = g.euler(s)
            g = g * MultiPoly.variable(s, n, ring) ** (k - 1)
            term = g * vandermonde(n, ring, [t for t in subset if t != s])
            num = num + (term if pos % 2 == 0 else -term)
        out = out + exact_div(num, vandermonde(n, ring, subset))
    return out


def b_op(k: int, l: int, n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, lambda f: b_op_apply(k, l, f))


def pair_ratio_apply(f: MultiPoly) -> MultiPoly:
    """sum_{i<j} (x_i+x_j)/(x_i-x_j) (x_i d_i - x_j d_j) on symmetric f.
    x_2 d_2 f = K_12 x_1 d_1 f, so the pair {1, 2} contributes
    (x_1 + x_2) d_12 (x_1 d_1 f)."""
    n, ring = f.n, f.ring
    if n < 2 or not f:
        return MultiPoly.zero(n, ring)
    _require_symmetric(f, "pair ratio sum")
    x12 = MultiPoly.variable(1, n, ring) + MultiPoly.variable(2, n, ring)
    return _sum_over_subsets(x12 * _divided_difference(f.euler(1), 1, 2), 2)


def pair_ratio_op(n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, pair_ratio_apply)


def reflection_square_apply(f: MultiPoly) -> MultiPoly:
    """The operator sum_i A_i C_i on symmetric f, where
    A_i = sum_{j != i} x_i/(x_i-x_j)(1-K_ij) and
    C_i = sum_{j != i} x_i/(x_i-x_j)(x_i d_i - x_j d_j)."""
    if not f:
        return f
    _require_symmetric(f, "reflection square")
    # K_1j (x_1 d_1) f = x_j d_j f on symmetric f, so C_1 f = A_1 (x_1 d_1 f)
    return _sum_over_subsets(_reflection_sum(1, _reflection_sum(1, f.euler(1))), 1)


def reflection_square_op(n: int, ring: Ring) -> LinearOperator:
    return LinearOperator(n, ring, reflection_square_apply)


# -- Macdonald operators -------------------------------------------------


def _cross_product(n: int, ring: Ring, subset, tval) -> MultiPoly:
    """prod over i in subset, j outside of (t x_i - x_j)."""
    out = MultiPoly.const(n, 1, ring)
    comp = [j for j in range(1, n + 1) if j not in subset]
    for i in subset:
        txi = MultiPoly.variable(i, n, ring).scale(tval)
        for j in comp:
            out = out * (txi - MultiPoly.variable(j, n, ring))
    return out


def _require_rank(n: int, **ranks):
    for name, v in ranks.items():
        if not 1 <= v <= n:
            raise DomainError(f"need 1 <= {name} <= n, got {name}={v}, n={n}")


@cache
def _macdonald_column(n: int, r: int, lam) -> dict:
    """D(n, r) m_lam as {mu: {(a, b): N}}: the coordinate of m_mu is the
    integer polynomial sum N q^a t^b.  By the alternant formula of the
    module docstring, each rearrangement alpha of lam with no repeated
    entry in alpha + delta contributes e_r(q^alpha_i t^(n-i)) a_(alpha+delta);
    the r-subsets I are counted by (a, b) = (sum_I alpha_i, sum_I delta_i)
    and the counts are read off in the Schur basis.  Cached per
    (n, r, lam); callers must not mutate it."""
    _require_rank(n, r=r)
    _require_partition(lam, n)
    delta = tuple(range(n - 1, -1, -1))
    subsets = [(I, sum(delta[i] for i in I)) for I in combinations(range(n), r)]
    alternants = []
    for alpha in _distinct_permutations(lam + (0,) * (n - len(lam))):
        e = tuple(a + d for a, d in zip(alpha, delta))
        if len(set(e)) == n:
            alternants.append((e, Counter((sum(alpha[i] for i in I), b) for I, b in subsets)))
    return _readoff_coords(alternants, n)


def macdonald_apply(n: int, r: int, value, f: MultiPoly) -> MultiPoly:
    """Macdonald operator D(n, r) on symmetric f: the columns of the
    m-coordinates of f, each coefficient {(a, b): N} read by value as a
    scalar of f's ring (``exp_sum_slice`` at one h order over
    b-polynomials, or ``rational_value`` at a rational (q, t))."""
    _require_rank(n, r=r)
    coords = {}
    for lam, c in to_msym_coords(f).items():
        for mu, poly in _macdonald_column(n, r, lam).items():
            v = value(poly) * c
            coords[mu] = coords[mu] + v if mu in coords else v
    ring = f.ring
    return _from_coords({mu: ring.aux_keys_of(v) for mu, v in coords.items()}, n, ring)


def macdonald_apply_literal(n: int, r: int, qval, tval, f: MultiPoly) -> MultiPoly:
    """Per-subset evaluation of the Macdonald operator, no relabeling."""
    ring = f.ring
    total = MultiPoly.zero(n, ring)
    for subset in combinations(range(1, n + 1), r):
        comp = tuple(j for j in range(1, n + 1) if j not in subset)
        piece = (
            _cross_product(n, ring, subset, tval)
            * vandermonde(n, ring, subset)
            * vandermonde(n, ring, comp)
            * _shift_subset(f, subset, partial(_rational_power, qval))
        )
        total = total + (piece if _subset_sign(subset, n) == 1 else -piece)
    quot = exact_div(total, vandermonde(n, ring))
    return quot.scale(_rational_power(tval, r * (r - 1) // 2))


def macdonald_specialized(n: int, r: int, q, t) -> LinearOperator:
    value = partial(rational_value, Fraction(q), Fraction(t))
    return LinearOperator(n, Ring.q(), partial(macdonald_apply, n, r, value))


def macdonald_matrix(n: int, r: int, q, t, basis) -> OperatorMatrix:
    """Matrix of D(n, r) at rational (q, t) on an m-basis window."""
    return _column_matrix(
        n, r, basis, Ring.q(), partial(rational_value, Fraction(q), Fraction(t))
    )


# -- scalar part of the Macdonald operator --------------------------------


def macdonald_scalar_part(n: int, r: int) -> MultiPoly:
    """The subset sum with all shifts removed, applied to 1, over the
    t-polynomial ring.  A constant polynomial when the kernel sums
    telescope; compared against the t-binomial by the verifier.  It stays
    on the kernel-sum path because the alternant formula gives it as
    e_r(t^(n-1), ..., 1) t^(-r(r-1)/2), which is the t-binomial by the
    q-binomial theorem, so the check would verify nothing."""
    ring = Ring.uni("t")
    tval = BetaPoly.var()
    subset0 = tuple(range(1, r + 1))
    comp0 = tuple(range(r + 1, n + 1))
    cof = _cross_product(n, ring, subset0, tval) * vandermonde(n, ring, comp0)
    return _alternate_over_subsets(vandermonde(n, ring, subset0), _Cofactor(cof, r))


# -- matrices -------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Exact matrix of a degree-preserving operator on an m-basis window.

    ``entries[(mu, lam)]`` is the coordinate of m_mu in the image of
    m_lam; zero entries are omitted.
    """

    n: int
    ring: Ring
    basis: tuple
    entries: dict

    @staticmethod
    def from_operator(op: LinearOperator, basis, n: int, ring: Ring) -> "OperatorMatrix":
        return OperatorMatrix.from_columns(
            lambda lam: to_msym_coords(op(monomial_symmetric(lam, n, ring))), basis, n, ring
        )

    @staticmethod
    def from_columns(column, basis, n: int, ring: Ring) -> "OperatorMatrix":
        """The matrix whose column lam is column(lam), the {mu: scalar}
        coordinates of the image of m_lam."""
        basis = tuple(tuple(lam) for lam in basis)
        _check_basis_closure(basis, n)
        bset = set(basis)
        entries = {}
        for lam in basis:
            for mu, c in column(lam).items():
                if not c:
                    continue
                if mu not in bset:
                    raise DomainError(
                        f"operator image leaves the basis window: m{list(mu)} "
                        f"appears in the image of m{list(lam)}"
                    )
                entries[(mu, lam)] = c
        return OperatorMatrix(n, ring, basis, entries)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compat(other)
        out = dict(self.entries)
        for k, c in other.entries.items():
            s = out[k] + c if k in out else c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return OperatorMatrix(self.n, self.ring, self.basis, out)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "OperatorMatrix":
        if not c:
            return OperatorMatrix(self.n, self.ring, self.basis, {})
        return OperatorMatrix(
            self.n, self.ring, self.basis, {k: v * c for k, v in self.entries.items()}
        )

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._compat(other)
        da, a = _integer_columns(self)
        db, b = _integer_columns(other)
        out = {}
        _add_integer_product(out, a, b)
        return self._from_integer_cells(out, da * db)

    def commutator_with(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self @ other - other @ self, both products accumulated in one
        integer table, so a commuting pair builds no scalar at all."""
        self._compat(other)
        da, a = _integer_columns(self)
        db, b = _integer_columns(other)
        out = {}
        _add_integer_product(out, a, b)
        negated = {
            lam: [(mu, [(e, -c) for e, c in cell]) for mu, cell in col]
            for lam, col in a.items()
        }
        _add_integer_product(out, b, negated)
        return self._from_integer_cells(out, da * db)

    def _from_integer_cells(self, cells, denom: int) -> "OperatorMatrix":
        """The matrix over this window and ring whose entry at each key of
        cells is sum_e c/denom b^e over the {e: c} table there, zero
        entries omitted; a quotient that is exact stays an int."""
        uni = self.ring.kind == "uni"
        out = {}
        for key, cell in cells.items():
            coeffs = {
                e: Fraction(c, denom) if c % denom else c // denom
                for e, c in cell.items() if c
            }
            if coeffs:
                out[key] = BetaPoly(coeffs) if uni else coeffs[0]
        return OperatorMatrix(self.n, self.ring, self.basis, out)

    def _compat(self, other: "OperatorMatrix"):
        if self.basis != other.basis or self.n != other.n or self.ring != other.ring:
            raise DomainError("matrices over different windows cannot be combined")

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.basis == other.basis
            and (self - other).is_zero()
        )

    def beta_slice(self, j: int) -> "OperatorMatrix":
        """Coefficient of b^j entrywise; entries become rationals."""
        if self.ring.kind != "uni":
            raise DomainError("beta_slice needs a b-polynomial matrix")
        out = {}
        for k, v in self.entries.items():
            c = v.coeff(j)
            if c:
                out[k] = c
        return OperatorMatrix(self.n, Ring.q(), self.basis, out)

    def nonzero_cells(self):
        """Deterministically ordered (row, col, value) triples."""
        def key(cell):
            (mu, lam) = cell
            return (sum(lam), lam, sum(mu), mu)

        return [(mu, lam, self.entries[(mu, lam)]) for (mu, lam) in sorted(self.entries, key=key)]

    def render_cells(self):
        return [
            (_pname(mu), _pname(lam), render_scalar(v, self.ring.var))
            for mu, lam, v in self.nonzero_cells()
        ]


def _integer_columns(mat: OperatorMatrix):
    """(d, {lam: [(mu, [(e, c), ...]), ...]}): the entries of a rational or
    b-polynomial matrix times d, the lcm of their denominators, as integer
    coefficients c of b^e (e = 0 for a rational), grouped by column.  At
    d = 1 the entries' own (e, c) pairs are used as they are."""
    kind = mat.ring.kind
    coeffs = [
        (key, v.coeffs.items() if kind == "uni" else ((0, v),))
        for key, v in mat.entries.items()
    ]
    d = lcm(*{c.denominator for _, cell in coeffs for _, c in cell})
    cols = {}
    for (mu, lam), cell in coeffs:
        if d != 1:
            cell = [(e, c.numerator * (d // c.denominator)) for e, c in cell]
        cols.setdefault(lam, []).append((mu, cell))
    return d, cols


def _add_integer_product(out, left, right):
    """Add the product of two ``_integer_columns`` tables into out,
    {(mu, lam): {e: c}}; zero sums are left in place."""
    for lam, col in right.items():
        for nu, c1 in col:
            for mu, c2 in left.get(nu, ()):
                key = (mu, lam)
                cell = out.get(key)
                if cell is None:
                    cell = out[key] = {}
                for e2, n2 in c2:
                    for e1, n1 in c1:
                        e = e1 + e2
                        cell[e] = cell.get(e, 0) + n1 * n2


def _matrix_product_literal(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """a @ b entry by entry in the ring's own scalars."""
    a._compat(b)
    cols = {}
    for (mu, lam), c in b.entries.items():
        cols.setdefault(lam, []).append((mu, c))
    rows = {}
    for (mu, nu), c in a.entries.items():
        rows.setdefault(nu, []).append((mu, c))
    out = {}
    for lam, col in cols.items():
        for nu, c1 in col:
            for mu, c2 in rows.get(nu, ()):
                key = (mu, lam)
                s = out[key] + c2 * c1 if key in out else c2 * c1
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return OperatorMatrix(a.n, a.ring, a.basis, out)


def _pname(lam) -> str:
    return "m[" + ",".join(str(p) for p in lam) + "]"


def _check_basis_closure(basis, n: int):
    weights = {sum(lam) for lam in basis}
    bset = set(basis)
    for w in weights:
        for lam in partitions_of(w, n):
            if lam not in bset:
                raise DomainError(
                    f"basis window is not closed: weight {w} needs m{list(lam)}"
                )


def operator_matrix(op: LinearOperator, basis) -> OperatorMatrix:
    return OperatorMatrix.from_operator(op, basis, op.n, op.ring)


def _column_matrix(n: int, r: int, basis, ring: Ring, value) -> OperatorMatrix:
    """Matrix of D(n, r) on the basis window, read off the cached columns:
    entry (mu, lam) is value({(a, b): N}) of the coordinate of m_mu in
    D(n, r) m_lam, a scalar of the ring."""
    return OperatorMatrix.from_columns(
        lambda lam: {mu: value(p) for mu, p in _macdonald_column(n, r, lam).items()},
        basis, n, ring,
    )


# -- cached matrices --------------------------------------------------------


@lru_cache(maxsize=None)
def primitive_matrix(factor, n: int, basis) -> OperatorMatrix:
    """Matrix over b-polynomials of the operator
    factor[0](*factor[1:], n, Ring.uni("b")), e.g. (h_op, 2) for H_2 or
    (b_op, 3, 1) for B_{3,1}, on an m-basis window (a tuple of
    partitions); built once per (factor, n, basis), callers must not
    mutate it."""
    factory, *args = factor
    return operator_matrix(factory(*args, n, Ring.uni("b")), basis)


@lru_cache(maxsize=None)
def _order_matrix(n: int, r: int, k: int, degree: int) -> OperatorMatrix:
    if n < 1:
        raise DomainError("n must be at least 1")
    return _column_matrix(
        n, r, partitions_upto(degree, n), Ring.uni("b"), partial(exp_sum_slice, k=k)
    )


def extract_order(n: int, r: int, k: int, degree: int = 4, order: int = 4) -> OperatorMatrix:
    """The h^k coefficient of D(n, r) under q = exp(h), t = exp(b h), as an
    exact matrix over b-polynomials on the m-basis window of weights
    1..degree.  No slice depends on the jet order, which only bounds k:
    each is built once per (n, r, k, degree), and callers must not mutate
    it."""
    if not 0 <= k <= order:
        raise DomainError("h order outside the jet order")
    return _order_matrix(n, r, k, degree)


@lru_cache(maxsize=None)
def jet_matrix(n: int, r: int, order: int, degree: int) -> OperatorMatrix:
    """The slices h^0..h^order of ``extract_order`` stacked into one
    ``HJet`` per entry.  Nothing in src/ reads it: it stays for the
    benchmark's independent checks, which read whole jets."""
    if order < 0:
        raise DomainError("jet order must be non-negative")
    slices = [extract_order(n, r, k, degree, order) for k in range(order + 1)]
    keys = dict.fromkeys(key for s in slices for key in s.entries)
    entries = {
        key: HJet(order, [s.entries.get(key, BetaPoly.zero()) for s in slices]) for key in keys
    }
    return OperatorMatrix(n, Ring.uni("b"), slices[0].basis, entries)
