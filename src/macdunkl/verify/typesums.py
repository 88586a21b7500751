"""The six families of triple-kernel terms in the h^4 expansion.

Expanding prod (t x_i - x_p)/(x_i - x_p) = prod (1 + (t - 1) x_i/(x_i - x_p))
over the pairs of an in index i in the subset and an out index p outside
it, the terms with three factors fall into six families (types).  A
pattern is a side-coloured bipartite graph with three edges (i, p), and
its term is prod_((i, p) in E) x_i/(x_i - x_p) times the subset Euler
operator sum.  ``TYPE_EDGES`` holds one representative per type on the
support {1..m}; its in side, out side and numerator prod x_i are read off
the edges (``_sides``, ``_shape``).  A type's patterns are the orbit of
its representative under the support's permutations (``_patterns``),
walked only by the literal oracle and the tests.

The raw evaluator exchanges the two sums: a pattern with a in-indices and
b out-indices is contained in binom(n-a-b, r-a) subsets when the Euler
variable lies in the pattern, and binom(n-a-b-1, r-a-1) subsets
otherwise, so the whole operator collapses to pattern sums that are local
to m = a + b variables.  Those are computed once on the canonical support
{1..m} by block divided differences, with nothing divided exactly and
nothing read off.  Let n_in[u] be V_m times the sum of the patterns with
x_u on the in side; q = n_in[1] / V_(2..m) is computed with x_m standing
for x_1, then x_m moved to the front.  Put the in side on {1..a-1, m} and
the out side on {a..m-1}.  Over the product of the cross factors
x_i - x_p (i in, p out), a pattern with these sides is the product over
the cross pairs of x_i for an edge and x_i - x_p otherwise; s sums that
product over the distinct images of the representative under
S_a x S_b (``_in_side_patterns``).  The patterns with x_m inside are the
relabelings of those that send {1..a-1} onto an (a-1)-subset of
{1..m-1} and {a..m-1} onto its complement, so n_in[m] / V_(1..m-1), the
sum of their terms times prod_(j<m)(x_m - x_j), is the block divided
difference (a - 1, m - 1) of s prod_(i<a)(x_m - x_i), with x_m passing
through.  q is a polynomial, symmetric in x_2..x_m and independent of f;
for type 1 it is x_1^3.  The same orbit argument makes n_in[u] the
relabeling of n_in[1] by the exchange K_1u of x_1 and x_u, with sign -1.
Every pattern has a in indices, so sum_u n_in[u] = a c V_m, with c V_m
the sum of all patterns, and over V_m it is the block divided difference
(1, m - 1) of q: c is that constant over a.

The support's numerator over V_m is g = g1 - sum_{u=2..m} K_1u g1, with
g1 = n_in[1] E_1 f.  V_m = V_(2..m) prod_(j=2..m)(x_1 - x_j) is
antisymmetric, so g / V_m = sum_{u=1..m} K_1u (q E_1 f /
prod_(j=2..m)(x_1 - x_j)), K_11 the identity: the block divided
difference (1, m - 1) of q E_1 f, which checks that q E_1 f is symmetric
in x_2..x_m (InexactDivisionError otherwise).  That unit is symmetric
inside {1..m} and inside {m+1..n}, so its sum over the supports is
binom(n, m) times its symmetrization: the kernel sum of q
(``operators._kernel_column``), the shape of B_{k,l} with q in place of
x_1^(k-1).  For type 1 it is B_{4,1}.  That support sum is the primitive
(``raw_op``, tid).

Both sides of a type are term tables over ``primitive_matrix`` keys.
The raw side (``_raw_terms``) is a subset count times the support sum
plus a multiple of L_1; the closed side (``_closed_terms``) is rationals
times B_{4,1}, B_{2,1}, B_{3,1}, L_1 and, for types 2 and 6, a
per-4-subset unit sum (``unit_op``, again a kernel sum).  A type check
evaluates both tables as combinations of primitive matrices cached per
(factor, n, window), each charged to the first check that builds it.
``type_sum_raw_apply`` and ``type_sum_closed_apply`` give the image of
a polynomial f of degree d from the columns of the same ``_combo``
matrix on window(d, n), so the oracles that check an image check the
matrices a type check verifies.

``type_sum_raw_literal`` evaluates the subset-and-pattern double sum
directly and is compared against the fast path in the tests.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from ..errors import DomainError
from ..multipoly import MultiPoly, Ring, exact_div, vandermonde
from ..operators import (
    LinearOperator,
    _block_divided_difference,
    _kernel_op,
    _require_symmetric,
    window,
)
from ..rings import binom, qnorm
from .closedforms import B21, B31, B41, L1, _combo

RQ = Ring.q()

# one representative per type on the support {1..m}, as its sorted edges
# (i, p): x_i on the in side, x_p on the out side
TYPE_EDGES = {
    1: ((1, 2), (1, 3), (1, 4)),
    2: ((2, 1), (3, 1), (4, 1)),
    3: ((1, 3), (1, 4), (2, 5)),
    4: ((1, 4), (2, 4), (3, 5)),
    5: ((1, 4), (2, 5), (3, 6)),
    6: ((1, 3), (1, 4), (2, 3)),
}


def _edges(tid: int):
    """The edges of a type's representative; unknown type ids are refused."""
    if tid not in TYPE_EDGES:
        raise DomainError(f"unknown type id {tid}")
    return TYPE_EDGES[tid]


def _sides(edges):
    """The sorted in side and out side of a pattern."""
    return tuple(sorted({i for i, _ in edges})), tuple(sorted({p for _, p in edges}))


@lru_cache(maxsize=None)
def _shape(tid: int):
    """(a, b): the sizes of a type's in side and out side, cached: every
    check reads it twice."""
    ins, outs = _sides(_edges(tid))
    return len(ins), len(outs)


def _patterns(tid: int):
    """The patterns of a type on the support {1..m}, as sorted edge
    tuples: the distinct images of its representative under the
    permutations of the support, the representative first.  Only
    ``type_sum_raw_literal`` and the tests walk the orbit."""
    edges = _edges(tid)
    orbit = {}
    for sigma in permutations(range(1, sum(_shape(tid)) + 1)):  # the identity first
        orbit.setdefault(tuple(sorted((sigma[i - 1], sigma[p - 1]) for i, p in edges)), None)
    return tuple(orbit)


def _in_side_patterns(tid: int, ins, outs):
    """The patterns of a type with in side ins and out side outs, as sorted
    edge tuples: the distinct images of its representative under the
    bijections of its in side onto ins and of its out side onto outs."""
    edges = _edges(tid)
    ins0, outs0 = _sides(edges)
    images = {}
    for si in permutations(ins):
        for so in permutations(outs):
            s = dict(zip(ins0 + outs0, si + so))
            images.setdefault(tuple(sorted((s[i], s[p]) for i, p in edges)), None)
    return tuple(images)


def type_term_count(n: int, r: int, tid: int) -> int:
    """Number of (subset, pattern) pairs of the given type: on each of the
    binom(n, m) supports, binom(m, a) in sides, each with the in-side
    patterns, and binom(n - m, r - a) subsets around each pattern."""
    a, b = _shape(tid)
    _require_type_rank(n, r)
    m = a + b
    per_side = len(_in_side_patterns(tid, range(1, a + 1), range(a + 1, m + 1)))
    return binom(n, m) * binom(m, a) * per_side * binom(n - m, r - a)


@lru_cache(maxsize=None)
def _canonical_sums(tid: int):
    """(c, q): the local pattern sums over the canonical support, as
    polynomials on m variables.  q V_(2..m) sums the patterns with x_1
    inside the pattern's subset side, and c V_m is the sum of all
    patterns.

    With the in side on {1..a-1, m} and the out side on {a..m-1}, s is the
    sum over ``_in_side_patterns`` of the product over the cross pairs
    (i, p) of x_i for an edge and x_i - x_p otherwise: the patterns over
    the product of the cross factors.  q is the block divided difference
    (a - 1, m - 1) of s prod_(i<a)(x_m - x_i), x_m passing through, with
    x_m then moved to the front.  Every pattern has a in indices, so c is
    ``_block_divided_difference(q, 1, m)`` over a.
    """
    a, b = _shape(tid)
    m = a + b
    ins, outs = (*range(1, a), m), range(a, m)
    x = [None] + [MultiPoly.variable(v, m, RQ) for v in range(1, m + 1)]
    s = MultiPoly.zero(m, RQ)
    for edges in _in_side_patterns(tid, ins, outs):
        term = MultiPoly.const(m, 1, RQ)
        for i in ins:
            for p in outs:
                term = term * (x[i] if (i, p) in edges else x[i] - x[p])
        s = s + term
    for i in range(1, a):
        s = s * (x[m] - x[i])
    # the block is symmetric in x_1..x_(m-1) (checked), so exchanging x_1
    # and x_m moves x_m to the front as the rotation would
    q = _block_divided_difference(s, a - 1, m - 1).swap(1, m)
    ac = _block_divided_difference(q, 1, m).constant_term()
    return qnorm(Fraction(ac, a)), q


def _require_type_rank(n: int, r: int):
    """A type sum's rank runs over 0..n."""
    if not 0 <= r <= n:
        raise DomainError(f"need 0 <= r <= n, got r={r}, n={n}")


def raw_op(tid: int, n: int, ring: Ring) -> LinearOperator:
    """The type's support sum, the primitive (raw_op, tid) of the raw
    side: the kernel sum of q with r = l = 1."""
    return _kernel_op(_canonical_sums(tid)[1], 1, 1, n, ring, f"support sum {tid}")


def _raw_terms(n: int, r: int, tid: int):
    """The raw subset-and-pattern sum of the type as terms (c, 0, factors)
    of ``closedforms._combo``.  For f of degree d the support numerator
    is sum_u ((ca - cb) n_in[u] - cb n_out[u]) E_u f + cb d c V_m f, with
    ca = binom(n - m, r - a) and cb = binom(n - m - 1, r - a - 1) the
    subsets holding a pattern with and without x_u inside (both 0 when no
    subset holds one).  With n_in[u] + n_out[u] = c V_m, n_in[u] =
    -K_1u n_in[1] and E_u f = K_1u E_1 f, it is ca (g1 - sum_(u>1) K_1u g1),
    g1 = n_in[1] E_1 f, plus cb c V_m (E - E_S) f.  Over V_m and summed
    over the supports, the first is ca times the support sum
    (``raw_op``), the second cb c d (binom(n, m) - binom(n-1, m-1)) f =
    cb c binom(n-1, m) L_1 f."""
    a, b = _shape(tid)
    _require_type_rank(n, r)
    m = a + b
    c, _ = _canonical_sums(tid)
    return [
        (Fraction(binom(n - m, r - a)), 0, ((raw_op, tid),)),
        (Fraction(binom(n - m - 1, r - a - 1) * c * binom(n - 1, m)), 0, (L1,)),
    ]


def type_sum_raw_apply(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Raw subset-and-pattern sum of the given type applied to symmetric f:
    the terms of ``_raw_terms`` evaluated on f."""
    return _apply_terms(n, tid, _raw_terms(n, r, tid), f)


@lru_cache(maxsize=None)
def _vandermonde_quotient(n: int, pairs: tuple) -> MultiPoly:
    """V_n / prod_{(i, p) in pairs} (x_i - x_p) by exact division, for the
    literal oracle.  It does not depend on the argument, and each pattern
    recurs in several subsets, so it is cached per (n, sorted edges).  The
    literal runs only at small n: at n = 6 the six types have 1320
    patterns."""
    den = MultiPoly.const(n, 1, RQ)
    for i, p in pairs:
        den = den * (MultiPoly.variable(i, n, RQ) - MultiPoly.variable(p, n, RQ))
    return exact_div(vandermonde(n, RQ), den)


def type_sum_raw_literal(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Direct double sum over subsets and patterns (small n only)."""
    a, b = _shape(tid)
    _require_type_rank(n, r)
    m = a + b
    if n < m or r < a or n - r < b:
        return MultiPoly.zero(n, f.ring)
    vn = vandermonde(n, RQ)
    # all patterns on [n]: canonical patterns relabeled over every support,
    # order-preserving, so each stays sorted
    global_pats = [
        tuple((sup[i - 1], sup[p - 1]) for i, p in edges)
        for sup in combinations(range(1, n + 1), m)
        for edges in _patterns(tid)
    ]
    acc = MultiPoly.zero(n, f.ring)
    for subset in combinations(range(1, n + 1), r):
        sset = set(subset)
        ef = MultiPoly.zero(n, f.ring)
        for u in subset:
            ef = ef + f.euler(u)
        if not ef:
            continue
        for edges in global_pats:
            if not all(i in sset and p not in sset for i, p in edges):
                continue
            mono = [0] * n
            for i, _ in edges:
                mono[i - 1] += 1
            quotient = _vandermonde_quotient(n, edges)
            acc = acc + quotient * MultiPoly.monomial(tuple(mono), n, RQ) * ef
    return exact_div(acc, vn)


# -- closed forms -------------------------------------------------------


def unit_op(tid: int, n: int, ring: Ring) -> LinearOperator:
    """The per-4-subset unit of type 2 or 6 summed over all 4-subsets, the
    primitive (unit_op, tid) of the closed forms.  On S = {1..4} the unit
    is a sum over the r-subsets I of S, each term a relabeling of
    g / prod_(i <= r < j <= 4) (x_i - x_j), so it is a kernel sum.
    Type 2, r = 3: the type 2 patterns x_a x_b x_c (E_a + E_b + E_c) f /
    prod (x_. - x_excluded), so g = x_1 x_2 x_3 (E_1 + E_2 + E_3) f.
    Type 6, r = 2: for each pair J = {i, j} with complement {p, q},
    (4 (prod_J x^2) - (prod_J x)(sum_J x)(sum_out x)) E_J f /
    prod_(u in J, v out) (x_u - x_v), so
    g = (4 x_1 x_2 - (x_1 + x_2)(x_3 + x_4)) x_1 x_2 (E_1 + E_2) f.
    E_J is the sum of the Euler operators of J."""
    if tid not in (2, 6):
        raise DomainError(f"unit sums exist for types 2 and 6 only, got {tid}")
    x1, x2, x3, x4 = (MultiPoly.variable(v, 4) for v in range(1, 5))
    if tid == 2:
        num, r = x1 * x2 * x3, 3
    else:
        num, r = ((x1 * x2).scale(4) - (x1 + x2) * (x3 + x4)) * x1 * x2, 2
    return _kernel_op(num, r, 1, n, ring, f"unit sum {tid}")


U2, U6 = (unit_op, 2), (unit_op, 6)


def _closed_terms(n: int, r: int, tid: int):
    """Closed form of the type sum as a polynomial in primitives, the
    terms (c, 0, factors) of ``closedforms._combo``: kernel operators
    B_{k,1} and L_1, plus the stated per-4-subset unit sums for types 2
    and 6.  Each factor is a ``primitive_matrix`` key."""
    _shape(tid)
    _require_type_rank(n, r)
    if tid == 1:
        return [
            (Fraction(binom(n - 4, r - 1)), 0, (B41,)),
            (Fraction((r + 2) * (r**3 - r), 24) * binom(n - 1, r + 2), 0, (L1,)),
        ]
    if tid == 2:
        return [
            (Fraction(binom(n - 4, r - 3)), 0, (U2,)),
            (Fraction(r * (r - 1) * (r - 2) * (r - 3), 24) * binom(n - 1, r), 0, (L1,)),
        ]
    if tid == 3:
        return [
            (Fraction(r * (r + 1) * (r - 1), 6) * binom(n - 2, r + 1), 0, (B21,)),
            (Fraction(r * (r - 1), 2) * binom(n - 3, r), 0, (B31,)),
            (Fraction(r * (r**2 - 1) * (r**2 - 4), 12) * binom(n - 1, r + 2), 0, (L1,)),
        ]
    if tid == 4:
        # the second and third terms are ((n - 2) B_{2,1} - B_{3,1}) times mix
        mix = Fraction((r - 1) * (r - 2), 2) * binom(n - 3, r - 1)
        return [
            (Fraction(r * (r - 1) * (r - 2), 6) * binom(n - 2, r), 0, (B21,)),
            (mix * (n - 2), 0, (B21,)),
            (-mix, 0, (B31,)),
            (
                Fraction((r + 1) * r * (r - 1) * (r - 2) * (r - 3), 12) * binom(n - 1, r + 1),
                0,
                (L1,),
            ),
        ]
    if tid == 5:
        return [
            (Fraction((r + 1) * r * (r - 1) * (r - 2), 8) * binom(n - 2, r + 1), 0, (B21,)),
            (Fraction(r * (r - 3) * (r**2 - 1) * (r**2 - 4), 48) * binom(n - 1, r + 2), 0, (L1,)),
        ]
    return [
        (Fraction(5 * r * (r + 1) * (r - 1) * (r - 2), 24) * binom(n - 1, r + 1), 0, (L1,)),
        (Fraction(binom(n - 4, r - 2)), 0, (U6,)),
    ]


def type_sum_closed_apply(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Closed form of the type sum applied to symmetric f: the terms of
    ``_closed_terms`` evaluated on f."""
    return _apply_terms(n, tid, _closed_terms(n, r, tid), f)


def _apply_terms(n: int, tid: int, terms, f: MultiPoly) -> MultiPoly:
    """The terms (c, 0, factors) of a type side evaluated on symmetric f:
    the columns of their ``_combo`` matrix on window(d, n), d the degree
    of f, summed over f's m-coordinates.  These are the matrices a type
    check verifies.  Every term carries an Euler operator, so a constant
    f, which has no window, gives 0."""
    if f.ring != RQ:
        raise DomainError("type sums run over the rational ring")
    # refused before a matrix is built: the window can be large
    _require_symmetric(f, f"type sum {tid}")
    d = f.degree()
    columns = {}
    if d > 0:
        for (mu, lam), v in _combo(n, window(d, n), terms).beta_slice(0).entries.items():
            columns.setdefault(lam, {})[mu] = v
    return LinearOperator(n, RQ, lambda lam: columns.get(lam, {}), f"type sum {tid}")(f)
