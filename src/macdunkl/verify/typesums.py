"""The six families of triple-kernel terms in the h^4 expansion.

Each family (type) is a sum, over r-subsets I and index patterns inside
and outside I, of a rational prefactor with a three-factor denominator
times the subset Euler operator sum.  The raw evaluator exchanges the two
sums: a pattern with a in-indices and b out-indices is contained in
binom(n-a-b, r-a) subsets when the Euler variable lies in the pattern,
and binom(n-a-b-1, r-a-1) subsets otherwise, so the whole operator
collapses to pattern sums that are local to m = a + b variables.  Those
local sums are computed once on the canonical support {1..m}, over its
Vandermonde product V_m, and nothing is divided.  A pattern's piece
V_m / den * mono is the signed product of the factors x_i - x_j of V_m
that den leaves over, expanded one factor at a time on integer
coefficients.  A type's patterns are the orbit of one representative
(``TYPE_PATTERN``) under the support's permutations, and the piece of a
pattern relabeled by sigma is sign(sigma) times the relabeled piece.
The fast path never walks the orbit: its size is m! over the order of
the representative's stabilizer, which maps the in and out sets to
themselves and so is counted over S_a x S_b (``_stabilizer_order``);
``_patterns`` enumerates the orbit for the literal oracle and the
tests.  So the sum n_in[1] over the patterns with x_1 inside
the subset side is antisymmetric in x_2..x_m, and by Macdonald
(Symmetric Functions and Hall Polynomials, ch. I 3) it is fixed by its
coefficients at strictly decreasing exponents of x_2..x_m.  Those are
read off the representative's piece in one pass over its terms.  Over
the Vandermonde product V_(2..m) of x_2..x_m each alternant is a Schur
polynomial, so q = n_in[1] / V_(2..m) is a polynomial, symmetric in
x_2..x_m and independent of f, read off in monomial coordinates by the
read-off the Macdonald operator uses.  The same orbit argument makes the
sum over all patterns a constant multiple c V_m, and the sum with x_u
inside the relabeling of the x_1 one by the exchange K_1u of x_1 and
x_u, with sign -1.

The support's numerator over V_m is g = g1 - sum_{u=2..m} K_1u g1, with
g1 = n_in[1] E_1 f.  V_m = V_(2..m) prod_(j=2..m)(x_1 - x_j) is
antisymmetric, so g / V_m = sum_{u=1..m} K_1u (q E_1 f /
prod_(j=2..m)(x_1 - x_j)), K_11 the identity: the block divided
difference (1, m - 1) of q E_1 f, which checks that q E_1 f is symmetric
in x_2..x_m (InexactDivisionError otherwise).  That unit is symmetric
inside {1..m} and inside {m+1..n}, so its sum over the supports is
binom(n, m) times its symmetrization: the kernel sum of q
(``operators._kernel_column``), the shape of B_{k,l} with q in place of
x_1^(k-1).  For type 1, q = x_1^3 and it is B_{4,1}.  That support sum
is the primitive (``raw_op``, tid).

Both sides of a type are term tables over ``primitive_matrix`` keys.
The raw side (``_raw_terms``) is a subset count times the support sum
plus a multiple of L_1; the closed side (``_closed_terms``) is rationals
times B_{4,1}, B_{2,1}, B_{3,1}, L_1 and, for types 2 and 6, a
per-4-subset unit sum (``unit_op``, again a kernel sum).  A type check
evaluates both tables as combinations of primitive matrices cached per
(factor, n, window), each charged to the first check that builds it;
``type_sum_raw_apply`` and ``type_sum_closed_apply`` evaluate them on a
polynomial.

``type_sum_raw_literal`` evaluates the subset-and-pattern double sum
directly and is compared against the fast path in the tests.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from ..errors import DomainError
from ..multipoly import (
    MultiPoly,
    Ring,
    _distinct_permutations,
    exact_div,
    vandermonde,
)
from ..operators import (
    LinearOperator,
    _cross_product,
    _kernel_op,
    _readoff_coords,
    _require_symmetric,
)
from ..rings import binom, qnorm
from .closedforms import B21, B31, B41, L1

RQ = Ring.q()

# one representative (in indices, out indices, denominator pairs (i, p),
# numerator exponents {v: e}) per type on the support {1..m}
TYPE_PATTERN = {
    1: ((1,), (2, 3, 4), ((1, 2), (1, 3), (1, 4)), {1: 3}),
    2: ((2, 3, 4), (1,), ((2, 1), (3, 1), (4, 1)), {2: 1, 3: 1, 4: 1}),
    3: ((1, 2), (3, 4, 5), ((1, 3), (1, 4), (2, 5)), {1: 2, 2: 1}),
    4: ((1, 2, 3), (4, 5), ((1, 4), (2, 4), (3, 5)), {1: 1, 2: 1, 3: 1}),
    5: ((1, 2, 3), (4, 5, 6), ((1, 4), (2, 5), (3, 6)), {1: 1, 2: 1, 3: 1}),
    6: ((1, 2), (3, 4), ((1, 3), (1, 4), (2, 3)), {1: 2, 2: 1}),
}

# (in indices, out indices) per type
TYPE_SHAPE = {tid: (len(ins), len(outs)) for tid, (ins, outs, _, _) in TYPE_PATTERN.items()}


def _shape(tid: int):
    """The (in indices, out indices) of a type; unknown type ids are refused."""
    if tid not in TYPE_SHAPE:
        raise DomainError(f"unknown type id {tid}")
    return TYPE_SHAPE[tid]


def _relabeled(s, ins, outs, pairs, exps):
    """The pattern with every index v replaced by s[v]."""
    return (
        tuple(s[v] for v in ins),
        tuple(s[v] for v in outs),
        tuple((s[i], s[p]) for i, p in pairs),
        {s[v]: e for v, e in exps.items()},
    )


def _patterns(tid: int):
    """The patterns of a type on the support {1..a+b}, as (in_set, out_set,
    denominator pairs, numerator exponents): the distinct images of its
    representative under the permutations of the support, the
    representative first.  Only ``type_sum_raw_literal`` and the tests
    walk the orbit; the fast path needs its size alone
    (``_stabilizer_order``)."""
    m = sum(_shape(tid))
    orbit = {}
    for sigma in permutations(range(1, m + 1)):  # the identity first
        image = _relabeled((0,) + sigma, *TYPE_PATTERN[tid])  # sigma[v - 1] is v's image
        orbit.setdefault(_pattern_key(*image), image)
    return tuple(orbit.values())


def _stabilizer_order(tid: int) -> int:
    """The number of relabelings of the support that fix the type's
    representative, so that m! / it is the number of patterns.  The
    pattern key holds the sorted in and out sets, so such a relabeling
    maps each set to itself: only S_a x S_b is walked, not S_m."""
    _shape(tid)
    ins, outs, _, _ = pattern = TYPE_PATTERN[tid]
    key = _pattern_key(*pattern)
    return sum(
        _pattern_key(*_relabeled(dict(zip(ins + outs, si + so)), *pattern)) == key
        for si in permutations(ins)
        for so in permutations(outs)
    )


def type_term_count(n: int, r: int, tid: int) -> int:
    """Number of (subset, pattern) pairs of the given type."""
    a, b = _shape(tid)
    m = a + b
    per_support = factorial(m) // _stabilizer_order(tid)
    return binom(n, m) * per_support * binom(n - m, r - a)


def _pattern_key(ins, outs, pairs, exps):
    """A pattern as sorted tuples, equal exactly when the patterns are."""
    return (
        tuple(sorted(ins)),
        tuple(sorted(outs)),
        tuple(sorted(pairs)),
        tuple(sorted(exps.items())),
    )


def _pattern_piece(m: int, pairs, exps) -> MultiPoly:
    """V_m / prod_{(i, p) in pairs} (x_i - x_p) times prod x_v^exps[v], by
    expansion: the factors x_i - x_j (i < j) of V_m whose pair is not a
    denominator pair, with one sign flip per pair (i, p) with i > p,
    multiplied in one factor at a time on integer coefficients."""
    cut = {(min(i, p), max(i, p)) for i, p in pairs}
    mono = [0] * m
    for v, e in exps.items():
        mono[v - 1] = e
    sign = -1 if sum(1 for i, p in pairs if i > p) % 2 else 1
    terms = {tuple(mono): sign}
    for i, j in combinations(range(m), 2):
        if (i + 1, j + 1) in cut:
            continue
        out = {}
        for k, c in terms.items():
            ki = k[:i] + (k[i] + 1,) + k[i + 1 :]
            out[ki] = out.get(ki, 0) + c
            kj = k[:j] + (k[j] + 1,) + k[j + 1 :]
            out[kj] = out.get(kj, 0) - c
        terms = {k: c for k, c in out.items() if c}
    return MultiPoly(m, RQ, terms)


def _inversions(seq) -> int:
    return sum(1 for x, y in combinations(seq, 2) if x > y)


def _side_sum(piece0: MultiPoly, side, stab: int) -> MultiPoly:
    """The sum of the pieces of the patterns that put x_1 on ``side`` (the
    representative's in or out indices), divided by the Vandermonde
    product V_(2..m) of x_2..x_m, given the representative's piece and the
    order of its stabilizer in S_m.

    Each such piece is sign(sigma) sigma(piece0) for the |stab| relabelings
    sigma that send a variable of ``side`` to 1, so the sum is antisymmetric
    in x_2..x_m: it is sum_e C_e x_1^e_1 a(e_2..e_m) over strictly decreasing
    e_2..e_m, with a(...) the alternant in x_2..x_m.  A term c x^k and a
    position p of ``side`` give e = (k_p, the other entries of k sorted
    decreasing) through one sigma, and add sign(sigma) c / |stab| to C_e;
    repeated other entries give no strictly decreasing e and are skipped.
    Over V_(2..m) each alternant is a Schur polynomial, read off in
    monomial coordinates with x_1's exponent riding as the aux slot."""
    m = piece0.n
    coeffs = {}
    for k, c in piece0.terms.items():
        if len(set(k)) < m - 1:  # a repeat is left whichever entry goes to x_1
            continue
        order = sorted(range(m), key=k.__getitem__, reverse=True)
        ek = [k[v] for v in order]
        ties = [j for j in range(m - 1) if ek[j] == ek[j + 1]]
        odd = _inversions(order) % 2
        for p in side:
            i = order.index(p - 1)
            if ties and i not in (ties[0], ties[0] + 1):
                continue
            # sigma^-1 is the sequence p, then the rest in decreasing
            # exponent: ``order`` with p moved to the front by i transpositions
            e = (ek[i], *ek[:i], *ek[i + 1 :])
            coeffs[e] = coeffs.get(e, 0) + (-c if (odd + i) % 2 else c)
    alternants = [(e[1:], {e[:1]: Fraction(c, stab)}) for e, c in coeffs.items() if c]
    out = {}
    for mu, by_first in _readoff_coords(alternants, m - 1).items():
        for rest in _distinct_permutations(mu + (0,) * (m - 1 - len(mu))):
            for first, c in by_first.items():
                out[first + rest] = qnorm(c)
    return MultiPoly(m, RQ, out)


@lru_cache(maxsize=None)
def _canonical_sums(tid: int):
    """(c, q): the local pattern sums over the canonical support, as
    polynomials on m variables.  q V_(2..m) sums the patterns with x_1
    inside the pattern's subset side, and c V_m is the sum of all
    patterns.

    The patterns are the S_m orbit of the representative; only its size
    enters, as m! over the stabilizer order that ``_stabilizer_order``
    counts on S_a x S_b, so the orbit itself (``_patterns``) is left to
    the oracles.  The sums over the patterns with x_1 inside and outside,
    over V_(2..m), are read off the representative's piece, expanded on
    integer coefficients by ``_pattern_piece``, by ``_side_sum``.  Every
    pattern's support is its ins and outs, so the full sum over V_(2..m)
    is their sum, and is checked exactly to be c prod_(j=2..m)(x_1 - x_j).
    """
    m = sum(_shape(tid))
    ins0, outs0, pairs0, exps0 = TYPE_PATTERN[tid]
    piece0 = _pattern_piece(m, pairs0, exps0)
    stab = _stabilizer_order(tid)
    q_in = _side_sum(piece0, ins0, stab)
    total = q_in + _side_sum(piece0, outs0, stab)
    cross = _cross_product(m, RQ, (1,), 1)
    c = total.terms.get(max(cross.terms), 0)  # the leading coefficient of cross is 1
    if total != cross.scale(c):
        raise AssertionError(f"type {tid} pattern sum is not a multiple of V_{m}")
    return c, q_in


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
    recurs in several subsets, so it is cached per (n, sorted pairs).  The
    literal runs only at small n: at n = 6 the six types have 1320
    patterns."""
    den = MultiPoly.const(n, 1, RQ)
    for i, p in pairs:
        den = den * (MultiPoly.variable(i, n, RQ) - MultiPoly.variable(p, n, RQ))
    return exact_div(vandermonde(n, RQ), den)


def type_sum_raw_literal(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Direct double sum over subsets and patterns (small n only)."""
    a, b = _shape(tid)
    m = a + b
    if n < m or r < a or n - r < b:
        return MultiPoly.zero(n, f.ring)
    vn = vandermonde(n, RQ)
    # all patterns on [n]: canonical patterns relabeled over every support
    global_pats = []
    for sup in combinations(range(1, n + 1), m):
        relab = {c + 1: sup[c] for c in range(m)}
        for ins, outs, pairs, exps in _patterns(tid):
            global_pats.append(
                (
                    frozenset(relab[v] for v in ins),
                    frozenset(relab[v] for v in outs),
                    tuple((relab[i], relab[p]) for i, p in pairs),
                    {relab[v]: e for v, e in exps.items()},
                )
            )
    acc = MultiPoly.zero(n, f.ring)
    for subset in combinations(range(1, n + 1), r):
        sset = set(subset)
        ef = MultiPoly.zero(n, f.ring)
        for u in subset:
            ef = ef + f.euler(u)
        if not ef:
            continue
        for ins, outs, pairs, exps in global_pats:
            if not ins <= sset or outs & sset:
                continue
            mono = [0] * n
            for v, e in exps.items():
                mono[v - 1] = e
            quotient = _vandermonde_quotient(n, tuple(sorted(pairs)))
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
    """The terms (c, 0, factors) of a type side evaluated on symmetric f,
    each product of factors applied to f once, right to left."""
    if f.ring != RQ:
        raise DomainError("type sums run over the rational ring")
    _require_symmetric(f, f"type sum {tid}")
    images = {}
    out = MultiPoly.zero(n, RQ)
    for c, _, factors in terms:
        if not c:
            continue
        if factors not in images:
            g = f
            for factory, *args in reversed(factors):
                g = factory(*args, n, RQ)(g)
            images[factors] = g
        out = out + images[factors].scale(c)
    return out
