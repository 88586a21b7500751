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
that den leaves over.  The patterns form one orbit of the support's
permutations, and the piece of a pattern relabeled by sigma is
sign(sigma) times the relabeled piece.  So the sum n_in[1] over the
patterns with x_1 inside the subset side is antisymmetric in x_2..x_m,
and by Macdonald (Symmetric Functions and Hall Polynomials, ch. I 3) it
is fixed by its coefficients at strictly decreasing exponents of
x_2..x_m.  Those are read off the representative's piece in one pass
over its terms, and each is expanded once into its alternant.  The same
orbit argument makes the sum over all patterns a constant multiple
c V_m, and the sum with x_u inside the relabeling of the x_1 one by the
exchange K_1u of x_1 and x_u, with sign -1.

Over the full Vandermonde product V_n the support's numerator is
g cof, with g = g1 - sum_{u=2..m} K_1u g1, g1 = n_in[1] E_1 f, and the
cofactor cof = V_n / V_m = prod_{i <= m < j} (x_i - x_j) times the
Vandermonde product of {m+1..n}, symmetric inside the support and
antisymmetric outside it.  Its sum over all supports is Alt(g cof) /
(m! (n-m)!), Alt the signed sum over S_n.  As cof is symmetric inside
the support, Alt(K_1u g1 cof) = -Alt(g1 cof), so Alt(g cof) =
m Alt(g1 cof).  g1 cof = P E_1 f, with P = n_in[1] cof antisymmetric
inside {2..m} and inside {m+1..n} and E_1 f symmetric inside both, so
Alt(P E_1 f) is (m-1)! (n-m)! times sum_e [P E_1 f]_e a_e, e strictly
decreasing inside both blocks.  The normalisations cancel: the support
sum is exactly sum_e [P E_1 f]_e a_e / a_delta, read off in the Schur
basis by the read-off the Macdonald operator uses.  P does not depend
on f, and is never formed: its coefficients at block-decreasing
exponents are computed on demand and kept per (n, type), and each
coefficient of P E_1 f loops only over the terms of E_1 f.  The
contracts are checked exactly (InexactDivisionError otherwise): n_in[1]
once per (n, type), cof once when it is built, E_1 f on every call.

``type_sum_raw_literal`` evaluates the subset-and-pattern double sum
directly and is compared against the fast path in the tests.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import sub
from typing import NamedTuple

from ..errors import DomainError
from ..multipoly import MultiPoly, Ring, exact_div, partitions_of, vandermonde
from ..operators import (
    _block_divided_difference,
    _cross_product,
    _from_coords,
    _readoff_coords,
    _require_exchange_sign,
    _require_symmetric,
    _sum_over_subsets,
    b_op,
    l_op,
)
from ..rings import binom, qnorm

RQ = Ring.q()

# (in indices, out indices) per type
TYPE_SHAPE = {1: (1, 3), 2: (3, 1), 3: (2, 3), 4: (3, 2), 5: (3, 3), 6: (2, 2)}


def _shape(tid: int):
    """The (in indices, out indices) of a type; unknown type ids are refused."""
    if tid not in TYPE_SHAPE:
        raise DomainError(f"unknown type id {tid}")
    return TYPE_SHAPE[tid]


def _patterns(tid: int):
    """Canonical patterns on support {1..a+b}: (in_set, out_set, denominator
    pairs, numerator exponents)."""
    a, b = _shape(tid)
    m = a + b
    sup = tuple(range(1, m + 1))
    out = []
    if tid == 1:
        for i in sup:
            rest = tuple(v for v in sup if v != i)
            out.append(((i,), rest, tuple((i, p) for p in rest), {i: 3}))
    elif tid == 2:
        for p in sup:
            ins = tuple(v for v in sup if v != p)
            out.append((ins, (p,), tuple((i, p) for i in ins), {i: 1 for i in ins}))
    elif tid == 3:
        for i in sup:
            for j in sup:
                if j == i:
                    continue
                rest = [v for v in sup if v not in (i, j)]
                for p, q in combinations(rest, 2):
                    (s,) = [v for v in rest if v not in (p, q)]
                    out.append(
                        ((i, j), (p, q, s), ((i, p), (i, q), (j, s)), {i: 2, j: 1})
                    )
    elif tid == 4:
        for i, j in combinations(sup, 2):
            rest = [v for v in sup if v not in (i, j)]
            for k in rest:
                for p in rest:
                    if p == k:
                        continue
                    (q,) = [v for v in rest if v not in (k, p)]
                    out.append(
                        ((i, j, k), (p, q), ((i, p), (j, p), (k, q)), {i: 1, j: 1, k: 1})
                    )
    elif tid == 5:
        for ins in combinations(sup, 3):
            outs = [v for v in sup if v not in ins]
            for assign in permutations(outs):
                pairs = tuple((ins[t], assign[t]) for t in range(3))
                out.append((ins, tuple(assign), pairs, {v: 1 for v in ins}))
    else:  # type 6
        for i in sup:
            for j in sup:
                if j == i:
                    continue
                rest = [v for v in sup if v not in (i, j)]
                for p in rest:
                    (q,) = [v for v in rest if v != p]
                    out.append(((i, j), (p, q), ((i, p), (i, q), (j, p)), {i: 2, j: 1}))
    return out


def type_term_count(n: int, r: int, tid: int) -> int:
    """Number of (subset, pattern) pairs of the given type."""
    a, b = _shape(tid)
    m = a + b
    per_support = len(_patterns(tid))
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
    multiplication: the factors x_i - x_j (i < j) of V_m whose pair is not
    a denominator pair, with one sign flip per pair (i, p) with i > p."""
    cut = {(min(i, p), max(i, p)) for i, p in pairs}
    mono = [0] * m
    for v, e in exps.items():
        mono[v - 1] = e
    sign = -1 if sum(1 for i, p in pairs if i > p) % 2 else 1
    out = MultiPoly.monomial(tuple(mono), m, RQ, sign)
    for i, j in combinations(range(1, m + 1), 2):
        if (i, j) not in cut:
            out = out * (MultiPoly.variable(i, m, RQ) - MultiPoly.variable(j, m, RQ))
    return out


def _inversions(seq) -> int:
    return sum(1 for x, y in combinations(seq, 2) if x > y)


def _side_sum(piece0: MultiPoly, side, stab: int) -> MultiPoly:
    """The sum of the pieces of the patterns that put x_1 on ``side`` (the
    representative's in or out indices), given the representative's piece
    and the order of its stabilizer in S_m.

    Each such piece is sign(sigma) sigma(piece0) for the |stab| relabelings
    sigma that send a variable of ``side`` to 1, so the sum is antisymmetric
    in x_2..x_m: it is sum_e C_e x_1^e_1 a(e_2..e_m) over strictly decreasing
    e_2..e_m, with a(...) the alternant in x_2..x_m.  A term c x^k and a
    position p of ``side`` give e = (k_p, the other entries of k sorted
    decreasing) through one sigma, and add sign(sigma) c / |stab| to C_e;
    repeated other entries give no strictly decreasing e and are skipped."""
    m = piece0.n
    coeffs = {}
    for k, c in piece0.terms.items():
        order = sorted(range(m), key=k.__getitem__, reverse=True)
        ek = [k[v] for v in order]
        ties = [j for j in range(m - 1) if ek[j] == ek[j + 1]]
        if len(ties) > 1:  # a repeat is left whichever entry goes to x_1
            continue
        odd = _inversions(order) % 2
        for p in side:
            i = order.index(p - 1)
            if ties and i not in (ties[0], ties[0] + 1):
                continue
            # sigma^-1 is the sequence p, then the rest in decreasing
            # exponent: ``order`` with p moved to the front by i transpositions
            e = (ek[i], *ek[:i], *ek[i + 1 :])
            coeffs[e] = coeffs.get(e, 0) + (-c if (odd + i) % 2 else c)
    signed = [(perm, _inversions(perm) % 2) for perm in permutations(range(1, m))]
    out = {}
    for e, c in coeffs.items():
        if c:
            c = qnorm(Fraction(c, stab))
            for perm, odd in signed:
                out[(e[0], *(e[i] for i in perm))] = -c if odd else c
    return MultiPoly(m, RQ, out)


@lru_cache(maxsize=None)
def _canonical_sums(tid: int):
    """(c, n_in1): the local pattern sums over the canonical support, as
    polynomials on m variables over the support Vandermonde V_m.  n_in1
    sums the patterns with x_1 inside the pattern's subset side, and c V_m
    is the sum of all patterns.

    The patterns form one S_m-orbit (checked exactly).  The sums over the
    patterns with x_1 inside and outside are read off the representative's
    piece (``_pattern_piece``) by ``_side_sum``.  Every pattern's support
    is its ins and outs, so the full sum is their sum; it is antisymmetric
    of the degree of V_m, and is checked exactly to be c V_m.
    """
    a, b = _shape(tid)
    m = a + b
    patterns = _patterns(tid)
    ins0, outs0, pairs0, exps0 = patterns[0]
    orbit = set()
    for sigma in permutations(range(1, m + 1)):
        s = (0,) + sigma  # s[v] is the image of v
        orbit.add(
            _pattern_key(
                [s[v] for v in ins0],
                [s[v] for v in outs0],
                [(s[i], s[p]) for i, p in pairs0],
                {s[v]: e for v, e in exps0.items()},
            )
        )
    keys = [_pattern_key(*pat) for pat in patterns]
    if len(set(keys)) != len(keys) or set(keys) != orbit:
        raise AssertionError(f"type {tid} patterns are not one orbit of S_{m}")
    piece0 = _pattern_piece(m, pairs0, exps0)
    stab = factorial(m) // len(patterns)
    in1 = _side_sum(piece0, ins0, stab)
    total = in1 + _side_sum(piece0, outs0, stab)
    vm = _pattern_piece(m, (), {})
    c = total.terms.get(max(vm.terms), 0)  # the leading coefficient of V_m is 1
    if total != vm.scale(c):
        raise AssertionError(f"type {tid} pattern sum is not a multiple of V_{m}")
    return c, in1


class _SupportCofactor(NamedTuple):
    """V_n / V_m and its terms indexed by tail exponent:
    by_tail[key[m:]][key[:m]] is the coefficient at key."""

    poly: MultiPoly
    by_tail: dict


@lru_cache(maxsize=None)
def _support_cofactor(n: int, m: int) -> _SupportCofactor:
    """V_n / V_m = prod_{i <= m < j} (x_i - x_j) times the Vandermonde
    product of {m+1..n}: puts a pattern sum over the support Vandermonde
    of {1..m} over the full one.  Checked once to be symmetric inside the
    support and antisymmetric outside it."""
    support, rest = tuple(range(1, m + 1)), range(m + 1, n + 1)
    poly = _cross_product(n, RQ, support, 1) * vandermonde(n, RQ, rest)
    _require_exchange_sign(poly, range(m - 1), 1, "support cofactor")
    _require_exchange_sign(poly, range(m, n - 1), -1, "support cofactor")
    by_tail = {}
    for key, c in poly.terms.items():
        by_tail.setdefault(key[m:], {})[key[:m]] = c
    return _SupportCofactor(poly, by_tail)


class _SupportProduct:
    """P = n_in[1] cof on n variables, cof = V_n / V_m, never formed.

    n_in[1] (on the m support variables) is checked once to be
    antisymmetric in x_2..x_m, so P is antisymmetric inside {2..m} and
    inside {m+1..n}.  ``memo`` keeps its coefficients at the exponents
    strictly decreasing inside both blocks, each computed on first use as
    sum_y n_in[1]_y cof_(z - y): y has no tail, so only the cofactor's
    terms with the tail of z take part."""

    __slots__ = ("n", "m", "in1", "cof", "degree", "memo")

    def __init__(self, in1: MultiPoly, cof: _SupportCofactor):
        m = in1.n
        _require_exchange_sign(in1, range(1, m - 1), -1, "support sum n_in[1]")
        self.n, self.m = cof.poly.n, m
        self.in1, self.cof = in1, cof
        self.degree = in1.total_degree() + cof.poly.total_degree()
        self.memo = {}

    def coeff(self, z):
        """[P]_z at a block-decreasing z."""
        c = self.memo.get(z)
        if c is None:
            m = self.m
            head = z[:m]
            # the convolution loops over the smaller factor
            small = self.in1.terms
            large = self.cof.by_tail.get(z[m:], {})
            if len(large) < len(small):
                small, large = large, small
            c = 0
            for y, cy in small.items():
                other = large.get(tuple(map(sub, head, y)))
                if other:
                    c += cy * other
            self.memo[z] = c
        return c


@lru_cache(maxsize=None)
def _support_product(n: int, tid: int) -> _SupportProduct:
    """P of the type's support at n variables, with its memo."""
    return _SupportProduct(_canonical_sums(tid)[1], _support_cofactor(n, sum(_shape(tid))))


@lru_cache(maxsize=None)
def _decreasing(block):
    """(block sorted decreasing, parity of that sort), or None when block
    repeats an entry or has a negative one."""
    odd = 0
    for i, v in enumerate(block):
        if v < 0:
            return None
        for w in block[i + 1 :]:
            if v < w:
                odd ^= 1
            elif v == w:
                return None
    return tuple(sorted(block, reverse=True)), odd


def _readoff_support(prod: _SupportProduct, e1f: MultiPoly) -> MultiPoly:
    """sum_e [P E_1 f]_e a_e / a_delta over the e strictly decreasing inside
    {2..m} and inside {m+1..n}: the support sum of the module docstring,
    in the Schur basis.  E_1 f must be symmetric inside both blocks (else
    InexactDivisionError carrying it).  For each lam of the product's
    weight and each split of lam + delta into a head of m - 1 entries, a
    first entry and a tail, the coefficient is sum_x [E_1 f]_x P_(e-x),
    with P_(e-x) read at the block-sorted key and signed by the sort.  The
    head's sort depends only on (head, x), so it is shared by every
    first entry."""
    n, m = prod.n, prod.m
    _require_exchange_sign(e1f, [*range(1, m - 1), *range(m, n - 1)], 1, "E_1 f")
    split = [(x[0], x[1:m], x[m:], c) for x, c in e1f.terms.items()]
    alternants = []
    weight = prod.degree + e1f.total_degree() - n * (n - 1) // 2
    for lam in partitions_of(weight, n) if split else ():
        alpha = [p + n - 1 - i for i, p in enumerate(lam + (0,) * (n - len(lam)))]
        for head in combinations(alpha, m - 1):
            rest = [v for v in alpha if v not in head]
            firsts = [(first, rest[:j] + rest[j + 1 :]) for j, first in enumerate(rest)]
            coeffs = [0] * len(firsts)
            for x0, xh, xt, cx in split:
                head_z = _decreasing(tuple(map(sub, head, xh)))
                if head_z is None:
                    continue
                for j, (first, tail) in enumerate(firsts):
                    tail_z = first >= x0 and _decreasing(tuple(map(sub, tail, xt)))
                    if tail_z:
                        c = prod.coeff((first - x0, *head_z[0], *tail_z[0]))
                        coeffs[j] += -cx * c if head_z[1] ^ tail_z[1] else cx * c
            for (first, tail), c in zip(firsts, coeffs):
                if c:
                    alternants.append(((first, *head, *tail), {(): c}))
    return _from_coords(_readoff_coords(alternants, n), n, RQ)


def _type_raw_homogeneous(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    a, b = _shape(tid)
    m = a + b
    # subsets holding a pattern; both are 0 when no subset holds one
    ca = binom(n - m, r - a)
    cb = binom(n - m - 1, r - a - 1)
    c = _canonical_sums(tid)[0]
    # The support numerator is sum_u ((ca - cb) n_in[u] - cb n_out[u]) E_u f
    # + cb d c V_m f, for f symmetric and homogeneous of degree d.  With
    # n_in[u] + n_out[u] = c V_m, n_in[u] = -K_1u n_in[1] and, f being
    # symmetric, E_u f = K_1u E_1 f, it is ca (g1 - sum_{u>1} K_1u g1) with
    # g1 = n_in[1] E_1 f, whose support sum is read off P E_1 f, plus
    # cb c V_m (E - E_S) f.  The subset sum of the latter is
    # cb c d (binom(n, m) - binom(n-1, m-1)) f = cb c d binom(n-1, m) f.
    out = f.scale(cb * c * f.total_degree() * binom(n - 1, m))
    if ca:
        out = out + _readoff_support(_support_product(n, tid), f.euler(1)).scale(ca)
    return out


def type_sum_raw_apply(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Raw subset-and-pattern sum of the given type applied to symmetric f."""
    _shape(tid)
    if f.ring != RQ:
        raise DomainError("type sums run over the rational ring")
    if not f:
        return f
    _require_symmetric(f, f"type sum {tid}")
    out = MultiPoly.zero(n, f.ring)
    for _, part in sorted(f.homogeneous_parts().items()):
        out = out + _type_raw_homogeneous(n, r, tid, part)
    return out


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


def _unit_sum(tid: int, n: int, f: MultiPoly) -> MultiPoly:
    """The per-4-subset unit of type 2 or 6, summed over all 4-subsets.
    On S = {1..4} the unit is a sum over the r-subsets I of S, each term a
    relabeling of g / prod_(i <= r < j <= 4) (x_i - x_j), so it is one
    ``_block_divided_difference`` of g.  Type 2, r = 3: the type 2 patterns
    x_a x_b x_c (E_a + E_b + E_c) f / prod (x_. - x_excluded), so
    g = x_1 x_2 x_3 (E_1 + E_2 + E_3) f.  Type 6, r = 2: for each pair
    J = {i, j} with complement {p, q}, (4 (prod_J x^2) -
    (prod_J x)(sum_J x)(sum_out x)) E_J f / prod_(u in J, v out) (x_u - x_v),
    so g = (4 x_1 x_2 - (x_1 + x_2)(x_3 + x_4)) x_1 x_2 (E_1 + E_2) f.
    E_J is the sum of the Euler operators of J."""
    if n < 4:
        return MultiPoly.zero(n, f.ring)
    x1, x2, x3, x4 = (MultiPoly.variable(v, n, f.ring) for v in range(1, 5))
    if tid == 2:
        r, g = 3, x1 * x2 * x3 * (f.euler(1) + f.euler(2) + f.euler(3))
    else:
        local = (x1 * x2).scale(4) - (x1 + x2) * (x3 + x4)
        r, g = 2, local * x1 * x2 * (f.euler(1) + f.euler(2))
    return _sum_over_subsets(_block_divided_difference(g, r, 4), 4)


def type_sum_closed_apply(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Closed form of the type sum: kernel-operator combinations, plus the
    stated per-4-subset unit sums for types 2 and 6."""
    _shape(tid)
    if f.ring != RQ:
        raise DomainError("type sums run over the rational ring")
    _require_symmetric(f, f"type sum {tid}")
    l1 = l_op(1, n, RQ)
    b21 = b_op(2, 1, n, RQ)
    b31 = b_op(3, 1, n, RQ)
    if tid == 1:
        out = b_op(4, 1, n, RQ)(f).scale(binom(n - 4, r - 1))
        c = Fraction((r + 2) * (r**3 - r), 24) * binom(n - 1, r + 2)
        return out + l1(f).scale(c)
    if tid == 2:
        out = _unit_sum(2, n, f).scale(binom(n - 4, r - 3))
        c = Fraction(r * (r - 1) * (r - 2) * (r - 3), 24) * binom(n - 1, r)
        return out + l1(f).scale(c)
    if tid == 3:
        out = b21(f).scale(Fraction(r * (r + 1) * (r - 1), 6) * binom(n - 2, r + 1))
        out = out + b31(f).scale(Fraction(r * (r - 1), 2) * binom(n - 3, r))
        c = Fraction(r * (r**2 - 1) * (r**2 - 4), 12) * binom(n - 1, r + 2)
        return out + l1(f).scale(c)
    if tid == 4:
        out = b21(f).scale(Fraction(r * (r - 1) * (r - 2), 6) * binom(n - 2, r))
        mix = b21(f).scale(n - 2) - b31(f)
        out = out + mix.scale(Fraction((r - 1) * (r - 2), 2) * binom(n - 3, r - 1))
        c = Fraction((r + 1) * r * (r - 1) * (r - 2) * (r - 3), 12) * binom(n - 1, r + 1)
        return out + l1(f).scale(c)
    if tid == 5:
        out = b21(f).scale(Fraction((r + 1) * r * (r - 1) * (r - 2), 8) * binom(n - 2, r + 1))
        c = Fraction(r * (r - 3) * (r**2 - 1) * (r**2 - 4), 48) * binom(n - 1, r + 2)
        return out + l1(f).scale(c)
    # type 6
    out = l1(f).scale(Fraction(5 * r * (r + 1) * (r - 1) * (r - 2), 24) * binom(n - 1, r + 1))
    return out + _unit_sum(6, n, f).scale(binom(n - 4, r - 2))

