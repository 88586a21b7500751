"""The six families of triple-kernel terms in the h^4 expansion.

Each family (type) is a sum, over r-subsets I and index patterns inside
and outside I, of a rational prefactor with a three-factor denominator
times the subset Euler operator sum.  The raw evaluator exchanges the two
sums: a pattern with a in-indices and b out-indices is contained in
binom(n-a-b, r-a) subsets when the Euler variable lies in the pattern,
and binom(n-a-b-1, r-a-1) subsets otherwise, so the whole operator
collapses to three pattern sums that are local to a + b variables.  Those
local sums are computed once on the canonical support {1..a+b} over its
Vandermonde product and replicated across supports by relabeling (valid
on symmetric arguments), with the single exact division by the full
Vandermonde product at the end.

``type_sum_raw_literal`` evaluates the subset-and-pattern double sum
directly and is compared against the fast path in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from ..errors import DomainError, NonSymmetricError
from ..multipoly import MultiPoly, Ring, exact_div, symmetry_violation, vandermonde
from ..operators import LinearOperator, _alternate_over_subsets, _subset_perm, b_op, l_op
from ..rings import binom

RQ = Ring.q()

# (in indices, out indices) per type
TYPE_SHAPE = {1: (1, 3), 2: (3, 1), 3: (2, 3), 4: (3, 2), 5: (3, 3), 6: (2, 2)}


def _patterns(tid: int):
    """Canonical patterns on support {1..a+b}: (in_set, out_set, denominator
    pairs, numerator exponents)."""
    a, b = TYPE_SHAPE[tid]
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
    elif tid == 6:
        for i in sup:
            for j in sup:
                if j == i:
                    continue
                rest = [v for v in sup if v not in (i, j)]
                for p in rest:
                    (q,) = [v for v in rest if v != p]
                    out.append(((i, j), (p, q), ((i, p), (i, q), (j, p)), {i: 2, j: 1}))
    else:
        raise DomainError(f"unknown type id {tid}")
    return out


def type_term_count(n: int, r: int, tid: int) -> int:
    """Number of (subset, pattern) pairs of the given type."""
    a, b = TYPE_SHAPE[tid]
    m = a + b
    per_support = len(_patterns(tid))
    return binom(n, m) * per_support * binom(n - m, r - a)


@lru_cache(maxsize=None)
def _canonical_sums(tid: int):
    """The local pattern sums over the canonical support, as polynomials on
    m variables over the support Vandermonde: the full sum and, for each
    support variable u, the sums restricted to patterns with u inside or
    outside the pattern's subset side."""
    a, b = TYPE_SHAPE[tid]
    m = a + b
    vm = vandermonde(m, RQ)
    zero = MultiPoly.zero(m, RQ)
    total = zero
    n_in = {u: zero for u in range(1, m + 1)}
    n_out = {u: zero for u in range(1, m + 1)}
    for ins, outs, pairs, exps in _patterns(tid):
        den = MultiPoly.const(m, 1, RQ)
        for i, p in pairs:
            den = den * (MultiPoly.variable(i, m, RQ) - MultiPoly.variable(p, m, RQ))
        mono = [0] * m
        for v, e in exps.items():
            mono[v - 1] = e
        piece = exact_div(vm, den) * MultiPoly.monomial(tuple(mono), m, RQ)
        total = total + piece
        for u in ins:
            n_in[u] = n_in[u] + piece
        for u in outs:
            n_out[u] = n_out[u] + piece
    return total, n_in, n_out


def _pad(f: MultiPoly, n: int) -> MultiPoly:
    if f.n == n:
        return f
    pad = (0,) * (n - f.n)
    return MultiPoly(n, f.ring, {k + pad: c for k, c in f.terms.items()})


def _type_raw_homogeneous(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    a, b = TYPE_SHAPE[tid]
    m = a + b
    if n < m or r < a or n - r < b:
        return MultiPoly.zero(n, f.ring)
    ca = binom(n - m, r - a)
    cb = binom(n - m - 1, r - a - 1)
    total_m, in_m, out_m = _canonical_sums(tid)
    total = _pad(total_m, n)
    deg = f.total_degree()
    g0 = (total * f).scale(cb * deg) if cb and deg else MultiPoly.zero(n, f.ring)
    for u in range(1, m + 1):
        cu = _pad(in_m[u], n).scale(ca - cb) - _pad(out_m[u], n).scale(cb)
        if cu:
            eu = f.euler(u)
            if eu:
                g0 = g0 + cu * eu
    q0 = exact_div(vandermonde(n, RQ), _pad(vandermonde(m, RQ), n))
    return _alternate_over_subsets(g0 * q0, m)


def type_sum_raw_apply(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Raw subset-and-pattern sum of the given type applied to symmetric f."""
    if f.ring != RQ:
        raise DomainError("type sums run over the rational ring")
    if not f:
        return f
    bad = symmetry_violation(f)
    if bad is not None:
        raise NonSymmetricError("type sums require symmetric arguments", bad)
    out = MultiPoly.zero(n, f.ring)
    for _, part in sorted(f.homogeneous_parts().items()):
        out = out + _type_raw_homogeneous(n, r, tid, part)
    return out


def type_sum_raw_literal(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Direct double sum over subsets and patterns (small n only)."""
    a, b = TYPE_SHAPE[tid]
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
            den = MultiPoly.const(n, 1, RQ)
            for i, p in pairs:
                den = den * (
                    MultiPoly.variable(i, n, RQ) - MultiPoly.variable(p, n, RQ)
                )
            mono = [0] * n
            for v, e in exps.items():
                mono[v - 1] = e
            acc = acc + exact_div(vn, den) * MultiPoly.monomial(tuple(mono), n, RQ) * ef
    return exact_div(acc, vn)


# -- closed forms -------------------------------------------------------


def _unit_sum_type2(n: int, f: MultiPoly) -> MultiPoly:
    """Per 4-subset unit: the four terms x_a x_b x_c (E_a+E_b+E_c) over
    prod (x_. - x_excluded), resolved over the subset Vandermonde and
    replicated by relabeling."""
    if n < 4:
        return MultiPoly.zero(n, f.ring)
    sup = (1, 2, 3, 4)
    vs = vandermonde(n, RQ, sup)
    num = MultiPoly.zero(n, f.ring)
    for w in sup:
        abc = [v for v in sup if v != w]
        mono = [0] * n
        for v in abc:
            mono[v - 1] = 1
        ef = MultiPoly.zero(n, f.ring)
        for v in abc:
            ef = ef + f.euler(v)
        den = MultiPoly.const(n, 1, RQ)
        for v in abc:
            den = den * (MultiPoly.variable(v, n, RQ) - MultiPoly.variable(w, n, RQ))
        num = num + exact_div(vs, den) * MultiPoly.monomial(tuple(mono), n, RQ) * ef
    unit = exact_div(num, vs)
    out = MultiPoly.zero(n, f.ring)
    for subset in combinations(range(1, n + 1), 4):
        out = out + unit.permute_vars(_subset_perm(subset, n))
    return out


def _unit_sum_type6(n: int, f: MultiPoly) -> MultiPoly:
    """Per 4-subset unit over pairs J: 4 (prod_J x^2)(E_J) minus
    (prod_J x)(sum_J x)(sum_out x)(E_J), over prod_{u in J, p out}(x_u-x_p)."""
    if n < 4:
        return MultiPoly.zero(n, f.ring)
    sup = (1, 2, 3, 4)
    vs = vandermonde(n, RQ, sup)
    num = MultiPoly.zero(n, f.ring)
    for jset in combinations(sup, 2):
        pset = tuple(v for v in sup if v not in jset)
        ej = MultiPoly.zero(n, f.ring)
        for v in jset:
            ej = ej + f.euler(v)
        if not ej:
            continue
        xj = MultiPoly.const(n, 1, RQ)
        sj = MultiPoly.zero(n, RQ)
        for v in jset:
            xj = xj * MultiPoly.variable(v, n, RQ)
            sj = sj + MultiPoly.variable(v, n, RQ)
        sp = MultiPoly.zero(n, RQ)
        for p in pset:
            sp = sp + MultiPoly.variable(p, n, RQ)
        den = MultiPoly.const(n, 1, RQ)
        for u in jset:
            for p in pset:
                den = den * (
                    MultiPoly.variable(u, n, RQ) - MultiPoly.variable(p, n, RQ)
                )
        local = (xj * xj).scale(4) - xj * sj * sp
        num = num + exact_div(vs, den) * local * ej
    unit = exact_div(num, vs)
    out = MultiPoly.zero(n, f.ring)
    for subset in combinations(range(1, n + 1), 4):
        out = out + unit.permute_vars(_subset_perm(subset, n))
    return out


def type_sum_closed_apply(n: int, r: int, tid: int, f: MultiPoly) -> MultiPoly:
    """Closed form of the type sum: kernel-operator combinations, plus the
    stated per-4-subset unit sums for types 2 and 6."""
    if f.ring != RQ:
        raise DomainError("type sums run over the rational ring")
    bad = symmetry_violation(f)
    if bad is not None:
        raise NonSymmetricError("type sums require symmetric arguments", bad)
    l1 = l_op(1, n, RQ)
    b21 = b_op(2, 1, n, RQ)
    b31 = b_op(3, 1, n, RQ)
    if tid == 1:
        out = b_op(4, 1, n, RQ)(f).scale(binom(n - 4, r - 1))
        c = Fraction((r + 2) * (r**3 - r), 24) * binom(n - 1, r + 2)
        return out + l1(f).scale(c)
    if tid == 2:
        out = _unit_sum_type2(n, f).scale(binom(n - 4, r - 3))
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
    if tid == 6:
        out = l1(f).scale(Fraction(5 * r * (r + 1) * (r - 1) * (r - 2), 24) * binom(n - 1, r + 1))
        return out + _unit_sum_type6(n, f).scale(binom(n - 4, r - 2))
    raise DomainError(f"unknown type id {tid}")


def type_sum_op(n: int, r: int, tid: int, form: str) -> LinearOperator:
    """LinearOperator view of a type sum, raw or closed."""
    if form == "raw":
        return LinearOperator(
            n, RQ, lambda f: type_sum_raw_apply(n, r, tid, f), f"type{tid}_raw[{n},{r}]"
        )
    if form == "closed":
        return LinearOperator(
            n,
            RQ,
            lambda f: type_sum_closed_apply(n, r, tid, f),
            f"type{tid}_closed[{n},{r}]",
        )
    raise DomainError("form must be 'raw' or 'closed'")
