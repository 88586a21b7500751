"""Type-sum tests: raw vs literal, counts, the partial-fraction identity."""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations
from math import factorial

import pytest

from macdunkl import (
    DomainError,
    MultiPoly,
    NonSymmetricError,
    Ring,
    binom,
    exact_div,
    monomial_symmetric,
    to_msym_coords,
)
from macdunkl.multipoly import partitions_upto, vandermonde
from macdunkl import operators
from macdunkl.operators import _from_coords, _subset_sum_coords, operator_matrix, primitive_matrix
from macdunkl.verify import typesums
from macdunkl.verify.closedforms import B41, _combo
from macdunkl.verify.identities import TYPE_GRID, verify_identity
from macdunkl.verify.typesums import (
    TYPE_PATTERN,
    TYPE_SHAPE,
    _canonical_sums,
    _closed_terms,
    _pattern_key,
    _pattern_piece,
    _patterns,
    _raw_terms,
    _stabilizer_order,
    type_sum_closed_apply,
    type_sum_raw_apply,
    type_sum_raw_literal,
    type_term_count,
    unit_op,
)
from test_operators import round_trip

RQ = Ring.q()


def _pad(f: MultiPoly, n: int, ring: Ring) -> MultiPoly:
    """Rational f on its own variables as a polynomial in n variables over
    the ring."""
    pad = (0,) * (n - f.n + ring.aux_slots)
    return MultiPoly(n, ring, {k + pad: c for k, c in f.terms.items()})


def test_type1_count_example():
    # r/6 (n-r)(n-r-1)(n-r-2) binom(n,r) at (4,1) gives 4
    assert type_term_count(4, 1, 1) == 4


def test_counts_match_product_formulas():
    from macdunkl import binom

    def formulas(n, r):
        return {
            1: Fraction(r, 6) * (n - r) * (n - r - 1) * (n - r - 2) * binom(n, r),
            2: Fraction(r * (r - 1) * (r - 2), 6) * (n - r) * binom(n, r),
            3: Fraction(r * (r - 1), 2) * (n - r) * (n - r - 1) * (n - r - 2) * binom(n, r),
            4: Fraction((n - r) * (n - r - 1), 2) * r * (r - 1) * (r - 2) * binom(n, r),
            5: Fraction(r * (r - 1) * (r - 2), 6)
            * (n - r)
            * (n - r - 1)
            * (n - r - 2)
            * binom(n, r),
            6: r * (r - 1) * (n - r) * (n - r - 1) * binom(n, r),
        }

    for n, r in ((6, 3), (7, 3), (7, 4), (8, 4)):
        want = formulas(n, r)
        for tid in range(1, 7):
            assert type_term_count(n, r, tid) == want[tid], (n, r, tid)


def test_partial_fraction_unit():
    # x1^2/((x1-x2)(x1-x3)) + x2^2/((x2-x1)(x2-x3)) + x3^2/((x3-x1)(x3-x2)) = 1
    n = 3
    v = vandermonde(n)
    acc = MultiPoly.zero(n, RQ)
    for i in (1, 2, 3):
        rest = [j for j in (1, 2, 3) if j != i]
        den = MultiPoly.const(n, 1, RQ)
        for j in rest:
            den = den * (MultiPoly.variable(i, n, RQ) - MultiPoly.variable(j, n, RQ))
        acc = acc + exact_div(v, den) * MultiPoly.variable(i, n, RQ) ** 2
    assert exact_div(acc, v) == MultiPoly.const(n, 1, RQ)


def test_empty_pattern_gives_zero():
    f = monomial_symmetric((1,), 4)
    # type 5 needs r >= 3 and n-r >= 3
    assert type_sum_raw_apply(4, 1, 5, f) == MultiPoly.zero(4, RQ)
    assert type_sum_raw_apply(4, 3, 2, f) == type_sum_raw_literal(4, 3, 2, f)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_matches_literal_small(tid):
    for n, r in ((4, 1), (4, 3), (5, 2), (5, 3)):
        for lam in ((1,), (2,), (1, 1)):
            f = monomial_symmetric(lam, n)
            fast = type_sum_raw_apply(n, r, tid, f)
            slow = type_sum_raw_literal(n, r, tid, f)
            assert fast == slow, (tid, n, r, lam)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_matches_literal_n6(tid):
    n, r = 6, 3
    for lam in ((2,), (1, 1)):
        f = monomial_symmetric(lam, n)
        assert type_sum_raw_apply(n, r, tid, f) == type_sum_raw_literal(n, r, tid, f)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_equals_closed_at_6_3_degree2(tid):
    n, r = 6, 3
    for lam in partitions_upto(2, n):
        f = monomial_symmetric(lam, n)
        raw = type_sum_raw_apply(n, r, tid, f)
        closed = type_sum_closed_apply(n, r, tid, f)
        assert raw == closed, (tid, lam)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_closed_table_has_one_value_under_both_evaluators(tid):
    """The closed term table, as a combination of cached primitive
    matrices, against applying it to each basis polynomial."""
    grid = [(n, r, 2) for n in range(4, 8) for r in range(n + 1)]
    grid += [(n, r, 3) for n, r in TYPE_GRID]
    for n, r, degree in grid:
        basis = tuple(partitions_upto(degree, n))
        combo = _combo(n, basis, _closed_terms(n, r, tid)).beta_slice(0)
        op = round_trip(partial(type_sum_closed_apply, n, r, tid), n, RQ)
        assert combo == operator_matrix(op, basis), (n, r, degree)
        assert degree == 2 or not combo.is_zero()


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_columns_from_coordinates_match_the_round_trip(tid):
    """The raw term table, as a combination of cached primitive matrices,
    against applying it to each m_lam and collapsing the image again."""
    grid = [(n, r, 2) for n in range(1, 8) for r in range(n + 1)]
    grid += [(n, r, 3) for n, r in TYPE_GRID]
    for n, r, degree in grid:
        basis = partitions_upto(degree, n)
        got = _combo(n, basis, _raw_terms(n, r, tid)).beta_slice(0)
        want = operator_matrix(round_trip(partial(type_sum_raw_apply, n, r, tid), n, RQ), basis)
        assert (got.basis, got.entries) == (want.basis, want.entries), (n, r, degree)


def _patterns_by_hand(tid: int):
    """The patterns of each type on support {1..a+b}, enumerated by hand:
    (in_set, out_set, denominator pairs, numerator exponents)."""
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


@pytest.mark.parametrize("tid, count", [(1, 4), (2, 4), (3, 60), (4, 60), (5, 120), (6, 24)])
def test_pattern_orbits_match_the_hand_enumeration(tid, count):
    """Each type's patterns, generated as the orbit of its representative,
    are the hand-enumerated ones: the same set, no duplicate, the
    representative first."""
    by_hand = [_pattern_key(*pat) for pat in _patterns_by_hand(tid)]
    orbit = [_pattern_key(*pat) for pat in _patterns(tid)]
    assert isinstance(_patterns(tid), tuple)
    assert set(orbit) == set(by_hand)
    assert len(orbit) == len(set(orbit)) == len(by_hand) == count
    assert _patterns(tid)[0] == TYPE_PATTERN[tid]
    assert _patterns_by_hand(tid)[0] == TYPE_PATTERN[tid]


@lru_cache(maxsize=None)
def _canonical_sums_per_pattern(tid):
    """The pattern sums with one exact division per pattern, and each
    pattern's divided piece (cached: two tests read them)."""
    a, b = TYPE_SHAPE[tid]
    m = a + b
    vm = vandermonde(m, RQ)
    zero = MultiPoly.zero(m, RQ)
    total = zero
    n_in = {u: zero for u in range(1, m + 1)}
    n_out = {u: zero for u in range(1, m + 1)}
    pieces = []
    for ins, outs, pairs, exps in _patterns(tid):
        den = MultiPoly.const(m, 1, RQ)
        for i, p in pairs:
            den = den * (MultiPoly.variable(i, m, RQ) - MultiPoly.variable(p, m, RQ))
        mono = [0] * m
        for v, e in exps.items():
            mono[v - 1] = e
        piece = exact_div(vm, den) * MultiPoly.monomial(tuple(mono), m, RQ)
        pieces.append((pairs, exps, piece))
        total = total + piece
        for u in ins:
            n_in[u] = n_in[u] + piece
        for u in outs:
            n_out[u] = n_out[u] + piece
    return total, n_in, n_out, tuple(pieces)


def _full_sum_factor(total, m):
    """c with total == c V_m, or None when total is no multiple of V_m."""
    vm = vandermonde(m, RQ)
    lead = max(vm.terms)
    c = Fraction(total.terms.get(lead, 0), vm.terms[lead])
    return c if total == vm.scale(c) else None


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_orbit_sums_match_per_pattern_division(tid):
    """(c, q) is the oracle's (total / V_m, n_in[1] / V_(2..m)), q is
    symmetric in x_2..x_m (x_1^3 for type 1, the numerator of B_{4,1}),
    and the oracle's sums obey the relabeling law the raw path relies on:
    n_in[u] and n_out[u] are -K_1u of the u = 1 sums."""
    m = sum(TYPE_SHAPE[tid])
    total, n_in, n_out, _ = _canonical_sums_per_pattern(tid)
    c, q = _canonical_sums(tid)
    assert c == _full_sum_factor(total, m)
    assert q * vandermonde(m, RQ, range(2, m + 1)) == n_in[1]
    for j in range(2, m):
        assert q.swap(j, j + 1) == q, j
    if tid == 1:
        assert q == MultiPoly.monomial((3, 0, 0, 0), m, RQ)
    for u in range(2, m + 1):
        assert n_in[u] == -n_in[1].swap(1, u), u
        assert n_out[u] == -n_out[1].swap(1, u), u


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_canonical_sums_divide_by_nothing(tid, monkeypatch):
    """The canonical sums and the term count neither divide nor walk the
    pattern orbit."""
    want = (_canonical_sums(tid), type_term_count(6, 3, tid))

    def refuse(*args, **kwargs):
        raise AssertionError("the canonical sums must not divide")

    def no_orbit(*args, **kwargs):
        raise AssertionError("the canonical sums must not walk the orbit")

    monkeypatch.setattr(typesums, "exact_div", refuse)
    monkeypatch.setattr(typesums, "vandermonde", refuse)
    monkeypatch.setattr(typesums, "_patterns", no_orbit)
    c, q = _canonical_sums.__wrapped__(tid)
    assert c and q
    assert ((c, q), type_term_count(6, 3, tid)) == want


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_stabilizer_order_times_orbit_size_is_m_factorial(tid):
    m = sum(TYPE_SHAPE[tid])
    assert _stabilizer_order(tid) * len(_patterns(tid)) == factorial(m)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_side_sums_read_off_strictly_decreasing_exponents_only(tid, monkeypatch):
    """A term whose exponents repeat twice is skipped before it is sorted,
    so every alternant the read-off sees is strictly decreasing in
    x_2..x_m."""
    want = _canonical_sums(tid)
    seen = []
    readoff = typesums._readoff_coords

    def spy(alternants, n):
        alternants = list(alternants)
        seen.extend(e for e, _ in alternants)
        return readoff(alternants, n)

    monkeypatch.setattr(typesums, "_readoff_coords", spy)
    assert _canonical_sums.__wrapped__(tid) == want
    assert seen
    for e in seen:
        assert all(x > y for x, y in zip(e, e[1:])), e


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_canonical_sums_structure(tid):
    """The facts the alternant read-off relies on: the full sum is a
    nonzero multiple of V_m, every pattern puts each support variable on
    one side, and every pattern's expanded piece is the divided one."""
    a, b = TYPE_SHAPE[tid]
    m = a + b
    total, n_in, n_out, pieces = _canonical_sums_per_pattern(tid)
    c = _full_sum_factor(total, m)
    assert c and c == _canonical_sums(tid)[0]
    for u in range(1, m + 1):
        assert n_in[u] + n_out[u] == total, u
    assert _pattern_piece(m, (), {}) == vandermonde(m, RQ)
    assert len(pieces) == len(_patterns(tid))
    for pairs, exps, want in pieces:
        assert _pattern_piece(m, pairs, exps) == want, (pairs, exps)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_path_forms_one_product_per_part(tid, monkeypatch):
    """Warm, the raw path multiplies once per m-coordinate lam of f with a
    subset count ca = binom(n - m, r - a) != 0: the one product q E_1 m_lam
    that its two kernels divide and relabel."""
    n, r = 6, 3
    a, b = TYPE_SHAPE[tid]
    assert binom(n - a - b, r - a)
    f = monomial_symmetric((2, 1), n) + monomial_symmetric((1,), n)
    type_sum_raw_apply(n, r, tid, f)
    calls = []
    mul = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    type_sum_raw_apply(n, r, tid, f)
    assert len(calls) == len(to_msym_coords(f)) == 2


@pytest.mark.parametrize("tid", [2, 6])
def test_closed_units_divide_by_nothing(tid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed side must not divide")

    monkeypatch.setattr(typesums, "exact_div", refuse)
    monkeypatch.setattr(operators, "exact_div", refuse)
    n, r = 6, 3
    f = monomial_symmetric((2, 1), n)
    assert type_sum_closed_apply(n, r, tid, f)


@pytest.mark.parametrize("tid, calls", [(1, 1), (2, 0), (3, 2), (4, 2), (5, 1), (6, 0)])
def test_closed_side_applies_each_kernel_operator_once(tid, calls, monkeypatch):
    """Each B_{k,l} that a closed form names is applied to f once: type 4
    reuses its one B_{2,1} f in both of its terms."""
    seen = []
    column = operators._kernel_column

    def counted(num, r, l, *args):
        if r == 1:  # B_{k,l} is the kernel sum of x_1^(k-1) with r = 1
            seen.append((num.n, l))
        return column(num, r, l, *args)

    monkeypatch.setattr(operators, "_kernel_column", counted)
    type_sum_closed_apply(6, 3, tid, monomial_symmetric((2, 1), 6))
    assert len(seen) == len(set(seen)) == calls, seen


def _unit_sum_by_division(tid: int, n: int, f: MultiPoly) -> MultiPoly:
    """The per-4-subset unit as sum_J piece_J E_J f over the subset
    Vandermonde V_S = V_(1234), divided exactly, then summed over all
    4-subsets.  Type 2: the pieces of the type 2 patterns, J their in
    indices.  Type 6: for each pair J = {i, j} with complement {p, q},
    V_S / prod_(u in J, v out)(x_u - x_v) x_i x_j times
    4 x_i x_j - (x_i + x_j)(x_p + x_q).  Below n = 4 there is no 4-subset."""
    if n < 4:
        return MultiPoly.zero(n, f.ring)
    if tid == 2:
        pieces = [(ins, _pattern_piece(4, pairs, exps)) for ins, _, pairs, exps in _patterns(2)]
    else:
        x = {v: MultiPoly.variable(v, 4, RQ) for v in range(1, 5)}
        pieces = []
        for i, j in combinations(range(1, 5), 2):
            p, q = (v for v in range(1, 5) if v not in (i, j))
            piece = _pattern_piece(4, ((i, p), (i, q), (j, p), (j, q)), {i: 1, j: 1})
            local = (x[i] * x[j]).scale(4) - (x[i] + x[j]) * (x[p] + x[q])
            pieces.append(((i, j), piece * local))
    ring = f.ring
    num = MultiPoly.zero(n, ring)
    for ins, piece in pieces:
        ef = MultiPoly.zero(n, ring)
        for v in ins:
            ef = ef + f.euler(v)
        num = num + _pad(piece, n, ring) * ef
    unit = exact_div(num, vandermonde(n, ring, (1, 2, 3, 4)))
    return _from_coords(_subset_sum_coords(unit, 4), n, ring)


@pytest.mark.parametrize("tid", [2, 6])
def test_unit_sums_match_division_by_the_unit_vandermonde(tid):
    for n in range(4, 8):
        for lam in partitions_upto(3, n):
            f = monomial_symmetric(lam, n)
            assert unit_op(tid, n, RQ)(f) == _unit_sum_by_division(tid, n, f), (n, lam)


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_equals_closed_at_8_4_degree2(tid):
    """The type families beyond the suite grid: (n, r) = (8, 4), degree 2."""
    v = verify_identity(f"type{tid}_matches", n=8, r=4, degree=2)
    assert v.passed, v.residual


@pytest.mark.parametrize("tid", [1, 2, 3, 4, 5, 6])
def test_raw_equals_closed_at_9_4_and_10_5_degree2(tid):
    """The type families at n > 8: (n, r) = (9, 4) and (10, 5), degree 2."""
    for n, r in ((9, 4), (10, 5)):
        v = verify_identity(f"type{tid}_matches", n=n, r=r, degree=2)
        assert v.passed, (n, r, v.residual)


@pytest.mark.parametrize("tid", [0, 7])
def test_unknown_type_ids_are_refused(tid):
    f = monomial_symmetric((1,), 6)
    with pytest.raises(DomainError, match=f"unknown type id {tid}"):
        type_term_count(6, 3, tid)
    with pytest.raises(DomainError, match=f"unknown type id {tid}"):
        _patterns(tid)
    with pytest.raises(DomainError, match=f"unknown type id {tid}"):
        _stabilizer_order(tid)
    for apply in (type_sum_raw_apply, type_sum_raw_literal, type_sum_closed_apply):
        with pytest.raises(DomainError, match=f"unknown type id {tid}"):
            apply(6, 3, tid, f)


@pytest.mark.parametrize("apply", [type_sum_raw_apply, type_sum_closed_apply])
def test_type_sums_refuse_non_symmetric(apply):
    x1 = MultiPoly.variable(1, 6, RQ)
    for tid in range(1, 7):
        with pytest.raises(NonSymmetricError, match="requires a symmetric argument") as err:
            apply(6, 3, tid, x1)
        assert err.value.transposition == (1, 2)


@pytest.mark.parametrize("tid", [1, 3, 4, 5, 99])
def test_unit_op_refuses_types_other_than_2_and_6(tid):
    with pytest.raises(DomainError, match=f"types 2 and 6 only, got {tid}"):
        unit_op(tid, 5, RQ)


@pytest.mark.parametrize("apply", [type_sum_raw_apply, type_sum_closed_apply])
@pytest.mark.parametrize("r", [-2, -1, 7, 9])
def test_type_sums_refuse_a_rank_outside_0_to_n(apply, r):
    f = monomial_symmetric((1,), 6)
    for tid in range(1, 7):
        with pytest.raises(DomainError, match=f"need 0 <= r <= n, got r={r}, n=6"):
            apply(6, r, tid, f)


def test_type1_support_sum_is_b41():
    """Type 1's q is x_1^3, so its support sum is B_{4,1}: one kernel
    sum with one numerator."""
    for n in range(3, 8):
        basis = tuple(partitions_upto(3, n))
        support = primitive_matrix((typesums.raw_op, 1), n, basis)
        assert support == primitive_matrix(B41, n, basis), n
        assert n < 4 or not support.is_zero()
