"""The Schur read-off against the division it replaces: the product of
the two subset factors, then signed relabelings over all k-subsets, or
the alternant sum of the Macdonald operator; then one exact division by
the full Vandermonde product."""

from itertools import combinations, permutations

import pytest

from macdunkl import MultiPoly, Ring, monomial_symmetric, to_msym_coords
from macdunkl.errors import InexactDivisionError
from macdunkl.multipoly import exact_div, kostka_table, partitions_of, partitions_upto, vandermonde
from macdunkl import operators
from macdunkl.operators import (
    _alternate_over_subsets,
    _Cofactor,
    _subset_perm,
    _subset_sign,
    macdonald_scalar_part,
)
from macdunkl.verify import typesums
from macdunkl.verify.typesums import TYPE_SHAPE, type_sum_raw_apply

RQ = Ring.q()


def alternate_by_division(g: MultiPoly, cof: MultiPoly, k: int) -> MultiPoly:
    n = g.n
    base = g * cof
    total = MultiPoly.zero(n, base.ring)
    for subset in combinations(range(1, n + 1), k):
        piece = base.permute_vars(_subset_perm(subset, n))
        total = total + (piece if _subset_sign(subset, n) == 1 else -piece)
    return exact_div(total, vandermonde(n, base.ring))


def _record_alternations(monkeypatch, module):
    """Route module._alternate_over_subsets through the division oracle,
    keeping every (g, cof) and both results."""
    seen = []

    def spy(g, cof):
        got = _alternate_over_subsets(g, cof)
        seen.append((g.n, cof.k, got, alternate_by_division(g, cof.poly, cof.k)))
        return got

    monkeypatch.setattr(module, "_alternate_over_subsets", spy)
    return seen


def test_type_numerators_match_division(monkeypatch):
    seen = _record_alternations(monkeypatch, typesums)
    for n in (4, 5, 6):
        for r in range(1, n + 1):
            for tid in TYPE_SHAPE:
                for lam in partitions_upto(3, n):
                    type_sum_raw_apply(n, r, tid, monomial_symmetric(lam, n))
    assert len(seen) > 100
    for n, k, got, want in seen:
        assert got == want, (n, k)


def test_macdonald_jet_matches_division():
    """Every Macdonald column, the integer polynomial in (q, t) that the
    h-slice and the rational readers evaluate, against building the alternant
    sum over the rearrangements alpha of lam of
    e_r(q^alpha_i t^(n-i)) a_(alpha+delta) in x_1..x_n, q, t and dividing
    it exactly by V_n."""
    checked = 0
    for n in range(1, 5):
        width = n + 2  # q and t are the variables n + 1 and n + 2
        delta = tuple(range(n - 1, -1, -1))
        vdm = vandermonde(width, RQ, range(1, n + 1))
        for r in range(1, n + 1):
            for lam in [()] + partitions_upto(3, n):
                numerator = {}
                for alpha in set(permutations(lam + (0,) * (n - len(lam)))):
                    e = tuple(a + d for a, d in zip(alpha, delta))
                    for subset in combinations(range(n), r):
                        qt = (sum(alpha[i] for i in subset), sum(delta[i] for i in subset))
                        for perm in permutations(range(n)):
                            inv = sum(1 for a, b in combinations(perm, 2) if a > b)
                            k = tuple(e[p] for p in perm) + qt
                            numerator[k] = numerator.get(k, 0) + (-1 if inv % 2 else 1)
                total = MultiPoly(width, RQ, {k: c for k, c in numerator.items() if c})
                got = {}
                for mu, poly in operators._macdonald_column(n, r, lam).items():
                    for x in set(permutations(mu + (0,) * (n - len(mu)))):
                        for (a, b), count in poly.items():
                            got[x + (a, b)] = count
                assert MultiPoly(width, RQ, got) == exact_div(total, vdm), (n, r, lam)
                checked += 1
    assert checked == sum(n * (1 + len(partitions_upto(3, n))) for n in range(1, 5))


def test_scalar_part_matches_division(monkeypatch):
    seen = _record_alternations(monkeypatch, operators)
    for n in range(1, 6):
        for r in range(1, n + 1):
            macdonald_scalar_part(n, r)
    assert len(seen) == 15
    for n, k, got, want in seen:
        assert got == want, (n, k)


def test_readoff_refuses_factors_that_break_their_contract():
    n = 3
    x1, x2, x3 = (MultiPoly.variable(i, n) for i in (1, 2, 3))
    one = MultiPoly.const(n, 1)
    # g must be antisymmetric in the head: x1^2 x2 is not, and the signed
    # subset sum x1^2 x2 - x1^2 x3 + x2^2 x3 is not divisible by V_3
    with pytest.raises(InexactDivisionError) as err:
        _alternate_over_subsets(x1 * x1 * x2, _Cofactor(one, 2))
    assert err.value.remainder == x1 * x1 * x2
    with pytest.raises(InexactDivisionError):
        alternate_by_division(x1 * x1 * x2, one, 2)
    # symmetric inside {1, 2} instead of antisymmetric
    with pytest.raises(InexactDivisionError):
        _alternate_over_subsets(x1 + x2, _Cofactor(one, 2))
    # g must be symmetric in the tail {2, 3}
    with pytest.raises(InexactDivisionError) as err:
        _alternate_over_subsets(x2, _Cofactor(x2 - x3, 1))
    assert err.value.remainder == x2
    # cof must be symmetric in the head {1, 2} and antisymmetric in the tail
    with pytest.raises(InexactDivisionError) as err:
        _Cofactor(x1, 2)
    assert err.value.remainder == x1
    with pytest.raises(InexactDivisionError) as err:
        _Cofactor(x2 + x3, 1)
    assert err.value.remainder == x2 + x3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kostka_table_matches_bialternant(n):
    delta = tuple(range(n - 1, -1, -1))
    for weight in range(5):
        table = kostka_table(weight, n)
        assert set(table) == set(partitions_of(weight, n))
        for lam, row in table.items():
            padded = lam + (0,) * (n - len(lam))
            alpha = tuple(p + d for p, d in zip(padded, delta))
            alternant = MultiPoly.zero(n, RQ)
            for sigma in permutations(range(n)):
                inv = sum(1 for a, b in combinations(sigma, 2) if a > b)
                mono = MultiPoly.monomial(tuple(alpha[s] for s in sigma), n, RQ)
                alternant = alternant + (-mono if inv % 2 else mono)
            want = to_msym_coords(exact_div(alternant, vandermonde(n, RQ)))
            assert dict(row) == want, (n, lam)
