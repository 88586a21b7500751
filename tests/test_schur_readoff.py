"""The Schur read-off and the block divided difference against the
division they replace: the product of the two subset factors, then
signed relabelings over all k-subsets, or the alternant sum of the
Macdonald operator; then one exact division by the Vandermonde
product."""

from itertools import combinations, permutations

import pytest

from macdunkl import BetaPoly, MultiPoly, Ring, monomial_symmetric, to_msym_coords
from macdunkl.errors import InexactDivisionError
from macdunkl.multipoly import exact_div, kostka_table, partitions_of, partitions_upto, vandermonde
from macdunkl import operators
from macdunkl.operators import (
    _block_divided_difference,
    _cross_product,
    _subset_sign,
    macdonald_scalar_part,
)
from macdunkl.verify.typesums import TYPE_SHAPE, type_sum_raw_apply
from test_operators import _subset_perm

RQ = Ring.q()


def alternate_by_division(g: MultiPoly, cof: MultiPoly, k: int, width: int | None = None) -> MultiPoly:
    """The signed relabelings of g * cof that send {1..k} onto each
    k-subset of {1..width}, summed and divided exactly by the Vandermonde
    product of {1..width}.  width defaults to all the variables; those
    above it pass through."""
    n = g.n
    width = n if width is None else width
    base = g * cof
    total = MultiPoly.zero(n, base.ring)
    for subset in combinations(range(1, width + 1), k):
        piece = base.permute_vars(_subset_perm(subset, width) + tuple(range(width, n)))
        total = total + (piece if _subset_sign(subset, width) == 1 else -piece)
    return exact_div(total, vandermonde(n, base.ring, range(1, width + 1)))


def test_type_numerators_match_division(monkeypatch):
    """Each support step of the raw type sum, the block (1, m - 1) of
    q E_1 f summed over all m-subsets, against the numerator it stands
    for: g cof with g = g1 - sum_(u=2..m) K_1u g1, g1 = n_in[1] E_1 f,
    n_in[1] = q V_(2..m) and cof = V_n / V_m, summed with signs over all
    m-subsets and divided exactly by V_n."""
    seen = []
    block = operators._block_divided_difference

    def spy(h, r, k):
        got = block(h, r, k)
        n = h.n
        g1 = h * vandermonde(n, RQ, range(2, k + 1))
        g = g1
        for u in range(2, k + 1):
            g = g - g1.swap(1, u)
        cof = exact_div(vandermonde(n, RQ), vandermonde(n, RQ, range(1, k + 1)))
        total = operators._from_coords(operators._subset_sum_coords(got, k), n, RQ)
        seen.append((n, k, r, total, alternate_by_division(g, cof, k)))
        return got

    monkeypatch.setattr(operators, "_block_divided_difference", spy)
    for n in (4, 5, 6):
        for r in range(1, n + 1):
            for tid in TYPE_SHAPE:
                for lam in partitions_upto(3, n):
                    type_sum_raw_apply(n, r, tid, monomial_symmetric(lam, n))
    assert len(seen) > 100
    for n, k, r, got, want in seen:
        assert r == 1 and got == want, (n, k)


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


def test_scalar_part_matches_division():
    """The scalar part against its kernel sum: V_r times the cross product
    prod_(i <= r < j)(t x_i - x_j) times V_(r+1..n), alternated over the
    r-subsets and divided by V_n."""
    t = Ring.uni("t")
    for n in range(1, 7):
        for r in range(1, n + 1):
            head, tail = range(1, r + 1), range(r + 1, n + 1)
            cof = _cross_product(n, t, head, BetaPoly.var()) * vandermonde(n, t, tail)
            want = alternate_by_division(vandermonde(n, t, head), cof, r)
            assert macdonald_scalar_part(n, r) == want, (n, r)


def _block_symmetric_samples(r: int, k: int, ring: Ring):
    """Polynomials on k + 1 variables symmetric inside {1..r} and inside
    {r+1..k}, x_(k+1) passive."""
    n = k + 1
    x = [MultiPoly.variable(i, n, ring) for i in range(1, n + 1)]
    one = MultiPoly.const(n, 1, ring)
    coeff = MultiPoly.const(n, BetaPoly.var() if ring.kind == "uni" else 3, ring)
    zero = MultiPoly.zero(n, ring)
    e1 = sum(x[:r], zero)
    p2 = sum((v * v for v in x[r:k]), zero)
    e2 = sum((u * v for u, v in combinations(x[r:k], 2)), zero)
    return [
        one,
        (e1 * e1 + coeff) * (p2 + x[k]) * x[k],
        (e1 * x[k] - one) * (e2 * e1 + p2 * coeff) + coeff,
    ]


@pytest.mark.parametrize("ring", [Ring.q(), Ring.uni("t")], ids=["q", "t"])
def test_block_divided_difference_matches_division(ring):
    """The helper against its kernel sum: g V_r V_(r+1..k), alternated over
    the r-subsets of {1..k} and divided by V_k; empty blocks return g."""
    checked = 0
    for k in range(6):
        for r in range(k + 1):
            n = k + 1
            cof = vandermonde(n, ring, range(1, r + 1)) * vandermonde(n, ring, range(r + 1, k + 1))
            for g in _block_symmetric_samples(r, k, ring):
                got = _block_divided_difference(g, r, k)
                assert got == alternate_by_division(g, cof, r, k), (k, r, g)
                if r in (0, k):
                    assert got == g
                checked += 1
    assert checked == 3 * 21


def test_block_divided_difference_refuses_non_block_symmetric():
    n = 4
    x1, x2, x3, x4 = (MultiPoly.variable(i, n) for i in (1, 2, 3, 4))
    # x1^2 x2 is not symmetric inside the head {1, 2}, x2 not inside the
    # tail {2, 3} (the block shape r = 1 of B_{k,l} and of the raw type
    # sums' q E_1 f), x1 x4 not inside the one block {1..4} of r = 0
    for bad, r, k in ((x1 * x1 * x2, 2, 3), (x2, 1, 3), (x1 * x4, 0, 4), (x3, 2, 4)):
        with pytest.raises(InexactDivisionError) as err:
            _block_divided_difference(bad, r, k)
        assert err.value.remainder == bad, (r, k)
    # x1^2 x2 over (x1 - x3)(x2 - x3), alternated, is no polynomial
    with pytest.raises(InexactDivisionError):
        alternate_by_division(x1 * x1 * x2, x1 - x2, 2, 3)


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
