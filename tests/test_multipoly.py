"""Polynomial layer tests: arithmetic, division, symmetry, partitions."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from macdunkl import (
    InexactDivisionError,
    MultiPoly,
    NonSymmetricError,
    Ring,
    exact_div,
    monomial_symmetric,
    partitions_of,
    partitions_upto,
    to_msym_coords,
    vandermonde,
)
from macdunkl.multipoly import _distinct_permutations, dominates, is_symmetric, symmetry_violation


def x(i, n, ring=Ring.q()):
    return MultiPoly.variable(i, n, ring)


def rand_poly(draw_exps, coeffs, n):
    terms = {}
    for exps, c in zip(draw_exps, coeffs):
        key = tuple(exps) + ()
        terms[key] = terms.get(key, 0) + c
    return MultiPoly(n, Ring.q(), {k: c for k, c in terms.items() if c})


polys3 = st.builds(
    lambda pairs: MultiPoly(
        3, Ring.q(), {}
    ) + sum(
        (MultiPoly.monomial(e, 3, coeff=c) for e, c in pairs),
        MultiPoly.zero(3),
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
)


def test_square_of_sum():
    f = x(1, 2) + x(2, 2)
    sq = f * f
    expect = (
        MultiPoly.monomial((2, 0), 2)
        + MultiPoly.monomial((1, 1), 2, coeff=2)
        + MultiPoly.monomial((0, 2), 2)
    )
    assert sq == expect


def test_add_negation_cancels():
    f = x(1, 3) * x(2, 3) + x(3, 3) ** 2
    assert f + f.scale(-1) == MultiPoly.zero(3)


def test_difference_of_squares():
    n = 2
    assert (x(1, n) - x(2, n)) * (x(1, n) + x(2, n)) == x(1, n) ** 2 - x(2, n) ** 2


def test_mismatched_n_rejected():
    with pytest.raises(Exception):
        x(1, 2) + x(1, 3)


def test_exact_div_difference_of_squares():
    n = 2
    f = x(1, n) ** 2 - x(2, n) ** 2
    assert exact_div(f, x(1, n) - x(2, n)) == x(1, n) + x(2, n)


def test_exact_div_after_swap():
    n = 2
    f = x(1, n) ** 2
    g = f - f.swap(1, 2)
    assert exact_div(g, (x(1, n) - x(2, n))) == x(1, n) + x(2, n)


def test_exact_div_inexact_raises_with_witness():
    n = 2
    with pytest.raises(InexactDivisionError) as exc:
        exact_div(x(1, n), (x(1, n) - x(2, n)))
    assert exc.value.remainder is not None


@settings(max_examples=40)
@given(polys3, polys3)
def test_exact_div_roundtrip(f, g):
    if not g:
        return
    assert exact_div(f * g, g) == f


@settings(max_examples=40)
@given(polys3)
def test_one_minus_swap_divisible(f):
    g = f - f.swap(1, 2)
    q = exact_div(g, (x(1, 3) - x(2, 3)))
    assert q * (x(1, 3) - x(2, 3)) == g


def test_swap_examples():
    n = 2
    f = x(1, n) ** 2 * x(2, n)
    assert f.swap(1, 2) == x(1, n) * x(2, n) ** 2
    sym = x(1, n) * x(2, n) + x(1, n) + x(2, n)
    assert sym.swap(1, 2) == sym
    g = x(1, n) ** 3
    assert g.swap(1, 2).swap(1, 2) == g


def test_euler_examples():
    n = 2
    f = x(1, n) ** 3 * x(2, n)
    assert f.euler(1) == f.scale(3)
    assert MultiPoly.const(n, 1).euler(1) == MultiPoly.zero(n)
    assert x(1, n).__pow__(2).euler(1).euler(1) == x(1, n).__pow__(2).scale(4)


@settings(max_examples=30)
@given(polys3)
def test_euler_commutes_across_indices(f):
    assert f.euler(1).euler(2) == f.euler(2).euler(1)


def test_monomial_symmetric_examples():
    m1 = monomial_symmetric((1,), 2)
    assert m1 == x(1, 2) + x(2, 2)
    m11 = monomial_symmetric((1, 1), 3)
    assert m11 == x(1, 3) * x(2, 3) + x(1, 3) * x(3, 3) + x(2, 3) * x(3, 3)
    m21 = monomial_symmetric((2, 1), 2)
    assert m21 == x(1, 2) ** 2 * x(2, 2) + x(1, 2) * x(2, 2) ** 2


def test_monomial_symmetric_too_many_parts():
    with pytest.raises(Exception):
        monomial_symmetric((1, 1, 1), 2)


def test_partitions_upto_order():
    assert partitions_upto(2, 2) == [(1,), (2,), (1, 1)]
    assert partitions_upto(3, 2) == [(1,), (2,), (1, 1), (3,), (2, 1)]
    assert len(partitions_of(4, 4)) == 5


def test_to_msym_coords_examples():
    n = 2
    f = (x(1, n) + x(2, n)) ** 2
    assert to_msym_coords(f) == {(2,): 1, (1, 1): 2}
    with pytest.raises(NonSymmetricError) as exc:
        to_msym_coords(x(1, n))
    assert exc.value.transposition == (1, 2)
    assert to_msym_coords(monomial_symmetric((2, 1), 2)) == {(2, 1): 1}


def test_msym_coords_unit_vectors():
    for n in range(1, 6):
        for lam in partitions_upto(5, n):
            assert to_msym_coords(monomial_symmetric(lam, n)) == {lam: 1}


def test_is_symmetric():
    assert is_symmetric(monomial_symmetric((3, 1), 4))
    assert not is_symmetric(x(2, 3))


def test_dominance():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((2,), (2, 1))


def test_vandermonde_alternates():
    v = vandermonde(3)
    assert v.swap(1, 2) == -v
    assert v.swap(2, 3) == -v


def test_uni_ring_scale_and_coords():
    from macdunkl import BetaPoly

    ring = Ring.uni("b")
    f = monomial_symmetric((1,), 2, ring).scale(BetaPoly.var())
    coords = to_msym_coords(f)
    assert coords == {(1,): BetaPoly.var()}


def test_render_is_deterministic():
    f = x(2, 3) + x(1, 3) ** 2 + x(1, 3) * x(3, 3)
    assert f.render() == "x1^2 + x1*x3 + x2"


def test_distinct_permutations_match_itertools():
    for n in range(7):
        for w in range(n + 3):
            for lam in partitions_of(w, n):
                values = lam + (0,) * (n - len(lam))
                got = _distinct_permutations(values)
                assert len(got) == len(set(got))
                assert set(got) == set(permutations(values)), values
                assert list(got) == sorted(got, reverse=True)


RINGS = [Ring.q(), Ring.uni("b")]


def _random_key(rng, n, ring, top=3):
    aux = tuple(rng.randint(0, 2) for _ in range(ring.aux_slots))
    return tuple(rng.randint(0, top) for _ in range(n)) + aux


def _random_symmetric(rng, n, ring):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = _random_key(rng, n, ring)
        c = rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
        for e in _distinct_permutations(key[:n]):
            terms[e + key[n:]] = c
    return MultiPoly(n, ring, terms)


def _swap_verdict(f):
    """The transposition the n - 1 adjacent swaps find, or None."""
    for i in range(1, f.n):
        if f.swap(i, i + 1) != f:
            return (i, i + 1)
    return None


@pytest.mark.parametrize("ring", RINGS)
def test_msym_symmetry_check_matches_swaps(ring):
    rng = random.Random(f"msym:{ring.kind}")
    verdicts = set()
    for trial in range(300):
        n = rng.randint(1, 4)
        f = _random_symmetric(rng, n, ring)
        terms = dict(f.terms)
        move = trial % 4
        if move == 1 and terms:
            key = rng.choice(sorted(terms))
            terms[key] = terms[key] + 1 or 2
        elif move == 2 and terms:
            del terms[rng.choice(sorted(terms))]
        elif move == 3:
            terms[_random_key(rng, n, ring)] = rng.choice([-2, 1, 5])
        g = MultiPoly(n, ring, terms)
        want = _swap_verdict(g)
        verdicts.add(want is None)
        assert symmetry_violation(g) == want
        if want is None:
            coords = to_msym_coords(g)
            grouped = {}
            for k, c in g.terms.items():
                if list(k[:n]) == sorted(k[:n], reverse=True):
                    lam = tuple(e for e in k[:n] if e)
                    grouped.setdefault(lam, []).append((k[n:], c))
            assert coords == {lam: ring.scalar_from_aux(p) for lam, p in grouped.items()}
        else:
            with pytest.raises(NonSymmetricError) as err:
                to_msym_coords(g)
            assert err.value.transposition == want
    assert verdicts == {True, False}


def _permute_loop(f, perm):
    n = f.n
    out = {}
    for k, c in f.terms.items():
        nk = [0] * n
        for i in range(n):
            nk[perm[i]] = k[i]
        out[tuple(nk) + k[n:]] = c
    return MultiPoly(n, f.ring, out)


@pytest.mark.parametrize("ring", RINGS)
def test_permute_vars_matches_loop(ring):
    rng = random.Random(f"perm:{ring.kind}")
    for _ in range(200):
        n = rng.randint(1, 6)
        f = MultiPoly(n, ring, {_random_key(rng, n, ring): rng.randint(1, 9) for _ in range(6)})
        perm = list(range(n))
        rng.shuffle(perm)
        assert f.permute_vars(tuple(perm)) == _permute_loop(f, perm), perm
