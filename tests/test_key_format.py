"""Packed exponent keys, and the one module that knows them.

``MultiPoly`` stores each monomial as one packed int.  Its products,
divisions, divided differences, m-coordinates and orbit sums are
compared here with tuple-keyed references, the tuple code the packed
methods replaced; packed keys must sort as ``_order_key`` sorts their
tuples; malformed keys are refused.  An AST scan keeps every other
module under ``src/`` from reading ``.terms`` or calling the
``MultiPoly`` constructor, so the key format stays behind
``multipoly``."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import macdunkl
from macdunkl import BetaPoly, DomainError, InexactDivisionError, MultiPoly, Ring, exact_div
from macdunkl.multipoly import (
    BOUND,
    _distinct_permutations,
    _order_key,
    from_msym_coords,
    to_msym_coords,
)
from macdunkl.operators import _divided_difference_literal
from macdunkl.rings import qnorm

RINGS = [Ring.q(), Ring.uni("b"), Ring.uni("t")]
RING_IDS = ["q", "b", "t"]
COEFFS = [-3, -2, -1, 1, 2, 5, Fraction(1, 2), Fraction(-7, 3)]


def _random_terms(rng, n, ring, size, top=3):
    width = n + ring.aux_slots
    return {
        tuple(rng.randint(0, top) for _ in range(width)): rng.choice(COEFFS)
        for _ in range(size)
    }


# -- tuple-keyed references ---------------------------------------------


def _ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_div(f, g):
    """(quotient, remainder) of leading-term division under ``_order_key``,
    stopping at the first leading term that the leading term of g does
    not divide; the remainder is then the witness ``exact_div`` carries."""
    glead = max(g, key=_order_key)
    rem, quot = dict(f), {}
    while rem:
        k = max(rem, key=_order_key)
        tk = tuple(a - b for a, b in zip(k, glead))
        if min(tk, default=0) < 0:
            return quot, rem
        tc = quot[tk] = qnorm(Fraction(rem.pop(k)) / g[glead])
        for gk, gc in g.items():
            if gk != glead:
                nk = tuple(a + b for a, b in zip(tk, gk))
                s = rem.get(nk, 0) - tc * gc
                if s:
                    rem[nk] = s
                else:
                    rem.pop(nk, None)
    return quot, {}


def _ref_orbit_sums(n, terms):
    sums = {}
    for key, c in terms.items():
        row = sums.setdefault(tuple(sorted(key[:n], reverse=True)), {})
        row[key[n:]] = row.get(key[n:], 0) + c
    return sums


def _ref_msym_coords(n, ring, terms):
    """m-coordinates of a symmetric polynomial read off its keys with
    decreasing x exponents."""
    grouped = {}
    for k, c in terms.items():
        if list(k[:n]) == sorted(k[:n], reverse=True):
            grouped.setdefault(tuple(e for e in k[:n] if e), []).append((k[n:], c))
    return {lam: ring.scalar_from_aux(pairs) for lam, pairs in grouped.items()}


# -- parity ---------------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_products_match_the_tuple_reference(ring):
    rng = random.Random(f"mul:{ring.kind}:{ring.var}")
    for _ in range(80):
        n = rng.randint(0, 8)
        a = _random_terms(rng, n, ring, rng.randint(0, 8))
        b = _random_terms(rng, n, ring, rng.randint(0, 8))
        got = MultiPoly(n, ring, a) * MultiPoly(n, ring, b)
        assert dict(got.terms) == _ref_mul(a, b), (n, a, b)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_divisions_match_the_tuple_reference(ring):
    rng = random.Random(f"div:{ring.kind}:{ring.var}")
    inexact = 0
    for _ in range(80):
        n = rng.randint(1, 8)
        g = _random_terms(rng, n, ring, rng.randint(1, 5))
        q = _random_terms(rng, n, ring, rng.randint(1, 6))
        f = _ref_mul(q, g)
        got = exact_div(MultiPoly(n, ring, f), MultiPoly(n, ring, g))
        assert got == MultiPoly(n, ring, q)
        assert dict(got.terms) == _ref_div(f, g)[0]
        f.update(_random_terms(rng, n, ring, 1))
        f = {k: c for k, c in f.items() if c}
        want, rem = _ref_div(f, g)
        if rem:
            inexact += 1
            with pytest.raises(InexactDivisionError) as err:
                exact_div(MultiPoly(n, ring, f), MultiPoly(n, ring, g))
            assert dict(err.value.remainder.terms) == rem
        else:
            assert dict(exact_div(MultiPoly(n, ring, f), MultiPoly(n, ring, g)).terms) == want
    assert inexact >= 20


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_divided_differences_match_exact_division(ring):
    rng = random.Random(f"dd:{ring.kind}:{ring.var}")
    for _ in range(40):
        n = rng.randint(2, 8)
        f = MultiPoly(n, ring, _random_terms(rng, n, ring, rng.randint(0, 6), top=4))
        i, j = rng.sample(range(1, n + 1), 2)
        assert f.divided_difference(i, j) == _divided_difference_literal(f, i, j), (i, j)


def _random_symmetric_terms(rng, n, ring):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = tuple(rng.randint(0, 2) for _ in range(n + ring.aux_slots))
        c = rng.choice(COEFFS)
        for e in _distinct_permutations(key[:n]):
            terms[e + key[n:]] = c
    return terms


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_orbit_sums_and_coordinates_match_the_tuple_reference(ring):
    rng = random.Random(f"orbits:{ring.kind}:{ring.var}")
    for _ in range(60):
        n = rng.randint(1, 8)
        terms = _random_symmetric_terms(rng, n, ring)
        f = MultiPoly(n, ring, terms)
        coords = to_msym_coords(f)
        assert coords == _ref_msym_coords(n, ring, terms)
        assert from_msym_coords(coords, n, ring) == f
        terms.update(_random_terms(rng, n, ring, 2))
        assert MultiPoly(n, ring, terms).orbit_sums() == _ref_orbit_sums(n, terms)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_packed_keys_sort_as_their_tuples(ring):
    rng = random.Random(f"order:{ring.kind}:{ring.var}")
    for _ in range(40):
        n = rng.randint(0, 8)
        # ties in degree at small exponents, wide fields at large ones
        top = rng.choice((2, BOUND // 16 - 1))
        terms = _random_terms(rng, n, ring, rng.randint(1, 12), top=top)
        f = MultiPoly(n, ring, terms)
        as_tuple = dict(zip(f._terms, f.terms))
        assert [as_tuple[k] for k in sorted(f._terms)] == sorted(terms, key=_order_key)


def test_terms_is_a_read_only_tuple_view():
    ring = Ring.uni("b")
    terms = {(2, 0, 1): 3, (0, 1, 0): Fraction(-1, 2)}
    f = MultiPoly(2, ring, terms)
    view = f.terms
    assert len(view) == 2 and view == terms and dict(view.items()) == terms
    assert sorted(view) == sorted(terms) and sorted(view.values()) == sorted(terms.values())
    assert view[(2, 0, 1)] == 3 and (0, 1, 0) in view
    for missing in ((1, 1, 1), (2, 0), (-1, 0, 0), "x"):
        assert missing not in view and view.get(missing) is None
    with pytest.raises(TypeError):
        view[(1, 1, 1)] = 1


# -- refusals ---------------------------------------------------------------


def test_malformed_keys_are_refused():
    rb = Ring.uni("b")
    with pytest.raises(DomainError, match="negative"):
        MultiPoly.monomial((-1, 2), 2)
    with pytest.raises(DomainError, match="negative"):
        MultiPoly(1, rb, {(1, -1): 1})
    for n, ring, key in ((2, Ring.q(), (1, 2, 3)), (2, rb, (1, 2)), (2, Ring.q(), (1,))):
        with pytest.raises(DomainError, match="slots"):
            MultiPoly(n, ring, {key: 1})
    for key in ((BOUND, 0), (BOUND - 1, 1), (0, BOUND + 5)):
        with pytest.raises(DomainError, match="exponent bound"):
            MultiPoly(2, Ring.q(), {key: 1})
    with pytest.raises(DomainError, match="exponent bound"):
        MultiPoly(1, rb, {(BOUND - 1, 1): 1})
    assert MultiPoly(2, Ring.q(), {(BOUND - 1, 0): 1})


def test_products_and_scalings_past_the_bound_are_refused():
    """Checked once, from the operands' degrees, before any term pair."""
    top = MultiPoly.monomial((BOUND - 1, 0), 2)
    assert top * MultiPoly.const(2, 3) == top.scale(3)
    with pytest.raises(DomainError, match="exponent bound"):
        top * MultiPoly.variable(2, 2)
    rb = Ring.uni("b")
    high = MultiPoly(1, rb, {(BOUND - 1, 0): 1})
    with pytest.raises(DomainError, match="exponent bound"):
        high.scale(BetaPoly.var())
    with pytest.raises(DomainError, match="negative"):
        high.scale(BetaPoly({-1: 1}))


# -- the key format stays in multipoly ----------------------------------------


PACKAGE = Path(macdunkl.__file__).parent


def _key_format_uses(tree: ast.AST):
    """(what, line) of each read of a ``.terms`` attribute and each call
    of the ``MultiPoly`` constructor (bare or as an attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "terms":
            yield ".terms", node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "MultiPoly":
                yield "MultiPoly(...)", node.lineno


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "multipoly.py"],
    ids=lambda p: p.relative_to(PACKAGE).as_posix(),
)
def test_no_module_but_multipoly_knows_the_key_format(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_key_format_uses(tree)) == [], path.name


def test_the_scan_flags_terms_and_constructor_calls():
    tree = ast.parse(
        "from macdunkl import multipoly\n"
        "d = f.terms.get((0,), 0)\n"
        "g = MultiPoly(2, ring, {})\n"
        "h = multipoly.MultiPoly(1)\n"
        "k = MultiPoly.variable(1, 2) + f.term_count\n"
    )
    assert sorted(_key_format_uses(tree)) == [(".terms", 2), ("MultiPoly(...)", 3), ("MultiPoly(...)", 4)]
