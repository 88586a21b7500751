"""Operator tests: shifts, Dunkl operators, kernel operators, Macdonald."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import macdunkl.multipoly
import macdunkl.operators
from macdunkl import (
    BetaPoly,
    MultiPoly,
    Ring,
    exact_div,
    monomial_symmetric,
    to_msym_coords,
)
from macdunkl.errors import DomainError, InexactDivisionError, NonSymmetricError
from macdunkl.multipoly import from_msym_coords, partitions_upto
from macdunkl.operators import (
    LinearOperator,
    OperatorMatrix,
    _macdonald_column,
    _matrix_product_literal,
    _rational_power,
    _subset_sum_coords,
    _divided_difference_literal,
    b_op,
    b_op_apply_literal,
    dunkl_apply,
    extract_order,
    h_op,
    h_op_apply,
    h_op_apply_literal,
    jet_matrix,
    l_op,
    m11_op,
    macdonald_apply,
    macdonald_apply_literal,
    macdonald_scalar_part,
    macdonald_specialized,
    operator_matrix,
    pair_ratio_op,
    primitive_matrix,
    qshift_apply,
    qshift_slice,
    reflection_square_op,
    slice_op,
    window,
)
from macdunkl.rings import HJet, exp_sum_slice, rational_value
from macdunkl.tbinom import scaled_t_binomial, t_binomial
from macdunkl.verify import closedforms, typesums
from macdunkl.verify.identities import check_macdonald_commutator, suite_plan, verify_identity


RB = Ring.uni("b")


def x(i, n, ring=Ring.q()):
    return MultiPoly.variable(i, n, ring)


def msym(lam, n, ring=RB):
    return monomial_symmetric(lam, n, ring)


def round_trip(fn, n, ring):
    """The polynomial map fn as an operator: its column lam expands
    fn(m_lam) and collapses the image again by ``to_msym_coords``."""

    def column(lam):
        return to_msym_coords(fn(monomial_symmetric(lam, n, ring)))

    return LinearOperator(n, ring, column, "round trip")


def test_qshift_rational():
    f = x(1, 2) ** 2 * x(2, 2)
    assert qshift_apply(1, 2, f) == f.scale(4)


def test_qshift_jet_example():
    # x_1^2 -> exp(2h) x_1^2, whose h^0, h^1, h^2 coefficients are 1, 2, 2
    f = MultiPoly.variable(1, 1, RB) ** 2
    for k, c in enumerate([1, 2, 2]):
        assert qshift_slice(1, k, f) == f.scale(c)


def test_qshift_two_vars_multiplies():
    ring = Ring.q()
    f = x(1, 2) * x(2, 2)
    g = qshift_apply(2, Fraction(3), qshift_apply(1, Fraction(3), f))
    assert g == f.scale(9)


def _shift_subset_grouped(f, subset, power):
    """Oracle for MultiPoly.scale_by: one polynomial per exponent group e,
    scaled by power(e) and added into a growing sum."""
    n, ring = f.n, f.ring
    pieces = {}
    for k, c in f.terms.items():
        pieces.setdefault(sum(k[i - 1] for i in subset), {})[k] = c
    acc = MultiPoly.zero(n, ring)
    for e, terms in sorted(pieces.items()):
        acc = acc + MultiPoly(n, ring, terms).scale(power(e))
    return acc


@pytest.mark.parametrize("ring", [Ring.q(), RB], ids=["q", "b"])
def test_shift_subset_matches_grouped_scaling(ring):
    rng = random.Random(45)
    powers = [partial(_rational_power, Fraction(-3, 2)), partial(_rational_power, 5)]
    if ring == RB:
        # the h^k coefficients of q^e (the q-shift slices) and of q^e t,
        # whose several b-powers make terms of f collide
        powers += [
            partial(lambda k, b, e: exp_sum_slice({(e, b): 1}, k), k, b)
            for k in range(5)
            for b in (0, 1)
        ]
    for n in range(1, 5):
        for _ in range(4):
            f = MultiPoly.zero(n, ring)
            for _ in range(6):
                exps = [rng.randint(0, 3) for _ in range(n)]
                f = f + MultiPoly.monomial(exps, n, ring).scale(_random_scalar(rng, ring))
            for size in range(n + 1):
                for subset in combinations(range(1, n + 1), size):
                    for power in powers:
                        want = _shift_subset_grouped(f, subset, power)
                        assert f.scale_by(subset, power) == want, (n, subset, f.render())


def test_dunkl_examples():
    n = 2
    one = MultiPoly.const(n, 1, RB)
    assert dunkl_apply(1, one) == MultiPoly.zero(n, RB)
    b = BetaPoly.var()
    f1 = MultiPoly.variable(1, n, RB)
    assert dunkl_apply(1, f1) == f1 + f1.scale(b)
    f2 = MultiPoly.variable(2, n, RB)
    assert dunkl_apply(1, f2) == MultiPoly.variable(1, n, RB).scale(-b)


def test_dunkl_needs_beta_ring():
    with pytest.raises(DomainError):
        dunkl_apply(1, x(1, 2))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.integers(-3, 3),
            st.integers(0, 2),
        ),
        max_size=4,
    )
)
def test_dunkl_always_polynomial(pairs):
    # the termwise divided difference agrees with exact division, the aux
    # slot (powers of b) included
    for ring in (Ring.q(), RB):
        f = MultiPoly.zero(3, ring)
        for e, c, a in pairs:
            f = f + MultiPoly(3, ring, {e + (a,) * ring.aux_slots: c} if c else {})
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i != j:
                    want = _divided_difference_literal(f, i, j)
                    assert f.divided_difference(i, j) == want, (ring, i, j)
            if ring.kind != "q":
                dunkl_apply(i, f)


def test_h1_is_degree_on_msym():
    for n in range(2, 6):
        for lam in partitions_upto(5, n):
            f = msym(lam, n)
            assert h_op_apply(1, f) == f.scale(sum(lam))


def test_h2_on_power_sum():
    n = 2
    p1 = msym((1,), n)
    b = BetaPoly.var()
    assert h_op_apply(2, p1) == p1.scale(1 + b)
    assert h_op_apply(3, p1) == p1.scale((1 + b) * (1 + b))


def test_h2_matrix_example():
    n = 2
    b = BetaPoly.var()
    img = h_op_apply(2, msym((2,), n))
    assert to_msym_coords(img) == {(2,): 4 + 2 * b, (1, 1): 4 * b}
    img2 = h_op_apply(2, msym((1, 1), n))
    assert to_msym_coords(img2) == {(1, 1): BetaPoly.const(2)}


def test_h_op_matches_literal():
    grid = [
        (n, k, lam)
        for n in range(1, 8)
        for k in range(1, 5)
        for lam in [()] + partitions_upto(4, n)
    ]
    grid += [(8, 3, lam) for lam in partitions_upto(5, 8)]
    for n, k, lam in grid:
        f = msym(lam, n)
        assert h_op_apply(k, f) == h_op_apply_literal(k, f), (n, k, lam)


def test_h_op_needs_beta_ring():
    with pytest.raises(DomainError, match="coefficient ring containing b"):
        h_op_apply(2, msym((1,), 2, Ring.q()))


def test_h_op_rejects_non_symmetric():
    f = x(1, 2, RB) + x(2, 2, RB).scale(2)
    with pytest.raises(NonSymmetricError) as err:
        h_op_apply(2, f)
    assert err.value.transposition == (1, 2)


def test_b_op_examples():
    n = 2
    p1 = msym((1,), n)
    assert b_op(2, 1, n, RB)(p1) == p1
    assert b_op(3, 1, n, RB)(p1) == MultiPoly.zero(n, RB)
    f = msym((1, 1), n)
    assert m11_op(n, RB)(f) == f
    m2 = msym((2,), n)
    assert l_op(2, n, RB)(m2) == m2.scale(4)


def test_b_op_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError, match=r"^B\[2,1\] requires a symmetric argument"):
        b_op(2, 1, 3, RB)(MultiPoly.variable(1, 3, RB))


def test_b_op_matches_literal():
    for ring in (Ring.q(), RB):
        for n in (3, 4, 5):
            for (k, l) in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3), (5, 1)):
                for lam in partitions_upto(3, n):
                    f = msym(lam, n, ring)
                    want = b_op_apply_literal(k, l, f)
                    assert b_op(k, l, n, ring)(f) == want, (ring, n, k, l, lam)


def pair_ratio_literal(f):
    """sum_(i<j) (x_i + x_j)/(x_i - x_j) (x_i d_i - x_j d_j) f, pair by
    pair, with each quotient taken by exact division."""
    n = f.n
    out = MultiPoly.zero(n, f.ring)
    for i, j in combinations(range(1, n + 1), 2):
        xi, xj = x(i, n, f.ring), x(j, n, f.ring)
        out = out + (xi + xj) * exact_div(f.euler(i) - f.euler(j), xi - xj)
    return out


def test_pair_ratio_matches_literal():
    for ring in (Ring.q(), RB):
        for n in range(1, 8):
            for lam in [()] + partitions_upto(4, n):
                f = msym(lam, n, ring)
                assert pair_ratio_op(n, ring)(f) == pair_ratio_literal(f), (ring, n, lam)


def test_pair_ratio_identity_with_b21():
    # sum (xi+xj)/(xi-xj)(xi di - xj dj) = 2 B_{2,1} - (n-1) L_1 on symmetric f
    for n in (2, 3, 4):
        for lam in partitions_upto(3, n):
            f = msym(lam, n)
            lhs = pair_ratio_op(n, RB)(f)
            rhs = b_op_apply_literal(2, 1, f).scale(2) - l_op(1, n, RB)(f).scale(n - 1)
            assert lhs == rhs


def _ratio(i, j, g):
    """x_i/(x_i - x_j) g, by exact division."""
    xi = x(i, g.n, g.ring)
    return exact_div(xi * g, xi - x(j, g.n, g.ring))


def reflection_square_literal(f):
    """sum_i A_i C_i f with every factor x_i/(x_i - x_j) taken by exact
    division."""
    n = f.n
    out = MultiPoly.zero(n, f.ring)
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        c = MultiPoly.zero(n, f.ring)
        for j in others:
            c = c + _ratio(i, j, f.euler(i) - f.euler(j))
        for j in others:
            out = out + _ratio(i, j, c - c.swap(i, j))
    return out


def test_reflection_square_small():
    for ring in (Ring.q(), RB):
        for n in range(1, 8):
            for lam in [()] + partitions_upto(4, n):
                f = msym(lam, n, ring)
                want = reflection_square_literal(f)
                assert reflection_square_op(n, ring)(f) == want, (ring, n, lam)


def test_kernel_operators_never_divide(monkeypatch):
    # every operator path takes its divisions by x_i - x_j termwise
    def refuse(*args):
        raise AssertionError("operator path reached a polynomial division")

    monkeypatch.setattr(macdunkl.operators, "exact_div", refuse)
    monkeypatch.setattr(macdunkl.operators, "vandermonde", refuse)
    for n in range(1, 5):
        basis = partitions_upto(3, n)
        ops = [h_op(k, n, RB) for k in (1, 2, 3)]
        ops += [b_op(k, l, n, RB) for k, l in ((2, 1), (2, 2), (3, 1), (4, 1))]
        ops += [pair_ratio_op(n, RB), reflection_square_op(n, RB)]
        for op in ops:
            assert operator_matrix(op, basis).n == n


def test_chain_primitives_run_on_representatives(monkeypatch):
    """The H_k, pair-ratio and reflection-square matrices are built on
    S_1 x S_(n-1) orbit representatives: no Dunkl operator, reflection
    sum or divided difference on a polynomial."""

    def refuse(*args):
        raise AssertionError("a chain primitive ran on a polynomial")

    for name in ("dunkl_apply", "_reflection_sum"):
        monkeypatch.setattr(macdunkl.operators, name, refuse)
    monkeypatch.setattr(MultiPoly, "divided_difference", refuse)
    factors = [*((h_op, k) for k in (1, 2, 3, 4)), (pair_ratio_op,), (reflection_square_op,)]
    for n in range(2, 6):
        basis = tuple(partitions_upto(4, n))
        for factor in factors:
            assert primitive_matrix.__wrapped__(factor, n, basis).entries, (factor, n)


def test_diagonal_coordinates_refuse_non_symmetric():
    f = x(1, 3, RB)
    for op, name in ((l_op(2, 3, RB), r"L\[2\]"), (m11_op(3, RB), r"M\[1,1\]")):
        with pytest.raises(NonSymmetricError, match=rf"^{name} requires a symmetric argument"):
            op(f)


# every primitive that a closed form or a type table names
KERNEL_FACTORS = [
    *((l_op, k) for k in (1, 2, 3, 4)),
    (m11_op,),
    *((h_op, k) for k in (1, 2, 3, 4)),
    *((b_op, k, l) for k, l in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))),
    (pair_ratio_op,),
    (reflection_square_op,),
    typesums.U2,
    typesums.U6,
]


def _monomial_weighted(weight):
    """The map scaling each monomial of f by weight(e), e its x exponent."""

    def apply(f):
        n = f.n
        return MultiPoly(n, f.ring, {k: c * w for k, c in f.terms.items() if (w := weight(k[:n]))})

    return apply


def _unit_by_division(tid):
    """The unit sum of type 2 or 6 by exact division by the unit
    Vandermonde; test_typesums, which holds it, imports this module."""
    from test_typesums import _unit_sum_by_division

    return lambda f: _unit_sum_by_division(tid, f.n, f)


# an independent evaluator of each primitive, on polynomials: the "want"
# side of the round trip below
LITERALS = {
    l_op: lambda k: _monomial_weighted(lambda e: sum(v**k for v in e)),
    m11_op: lambda: _monomial_weighted(lambda e: sum(u * v for u, v in combinations(e, 2))),
    h_op: lambda k: partial(h_op_apply_literal, k),
    b_op: lambda k, l: partial(b_op_apply_literal, k, l),
    pair_ratio_op: lambda: pair_ratio_literal,
    reflection_square_op: lambda: reflection_square_literal,
    typesums.unit_op: _unit_by_division,
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_columns_from_coordinates_match_the_round_trip(n):
    """A primitive's matrix, read off its columns, against an independent
    evaluator applied to each m_lam, the image collapsed again."""
    basis = tuple(partitions_upto(4, n))
    for factor in KERNEL_FACTORS:
        factory, *args = factor
        got = primitive_matrix.__wrapped__(factor, n, basis)
        want = operator_matrix(round_trip(LITERALS[factory](*args), n, RB), basis)
        assert (got.basis, got.entries) == (want.basis, want.entries), (factor, n)


def test_primitive_columns_check_no_symmetry(monkeypatch):
    """A primitive's column starts from lam: building every primitive
    matrix runs no symmetry check, and the chain and diagonal primitives
    form no m_lam."""

    def refuse(*args):
        raise AssertionError("a primitive column checked or formed a polynomial")

    monkeypatch.setattr(macdunkl.multipoly, "_symmetric_orbits", refuse)
    basis = tuple(partitions_upto(4, 5))
    for factor in KERNEL_FACTORS:
        assert primitive_matrix.__wrapped__(factor, 5, basis).entries, factor
    monkeypatch.setattr(macdunkl.operators, "monomial_symmetric", refuse)
    from_lam = (l_op, m11_op, h_op, pair_ratio_op, reflection_square_op)
    for factor in [f for f in KERNEL_FACTORS if f[0] in from_lam]:
        assert primitive_matrix.__wrapped__(factor, 5, basis).entries, factor


def _stub_op(n, ring):
    """An operator whose every image is m_(3)."""
    return LinearOperator(n, ring, lambda lam: {(3,): BetaPoly.one()}, "stub")


def test_matrix_builders_refuse_a_bad_window():
    """Every window entry must be a partition of at most n parts, the
    window closed under weight, and every image inside it."""
    n = 3
    builders = [
        lambda w: primitive_matrix.__wrapped__((h_op, 2), n, w),
        lambda w: operator_matrix(macdonald_specialized(n, 2, 2, 3), w),
    ]
    window = tuple(partitions_upto(4, n))
    for build in builders:
        build(window)
        with pytest.raises(DomainError, match=r"^partition \(1, 1, 1, 1\) has more than 3 parts$"):
            build(window + ((1, 1, 1, 1),))
        for bad in ((1, 2), (2, 0)):
            with pytest.raises(DomainError, match="^not a partition"):
                build(window + (bad,))
        with pytest.raises(DomainError, match=r"^basis window is not closed: weight 2 needs m\[1, 1\]$"):
            build(tuple(lam for lam in window if lam != (1, 1)))
    stubs = [
        lambda w: primitive_matrix.__wrapped__((_stub_op,), n, w),
        lambda w: operator_matrix(_stub_op(n, RB), w),
    ]
    for build in stubs:
        assert build(partitions_upto(3, n)).entries
        with pytest.raises(DomainError, match=r"^operator image leaves the basis window: m\[3\]"):
            build(partitions_upto(2, n))


def test_matrices_over_different_rings_compare_unequal():
    basis = tuple(partitions_upto(2, 2))
    a = operator_matrix(l_op(1, 2, RB), basis)
    b = operator_matrix(l_op(1, 2, Ring.q()), basis)
    assert a.entries == b.entries
    assert a != b and not a == b
    assert a == operator_matrix(l_op(1, 2, RB), basis)


def _column(mat, lam):
    return {mu: v for (mu, col), v in mat.entries.items() if col == lam}


def test_operator_algebra_linearity():
    n = 3
    basis = partitions_upto(3, n)
    a = l_op(1, n, RB)
    bb = l_op(2, n, RB)
    ma, mb = operator_matrix(a, basis), operator_matrix(bb, basis)
    for lam in basis:
        f = msym(lam, n)
        assert _column(ma + mb, lam) == to_msym_coords(a(f) + bb(f))
    assert ma.commutator_with(ma).is_zero()


def test_matrix_product_is_composition():
    # the identity the closed forms rely on: on a window closed under
    # weight, the matrix of a composite is the product of the matrices
    n = 3
    basis = partitions_upto(3, n)
    h1 = operator_matrix(h_op(1, n, RB), basis)
    h2 = operator_matrix(h_op(2, n, RB), basis)
    for mat, ks in ((h2 @ h1, (1, 2)), (h1 @ h1 @ h1, (1, 1, 1)), (h2 @ h2, (2, 2))):
        for lam in basis:
            g = msym(lam, n)
            for k in ks:
                g = h_op_apply(k, g)
            assert _column(mat, lam) == to_msym_coords(g), (ks, lam)


def test_macdonald_constant_gives_t_binomial_eigenvalue():
    n, r = 2, 1
    one = MultiPoly.const(n, 1, Ring.q())
    out = macdonald_apply(n, r, partial(rational_value, Fraction(5), Fraction(3)), one)
    # 1 + t at t=3 -> 4
    assert out == one.scale(4)


def test_macdonald_p1_eigenvalue():
    n, r = 2, 1
    q, t = Fraction(5), Fraction(3)
    p1 = monomial_symmetric((1,), n)
    out = macdonald_apply(n, r, partial(rational_value, q, t), p1)
    assert out == p1.scale(q * t + 1)


def test_macdonald_top_subset():
    n, r = 2, 2
    q, t = Fraction(2), Fraction(7)
    f = monomial_symmetric((1, 1), n)
    out = macdonald_apply(n, r, partial(rational_value, q, t), f)
    assert out == f.scale(t * q * q)


def test_macdonald_constant_is_scaled_t_binomial_jet():
    # D(n, r) 1 = e_r(t^(n-1), ..., t, 1) = t^(r(r-1)/2) [n r]_t, at every h order
    for n in range(1, 7):
        for r in range(1, n + 1):
            for k in range(5):
                out = macdonald_apply(n, r, partial(exp_sum_slice, k=k), MultiPoly.const(n, 1, RB))
                want = MultiPoly.const(n, scaled_t_binomial(n, r).h_coeff(k), RB)
                assert out == want, (n, r, k)


def test_macdonald_matches_literal():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for r in range(1, n + 1):
            q = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
            t = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
            for lam in [()] + partitions_upto(3, n):
                f = monomial_symmetric(lam, n)
                assert macdonald_apply(n, r, partial(rational_value, q, t), f) == macdonald_apply_literal(
                    n, r, q, t, f
                ), (n, r, lam)


def test_macdonald_columns_match_literal_on_a_grid():
    """Each coordinate of a column, sum N q^a t^b, has degree at most |lam|
    in q and r(2n-r-1)/2 in t, so its values on a full grid of that many
    distinct rationals plus one in each variable determine it; the literal
    operator must give the same values there."""
    points = 0
    for n in range(1, 5):
        for r in range(1, n + 1):
            tdeg = r * (2 * n - r - 1) // 2
            for lam in [()] + partitions_upto(3, n):
                for poly in _macdonald_column(n, r, lam).values():
                    assert all(a <= sum(lam) and b <= tdeg for a, b in poly), (n, r, lam)
                f = monomial_symmetric(lam, n)
                for i in range(sum(lam) + 1):
                    for j in range(tdeg + 1):
                        q, t = Fraction(2 * i + 1, 3), Fraction(-j - 2, 5)
                        got = macdonald_apply(n, r, partial(rational_value, q, t), f)
                        assert got == macdonald_apply_literal(n, r, q, t, f), (n, r, lam, q, t)
                        points += 1
    assert points > 800


@pytest.mark.parametrize("q, t", [(Fraction(3, 7), Fraction(5, 2)), (Fraction(-2, 3), Fraction(11, 13))])
def test_macdonald_matrix_matches_literal_operator(q, t):
    for n in range(1, 5):
        basis = partitions_upto(3, n)
        for r in range(1, n + 1):
            literal = round_trip(partial(macdonald_apply_literal, n, r, q, t), n, Ring.q())
            want = operator_matrix(literal, basis)
            got = operator_matrix(macdonald_specialized(n, r, q, t), basis)
            assert got.nonzero_cells() == want.nonzero_cells()


def test_macdonald_matrices_never_expand(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Macdonald matrix expanded m_lam")

    monkeypatch.setattr(macdunkl.operators, "monomial_symmetric", refuse)
    monkeypatch.setattr(macdunkl.operators, "to_msym_coords", refuse)
    for n in range(1, 5):
        for r in range(1, n + 1):
            for k in range(5):
                assert operator_matrix(slice_op(r, k, n, RB), partitions_upto(3, n)).entries
            for s in range(r + 1, n + 1):
                residual, _ = check_macdonald_commutator(n, r, s, degree=3)
                assert residual is None, (n, r, s)


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


def _block_symmetrized(unit: MultiPoly, k: int) -> MultiPoly:
    """The sum of unit's relabelings under S_k x S_(n-k): symmetric inside
    {1..k} and inside {k+1..n}."""
    n = unit.n
    out = MultiPoly.zero(n, unit.ring)
    for head in permutations(range(k)):
        for tail in permutations(range(k, n)):
            out = out + unit.permute_vars(head + tail)
    return out


def test_sum_over_subsets_matches_every_relabeling():
    """The sum over the k-subsets, formed as one symmetrization, against
    the explicit sum of the relabelings of a block-symmetric unit."""
    rng = random.Random(5)
    for ring in (Ring.q(), RB):
        for n in range(1, 6):
            width = n + ring.aux_slots
            raw = MultiPoly(
                n, ring, {tuple(rng.randint(0, 2) for _ in range(width)): rng.randint(1, 5)
                          for _ in range(4)}
            )
            for k in range(n + 2):
                unit = _block_symmetrized(raw, min(k, n))
                want = MultiPoly.zero(n, ring)
                for subset in combinations(range(1, n + 1), k):
                    perm = _subset_perm(subset, n)
                    want = want + MultiPoly(n, ring, {
                        tuple(key[perm.index(p)] for p in range(n)) + key[n:]: c
                        for key, c in unit.terms.items()
                    })
                assert from_msym_coords(_subset_sum_coords(unit, k), n, ring) == want, (ring, n, k)


def test_sum_over_subsets_refuses_a_unit_that_is_not_block_symmetric():
    n = 4
    inside = x(1, n) ** 2 * x(2, n)  # not symmetric inside {1, 2}
    outside = x(3, n) ** 2  # not symmetric inside {3, 4}
    for unit in (inside, outside):
        with pytest.raises(InexactDivisionError, match="subset-sum unit is not symmetric"):
            _subset_sum_coords(unit, 2)


def test_no_operator_path_relabels(monkeypatch):
    """The subset sums symmetrize: building the kernel-operator matrices
    and a cold and a warm pass of the types suite relabel nothing."""
    calls = []
    permute = MultiPoly.permute_vars

    def counted(self, perm):
        calls.append(perm)
        return permute(self, perm)

    monkeypatch.setattr(MultiPoly, "permute_vars", counted)
    n, basis = 5, partitions_upto(3, 5)
    ops = [h_op(k, n, RB) for k in (1, 2, 3)]
    ops += [b_op(k, 1, n, RB) for k in (2, 3, 4)]
    ops += [pair_ratio_op(n, RB), reflection_square_op(n, RB)]
    for op in ops:
        assert operator_matrix(op, basis).entries
    typesums._canonical_sums.cache_clear()
    for _ in range(2):
        for name, params in suite_plan("types"):
            assert verify_identity(name, **params).passed, (name, params)
    assert calls == []


def test_macdonald_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError):
        macdonald_apply(2, 1, partial(rational_value, Fraction(2), Fraction(3)), x(1, 2))


def test_macdonald_refuses_a_rank_outside_1_to_n():
    value = partial(rational_value, Fraction(2), Fraction(3))
    for r in (0, 4):
        with pytest.raises(DomainError, match=rf"^need 1 <= r <= n, got r={r}, n=3$"):
            macdonald_apply(3, r, value, msym((1,), 3, Ring.q()))
        with pytest.raises(DomainError, match=rf"^need 1 <= r <= n, got r={r}, n=3$"):
            operator_matrix(macdonald_specialized(3, r, 2, 3), partitions_upto(1, 3))


def test_scalar_part_is_t_binomial():
    for n in range(2, 6):
        for r in range(1, n + 1):
            out = macdonald_scalar_part(n, r)
            tb = t_binomial(n, r)
            want = MultiPoly.const(n, BetaPoly(dict(enumerate(tb.coeffs))), Ring.uni("t"))
            assert out == want, (n, r)


def test_extract_order_examples():
    m = extract_order(2, 1, 0, degree=1)
    assert m.entries == {((1,), (1,)): BetaPoly.const(2)}
    m1 = extract_order(2, 1, 1, degree=1)
    assert m1.entries == {((1,), (1,)): 1 + BetaPoly.var()}
    m3 = extract_order(2, 1, 3, degree=1)
    b = BetaPoly.var()
    cube = (1 + b) * (1 + b) * (1 + b)
    assert m3.entries == {((1,), (1,)): cube * Fraction(1, 6)}


def test_jet_matrix_degree_preservation():
    m = jet_matrix(3, 2, 2, 3)
    for (mu, lam) in m.entries:
        assert sum(mu) == sum(lam)


def test_extract_order_does_not_depend_on_the_jet_order():
    for n, r in ((2, 1), (3, 2), (4, 2)):
        for k in range(5):
            m = extract_order(n, r, k, 3, k)
            assert extract_order(n, r, k, 3, k + 3).entries == m.entries, (n, r, k)
            assert operator_matrix(slice_op(r, k, n, RB), partitions_upto(3, n)) == m, (n, r, k)
        with pytest.raises(DomainError, match="h order outside the jet order"):
            extract_order(n, r, 3, 3, 2)


def test_slices_are_primitives():
    """The slice D_i(n, r) is the ``primitive_matrix`` entry of
    (slice_op, r, i) on ``window(degree, n)``, built once, and two slices
    compose in a term table like any other primitives."""
    for n in range(1, 5):
        for degree in range(1, 4):
            basis = window(degree, n)
            for r in range(1, n + 1):
                for i in range(4):
                    got = extract_order(n, r, i, degree)
                    assert got is primitive_matrix((slice_op, r, i), n, basis)
                    hits = primitive_matrix.cache_info().hits
                    assert extract_order(n, r, i, degree) is got
                    assert primitive_matrix.cache_info().hits == hits + 1
                    for s in range(1, n + 1):
                        for j in range(4):
                            table = [(Fraction(1), 0, ((slice_op, r, i), (slice_op, s, j)))]
                            want = got @ extract_order(n, s, j, degree)
                            assert closedforms._combo(n, basis, table) == want, (n, r, s, i, j)


def test_window_refuses_no_variables_and_an_empty_window():
    # on an empty window every matrix is zero, and every matrix check would pass
    with pytest.raises(DomainError, match="^n must be at least 1$"):
        window(2, 0)
    for degree in (0, -1):
        with pytest.raises(DomainError, match="^degree must be at least 1$"):
            window(degree, 2)
    assert window(3, 2) is window(3, 2)
    assert window(3, 2) == tuple(partitions_upto(3, 2))


@pytest.mark.parametrize("K", [0, 4, 6])
def test_jet_matrix_stacks_the_slices(K):
    for n in range(1, 5):
        for r in range(1, n + 1):
            m = jet_matrix(n, r, K, 3)
            slices = [extract_order(n, r, k, 3, K) for k in range(K + 1)]
            assert set(m.entries) == {key for s in slices for key in s.entries}
            for key, jet in m.entries.items():
                assert isinstance(jet, HJet) and jet.order == K
                assert list(jet.coeffs) == [s.entries.get(key, 0) for s in slices]
                assert jet.coeff(K + 1) == 0
    with pytest.raises(DomainError, match="jet order must be non-negative"):
        jet_matrix(2, 1, -1, 3)


def test_operator_matrix_euler_block():
    n = 3
    basis = partitions_upto(3, n)
    m = operator_matrix(h_op(1, n, RB), basis)
    for (mu, lam), v in m.entries.items():
        assert mu == lam
        assert v == BetaPoly.const(sum(lam))


def test_matrix_algebra():
    n = 2
    basis = partitions_upto(2, n)
    a = operator_matrix(l_op(1, n, RB), basis)
    b = operator_matrix(l_op(2, n, RB), basis)
    assert (a @ b) == (b @ a)
    assert (a - a).is_zero()
    assert a.scale(BetaPoly.zero()).is_zero()
    i = closedforms._combo(n, basis, [(Fraction(1), 0, ())])
    assert (i @ a) == a
    assert (a @ i) == a


def test_operator_matrices_are_unhashable():
    with pytest.raises(TypeError):
        hash(OperatorMatrix(2, RB, ((1,),), {}))


def test_beta_slice():
    n = 2
    basis = partitions_upto(2, n)
    m = operator_matrix(h_op(2, n, RB), basis)
    s0 = m.beta_slice(0)
    s1 = m.beta_slice(1)
    l2 = operator_matrix(l_op(2, n, Ring.q()), basis)
    assert s0 == l2
    assert s1.entries[((1, 1), (2,))] == 4


def _registry_ops(n):
    return [
        h_op(1, n, RB),
        h_op(2, n, RB),
        b_op(2, 1, n, RB),
        l_op(2, n, RB),
        m11_op(n, RB),
    ]


def test_operators_preserve_homogeneous_degree():
    rng = random.Random(11)
    for n in (2, 3):
        for op in _registry_ops(n):
            for _ in range(3):
                lam = tuple(
                    sorted((rng.randint(1, 3) for _ in range(rng.randint(1, n))), reverse=True)
                )
                f = msym(lam, n)
                out = op(f)
                assert all(sum(k[:n]) == sum(lam) for k in out.terms)


def test_commutator_antisymmetry_and_linearity():
    n = 3
    basis = partitions_upto(3, n)
    ops = _registry_ops(n)
    mats = [operator_matrix(op, basis) for op in ops]
    f = msym((2, 1), n)
    for a, ma in zip(ops, mats):
        for bb, mb in zip(ops, mats):
            assert ma.commutator_with(mb) == mb.commutator_with(ma).scale(-1)
            assert _column(ma + mb, (2, 1)) == to_msym_coords(a(f) + bb(f))


def _random_scalar(rng, ring):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 35, 97)))

    if ring.kind == "q":
        return frac()
    return BetaPoly({rng.randint(0, 3): frac() for _ in range(rng.randint(1, 3))})


def _random_matrix(rng, ring, basis, density=0.5):
    entries = {}
    for mu in basis:
        for lam in basis:
            if rng.random() < density and (c := _random_scalar(rng, ring)):
                entries[(mu, lam)] = c
    return OperatorMatrix(3, ring, basis, entries)


def _assert_products_match_literal(a, b):
    prod = a @ b
    want = _matrix_product_literal(a, b)
    assert (prod.ring, prod.basis, prod.entries) == (want.ring, want.basis, want.entries)
    comm = a.commutator_with(b)
    want = _matrix_product_literal(a, b) - _matrix_product_literal(b, a)
    assert (comm.ring, comm.entries) == (want.ring, want.entries)
    return comm


def test_integer_products_match_literal():
    rng = random.Random(14)
    basis = tuple(partitions_upto(3, 3))
    for ring in (Ring.q(), RB):
        empty = OperatorMatrix(3, ring, basis, {})
        for _ in range(25):
            a = _random_matrix(rng, ring, basis)
            b = _random_matrix(rng, ring, basis, density=rng.choice((0.2, 0.5, 1.0)))
            _assert_products_match_literal(a, b)
            _assert_products_match_literal(a, empty)
            _assert_products_match_literal(empty, a)
            # a commutes with a polynomial in itself: every sum cancels
            assert _assert_products_match_literal(a, a @ a - a.scale(3)).is_zero()
            # each row of flat is constant and each column of zero_sums sums
            # to zero, so every cell of flat @ zero_sums cancels
            u = {mu: _random_scalar(rng, ring) for mu in basis}
            flat = OperatorMatrix(3, ring, basis, {(mu, nu): u[mu] for mu in basis for nu in basis})
            zero_sums = {}
            for lam in basis:
                col = [_random_scalar(rng, ring) for _ in basis[:-1]]
                col.append(-sum(col))
                zero_sums.update({(nu, lam): c for nu, c in zip(basis, col) if c})
            zero_sums = OperatorMatrix(3, ring, basis, zero_sums)
            assert (flat @ zero_sums).is_zero()
            _assert_products_match_literal(flat, zero_sums)
        _assert_products_match_literal(empty, empty)
    # every pair of h-slices of D(n, r) and D(n, s), noncommuting i = 4 included
    nonzero = 0
    for n in range(1, 5):
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                for i in range(5):
                    for j in range(5):
                        a, b = extract_order(n, r, i), extract_order(n, s, j)
                        nonzero += not _assert_products_match_literal(a, b).is_zero()
    assert nonzero


@pytest.mark.parametrize(
    "name",
    ["L1", "L2", "L3", "L4", "H1", "H2", "H3", "B21", "B22", "B23", "B31", "B32", "B41",
     "M11", "PAIRS", "REFL2"],
)
def test_primitive_matrix_is_built_once(name):
    factory, *args = factor = getattr(closedforms, name)
    basis = tuple(partitions_upto(3, 4))
    m = primitive_matrix(factor, 4, basis)
    assert primitive_matrix(factor, 4, basis) is m
    assert m == operator_matrix(factory(*args, 4, RB), basis)


def test_dunkl_swap_divisibility_all_pairs():
    rng = random.Random(3)
    for n in (3, 4):
        for _ in range(5):
            f = MultiPoly.zero(n, RB)
            for _ in range(4):
                exps = tuple(rng.randint(0, 5) for _ in range(n))
                f = f + MultiPoly.monomial(exps, n, RB, coeff=rng.randint(-5, 5))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    g = f - f.swap(i, j)
                    factor = x(i, n, RB) - x(j, n, RB)
                    q = exact_div(g, factor)
                    assert q * factor == g
