"""Operator tests: shifts, Dunkl operators, kernel operators, Macdonald."""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import macdunkl.operators
from macdunkl import (
    BetaPoly,
    MultiPoly,
    Ring,
    exact_div,
    monomial_symmetric,
    to_msym_coords,
)
from macdunkl.errors import DomainError, NonSymmetricError
from macdunkl.multipoly import partitions_upto
from macdunkl.operators import (
    LinearOperator,
    OperatorMatrix,
    _macdonald_column,
    _matrix_product_literal,
    _order_matrix,
    _subset_perm,
    _sum_over_subsets,
    _divided_difference,
    _divided_difference_literal,
    b_op,
    b_op_apply,
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
    macdonald_matrix,
    macdonald_scalar_part,
    macdonald_specialized,
    operator_matrix,
    pair_ratio_apply,
    pair_ratio_op,
    primitive_matrix,
    qshift_apply,
    qshift_slice,
    reflection_square_apply,
    reflection_square_op,
)
from macdunkl.rings import HJet, exp_sum_slice, rational_value
from macdunkl.tbinom import scaled_t_binomial, t_binomial
from macdunkl.verify import closedforms
from macdunkl.verify.identities import check_macdonald_commutator


RB = Ring.uni("b")


def x(i, n, ring=Ring.q()):
    return MultiPoly.variable(i, n, ring)


def msym(lam, n, ring=RB):
    return monomial_symmetric(lam, n, ring)


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
                    assert _divided_difference(f, i, j) == want, (ring, i, j)
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
    for n in range(1, 6):
        for k in range(1, 5):
            for lam in [()] + partitions_upto(4, n):
                f = msym(lam, n)
                assert h_op_apply(k, f) == h_op_apply_literal(k, f), (n, k, lam)


def test_h_op_rejects_non_symmetric():
    f = x(1, 2, RB) + x(2, 2, RB).scale(2)
    with pytest.raises(NonSymmetricError) as err:
        h_op_apply(2, f)
    assert err.value.transposition == (1, 2)


def test_b_op_examples():
    n = 2
    p1 = msym((1,), n)
    assert b_op_apply(2, 1, p1) == p1
    assert b_op_apply(3, 1, p1) == MultiPoly.zero(n, RB)
    f = msym((1, 1), n)
    assert m11_op(n, RB)(f) == f
    m2 = msym((2,), n)
    assert l_op(2, n, RB)(m2) == m2.scale(4)


def test_b_op_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError):
        b_op_apply(2, 1, MultiPoly.variable(1, 3, RB))


def test_b_op_matches_literal():
    for ring in (Ring.q(), RB):
        for n in (3, 4, 5):
            for (k, l) in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3), (5, 1)):
                for lam in partitions_upto(3, n):
                    f = msym(lam, n, ring)
                    want = b_op_apply_literal(k, l, f)
                    assert b_op_apply(k, l, f) == want, (ring, n, k, l, lam)


def test_pair_ratio_identity_with_b21():
    # sum (xi+xj)/(xi-xj)(xi di - xj dj) = 2 B_{2,1} - (n-1) L_1 on symmetric f
    for n in (2, 3, 4):
        for lam in partitions_upto(3, n):
            f = msym(lam, n)
            lhs = pair_ratio_apply(f)
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
        for n in range(1, 5):
            for lam in [()] + partitions_upto(4, n):
                f = msym(lam, n, ring)
                want = reflection_square_literal(f)
                assert reflection_square_apply(f) == want, (ring, n, lam)


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
            literal = LinearOperator(n, Ring.q(), partial(macdonald_apply_literal, n, r, q, t))
            want = operator_matrix(literal, basis)
            assert macdonald_matrix(n, r, q, t, basis).nonzero_cells() == want.nonzero_cells()


def test_macdonald_matrices_never_expand(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Macdonald matrix expanded m_lam")

    monkeypatch.setattr(macdunkl.operators, "monomial_symmetric", refuse)
    monkeypatch.setattr(macdunkl.operators, "to_msym_coords", refuse)
    for n in range(1, 5):
        for r in range(1, n + 1):
            for k in range(5):
                assert _order_matrix.__wrapped__(n, r, k, 3).entries
            for s in range(r, n + 1):
                residual, _ = check_macdonald_commutator(n, r, s, degree=3)
                assert residual is None, (n, r, s)


def test_sum_over_subsets_matches_every_relabeling():
    rng = random.Random(5)
    for ring in (Ring.q(), RB):
        for n in range(1, 6):
            width = n + ring.aux_slots
            unit = MultiPoly(
                n, ring, {tuple(rng.randint(0, 2) for _ in range(width)): rng.randint(1, 5)
                          for _ in range(4)}
            )
            for k in range(n + 2):
                want = MultiPoly.zero(n, ring)
                for subset in combinations(range(1, n + 1), k):
                    perm = _subset_perm(subset, n)
                    want = want + MultiPoly(n, ring, {
                        tuple(key[perm.index(p)] for p in range(n)) + key[n:]: c
                        for key, c in unit.terms.items()
                    })
                assert _sum_over_subsets(unit, k) == want, (ring, n, k)


def test_macdonald_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError):
        macdonald_apply(2, 1, partial(rational_value, Fraction(2), Fraction(3)), x(1, 2))


def test_macdonald_refuses_a_rank_outside_1_to_n():
    value = partial(rational_value, Fraction(2), Fraction(3))
    for r in (0, 4):
        with pytest.raises(DomainError, match=rf"^need 1 <= r <= n, got r={r}, n=3$"):
            macdonald_apply(3, r, value, msym((1,), 3, Ring.q()))
        with pytest.raises(DomainError, match=rf"^need 1 <= r <= n, got r={r}, n=3$"):
            macdonald_matrix(3, r, 2, 3, partitions_upto(1, 3))


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
            assert _order_matrix.__wrapped__(n, r, k, 3) == m, (n, r, k)
        with pytest.raises(DomainError, match="h order outside the jet order"):
            extract_order(n, r, 3, 3, 2)


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
