"""Operator tests: shifts, Dunkl operators, kernel operators, Macdonald."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from macdunkl import BetaPoly, HJet, MultiPoly, Ring, monomial_symmetric, to_msym_coords
from macdunkl.errors import DomainError, NonSymmetricError
from macdunkl.multipoly import partitions_upto
from macdunkl.operators import (
    OperatorMatrix,
    b_op,
    b_op_apply,
    b_op_apply_literal,
    commutator,
    dunkl_apply,
    extract_order,
    euler_op,
    h_op,
    h_op_apply,
    identity_op,
    jet_matrix,
    l_op,
    m11_op,
    macdonald_apply,
    macdonald_apply_literal,
    macdonald_jet,
    macdonald_scalar_part,
    macdonald_specialized,
    operator_matrix,
    pair_ratio_apply,
    qshift_apply,
    reflection_square_apply,
    scalar_op,
)
from macdunkl.rings import jet_exp
from macdunkl.tbinom import t_binomial


RB = Ring.uni("b")


def x(i, n, ring=Ring.q()):
    return MultiPoly.variable(i, n, ring)


def msym(lam, n, ring=RB):
    return monomial_symmetric(lam, n, ring)


def test_qshift_rational():
    f = x(1, 2) ** 2 * x(2, 2)
    assert qshift_apply(1, 2, f) == f.scale(4)


def test_qshift_jet_example():
    ring = Ring.jet(2)
    f = MultiPoly.variable(1, 1, ring) ** 2
    q = jet_exp(HJet.single(1, 1, 2))
    shifted = qshift_apply(1, q, f)
    want = f.scale(HJet(2, [1, 2, 2]))
    assert shifted == want


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
        ),
        max_size=4,
    )
)
def test_dunkl_always_polynomial(pairs):
    f = MultiPoly.zero(3, RB)
    for e, c in pairs:
        f = f + MultiPoly.monomial(e, 3, RB, coeff=c)
    for i in (1, 2, 3):
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
    for n in (3, 4):
        for (k, l) in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (2, 3)):
            for lam in partitions_upto(3, n):
                f = msym(lam, n)
                assert b_op_apply(k, l, f) == b_op_apply_literal(k, l, f), (n, k, l, lam)


def test_pair_ratio_identity_with_b21():
    # sum (xi+xj)/(xi-xj)(xi di - xj dj) = 2 B_{2,1} - (n-1) L_1 on symmetric f
    for n in (2, 3, 4):
        for lam in partitions_upto(3, n):
            f = msym(lam, n)
            lhs = pair_ratio_apply(f)
            rhs = b_op_apply(2, 1, f).scale(2) - l_op(1, n, RB)(f).scale(n - 1)
            assert lhs == rhs


def test_reflection_square_small():
    # at n=2 the operator reduces to x1/(x1-x2)(1-K) x1/(x1-x2)(x1d1-x2d2) + (1 <-> 2)
    n = 2
    f = msym((2,), n)
    out = reflection_square_apply(f)
    assert to_msym_coords(out)  # polynomial, symmetric


def test_operator_algebra_linearity():
    n = 3
    a = l_op(1, n, RB)
    bb = l_op(2, n, RB)
    f = msym((2,), n)
    assert (a + bb)(f) == a(f) + bb(f)
    assert commutator(a, a)(f) == MultiPoly.zero(n, RB)
    g = msym((1, 1), n)
    assert commutator(euler_op(1, n, RB), euler_op(2, n, RB))(g * g) == MultiPoly.zero(n, RB)


def test_macdonald_constant_gives_t_binomial_eigenvalue():
    n, r = 2, 1
    one = MultiPoly.const(n, 1, Ring.q())
    out = macdonald_apply(n, r, Fraction(5), Fraction(3), one)
    # 1 + t at t=3 -> 4
    assert out == one.scale(4)


def test_macdonald_p1_eigenvalue():
    n, r = 2, 1
    q, t = Fraction(5), Fraction(3)
    p1 = monomial_symmetric((1,), n)
    out = macdonald_apply(n, r, q, t, p1)
    assert out == p1.scale(q * t + 1)


def test_macdonald_top_subset():
    n, r = 2, 2
    q, t = Fraction(2), Fraction(7)
    f = monomial_symmetric((1, 1), n)
    out = macdonald_apply(n, r, q, t, f)
    assert out == f.scale(t * q * q)


def test_macdonald_matches_literal():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            q = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
            t = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
            for lam in partitions_upto(3, n):
                f = monomial_symmetric(lam, n)
                assert macdonald_apply(n, r, q, t, f) == macdonald_apply_literal(
                    n, r, q, t, f
                ), (n, r, lam)


def test_macdonald_jet_matches_literal():
    from macdunkl.rings import jet_q, jet_t

    n, order = 3, 3
    q, t = jet_q(order), jet_t(order)
    for r in (1, 2):
        for lam in ((1,), (2, 1)):
            f = monomial_symmetric(lam, n, Ring.jet(order))
            assert macdonald_apply(n, r, q, t, f) == macdonald_apply_literal(
                n, r, q, t, f
            )


def test_macdonald_rejects_non_symmetric():
    with pytest.raises(NonSymmetricError):
        macdonald_apply(2, 1, Fraction(2), Fraction(3), x(1, 2))


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
    assert m3.entries == {((1,), (1,)): cube.scale_div(6)}


def test_jet_matrix_degree_preservation():
    m = jet_matrix(3, 2, 2, 3)
    for (mu, lam) in m.entries:
        assert sum(mu) == sum(lam)


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
    z = operator_matrix(scalar_op(BetaPoly.zero(), n, RB), basis)
    assert z.is_zero()
    i = operator_matrix(identity_op(n, RB), basis)
    assert (i @ a) == a


def test_beta_slice():
    n = 2
    basis = partitions_upto(2, n)
    m = operator_matrix(h_op(2, n, RB), basis)
    s0 = m.beta_slice(0)
    s1 = m.beta_slice(1)
    l2 = operator_matrix(l_op(2, n, Ring.q()), basis)
    assert s0 == l2
    assert s1.entries[((1, 1), (2,))] == 4


def test_euler_monomial_combinations():
    from macdunkl.operators import m111_op, m21_op

    rng = random.Random(5)
    for n in (2, 3, 4):
        l1 = l_op(1, n, RB)
        l2 = l_op(2, n, RB)
        l3 = l_op(3, n, RB)
        m21 = m21_op(n, RB)
        m111 = m111_op(n, RB)
        for _ in range(4):
            exps = tuple(rng.randint(0, 4) for _ in range(n))
            f = MultiPoly.monomial(exps, n, RB, coeff=1)
            cube = l1(l1(l1(f)))
            assert cube == l3(f) + m21(f).scale(3) + m111(f).scale(6)
            assert l2(l1(f)) == l3(f) + m21(f)


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
    ops = _registry_ops(n)
    f = msym((2, 1), n)
    for a in ops:
        for bb in ops:
            assert commutator(a, bb)(f) == -(commutator(bb, a)(f))
            assert (a + bb)(f) == a(f) + bb(f)


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
                    from macdunkl import exact_div
                    from macdunkl.multipoly import diff_factor

                    q = exact_div(g, diff_factor(i, j, n, RB))
                    assert q * diff_factor(i, j, n, RB) == g
