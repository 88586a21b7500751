"""Scalar ring tests: rational binomials, beta-polynomials, h-jets."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from macdunkl import BetaPoly, DomainError, HJet, binom, jet_exp
from macdunkl.rings import jet_exp_sum, jet_q, jet_t, render_scalar


def test_binom_values():
    assert binom(4, 2) == 6
    assert binom(0, 0) == 1
    assert binom(7, 7) == 1


def test_binom_out_of_range_is_zero():
    assert binom(3, -1) == 0
    assert binom(2, 3) == 0
    assert binom(-1, 0) == 0
    assert binom(-2, -2) == 0


@given(st.integers(0, 20), st.integers(-2, 22))
def test_binom_pascal_rule(n, r):
    assert binom(n + 1, r) == binom(n, r) + binom(n, r - 1)


def test_beta_poly_basic():
    b = BetaPoly.var()
    p = (1 + b) * (1 + b)
    assert p == BetaPoly({0: 1, 1: 2, 2: 1})
    assert p.coeff(1) == 2
    assert p.render() == "1 + 2*b + b^2"
    assert (p - p) == BetaPoly.zero()
    assert not (p - p)


def test_beta_poly_no_zero_coeffs():
    p = BetaPoly({0: 1, 1: 0, 2: Fraction(0)})
    assert p.coeffs == {0: 1}
    assert p.degree() == 0


def test_beta_poly_evaluate():
    b = BetaPoly.var()
    p = 2 + 3 * b + b**2
    assert p.evaluate(Fraction(1, 2)) == Fraction(15, 4)


betas = st.builds(
    BetaPoly,
    st.dictionaries(st.integers(0, 3), st.integers(-4, 4), max_size=3),
)
small_jets = st.builds(lambda cs: HJet(3, cs), st.lists(betas, min_size=4, max_size=4))


@settings(max_examples=60)
@given(small_jets, small_jets, small_jets)
def test_jet_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def zero_const_jets():
    return st.builds(
        lambda cs: HJet(3, [BetaPoly.zero()] + cs),
        st.lists(betas, min_size=3, max_size=3),
    )


@settings(max_examples=40)
@given(zero_const_jets(), zero_const_jets())
def test_jet_exp_is_a_homomorphism(u, v):
    assert jet_exp(u) * jet_exp(v) == jet_exp(u + v)


def test_jet_exp_rejects_constant_term():
    with pytest.raises(DomainError):
        jet_exp(HJet.const(1, 3))


def test_jet_exp_of_zero_is_one():
    assert jet_exp(HJet.zero(4)) == HJet.one(4)


def test_jet_exp_beta_h_taylor():
    t = jet_t(4)
    f = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    for k in range(5):
        assert t.coeff(k) == BetaPoly.term(f[k], k)


def test_jet_exp_inverse_pair():
    u = HJet.single(1, 2, 4)
    assert jet_exp(u) * jet_exp(-u) == HJet.one(4)


def test_jet_t_times_inverse_is_one():
    t = jet_t(4)
    assert t * jet_exp(HJet.single(1, -BetaPoly.var(), 4)) == HJet.one(4)


def test_jet_geometric_inverse():
    one_plus_h = HJet.one(4) + HJet.single(1, 1, 4)
    geo = HJet(4, [1, -1, 1, -1, 1])
    assert one_plus_h * geo == HJet.one(4)


def test_jet_inverse_of_one_minus_beta_h():
    a = HJet.one(2) - HJet.single(1, BetaPoly.var(), 2)
    b = BetaPoly.var()
    assert a * HJet(2, [BetaPoly.one(), b, b * b]) == HJet.one(2)


def test_jet_power_exponent_law():
    assert jet_exp(HJet.single(1, 1, 4)) ** 3 == jet_exp(HJet.single(1, 3, 4))


def test_jet_q_h1_coefficient():
    assert jet_q(4).coeff(1) == BetaPoly.one()


def test_jet_exp_sum_of_one_monomial_matches_exp_and_powers():
    # q^a t^b = exp((a + b*beta) h), also at order 0, where u truncates to 0
    for K in range(7):
        q, t = jet_q(K), jet_t(K)
        for a in range(7):
            for b in range(21):
                u = HJet(K, ([0, a + b * BetaPoly.var()] + [0] * K)[: K + 1])
                got = jet_exp_sum({(a, b): 1}, K)
                assert got == jet_exp(u), (a, b, K)
                assert got == q**a * t**b, (a, b, K)


def test_jet_order_zero_and_negative():
    assert jet_exp_sum({(3, 5): 1}, 0) == HJet.one(0)
    with pytest.raises(DomainError, match="jet order must be non-negative"):
        jet_t(-1)


def test_render_scalar_per_ring():
    p = BetaPoly({0: 1, 1: -2, 3: Fraction(1, 2)})
    assert render_scalar(Fraction(-3, 4)) == "-3/4"
    assert render_scalar(7) == "7"
    assert render_scalar(p) == "1 - 2*b + 1/2*b^3"
    assert render_scalar(p, "t") == "1 - 2*t + 1/2*t^3"
    jet = HJet(2, [1, 0, p])
    assert render_scalar(jet, "t") == jet.render("h", "t") == "1 + (1 - 2*t + 1/2*t^3)*h^2"
