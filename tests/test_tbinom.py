"""t-binomial tests: recurrences, product formula, h-slices, closed Taylor forms."""

from fractions import Fraction

import pytest

from macdunkl import BetaPoly, DomainError, InexactDivisionError, binom
from macdunkl.rings import HJet, exp_sum_slice
from macdunkl.tbinom import (
    TPoly,
    scaled_t_binomial,
    scaled_taylor_coeff_closed,
    t_binomial,
    t_binomial_product,
    taylor_coeff_closed,
)
from macdunkl.verify.identities import suite_plan, verify_identity


def test_tbinom_2_1():
    assert t_binomial(2, 1) == TPoly((1, 1))


def test_tbinom_4_2():
    assert t_binomial(4, 2) == TPoly((1, 1, 2, 1, 1))


@pytest.mark.parametrize("coeffs", [(0.5, 1), (1, 2.0)])
def test_tpoly_refuses_an_inexact_coefficient(coeffs):
    with pytest.raises(TypeError, match="coefficients must be int or Fraction"):
        TPoly(coeffs)


def test_divmod_hand_worked_remainder():
    # t^3 + 2t + 5 = (t^2 - t + 3)(t + 1) + 2
    assert TPoly((5, 2, 0, 1)).divmod(TPoly((1, 1))) == (TPoly((3, -1, 1)), TPoly((2,)))
    # t^3 = (t/2)(2t^2 + 1) - t/2: a non-monic divisor leaves exact fractions
    quot, rem = TPoly((0, 0, 0, 1)).divmod(TPoly((1, 0, 2)))
    assert quot == TPoly((0, Fraction(1, 2)))
    assert rem == TPoly((0, Fraction(-1, 2)))
    # a dividend of lower degree is all remainder
    assert TPoly((1,)).divmod(TPoly((0, 1))) == (TPoly(), TPoly((1,)))
    with pytest.raises(DomainError):
        TPoly((1,)).divmod(TPoly())


def test_divmod_agrees_with_exact_divide():
    for n in range(1, 9):
        for r in range(1, n + 1):
            den = t_binomial(n - 1, r - 1)
            num = t_binomial(n, r) * den
            assert num.divmod(den) == (num.exact_divide(den), TPoly())
            shifted = num + TPoly.one()
            quot, rem = shifted.divmod(den)
            assert quot * den + rem == shifted
            assert rem.degree() < den.degree()
            if rem:
                with pytest.raises(InexactDivisionError) as info:
                    shifted.exact_divide(den)
                assert info.value.remainder == rem


def test_tbinom_out_of_range():
    with pytest.raises(DomainError):
        t_binomial(3, 4)
    with pytest.raises(DomainError):
        t_binomial(3, -1)


def test_recurrence_with_power_on_second_term():
    assert t_binomial(4, 2) == t_binomial(3, 1) + TPoly.t_power(2) * t_binomial(3, 2)


def test_both_recurrences_hold():
    for n in range(1, 13):
        for r in range(0, n + 1):
            lhs = t_binomial(n, r)
            first = (t_binomial(n - 1, r - 1) if r >= 1 else TPoly()) + (
                TPoly.t_power(r) * t_binomial(n - 1, r) if r <= n - 1 else TPoly()
            )
            second = (
                TPoly.t_power(n - r) * t_binomial(n - 1, r - 1) if r >= 1 else TPoly()
            ) + (t_binomial(n - 1, r) if r <= n - 1 else TPoly())
            assert lhs == first
            assert lhs == second


def test_product_formula_agrees_with_recurrence():
    for n in range(0, 13):
        for r in range(0, n + 1):
            assert t_binomial(n, r) == t_binomial_product(n, r)


def test_symmetry():
    for n in range(0, 13):
        for r in range(0, n + 1):
            assert t_binomial(n, r) == t_binomial(n, n - r)


def test_structure_invariants():
    for n in range(0, 11):
        for r in range(0, n + 1):
            p = t_binomial(n, r)
            assert p.degree() == r * (n - r)
            assert sum(p.coeffs) == binom(n, r)
            assert all(isinstance(c, int) and c > 0 for c in p.coeffs)


def test_jet_2_1_is_one_plus_exp():
    tb = t_binomial(2, 1)
    assert tb.h_coeff(0) == BetaPoly.const(2)
    assert tb.h_coeff(1) == BetaPoly.var()
    assert tb.h_coeff(2) == BetaPoly.term(Fraction(1, 2), 2)


def test_jet_constant_terms():
    assert t_binomial(5, 2).h_coeff(0) == BetaPoly.const(10)


def test_jet_h1_3_1():
    assert t_binomial(3, 1).h_coeff(1) == BetaPoly.term(3, 1)


def test_closed_forms_match_jets():
    for n in range(0, 11):
        for r in range(0, n + 1):
            tb = t_binomial(n, r)
            for k in range(5):
                assert taylor_coeff_closed(n, r, k) == tb.h_coeff(k), (n, r, k)


def test_scaled_closed_forms_match_jets_k_le_3():
    for n in range(0, 11):
        for r in range(0, n + 1):
            scaled = scaled_t_binomial(n, r)
            for k in range(4):
                assert scaled_taylor_coeff_closed(n, r, k) == scaled.h_coeff(k), (n, r, k)


def test_scaled_h4_uses_half_exponent():
    """The h^4 closed form of the scaled t-binomial matches the
    t^(r(r-1)/2) scaling, not t^(r(r-1)), wherever the two differ."""
    mismatch_full = 0
    for n in range(0, 11):
        for r in range(0, n + 1):
            closed = scaled_taylor_coeff_closed(n, r, 4)
            assert closed == scaled_t_binomial(n, r).h_coeff(4), (n, r)
            if closed != scaled_t_binomial(n, r, half=False).h_coeff(4):
                mismatch_full += 1
    assert mismatch_full > 0


def test_closed_examples():
    assert taylor_coeff_closed(3, 1, 1) == BetaPoly.term(3, 1)
    assert taylor_coeff_closed(2, 1, 2) == BetaPoly.term(Fraction(1, 2), 2)
    assert taylor_coeff_closed(2, 1, 4) == BetaPoly.term(Fraction(1, 24), 4)
    assert scaled_taylor_coeff_closed(2, 1, 1) == BetaPoly.term(1, 1)
    assert scaled_taylor_coeff_closed(2, 2, 3) == BetaPoly.term(Fraction(1, 6), 3)
    for n in range(1, 8):
        assert scaled_taylor_coeff_closed(n, 1, 4) == taylor_coeff_closed(n, 1, 4)


def test_scaled_jet_against_direct_product():
    # t^1 [2 2] = t = exp(b h)
    for k in range(5):
        assert scaled_t_binomial(2, 2).h_coeff(k) == exp_sum_slice({(0, 1): 1}, k)


def test_h_coeff_matches_power_sum():
    # the moment formula against sum_j c_j times the h^k coefficient of t^j
    for k in range(7):
        for n in range(11):
            for r in range(n + 1):
                poly = t_binomial(n, r)
                want = BetaPoly.zero()
                for j, c in enumerate(poly.coeffs):
                    want = want + exp_sum_slice({(0, j): 1}, k) * c
                assert poly.h_coeff(k) == want, (n, r, k)
    poly = TPoly((Fraction(1, 3), 0, -2))
    assert [poly.h_coeff(k) for k in range(3)] == [
        Fraction(-5, 3), BetaPoly.term(-4, 1), BetaPoly.term(-4, 2)
    ]


def test_scaled_jet_matches_jet_product():
    # t^e [n r] read in one pass against the Cauchy product of the slices
    # of t^e and of [n r]
    for K in range(8):
        for n in range(11):
            for r in range(n + 1):
                for half, e in ((True, r * (r - 1) // 2), (False, r * (r - 1))):
                    want = sum(
                        (exp_sum_slice({(0, e): 1}, i) * t_binomial(n, r).h_coeff(K - i)
                         for i in range(K + 1)),
                        BetaPoly.zero(),
                    )
                    assert scaled_t_binomial(n, r, half=half).h_coeff(K) == want, (n, r, K, half)


def test_tbinom_suite_multiplies_no_jets(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("HJet built")

    monkeypatch.setattr(HJet, "__init__", refuse)
    verdicts = [verify_identity(name, **params) for name, params in suite_plan("tbinom")]
    assert verdicts and all(v.passed for v in verdicts)


def test_render_keeps_signs_like_beta_poly():
    p = TPoly((1, -2, 0, 3))
    assert p.render() == BetaPoly({0: 1, 1: -2, 3: 3}).render("t") == "1 - 2*t + 3*t^3"
    assert TPoly((-1, 0, Fraction(-1, 2))).render("n") == "-1 - 1/2*n^2"
    assert TPoly().render() == "0"
