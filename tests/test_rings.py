"""Scalar ring tests: rational binomials, beta-polynomials, h-slices."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from macdunkl import BetaPoly, DomainError, binom
from macdunkl.rings import exp_sum_slice, render_scalar


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


def _product_slice(u, v, k):
    """The h^k coefficient of the product of the series of the tables u
    and v, from their slices."""
    return sum((exp_sum_slice(u, i) * exp_sum_slice(v, k - i) for i in range(k + 1)),
               BetaPoly.zero())


def _table_product(u, v):
    out = {}
    for (a1, b1), c1 in u.items():
        for (a2, b2), c2 in v.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


tables = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-4, 4), max_size=3
)


@settings(max_examples=40)
@given(tables, tables)
def test_jet_exp_is_a_homomorphism(u, v):
    # the slices of a product of tables are the Cauchy products of slices
    w = _table_product(u, v)
    for k in range(5):
        assert exp_sum_slice(w, k) == _product_slice(u, v, k), k


def test_jet_exp_of_zero_is_one():
    for k in range(5):
        assert exp_sum_slice({(0, 0): 1}, k) == (1 if k == 0 else 0)


def test_jet_exp_beta_h_taylor():
    f = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    for k in range(5):
        assert exp_sum_slice({(0, 1): 1}, k) == BetaPoly.term(f[k], k)


def test_jet_exp_inverse_pair():
    for k in range(5):
        assert _product_slice({(2, 0): 1}, {(-2, 0): 1}, k) == (1 if k == 0 else 0)


def test_jet_t_times_inverse_is_one():
    for k in range(5):
        assert _product_slice({(0, 1): 1}, {(0, -1): 1}, k) == (1 if k == 0 else 0)


def test_jet_power_exponent_law():
    # exp(h)^3 = exp(3h)
    q, q2 = {(1, 0): 1}, {(2, 0): 1}
    for k in range(5):
        cubed = sum((_product_slice(q, q, i) * exp_sum_slice(q, k - i) for i in range(k + 1)),
                    BetaPoly.zero())
        assert cubed == exp_sum_slice({(3, 0): 1}, k) == _product_slice(q2, q, k), k


def test_jet_q_h1_coefficient():
    assert exp_sum_slice({(1, 0): 1}, 1) == BetaPoly.one()


def test_exp_sum_slice_of_one_monomial_is_a_power():
    # q^a t^b = exp((a + b*beta) h), whose h^k coefficient is (a + b*beta)^k / k!
    beta = BetaPoly.var()
    for a in range(7):
        for b in range(21):
            for k in range(7):
                want = (a + b * beta) ** k * Fraction(1, factorial(k))
                assert exp_sum_slice({(a, b): 1}, k) == want, (a, b, k)


def test_jet_order_zero_and_negative():
    assert exp_sum_slice({(3, 5): 1, (1, 0): -2}, 0) == -1
    with pytest.raises(DomainError, match="h order must be non-negative"):
        exp_sum_slice({(0, 1): 1}, -1)


def test_render_scalar_per_ring():
    p = BetaPoly({0: 1, 1: -2, 3: Fraction(1, 2)})
    assert render_scalar(Fraction(-3, 4)) == "-3/4"
    assert render_scalar(7) == "7"
    assert render_scalar(p) == "1 - 2*b + 1/2*b^3"
    assert render_scalar(p, "t") == "1 - 2*t + 1/2*t^3"
