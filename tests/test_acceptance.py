"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints one pass/fail line so a verbose run reads as a checklist.
All tolerances are zero: every comparison is an exact identity of
rational, b-polynomial or t-polynomial objects.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

from macdunkl import BetaPoly, monomial_symmetric
from macdunkl.multipoly import Ring, partitions_upto
from macdunkl.operators import extract_order, h_op, operator_matrix
from macdunkl.rings import binom
from macdunkl.tbinom import (
    scaled_t_binomial,
    scaled_taylor_coeff_closed,
    t_binomial,
    taylor_coeff_closed,
)
from macdunkl.verify.identities import verify_identity
from macdunkl.verify.jack import jack_solve
from macdunkl.verify.witness import noncommutativity_witness, reevaluate_witness

RB = Ring.uni("b")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "witness_grid.json")


def _announce(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {name}{(' ' + detail) if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_tbinom_taylor_closed_forms():
    """Closed Taylor coefficients equal the h^k coefficients at
    t = exp(b*h) for n <= 10, k <= 4; the h^4 scaled form matches the
    r(r-1)/2 prefactor exponent."""
    strict_half = 0
    for n in range(0, 11):
        for r in range(0, n + 1):
            tb, scaled = t_binomial(n, r), scaled_t_binomial(n, r)
            for k in range(5):
                assert taylor_coeff_closed(n, r, k) == tb.h_coeff(k), (n, r, k)
                assert scaled_taylor_coeff_closed(n, r, k) == scaled.h_coeff(k), (n, r, k)
            full = scaled_t_binomial(n, r, half=False).h_coeff(4)
            if scaled_taylor_coeff_closed(n, r, 4) != full:
                strict_half += 1
    _announce(
        "criterion 1 (t-binomial Taylor closed forms, n <= 10, k <= 4)",
        True,
        f"scaling exponent: r(r-1)/2 matches everywhere; r(r-1) differs in {strict_half} cases",
    )


def test_criterion_02_scalar_part():
    """The shift-free subset sum equals the t-binomial for 2 <= n <= 7."""
    for n in range(2, 8):
        for r in range(1, n + 1):
            v = verify_identity("scalar_part", n=n, r=r)
            assert v.passed, (n, r, v.residual)
    _announce("criterion 2 (scalar part equals the t-binomial, n <= 7)", True)


def test_criterion_03_dunkl_explicit_forms():
    """H_1, H_2, H_3 explicit forms and the coupling-squared identity on
    weights <= 4 for 2 <= n <= 5."""
    for n in range(2, 6):
        for k in (1, 2, 3):
            v = verify_identity(f"h_explicit_{k}", n=n, degree=4)
            assert v.passed, (k, n, v.residual)
        v = verify_identity("beta2_h3", n=n, degree=4)
        assert v.passed, (n, v.residual)
    _announce("criterion 3 (explicit Dunkl power-sum forms, n <= 5)", True)


def test_criterion_04_order_matching():
    """Expansion orders 1..3 match the closed forms on weights <= 4 for
    2 <= n <= 5, with the printed rank-1/rank-2 forms checked at n = 3, 4."""
    for n in range(2, 6):
        for r in range(1, n + 1):
            for k in (1, 2, 3):
                v = verify_identity(f"ord{k}_matches", n=n, r=r, degree=4, K=4)
                assert v.passed, (k, n, r, v.residual)
            v = verify_identity("ord3_raw_eq_dunkl", n=n, r=r, degree=4)
            assert v.passed, (n, r, v.residual)
    for n in (3, 4):
        for r in (1, 2):
            v = verify_identity(f"ord3_display_r{r}", n=n, r=r, degree=4, K=4)
            assert v.passed, (n, r, v.residual)
    _announce("criterion 4 (order 1..3 closed forms, n <= 5, weights <= 4)", True)


def test_criterion_05_beta_slices():
    """The b^0..b^3 slices of the order-3 matrix match the slice operators."""
    for n in range(2, 6):
        for r in range(1, n + 1):
            for j in range(4):
                v = verify_identity(f"ord5_beta{j}", n=n, r=r, degree=4, K=4)
                assert v.passed, (j, n, r, v.residual)
    _announce("criterion 5 (coupling-degree slices of the third order)", True)


def test_criterion_06_commutators():
    """Power sums commute (i, j <= 4); the operators commute at seeded
    rational (q, t); the expansion orders <= 3 commute pairwise."""
    for n in range(2, 5):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                v = verify_identity("h_commutator", n=n, i=i, j=j, degree=4)
                assert v.passed, ("H", n, i, j, v.residual)
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                v = verify_identity("macdonald_commutator", n=n, r=r, s=s, seed=0, degree=4)
                assert v.passed, ("D", n, r, s, v.residual)
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                for i in range(0, 4):
                    for j in range(i, 4):
                        if i == j and r == s:
                            continue
                        v = verify_identity(
                            "orderwise_commutator", n=n, r=r, s=s, i=i, j=j, degree=4, K=4
                        )
                        assert v.passed, ("ord", n, r, s, i, j, v.residual)
    _announce("criterion 6 (commutators: power sums, seeded (q,t), orders <= 3)", True)


def test_criterion_07_type_sums():
    """All six triple-kernel families: raw sums equal the closed forms at
    (6,3), (7,3), (7,4) on weights <= 3, including the unit-sum forms."""
    for n, r in ((6, 3), (7, 3), (7, 4)):
        for tid in range(1, 7):
            v = verify_identity(f"type{tid}_matches", n=n, r=r, degree=3)
            assert v.passed, (tid, n, r, v.residual)
    _announce("criterion 7 (six type families raw = closed)", True)


def test_criterion_08_rank1_fourth_order():
    """The rank-1 h^4 coefficient matches its kernel-operator form for
    2 <= n <= 5; sanity value (1+b)^4/24 on m_(1) at n = 2."""
    b = BetaPoly.var()
    quart = (1 + b) * (1 + b) * (1 + b) * (1 + b)
    cell = extract_order(2, 1, 4, 1, 4).entries[((1,), (1,))]
    assert cell == quart * Fraction(1, 24)
    for n in range(2, 6):
        v = verify_identity("dn1_h4_matches", n=n, degree=4, K=4)
        assert v.passed, (n, v.residual)
    _announce("criterion 8 (rank-1 fourth order incl. scalar part, n <= 5)", True)


def test_criterion_09_witness_search():
    """The order-4 noncommutativity search completes deterministically;
    the witness reproduces and matches the committed golden report."""
    report = noncommutativity_witness(4, 4, 4)
    again = noncommutativity_witness(4, 4, 4)
    assert report.to_json_dict() == again.to_json_dict()
    detail = "found=false within grid"
    if report.found:
        cells = reevaluate_witness(report, 4)
        stored = [(tuple(w), v) for w, v in report.witness["residual"]]
        assert cells == stored
        w = report.witness
        detail = (
            f"witness n={w['n']} r={w['r']} s={w['s']} i={w['i']} j={w['j']} "
            f"lam={list(w['lam'])}"
        )
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert report.to_json_dict() == golden
    _announce("criterion 9 (noncommutativity witness search)", True, detail)


def test_criterion_10_jack_solver():
    """Schur specialization at b = 1, the rational point b = 2, and joint
    eigenvector post-checks for n <= 3 on weights <= 4."""
    got = dict(jack_solve(2, 2, 1))
    assert got[(2,)] == {(2,): 1, (1, 1): 1}
    assert got[(1, 1)] == {(1, 1): 1}
    assert dict(jack_solve(2, 2, 2))[(2,)][(1, 1)] == Fraction(4, 3)
    for n in (2, 3):
        vectors = jack_solve(n, 4, 1)
        assert vectors  # post-checks for H_2/H_3 run inside the solver
        vectors2 = jack_solve(n, 4, Fraction(5, 3))
        assert len(vectors2) == len(partitions_upto(4, n))
    _announce("criterion 10 (triangular eigenfunction solver)", True)


def test_criterion_11_determinism():
    """Running the full suite twice with one seed gives byte-identical
    JSON reports (fresh process each time, reduced grid for speed)."""
    args = [
        sys.executable,
        "-m",
        "macdunkl.cli",
        "verify",
        "--suite",
        "all",
        "--nmax",
        "3",
        "--degree",
        "2",
        "--seed",
        "0",
        "--json",
    ]
    a = subprocess.run(args, capture_output=True, text=True, timeout=1200)
    b = subprocess.run(args, capture_output=True, text=True, timeout=1200)
    assert a.returncode == 0, a.stderr
    assert b.returncode == 0, b.stderr
    assert a.stdout == b.stdout
    assert json.loads(a.stdout), "suite produced no verdicts"
    _announce("criterion 11 (byte-identical reruns of suite all)", True)
