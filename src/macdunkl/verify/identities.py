"""Identity registry: every named check, with exact residuals.

A check computes two exact objects (matrices on an m-basis window, t- or
b-polynomials, or polynomials in x) and produces a Verdict whose status
is pass exactly when the residual is zero.  There are no tolerances
anywhere.  Matrix windows default to weights 1..4; the window size is
recorded in every verdict's parameter map.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial

from ..errors import DomainError
from ..multipoly import (
    MultiPoly,
    Ring,
    monomial_symmetric,
    partitions_upto,
    to_msym_coords,
)
from ..operators import (
    OperatorMatrix,
    extract_order,
    h_op,
    macdonald_specialized,
    macdonald_scalar_part,
    operator_matrix,
    qshift_apply,
    scalar_op,
)
from ..rings import BetaPoly, HJet, jet_q
from ..tbinom import (
    scaled_t_binomial_jet,
    scaled_taylor_coeff_closed,
    t_binomial,
    t_binomial_jet,
    t_binomial_product,
    taylor_coeff_closed,
)
from . import closedforms
from .typesums import type_sum_closed_apply, type_sum_raw_apply

RB = Ring.uni("b")
RQ = Ring.q()


@dataclass
class Verdict:
    """Outcome of one named identity check."""

    identity: str
    params: dict
    status: str                      # "pass" | "fail"
    residual: dict | None = None     # None iff status == "pass"
    runtime_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _verdict(identity, params, residual, t0) -> Verdict:
    ms = int((time.monotonic() - t0) * 1000)
    if residual:
        return Verdict(identity, params, "fail", residual, ms)
    return Verdict(identity, params, "pass", None, ms)


def _matrix_residual(a: OperatorMatrix, b: OperatorMatrix, label="difference"):
    diff = a - b
    if diff.is_zero():
        return None
    cells = [
        {"row": row, "col": col, "value": val} for row, col, val in diff.render_cells()
    ]
    return {"kind": "matrix", "label": label, "cells": cells}


def _poly_residual(p, label="difference"):
    if not p:
        return None
    return {"kind": "poly", "label": label, "value": p.render()}


def _scalar_residual(x, label="difference"):
    if not x:
        return None
    if isinstance(x, BetaPoly):
        return {"kind": "scalar", "label": label, "value": x.render()}
    return {"kind": "scalar", "label": label, "value": str(x)}


def _basis(degree: int, n: int):
    return tuple(partitions_upto(degree, n))


# -- t-binomial checks ---------------------------------------------------


def check_tbinom_taylor(n: int, r: int, k: int) -> Verdict:
    t0 = time.monotonic()
    closed = taylor_coeff_closed(n, r, k)
    jet = t_binomial_jet(n, r, 4).coeff(k)
    return _verdict(
        "tbinom_taylor", {"n": n, "r": r, "k": k}, _scalar_residual(closed - jet), t0
    )


def check_tbinom_taylor_scaled(n: int, r: int, k: int) -> Verdict:
    t0 = time.monotonic()
    closed = scaled_taylor_coeff_closed(n, r, k)
    jet = scaled_t_binomial_jet(n, r, 4, half=True).coeff(k)
    return _verdict(
        "tbinom_taylor_scaled",
        {"n": n, "r": r, "k": k},
        _scalar_residual(closed - jet),
        t0,
    )


def check_tbinom_h4_scaling(n: int, r: int) -> Verdict:
    """Which scaling exponent the h^4 closed form of the scaled t-binomial
    matches: r(r-1)/2, r(r-1), both (they coincide for r < 2) or neither."""
    t0 = time.monotonic()
    closed = scaled_taylor_coeff_closed(n, r, 4)
    half = scaled_t_binomial_jet(n, r, 4, half=True).coeff(4)
    full = scaled_t_binomial_jet(n, r, 4, half=False).coeff(4)
    match_half = closed == half
    match_full = closed == full
    if match_half and match_full:
        scaling = "both"
    elif match_half:
        scaling = "r(r-1)/2"
    elif match_full:
        scaling = "r(r-1)"
    else:
        scaling = "neither"
    params = {"n": n, "r": r, "scaling_match": scaling}
    return _verdict(
        "tbinom_h4_scaling", params, _scalar_residual(closed - half), t0
    )


def check_tbinom_product_vs_recurrence(n: int, r: int) -> Verdict:
    t0 = time.monotonic()
    a = t_binomial(n, r)
    b = t_binomial_product(n, r)
    diff = a - b
    residual = None
    if diff:
        residual = {"kind": "poly", "label": "difference", "value": diff.render("t")}
    return _verdict("tbinom_product_vs_recurrence", {"n": n, "r": r}, residual, t0)


def check_scalar_part(n: int, r: int) -> Verdict:
    t0 = time.monotonic()
    got = macdonald_scalar_part(n, r)
    tb = t_binomial(n, r)
    want = MultiPoly.const(n, BetaPoly(dict(enumerate(tb.coeffs))), Ring.uni("t"))
    return _verdict(
        "scalar_part", {"n": n, "r": r}, _poly_residual(got - want), t0
    )


# -- Dunkl explicit forms --------------------------------------------------


def check_h_explicit(k: int, n: int, degree: int = 4) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    actual = operator_matrix(h_op(k, n, RB), basis)
    if k == 1:
        closed = operator_matrix(closedforms.h1_explicit(n), basis)
        residual = _matrix_residual(actual, closed)
    elif k == 2:
        pairs = operator_matrix(closedforms.h2_explicit_pairs(n), basis)
        bform = operator_matrix(closedforms.h2_explicit_b(n), basis)
        residual = _matrix_residual(actual, pairs, "vs kernel-ratio form")
        if residual is None:
            residual = _matrix_residual(actual, bform, "vs B-operator form")
    elif k == 3:
        closed = operator_matrix(closedforms.h3_explicit(n), basis)
        residual = _matrix_residual(actual, closed)
    else:
        raise DomainError("explicit forms exist for k = 1, 2, 3")
    return _verdict(f"h_explicit_{k}", {"n": n, "degree": degree}, residual, t0)


def check_beta2_h3(n: int, degree: int = 4) -> Verdict:
    """The coupling-squared part of H_3: the double reflection sum equals
    both stated right-hand sides, which must also agree with each other."""
    t0 = time.monotonic()
    basis = _basis(degree, n)
    lhs = operator_matrix(closedforms.beta2_h3_lhs(n), basis)
    rhs1 = operator_matrix(closedforms.beta2_h3_rhs_pairs(n), basis)
    rhs2 = operator_matrix(closedforms.beta2_h3_rhs_b(n), basis)
    residual = _matrix_residual(lhs, rhs1, "lhs vs kernel-ratio rhs")
    if residual is None:
        residual = _matrix_residual(lhs, rhs2, "lhs vs B-operator rhs")
    if residual is None:
        residual = _matrix_residual(rhs1, rhs2, "the two rhs forms disagree")
    return _verdict("beta2_h3", {"n": n, "degree": degree}, residual, t0)


# -- order matching --------------------------------------------------------


def check_ord_matches(k: int, n: int, r: int, degree: int = 4, K: int = 4) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    got = extract_order(n, r, k, degree, K)
    name = {1: "ord1", 2: "ord2", 3: "ord3_dunkl"}[k]
    closed = operator_matrix(closedforms.build_closed_form(name, n, r), basis)
    return _verdict(
        f"ord{k}_matches",
        {"n": n, "r": r, "degree": degree, "K": K},
        _matrix_residual(got, closed),
        t0,
    )


def check_ord3_raw_eq_dunkl(n: int, r: int, degree: int = 4) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    raw = operator_matrix(closedforms.build_closed_form("ord3_raw", n, r), basis)
    dunkl = operator_matrix(closedforms.build_closed_form("ord3_dunkl", n, r), basis)
    return _verdict(
        "ord3_raw_eq_dunkl",
        {"n": n, "r": r, "degree": degree},
        _matrix_residual(raw, dunkl),
        t0,
    )


def check_ord3_display(r: int, n: int, degree: int = 4, K: int = 4) -> Verdict:
    t0 = time.monotonic()
    if r not in (1, 2):
        raise DomainError("printed specializations exist for r = 1, 2")
    basis = _basis(degree, n)
    got = extract_order(n, r, 3, degree, K)
    disp = operator_matrix(
        closedforms.build_closed_form(f"ord3_display_r{r}", n, r), basis
    )
    return _verdict(
        f"ord3_display_r{r}",
        {"n": n, "r": r, "degree": degree, "K": K},
        _matrix_residual(got, disp),
        t0,
    )


def check_ord5_beta(j: int, n: int, r: int, degree: int = 4, K: int = 4) -> Verdict:
    """The b^j slice of the h^3 matrix against the slice closed form."""
    t0 = time.monotonic()
    basis = _basis(degree, n)
    got = extract_order(n, r, 3, degree, K).beta_slice(j)
    if j == 3:
        scalar = closedforms.third_order_scalar(n, r)
        closed = operator_matrix(scalar_op(scalar, n, RQ), basis)
    elif j in (0, 1, 2):
        builder = {
            0: closedforms.third_order_beta0,
            1: closedforms.third_order_beta1,
            2: closedforms.third_order_beta2,
        }[j]
        closed = operator_matrix(builder(n, r, RQ), basis)
    else:
        raise DomainError("slice index must be 0..3")
    return _verdict(
        f"ord5_beta{j}",
        {"n": n, "r": r, "degree": degree, "K": K},
        _matrix_residual(got, closed),
        t0,
    )


def check_dn1_h4(n: int, degree: int = 4, K: int = 4) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    got = extract_order(n, 1, 4, degree, K)
    closed = operator_matrix(closedforms.build_closed_form("dn1_h4", n, 1), basis)
    return _verdict(
        "dn1_h4_matches",
        {"n": n, "r": 1, "degree": degree, "K": K},
        _matrix_residual(got, closed),
        t0,
    )


# -- type sums -------------------------------------------------------------


def check_type_matches(tid: int, n: int, r: int, degree: int = 3) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    entries_raw = {}
    entries_closed = {}
    for lam in basis:
        f = monomial_symmetric(lam, n, RQ)
        for mu, c in to_msym_coords(type_sum_raw_apply(n, r, tid, f)).items():
            if c:
                entries_raw[(mu, lam)] = c
        for mu, c in to_msym_coords(type_sum_closed_apply(n, r, tid, f)).items():
            if c:
                entries_closed[(mu, lam)] = c
    raw = OperatorMatrix(n, RQ, basis, entries_raw)
    closed = OperatorMatrix(n, RQ, basis, entries_closed)
    return _verdict(
        f"type{tid}_matches",
        {"n": n, "r": r, "degree": degree},
        _matrix_residual(raw, closed),
        t0,
    )


# -- commutators -------------------------------------------------------------


def check_h_commutator(n: int, i: int, j: int, degree: int = 4) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    a = operator_matrix(h_op(i, n, RB), basis)
    b = operator_matrix(h_op(j, n, RB), basis)
    comm = a.commutator_with(b)
    zero = OperatorMatrix(n, RB, basis, {})
    return _verdict(
        "h_commutator",
        {"n": n, "i": i, "j": j, "degree": degree},
        _matrix_residual(comm, zero, "commutator"),
        t0,
    )


def _seeded_qt_pairs(n: int, r: int, s: int, seed: int, count: int = 3):
    rng = random.Random(f"{seed}:{n}:{r}:{s}")
    pairs = []
    while len(pairs) < count:
        qn, qd = rng.randint(1, 97), rng.randint(1, 97)
        tn, td = rng.randint(1, 97), rng.randint(1, 97)
        if qn == qd or tn == td:
            continue
        pairs.append((Fraction(qn, qd), Fraction(tn, td)))
    return pairs


def check_macdonald_commutator(
    n: int, r: int, s: int, seed: int = 0, degree: int = 4
) -> Verdict:
    t0 = time.monotonic()
    basis = _basis(degree, n)
    residual = None
    tried = []
    for q, t in _seeded_qt_pairs(n, r, s, seed):
        tried.append(f"q={q},t={t}")
        a = operator_matrix(macdonald_specialized(n, r, q, t), basis)
        b = operator_matrix(macdonald_specialized(n, s, q, t), basis)
        comm = a.commutator_with(b)
        zero = OperatorMatrix(n, RQ, basis, {})
        residual = _matrix_residual(comm, zero, f"commutator at q={q}, t={t}")
        if residual is not None:
            break
    params = {"n": n, "r": r, "s": s, "seed": seed, "degree": degree, "qt": tried}
    return _verdict("macdonald_commutator", params, residual, t0)


def check_orderwise_commutator(
    n: int, r: int, s: int, i: int, j: int, degree: int = 4, K: int = 4
) -> Verdict:
    t0 = time.monotonic()
    a = extract_order(n, r, i, degree, K)
    b = extract_order(n, s, j, degree, K)
    comm = a.commutator_with(b)
    zero = OperatorMatrix(n, RB, a.basis, {})
    return _verdict(
        "orderwise_commutator",
        {"n": n, "r": r, "s": s, "i": i, "j": j, "degree": degree, "K": K},
        _matrix_residual(comm, zero, "commutator"),
        t0,
    )


# -- shift-form cross-check ---------------------------------------------------


def _random_poly(n: int, rng: random.Random, ring: Ring, terms=4, maxdeg=3):
    f = MultiPoly.zero(n, ring)
    for _ in range(terms):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(n))
        f = f + MultiPoly.monomial(exps, n, ring, coeff=rng.randint(-4, 4))
    return f


def check_eq1_shift_form(n: int, K: int = 4, seed: int = 0, trials: int = 3) -> Verdict:
    """Jet q-shift by monomial scaling against the truncated sum of Euler
    derivative powers; the two must agree on arbitrary polynomials."""
    t0 = time.monotonic()
    ring = Ring.jet(K)
    qjet = jet_q(K)
    rng = random.Random(f"{seed}:eq1:{n}")
    residual = None
    for _ in range(trials):
        f = _random_poly(n, rng, ring)
        for i in range(1, n + 1):
            lhs = qshift_apply(i, qjet, f)
            rhs = MultiPoly.zero(n, ring)
            g = f
            for k in range(K + 1):
                if k:
                    g = g.euler(i)
                rhs = rhs + g.scale(HJet.single(k, Fraction(1, factorial(k)), K))
            residual = _poly_residual(lhs - rhs)
            if residual is not None:
                break
        if residual is not None:
            break
    return _verdict(
        "eq1_shift_form", {"n": n, "K": K, "seed": seed, "trials": trials}, residual, t0
    )


# -- registry -----------------------------------------------------------------

_CHECKS = {
    "scalar_part": check_scalar_part,
    "tbinom_taylor": check_tbinom_taylor,
    "tbinom_taylor_scaled": check_tbinom_taylor_scaled,
    "tbinom_h4_scaling": check_tbinom_h4_scaling,
    "tbinom_product_vs_recurrence": check_tbinom_product_vs_recurrence,
    **{f"h_explicit_{k}": partial(check_h_explicit, k) for k in (1, 2, 3)},
    "beta2_h3": check_beta2_h3,
    **{f"ord{k}_matches": partial(check_ord_matches, k) for k in (1, 2, 3)},
    "ord3_raw_eq_dunkl": check_ord3_raw_eq_dunkl,
    **{f"ord3_display_r{r}": partial(check_ord3_display, r) for r in (1, 2)},
    **{f"ord5_beta{j}": partial(check_ord5_beta, j) for j in range(4)},
    "dn1_h4_matches": check_dn1_h4,
    **{f"type{tid}_matches": partial(check_type_matches, tid) for tid in range(1, 7)},
    "h_commutator": check_h_commutator,
    "macdonald_commutator": check_macdonald_commutator,
    "orderwise_commutator": check_orderwise_commutator,
    "eq1_shift_form": check_eq1_shift_form,
}

# name -> (check, its signature, which names the accepted parameters)
REGISTRY = {name: (fn, inspect.signature(fn)) for name, fn in _CHECKS.items()}


def registry_names():
    return sorted(REGISTRY)


def verify_identity(name: str, **params) -> Verdict:
    if name not in REGISTRY:
        raise DomainError(f"unknown identity {name!r}")
    fn, sig = REGISTRY[name]
    try:
        sig.bind(**params)
    except TypeError as exc:
        raise DomainError(f"{name} takes {tuple(sig.parameters)}: {exc}") from None
    return fn(**params)


# -- suites ------------------------------------------------------------------
#
# A suite is a deterministic plan: a list of (identity name, params) that
# maps one-to-one onto sections of the verified material.  Plans can be
# filtered (by n, r) before execution, which is what the CLI does.


def _grid_nr(nmax: int, nmin: int = 2):
    for n in range(nmin, nmax + 1):
        for r in range(1, n + 1):
            yield n, r


def plan_tbinom(nmax=10, degree=4, seed=0, order=4):
    out = []
    lim = min(nmax, 10)
    for n in range(0, lim + 1):
        for r in range(0, n + 1):
            for k in range(5):
                out.append(("tbinom_taylor", {"n": n, "r": r, "k": k}))
                out.append(("tbinom_taylor_scaled", {"n": n, "r": r, "k": k}))
            out.append(("tbinom_h4_scaling", {"n": n, "r": r}))
    for n in range(0, min(nmax, 12) + 1):
        for r in range(0, n + 1):
            out.append(("tbinom_product_vs_recurrence", {"n": n, "r": r}))
    for n, r in _grid_nr(min(nmax, 7)):
        out.append(("scalar_part", {"n": n, "r": r}))
    return out


def plan_dunkl(nmax=5, degree=4, seed=0, order=4):
    out = []
    for n in range(2, min(nmax, 5) + 1):
        for k in (1, 2, 3):
            out.append((f"h_explicit_{k}", {"n": n, "degree": degree}))
        out.append(("beta2_h3", {"n": n, "degree": degree}))
    return out


def plan_order1(nmax=5, degree=4, seed=0, order=4):
    out = []
    for n, r in _grid_nr(min(nmax, 5)):
        out.append(("ord1_matches", {"n": n, "r": r, "degree": degree, "K": order}))
    for n in range(2, min(nmax, 4) + 1):
        out.append(("eq1_shift_form", {"n": n, "K": order, "seed": seed}))
    return out


def plan_order2(nmax=5, degree=4, seed=0, order=4):
    return [
        ("ord2_matches", {"n": n, "r": r, "degree": degree, "K": order})
        for n, r in _grid_nr(min(nmax, 5))
    ]


def plan_order3(nmax=5, degree=4, seed=0, order=4):
    out = []
    for n, r in _grid_nr(min(nmax, 5)):
        out.append(("ord3_matches", {"n": n, "r": r, "degree": degree, "K": order}))
        out.append(("ord3_raw_eq_dunkl", {"n": n, "r": r, "degree": degree}))
        for j in range(4):
            out.append(
                (f"ord5_beta{j}", {"n": n, "r": r, "degree": degree, "K": order})
            )
    for n in (3, 4):
        if n <= nmax:
            out.append(("ord3_display_r1", {"n": n, "degree": degree, "K": order}))
            out.append(("ord3_display_r2", {"n": n, "degree": degree, "K": order}))
    return out


TYPE_GRID = ((6, 3), (7, 3), (7, 4))


def plan_types(nmax=7, degree=3, seed=0, order=4):
    out = []
    for n, r in TYPE_GRID:
        if n > nmax:
            continue
        for tid in range(1, 7):
            out.append((f"type{tid}_matches", {"n": n, "r": r, "degree": min(degree, 3)}))
    return out


def plan_h4(nmax=5, degree=4, seed=0, order=4):
    out = []
    for n in range(0, min(nmax, 10) + 1):
        for r in range(0, n + 1):
            out.append(("tbinom_taylor", {"n": n, "r": r, "k": 4}))
            out.append(("tbinom_taylor_scaled", {"n": n, "r": r, "k": 4}))
            out.append(("tbinom_h4_scaling", {"n": n, "r": r}))
    for n in range(2, min(nmax, 5) + 1):
        out.append(("dn1_h4_matches", {"n": n, "degree": degree, "K": order}))
    return out


def plan_commutators(nmax=4, degree=4, seed=0, order=4):
    out = []
    for n in range(2, min(nmax, 4) + 1):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                out.append(("h_commutator", {"n": n, "i": i, "j": j, "degree": degree}))
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                out.append(
                    ("macdonald_commutator", {"n": n, "r": r, "s": s, "seed": seed, "degree": degree})
                )
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                for i in range(0, 4):
                    for j in range(i, 4):
                        if i == j and r == s:
                            continue
                        out.append(
                            (
                                "orderwise_commutator",
                                {"n": n, "r": r, "s": s, "i": i, "j": j, "degree": degree, "K": order},
                            )
                        )
    return out


SUITES = {
    "tbinom": plan_tbinom,
    "dunkl": plan_dunkl,
    "order1": plan_order1,
    "order2": plan_order2,
    "order3": plan_order3,
    "types": plan_types,
    "h4": plan_h4,
    "commutators": plan_commutators,
}

SUITE_ORDER = (
    "tbinom",
    "dunkl",
    "order1",
    "order2",
    "order3",
    "types",
    "h4",
    "commutators",
)


def suite_plan(name: str, nmax=None, degree=None, seed=0, order=4):
    """The (identity, params) plan of a named suite, or of 'all'."""
    if name == "all":
        out = []
        for key in SUITE_ORDER:
            out.extend(suite_plan(key, nmax, degree, seed, order))
        return out
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}")
    fn = SUITES[name]
    kwargs = {"seed": seed, "order": order}
    if nmax is not None:
        kwargs["nmax"] = nmax
    if degree is not None:
        kwargs["degree"] = degree
    return fn(**kwargs)


def run_suite(name: str, nmax=None, degree=None, seed=0, order=4):
    """Run a named suite (or 'all'); deterministic verdict order."""
    return [verify_identity(nm, **ps) for nm, ps in suite_plan(name, nmax, degree, seed, order)]
