"""Identity registry: every named check, with exact residuals.

A check computes two exact objects (matrices on an m-basis window, t- or
b-polynomials, or polynomials in x) and returns their residual: None
when they agree, else an exact rendering of the difference.  A check
that also reports findings returns ``(residual, findings)``.  There are
no tolerances anywhere.  ``verify_identity`` is the one place that
builds a Verdict: it binds the parameters to the check's parameter list,
times the call, and records the bound parameters in that order,
defaults included, followed by the findings.  Each check's parameter
list is read once, at import, from its function's code object and
defaults; an entry that is a ``functools.partial`` drops the parameters
its positional arguments fill and fixes its keywords.  Matrix windows
come from ``operators.window`` and default to weights 1..4, so the
window size is in every matrix verdict's parameters; a degree below 1
is refused, since on the empty window both sides are zero and every
matrix check would pass.  One check, ``check_order_form``, compares a
slice D_k(n, r) with any closed-form term table: its registry entries
fix k and the form, and the rank where the form is printed at one.

A matrix check on term tables is one table that must vanish: the
checked side enters as a term or a table, the form's terms negated
(``_difference``), so its residual is the difference matrix and a
passing check builds no scalar.  ``check_ord5_beta`` alone subtracts
matrices: it compares a b^j slice with a b^0 slice.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import partial
from math import factorial

from ..errors import DomainError
from ..multipoly import MultiPoly, Ring
from ..operators import (
    _require_rank,
    extract_order,
    h_op,
    macdonald_scalar_part,
    macdonald_specialized,
    operator_matrix,
    primitive_matrix,
    qshift_slice,
    slice_op,
    window,
)
from ..rings import BetaPoly, render_scalar
from ..tbinom import (
    scaled_t_binomial,
    scaled_taylor_coeff_closed,
    t_binomial,
    t_binomial_product,
    taylor_coeff_closed,
)
from . import closedforms
from .closedforms import _combo
from .typesums import _closed_terms, _raw_terms

RB = Ring.uni("b")


class Verdict:
    """Outcome of one named identity check."""

    __slots__ = ("identity", "params", "status", "residual", "runtime_ms")

    def __init__(
        self,
        identity: str,
        params: dict,
        status: str,
        residual: dict | None = None,
        runtime_ms: int = 0,
    ):
        self.identity = identity
        self.params = params
        self.status = status          # "pass" | "fail"
        self.residual = residual      # None iff status == "pass"
        self.runtime_ms = runtime_ms

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _matrix_residual(diff, label="difference"):
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
    return {"kind": "scalar", "label": label, "value": render_scalar(x)}


def _difference(left, right):
    """The term table left minus right."""
    return [*left, *((-c, j, factors) for c, j, factors in right)]


# -- t-binomial checks ---------------------------------------------------


def check_tbinom_taylor(n: int, r: int, k: int):
    closed = taylor_coeff_closed(n, r, k)
    return _scalar_residual(closed - t_binomial(n, r).h_coeff(k))


def check_tbinom_taylor_scaled(n: int, r: int, k: int):
    closed = scaled_taylor_coeff_closed(n, r, k)
    return _scalar_residual(closed - scaled_t_binomial(n, r).h_coeff(k))


def check_tbinom_h4_scaling(n: int, r: int):
    """Which scaling exponent the h^4 closed form of the scaled t-binomial
    matches: r(r-1)/2, r(r-1), both (they coincide for r < 2) or neither."""
    closed = scaled_taylor_coeff_closed(n, r, 4)
    half = scaled_t_binomial(n, r).h_coeff(4)
    full = scaled_t_binomial(n, r, half=False).h_coeff(4)
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
    return _scalar_residual(closed - half), {"scaling_match": scaling}


def check_tbinom_product_vs_recurrence(n: int, r: int):
    diff = t_binomial(n, r) - t_binomial_product(n, r)
    if not diff:
        return None
    return {"kind": "poly", "label": "difference", "value": diff.render("t")}


def check_scalar_part(n: int, r: int):
    got = macdonald_scalar_part(n, r)
    tb = t_binomial(n, r)
    want = MultiPoly.const(n, BetaPoly(dict(enumerate(tb.coeffs))), Ring.uni("t"))
    return _poly_residual(got - want)


# -- Dunkl explicit forms --------------------------------------------------


def check_h_explicit(k: int, n: int, degree: int = 4):
    basis = window(degree, n)

    def residual(form, label="difference"):
        terms = _difference([(1, 0, ((h_op, k),))], form(n))
        return _matrix_residual(_combo(n, basis, terms), label)

    if k == 1:
        return residual(closedforms.h1_explicit)
    if k == 2:
        return residual(closedforms.h2_explicit_pairs, "vs kernel-ratio form") or residual(
            closedforms.h2_explicit_b, "vs B-operator form"
        )
    if k == 3:
        return residual(closedforms.h3_explicit)
    raise DomainError("explicit forms exist for k = 1, 2, 3")


def check_beta2_h3(n: int, degree: int = 4):
    """The coupling-squared part of H_3: the double reflection sum equals
    both stated right-hand sides.  That the two right-hand sides agree
    needs no comparison of its own: once both equal the lhs, they are
    equal."""
    basis = window(degree, n)
    lhs = closedforms.beta2_h3_lhs(n)

    def residual(rhs, label):
        diff = _combo(n, basis, _difference(lhs, rhs(n))).beta_slice(0)
        return _matrix_residual(diff, label)

    return residual(closedforms.beta2_h3_rhs_pairs, "lhs vs kernel-ratio rhs") or residual(
        closedforms.beta2_h3_rhs_b, "lhs vs B-operator rhs"
    )


# -- order matching --------------------------------------------------------


def check_order_form(k: int, form, n: int, r: int, degree: int = 4, K: int = 4):
    """The slice D_k(n, r) against the term table form(n, r); a form
    printed at fixed ranks refuses any other r."""
    basis = window(degree, n)
    extract_order(n, r, k, degree, K)  # refuses k outside 0..K first
    terms = _difference([(1, 0, ((slice_op, r, k),))], form(n, r))
    return _matrix_residual(_combo(n, basis, terms))


def check_ord3_raw_eq_dunkl(n: int, r: int, degree: int = 4):
    _require_rank(n, r=r)
    basis = window(degree, n)
    terms = _difference(closedforms.third_order_raw(n, r), closedforms.third_order_dunkl(n, r))
    return _matrix_residual(_combo(n, basis, terms))


def check_ord5_beta(j: int, n: int, r: int, degree: int = 4, K: int = 4):
    """The b^j slice of the h^3 matrix against the slice closed form."""
    basis = window(degree, n)
    got = extract_order(n, r, 3, degree, K).beta_slice(j)
    slice_form = _combo(n, basis, closedforms.third_order_slice(j, n, r)).beta_slice(0)
    return _matrix_residual(got - slice_form)


# -- type sums -------------------------------------------------------------


def check_type_matches(tid: int, n: int, r: int, degree: int = 3):
    """The raw type sum against its closed form, 0 <= r <= n: both sides
    term tables, each a combination of cached primitive matrices."""
    basis = window(degree, n)
    diff = _combo(n, basis, _difference(_raw_terms(n, r, tid), _closed_terms(n, r, tid)))
    return _matrix_residual(diff.beta_slice(0))


# -- commutators -------------------------------------------------------------


def _require_distinct(left, right, names: str):
    """Refuse a commutator of an operator with itself: it is zero
    whatever the operator is, so its check could never fail."""
    if left == right:
        raise DomainError(
            f"a commutator of an operator with itself is zero: need {names}, got both {left}"
        )


def check_h_commutator(n: int, i: int, j: int, degree: int = 4):
    _require_distinct(i, j, "i != j")
    basis = window(degree, n)
    a = primitive_matrix((h_op, i), n, basis)
    b = primitive_matrix((h_op, j), n, basis)
    return _matrix_residual(a.commutator_with(b), "commutator")


def _seeded_qt_pairs(n: int, r: int, s: int, seed: int):
    """Three seeded rational pairs (q, t), neither q nor t equal to 1."""
    rng = random.Random(f"{seed}:{n}:{r}:{s}")
    pairs = []
    while len(pairs) < 3:
        qn, qd = rng.randint(1, 97), rng.randint(1, 97)
        tn, td = rng.randint(1, 97), rng.randint(1, 97)
        if qn == qd or tn == td:
            continue
        pairs.append((Fraction(qn, qd), Fraction(tn, td)))
    return pairs


def check_macdonald_commutator(n: int, r: int, s: int, seed: int = 0, degree: int = 4):
    """D(n, r) and D(n, s) commute at seeded rational (q, t); the pairs
    tried are reported as the ``qt`` finding."""
    basis = window(degree, n)
    _require_rank(n, r=r, s=s)
    _require_distinct(r, s, "r != s")
    residual = None
    tried = []
    for q, t in _seeded_qt_pairs(n, r, s, seed):
        tried.append(f"q={q},t={t}")
        a = operator_matrix(macdonald_specialized(n, r, q, t), basis)
        b = operator_matrix(macdonald_specialized(n, s, q, t), basis)
        residual = _matrix_residual(a.commutator_with(b), f"commutator at q={q}, t={t}")
        if residual is not None:
            break
    return residual, {"qt": tried}


def check_orderwise_commutator(
    n: int, r: int, s: int, i: int, j: int, degree: int = 4, K: int = 4
):
    _require_rank(n, r=r, s=s)
    _require_distinct((r, i), (s, j), "(r, i) != (s, j)")
    a = extract_order(n, r, i, degree, K)
    b = extract_order(n, s, j, degree, K)
    return _matrix_residual(a.commutator_with(b), "commutator")


# -- shift-form cross-check ---------------------------------------------------


def _random_poly(n: int, rng: random.Random):
    """A sum of four seeded monomials over RB, each exponent at most 3."""
    f = MultiPoly.zero(n, RB)
    for _ in range(4):
        exps = tuple(rng.randint(0, 3) for _ in range(n))
        f = f + MultiPoly.monomial(exps, n, RB, coeff=rng.randint(-4, 4))
    return f


def check_eq1_shift_form(n: int, K: int = 4, seed: int = 0, trials: int = 3):
    """The h^k coefficient of the q-shift x_i -> q x_i at q = exp(h), by
    monomial scaling, against (x_i d_i)^k / k!, for every k <= K; the two
    must agree on arbitrary polynomials."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if K < 0:
        raise DomainError("jet order must be non-negative")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    rng = random.Random(f"{seed}:eq1:{n}")
    for _ in range(trials):
        f = _random_poly(n, rng)
        for i in range(1, n + 1):
            g = f
            for k in range(K + 1):
                if k:
                    g = g.euler(i)
                diff = qshift_slice(i, k, f) - g.scale(Fraction(1, factorial(k)))
                residual = _poly_residual(diff)
                if residual is not None:
                    return residual
    return None


# -- registry -----------------------------------------------------------------

_CHECKS = {
    "scalar_part": check_scalar_part,
    "tbinom_taylor": check_tbinom_taylor,
    "tbinom_taylor_scaled": check_tbinom_taylor_scaled,
    "tbinom_h4_scaling": check_tbinom_h4_scaling,
    "tbinom_product_vs_recurrence": check_tbinom_product_vs_recurrence,
    **{f"h_explicit_{k}": partial(check_h_explicit, k) for k in (1, 2, 3)},
    "beta2_h3": check_beta2_h3,
    "ord1_matches": partial(check_order_form, 1, closedforms.first_order),
    "ord2_matches": partial(check_order_form, 2, closedforms.second_order),
    "ord3_matches": partial(check_order_form, 3, closedforms.third_order_dunkl),
    "ord3_raw_eq_dunkl": check_ord3_raw_eq_dunkl,
    **{
        f"ord3_display_r{r}": partial(check_order_form, 3, closedforms.third_order_display, r=r)
        for r in (1, 2)
    },
    **{f"ord5_beta{j}": partial(check_ord5_beta, j) for j in range(4)},
    "dn1_h4_matches": partial(check_order_form, 4, closedforms.rank1_fourth_order, r=1),
    **{f"type{tid}_matches": partial(check_type_matches, tid) for tid in range(1, 7)},
    "h_commutator": check_h_commutator,
    "macdonald_commutator": check_macdonald_commutator,
    "orderwise_commutator": check_orderwise_commutator,
    "eq1_shift_form": check_eq1_shift_form,
}


def _parameters(check):
    """(names, defaults, fixed) of a check: its parameter names in call
    order, {name: default}, and {name: value} of the keywords a partial
    fixes, which are also their defaults.  A partial's positional
    arguments fill its leading parameters, which drop out."""
    fixed = getattr(check, "keywords", {})
    fn = getattr(check, "func", check)
    code = fn.__code__
    names = code.co_varnames[: code.co_argcount]
    values = fn.__defaults__ or ()
    defaults = dict(zip(names[len(names) - len(values):], values))
    return names[len(getattr(check, "args", ())):], {**defaults, **fixed}, fixed


# name -> (check, parameter names, {name: default}, {name: fixed value})
REGISTRY = {name: (fn, *_parameters(fn)) for name, fn in _CHECKS.items()}


def verify_identity(name: str, **params) -> Verdict:
    """Run the named check on params and build its verdict.

    The params are bound to the check's parameter names, so an unknown
    or a missing one is refused, and a value other than the one the
    registry entry fixes (the r of ``ord3_display_r1``) is refused too.
    The verdict records the bound parameters in call order, defaults
    included, then the check's findings, and the time of the one call.
    """
    if name not in REGISTRY:
        raise DomainError(f"unknown identity {name!r}")
    fn, names, defaults, fixed = REGISTRY[name]
    bound = {}
    for key in names:
        if key in params:
            bound[key] = params[key]
        elif key in defaults:
            bound[key] = defaults[key]
        else:
            raise DomainError(f"{name} takes {names}: missing a required argument: {key!r}")
    for key in params:
        if key not in bound:
            raise DomainError(f"{name} takes {names}: got an unexpected keyword argument {key!r}")
    for key, value in fixed.items():
        if bound[key] != value:
            raise DomainError(f"{name} fixes {key}={value}, got {key}={bound[key]}")
    t0 = time.monotonic()
    residual = fn(**bound)
    ms = int((time.monotonic() - t0) * 1000)
    findings = {}
    if isinstance(residual, tuple):
        residual, findings = residual
    status = "pass" if residual is None else "fail"
    return Verdict(name, {**bound, **findings}, status, residual, ms)


# -- suites ------------------------------------------------------------------
#
# A suite is a deterministic plan: a list of (identity name, params) that
# maps one-to-one onto sections of the verified material.  Plans can be
# filtered (by n, r) before execution, which is what the CLI does.


def _grid_nr(nmax: int):
    for n in range(2, nmax + 1):
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
            for r in (1, 2):
                out.append(
                    (f"ord3_display_r{r}", {"n": n, "r": r, "degree": degree, "K": order})
                )
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
        out.append(("dn1_h4_matches", {"n": n, "r": 1, "degree": degree, "K": order}))
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
