"""Registry and report tests: dispatch, reproducibility, honest failures."""

import pytest

from macdunkl.cli import emit_report
from macdunkl.errors import DomainError
from macdunkl.verify.identities import (
    REGISTRY,
    check_orderwise_commutator,
    suite_plan,
    verify_identity,
)


def test_unknown_identity():
    with pytest.raises(DomainError):
        verify_identity("no_such_thing", n=2)


def test_unknown_parameter_rejected():
    with pytest.raises(DomainError):
        verify_identity("scalar_part", n=3, r=1, bogus=7)


def test_dispatch_matches_direct_call():
    v = verify_identity("scalar_part", n=3, r=2)
    assert v.identity == "scalar_part"
    assert v.passed
    assert v.residual is None


def test_registry_smoke_small():
    cases = [
        ("tbinom_taylor", {"n": 5, "r": 2, "k": 3}),
        ("tbinom_taylor_scaled", {"n": 5, "r": 2, "k": 2}),
        ("tbinom_h4_scaling", {"n": 4, "r": 2}),
        ("tbinom_product_vs_recurrence", {"n": 6, "r": 3}),
        ("scalar_part", {"n": 4, "r": 2}),
        ("h_explicit_2", {"n": 3, "degree": 3}),
        ("beta2_h3", {"n": 3, "degree": 3}),
        ("ord1_matches", {"n": 3, "r": 2, "degree": 3}),
        ("ord2_matches", {"n": 3, "r": 3, "degree": 3}),
        ("ord3_matches", {"n": 3, "r": 1, "degree": 3}),
        ("ord3_raw_eq_dunkl", {"n": 3, "r": 2, "degree": 3}),
        ("ord5_beta1", {"n": 3, "r": 2, "degree": 3}),
        ("ord5_beta3", {"n": 3, "r": 2, "degree": 3}),
        ("h_commutator", {"n": 3, "i": 2, "j": 3, "degree": 3}),
        ("macdonald_commutator", {"n": 3, "r": 1, "s": 2, "degree": 3}),
        ("orderwise_commutator", {"n": 3, "r": 1, "s": 2, "i": 2, "j": 3, "degree": 3}),
        ("eq1_shift_form", {"n": 2, "K": 3}),
        ("type1_matches", {"n": 6, "r": 3, "degree": 1}),
    ]
    for name, params in cases:
        v = verify_identity(name, **params)
        assert v.passed, (name, params, v.residual)


def test_h4_scaling_records_half_exponent():
    v = verify_identity("tbinom_h4_scaling", n=5, r=3)
    assert v.passed
    assert v.params["scaling_match"] == "r(r-1)/2"
    both = verify_identity("tbinom_h4_scaling", n=5, r=1)
    assert both.params["scaling_match"] == "both"


def test_order4_commutator_fails_honestly():
    """The order-4 coefficient does not commute with the order-2 one at
    n = 2; the verdict must expose the exact residual."""
    v = check_orderwise_commutator(2, 1, 1, 4, 2, degree=4, K=4)
    assert not v.passed
    assert v.residual["kind"] == "matrix"
    cells = v.residual["cells"]
    assert cells and any("b" in c["value"] for c in cells)


def test_verdict_reproducible():
    a = verify_identity("ord2_matches", n=3, r=2, degree=3)
    b = verify_identity("ord2_matches", n=3, r=2, degree=3)
    assert (a.identity, a.params, a.status, a.residual) == (
        b.identity,
        b.params,
        b.status,
        b.residual,
    )
    assert emit_report([a], "json") == emit_report([b], "json")


def test_report_formats():
    v = verify_identity("scalar_part", n=3, r=1)
    text = emit_report([v], "text")
    assert text.startswith("PASS scalar_part n=3 r=1")
    js = emit_report([v], "json")
    assert '"status": "pass"' in js
    assert '"residual": "zero"' in js
    assert '"runtime_ms": 0' in js
    assert emit_report([], "json") == "[]\n"


def test_failing_report_embeds_residual():
    v = check_orderwise_commutator(2, 1, 1, 4, 2, degree=2, K=4)
    js = emit_report([v], "json")
    assert '"status": "fail"' in js
    assert '"kind": "matrix"' in js


def test_suite_plans_deterministic_and_filterable():
    plan = suite_plan("order1", nmax=3, degree=2)
    assert plan == suite_plan("order1", nmax=3, degree=2)
    names = {nm for nm, _ in plan}
    assert names == {"ord1_matches", "eq1_shift_form"}
    everything = suite_plan("all", nmax=2, degree=2)
    assert all(nm in REGISTRY for nm, _ in everything)


def test_types_suite_plan_grid():
    plan = suite_plan("types")
    grids = {(p["n"], p["r"]) for _, p in plan}
    assert grids == {(6, 3), (7, 3), (7, 4)}
    assert len(plan) == 18
