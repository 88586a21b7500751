"""Registry and report tests: dispatch, reproducibility, honest failures."""

import inspect
import re
from fractions import Fraction

import pytest

from macdunkl.cli import emit_report, main
from macdunkl.errors import DomainError
from macdunkl.operators import OperatorMatrix, extract_order
from macdunkl.verify.identities import REGISTRY, Verdict, suite_plan, verify_identity
from macdunkl.verify.witness import WitnessReport, _first_nonzero_column, _rendered_column


def test_unknown_identity():
    with pytest.raises(DomainError):
        verify_identity("no_such_thing", n=2)


def test_unknown_parameter_rejected():
    with pytest.raises(DomainError):
        verify_identity("scalar_part", n=3, r=1, bogus=7)


@pytest.mark.parametrize("r", [-1, 0, 5])
def test_ord3_raw_eq_dunkl_refuses_a_rank_outside_1_to_n(r):
    with pytest.raises(DomainError, match=rf"^need 1 <= r <= n, got r={r}, n=4$"):
        verify_identity("ord3_raw_eq_dunkl", n=4, r=r)


@pytest.mark.parametrize("r", [-1, 6, 9])
def test_type_checks_refuse_a_rank_outside_0_to_n(r):
    # both sides would be zero matrices, and the check would pass
    with pytest.raises(DomainError, match=rf"^need 0 <= r <= n, got r={r}, n=5$"):
        verify_identity("type3_matches", n=5, r=r, degree=2)


@pytest.mark.parametrize("degree", [0, -1])
@pytest.mark.parametrize(
    "name,params",
    [
        ("ord1_matches", {"n": 2, "r": 1}),
        ("h_explicit_1", {"n": 2}),
        ("type1_matches", {"n": 6, "r": 3}),
        ("orderwise_commutator", {"n": 2, "r": 1, "s": 2, "i": 1, "j": 2}),
        ("macdonald_commutator", {"n": 2, "r": 1, "s": 2}),
    ],
)
def test_matrix_checks_refuse_an_empty_window(name, params, degree):
    # on an empty window both sides are the zero matrix, and the check would pass
    with pytest.raises(DomainError, match="^degree must be at least 1$"):
        verify_identity(name, **params, degree=degree)


@pytest.mark.parametrize("degree", [0, -1])
def test_extract_order_refuses_an_empty_window(degree):
    with pytest.raises(DomainError, match="^degree must be at least 1$"):
        extract_order(2, 1, 1, degree)


@pytest.mark.parametrize("trials", [0, -1])
def test_shift_form_refuses_zero_trials(trials):
    # with no trial the check compares nothing, and would pass
    with pytest.raises(DomainError, match="^trials must be at least 1$"):
        verify_identity("eq1_shift_form", n=2, trials=trials)


def test_type_checks_take_rank_zero():
    for tid in range(1, 7):
        assert verify_identity(f"type{tid}_matches", n=5, r=0, degree=2).passed


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
    v = verify_identity("orderwise_commutator", n=2, r=1, s=1, i=4, j=2, degree=4, K=4)
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
    v = verify_identity("orderwise_commutator", n=2, r=1, s=1, i=4, j=2, degree=2, K=4)
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


def test_plans_bind_to_check_signatures():
    # runs no checks: every planned entry is a valid call of its check,
    # keeps the values the entry fixes, and names n and r whenever the
    # check takes them
    for name, params in suite_plan("all"):
        _, names, defaults, fixed = REGISTRY[name]
        assert set(params) <= set(names), (name, params)
        assert set(names) - set(defaults) <= set(params), (name, params)
        assert all(params.get(key, value) == value for key, value in fixed.items()), (name, params)
        for key in ("n", "r"):
            if key in names:
                assert key in params, (name, params)


def test_verdict_params_follow_the_signature():
    v = verify_identity("ord3_display_r2", degree=2, n=3)
    assert list(v.params.items()) == [("n", 3), ("r", 2), ("degree", 2), ("K", 4)]
    v = verify_identity("macdonald_commutator", n=2, r=1, s=2, degree=1)
    assert list(v.params) == ["n", "r", "s", "seed", "degree", "qt"]
    assert len(v.params["qt"]) == 3


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_parameters_match_the_signature(name):
    fn, names, defaults, fixed = REGISTRY[name]
    sig = inspect.signature(fn)
    assert names == tuple(sig.parameters)
    assert defaults == {
        key: p.default for key, p in sig.parameters.items() if p.default is not p.empty
    }
    assert fixed == getattr(fn, "keywords", {})


# (identity, params, the same refusal through the CLI, message)
REFUSALS = [
    (
        "scalar_part",
        {"n": 3, "r": 1, "s": 1},
        ["--n", "3", "--r", "1", "--s", "1"],
        r"^scalar_part takes \('n', 'r'\): got an unexpected keyword argument 's'$",
    ),
    (
        "ord1_matches",
        {"n": 3, "degree": 2},
        ["--n", "3", "--degree", "2"],
        r"^ord1_matches takes \('n', 'r', 'degree', 'K'\): "
        r"missing a required argument: 'r'$",
    ),
    (
        "ord3_display_r1",
        {"n": 3, "r": 2},
        ["--n", "3", "--r", "2"],
        r"^ord3_display_r1 fixes r=1, got r=2$",
    ),
]


# (identity, params, its CLI flags besides --n 3, the end of the refusal)
SELF_COMMUTATORS = [
    ("h_commutator", {"n": 3, "i": 3, "j": 3}, ["--i", "3", "--j", "3"], r"i != j, got both 3"),
    (
        "macdonald_commutator",
        {"n": 3, "r": 2, "s": 2},
        ["--r", "2", "--s", "2"],
        r"r != s, got both 2",
    ),
    (
        "orderwise_commutator",
        {"n": 3, "r": 2, "s": 2, "i": 1, "j": 1},
        ["--r", "2", "--s", "2", "--i", "1", "--j", "1"],
        r"\(r, i\) != \(s, j\), got both \(2, 1\)",
    ),
]


@pytest.mark.parametrize(
    "name, params, flags, reason", SELF_COMMUTATORS, ids=[c[0] for c in SELF_COMMUTATORS]
)
def test_self_commutators_are_refused(name, params, flags, reason, capsys):
    # [A, A] = 0 for every A, so such a check would pass whatever A is
    message = rf"^a commutator of an operator with itself is zero: need {reason}$"
    with pytest.raises(DomainError, match=message):
        verify_identity(name, **params)
    assert main(["verify", "--identity", name, "--n", "3", *flags]) == 2
    assert re.match(message, capsys.readouterr().err.removeprefix("error: ").rstrip())


@pytest.mark.parametrize("name, params, flags, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_binding_refusals(name, params, flags, message, capsys):
    with pytest.raises(DomainError, match=message):
        verify_identity(name, **params)
    assert main(["verify", "--identity", name, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.match(message, err.removeprefix("error: ").rstrip())


def test_verdict_defaults():
    v = Verdict("scalar_part", {"n": 3, "r": 2}, "pass")
    assert v.residual is None and v.runtime_ms == 0 and v.passed
    assert not Verdict("scalar_part", {}, "fail", {"kind": "scalar"}, 5).passed


def test_witness_report_json():
    found = WitnessReport(
        "n <= 2",
        True,
        {"n": 2, "r": 1, "s": 2, "i": 4, "j": 2, "lam": (2,), "residual": [((1, 1), "1/2")]},
    )
    assert found.to_json_dict() == {
        "grid": "n <= 2",
        "found": True,
        "witness": {
            "n": 2, "r": 1, "s": 2, "i": 4, "j": 2, "lam": [2], "residual": [{"m": [1, 1], "value": "1/2"}],
        },
    }
    assert found.witness["lam"] == (2,)
    assert WitnessReport("n <= 2", False).to_json_dict() == {
        "grid": "n <= 2", "found": False, "witness": None
    }


def test_witness_column_is_the_lightest_and_reads_by_weight_then_decreasing_lex():
    """The search reports the column of least weight, the larger partition
    first among equal weights, and both functions render its cells in
    that order."""
    entries = {
        ((2, 1), (1, 1, 1)): 7,
        ((1, 1), (1, 1)): 2,
        ((1, 1, 1), (2, 1)): 5,
        ((1, 1), (2,)): Fraction(1, 3),
        ((2,), (2,)): -1,
    }
    mat = OperatorMatrix(3, None, (), entries)
    cells = [((2,), "-1"), ((1, 1), "1/3")]
    assert _first_nonzero_column(mat) == ((2,), cells)
    assert _rendered_column(mat, (2,)) == cells
    assert _rendered_column(mat, (1, 1, 1)) == [((2, 1), "7")]
    assert _first_nonzero_column(OperatorMatrix(3, None, (), {})) is None


def test_types_suite_plan_grid():
    plan = suite_plan("types")
    grids = {(p["n"], p["r"]) for _, p in plan}
    assert grids == {(6, 3), (7, 3), (7, 4)}
    assert len(plan) == 18
