"""Command-line surface tests: dispatch, exit codes, stable reports."""

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr
from io import StringIO

import pytest

from macdunkl.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "witness_grid.json")


def run_cli(*argv):
    old = sys.stdout
    sys.stdout = buf = StringIO()
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_expand_example():
    code, out = run_cli("expand", "--n", "2", "--r", "1", "--order", "1", "--degree", "1")
    assert code == 0
    assert "m[1] <- m[1]: 1 + b" in out


def test_verify_identity_pass():
    code, out = run_cli("verify", "--identity", "scalar_part", "--n", "3", "--r", "2")
    assert code == 0
    assert out.startswith("PASS scalar_part")


def test_verify_config_error_is_exit_2():
    code, _ = run_cli("verify", "--identity", "scalar_part", "--n", "3", "--r", "5")
    assert code == 2


def test_unknown_suite_exit_2():
    code, _ = run_cli("verify", "--suite", "nonsense")
    assert code == 2


def test_unknown_flag_exit_2():
    code, _ = run_cli("verify", "--identity", "scalar_part", "--wat", "1")
    assert code == 2


def test_missing_selector_exit_2():
    code, _ = run_cli("verify", "--n", "3")
    assert code == 2


def test_failing_identity_exit_1():
    code, out = run_cli(
        "verify",
        "--identity",
        "orderwise_commutator",
        "--n", "2", "--r", "1", "--s", "1", "--i", "4", "--j", "2",
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["status"] == "fail"
    assert payload[0]["residual"] != "zero"


def test_suite_json_schema():
    code, out = run_cli(
        "verify", "--suite", "dunkl", "--nmax", "2", "--degree", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload
    for item in payload:
        assert set(item) == {
            "identity",
            "params",
            "status",
            "residual",
            "basis_degree",
            "jet_order",
            "seed",
            "runtime_ms",
        }
        assert item["status"] == "pass"
        assert item["residual"] == "zero"
        assert item["runtime_ms"] == 0


def test_empty_suite_json_is_empty_array():
    # the types grid starts at n = 6; capping at 3 leaves nothing to run.  Such a
    # plan is refused: no JSON array, not even [], is written to stdout
    err = StringIO()
    with redirect_stderr(err):
        code, out = run_cli("verify", "--suite", "types", "--nmax", "3", "--json")
    assert code == 2
    assert out == ""
    assert "suite 'types' has no checks with --nmax 3" in err.getvalue()


def test_suite_filter_by_n_and_r():
    code, out = run_cli(
        "verify", "--suite", "order1", "--n", "3", "--r", "2", "--degree", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload
    for item in payload:
        assert item["params"]["n"] == 3
        assert item["params"].get("r", 2) == 2


def test_suite_filter_by_r_reaches_fixed_rank_identities():
    # ord3_display_r1 and dn1_h4_matches fix r = 1; the --r filter must see it
    for suite, n in (("order3", "3"), ("h4", "2")):
        code, out = run_cli(
            "verify", "--suite", suite, "--n", n, "--r", "2", "--degree", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload
        for item in payload:
            assert item["params"]["r"] == 2, item


def test_rank_zero_is_accepted_where_defined():
    # every verdict of the tbinom suite, r = 0 included, can be rerun alone
    assert run_cli("verify", "--identity", "tbinom_taylor", "--n", "3", "--r", "0",
                   "--k", "1")[0] == 0
    # the Macdonald operator itself refuses rank 0
    assert run_cli("verify", "--identity", "ord1_matches", "--n", "3", "--r", "0",
                   "--degree", "1")[0] == 2


def test_witness_expectation_flag():
    code, out = run_cli("witness", "--nmax", "2", "--degree", "2", "--expect", "none")
    assert code == 1
    code, _ = run_cli("witness", "--nmax", "2", "--degree", "2", "--expect", "found")
    assert code == 0


def test_witness_golden_file():
    proc = subprocess.run(
        [sys.executable, "-m", "macdunkl.cli", "witness",
         "--nmax", "4", "--order-max", "4", "--degree", "4", "--K", "4", "--json"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0
    with open(GOLDEN) as fh:
        assert proc.stdout == fh.read()


def test_reports_byte_identical_across_processes():
    args = [
        sys.executable, "-m", "macdunkl.cli", "verify",
        "--suite", "dunkl", "--nmax", "3", "--degree", "2", "--seed", "0", "--json",
    ]
    a = subprocess.run(args, capture_output=True, text=True, timeout=600)
    b = subprocess.run(args, capture_output=True, text=True, timeout=600)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def _cli_digest(*argv, code=0):
    proc = subprocess.run(
        [sys.executable, "-m", "macdunkl.cli", *argv], capture_output=True, timeout=600
    )
    assert proc.returncode == code
    return hashlib.sha256(proc.stdout).hexdigest()


def _all_suite_digest(*flags):
    return _cli_digest("verify", "--suite", "all", *flags, "--json")


def test_small_report_digest_is_pinned():
    # every suite except `types`; guards the exact bytes of a JSON report
    assert _all_suite_digest("--nmax", "3", "--degree", "2") == (
        "0c01faf346fb3370c94f970371c00f2e80e8b79f8a531afbaecff82455ff5efe"
    )


def test_report_digest_through_n5_is_pinned():
    # the Macdonald matrices at n = 4 and 5, which the n <= 3 pin never reaches
    assert _all_suite_digest("--nmax", "5", "--degree", "2") == (
        "00964b90cd69061c24e5388b6c5c1790d1831872039a73cacf567db6e67c28a5"
    )


def test_full_report_digest_is_pinned():
    # the whole report at its defaults: degree 4, where H_3 is largest
    assert _all_suite_digest() == (
        "0b3388a582ffe5f499dc1ab52b7785807c36a30a32a8e42ee0cd8ff712d0944d"
    )


def test_jets_beyond_order_4_are_pinned():
    # no report reaches K > 4: the t-binomial jet at K = 7 and the h^6
    # coefficients of D(4, 2) and D(8, 4)
    assert _cli_digest("tbinom", "--n", "9", "--r", "4", "--K", "7", "--json") == (
        "9346994bef6a4abfa055d41f2e609d10f5bde47403d2ff969e2d013cdced8a3e"
    )
    assert _cli_digest(
        "expand", "--n", "4", "--r", "2", "--order", "6", "--K", "6", "--degree", "3", "--json"
    ) == "d68c3f62829ae4e5ff668f251de8708f9c9c5b4e70e9928e1a4a1f3949deed08"
    # the census size: the h^6 coefficient of D(8, 4) up to degree 6
    assert _cli_digest(
        "expand", "--n", "8", "--r", "4", "--order", "6", "--K", "6", "--degree", "6", "--json"
    ) == "1d1202212c7d52c6ee55c51560df8ee11e2cccfeb84e5c89b19d71e0b7cfbcd9"


def test_commutator_residuals_are_pinned():
    # a failing verdict whose residual prints b-polynomial cells (exit 1),
    # and the witness search over the h^4 slices
    assert _cli_digest(
        "verify", "--identity", "orderwise_commutator", "--n", "3", "--r", "1", "--s", "2",
        "--i", "4", "--j", "2", "--json", code=1,
    ) == "17bac1bae769ae8d8ab9627e299843e48ef0ae605f1911a5ae62ebee305c7c01"
    assert _cli_digest(
        "witness", "--nmax", "4", "--order-max", "4", "--degree", "4", "--json"
    ) == "cdfc915ee7e1c03959e4d717dcfeedd26736b7c639d7ba800024595f365694bc"


def test_jet_order_zero_is_accepted():
    code, out = run_cli("tbinom", "--n", "3", "--r", "1", "--K", "0")
    assert code == 0
    assert "  h^0: 3   closed: 3" in out
    code, out = run_cli("expand", "--n", "3", "--r", "1", "--order", "0", "--K", "0",
                        "--degree", "1")
    assert code == 0
    assert "  m[1] <- m[1]: 3" in out
    err = StringIO()
    with redirect_stderr(err):
        assert run_cli("tbinom", "--n", "3", "--r", "1", "--K", "-1")[0] == 2
    assert "jet order must be non-negative" in err.getvalue()
    err = StringIO()
    with redirect_stderr(err):
        assert run_cli("verify", "--identity", "eq1_shift_form", "--n", "2", "--K", "-1")[0] == 2
    assert "jet order must be non-negative" in err.getvalue()


def test_config_edge_cases_exit_2():
    assert run_cli("jack", "--n", "2", "--degree", "2", "--beta", "-1")[0] == 2
    assert run_cli("jack", "--n", "2", "--degree", "2", "--beta", "x")[0] == 2
    assert run_cli("expand", "--n", "2", "--r", "1", "--order", "5", "--K", "4")[0] == 2
    assert run_cli("tbinom", "--n", "2", "--r", "3")[0] == 2
    assert run_cli("witness", "--nmax", "2", "--order-max", "3")[0] == 2
    assert run_cli("witness", "--degree", "0", "--json")[0] == 2
    assert run_cli("witness", "--nmax", "1", "--json")[0] == 2
    assert run_cli("jack", "--n", "0")[0] == 2
    assert run_cli("jack", "--n", "-1")[0] == 2
    # flags the named identity does not take are refused, not dropped
    assert run_cli("verify", "--identity", "scalar_part", "--n", "3", "--r", "2",
                   "--degree", "7")[0] == 2
    assert run_cli("verify", "--identity", "ord3_display_r1", "--n", "3", "--r", "2")[0] == 2
    assert run_cli("verify", "--identity", "dn1_h4_matches", "--n", "3", "--r", "2")[0] == 2
    # matrix checks refuse an empty window
    assert run_cli("verify", "--identity", "h_explicit_1", "--n", "0")[0] == 2
    assert run_cli("verify", "--identity", "h_commutator", "--n", "0", "--i", "1",
                   "--j", "2")[0] == 2
    assert run_cli("verify", "--identity", "eq1_shift_form", "--n", "0")[0] == 2
    # a bad rank is reported under the flag that gave it
    for argv in (("macdonald_commutator", "--n", "3", "--r", "1", "--s", "0"),
                 ("orderwise_commutator", "--n", "3", "--r", "1", "--s", "0",
                  "--i", "1", "--j", "2")):
        err = StringIO()
        with redirect_stderr(err):
            assert run_cli("verify", "--identity", *argv)[0] == 2
        assert "got s=0" in err.getvalue()
    # a suite plan that the filters leave empty is refused, not run as []
    for argv in (("order3", "--n", "9"), ("types", "--nmax", "5"), ("order1", "--nmax", "1")):
        err = StringIO()
        with redirect_stderr(err):
            assert run_cli("verify", "--suite", *argv)[0] == 2
        assert f"suite '{argv[0]}' has no checks with {' '.join(argv[1:3])}" in err.getvalue()
    # --k is checked by the identity that takes it, not against a jet order
    err = StringIO()
    with redirect_stderr(err):
        assert run_cli("verify", "--identity", "tbinom_taylor", "--n", "3", "--r", "1",
                       "--k", "5")[0] == 2
    assert "closed Taylor coefficients are available for k = 0..4" in err.getvalue()
    # suite mode refuses the flags it has no use for
    assert run_cli("verify", "--suite", "dunkl", "--nmax", "2", "--degree", "1",
                   "--i", "3", "--k", "9", "--K", "9")[0] == 2


def test_out_flag(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        "verify", "--identity", "tbinom_taylor", "--n", "4", "--r", "2", "--k", "2",
        "--json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["status"] == "pass"
