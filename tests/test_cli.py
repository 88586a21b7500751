"""Command-line surface tests: dispatch, exit codes, stable reports."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from macdunkl.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "witness_grid.json")


def run_cli(*argv):
    from io import StringIO

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
    # the types grid starts at n = 6; capping at 3 leaves nothing to run
    code, out = run_cli("verify", "--suite", "types", "--nmax", "3", "--json")
    assert code == 0
    assert out == "[]\n"


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


def test_small_report_digest_is_pinned():
    # every suite except `types`; guards the exact bytes of a JSON report
    proc = subprocess.run(
        [sys.executable, "-m", "macdunkl.cli", "verify",
         "--suite", "all", "--nmax", "3", "--degree", "2", "--json"],
        capture_output=True, timeout=600,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "0c01faf346fb3370c94f970371c00f2e80e8b79f8a531afbaecff82455ff5efe"
    )


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


def test_out_flag(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        "verify", "--identity", "tbinom_taylor", "--n", "4", "--r", "2", "--k", "2",
        "--json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())[0]["status"] == "pass"
