"""Tests of the benchmark's own checkers, timing and tracer.

    python3 -m pytest perfbench

Each checker must accept the program's output on a small case and reject
it once one entry or value is perturbed.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import round as one_round  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from macdunkl.multipoly import Ring, monomial_symmetric, partitions_upto  # noqa: E402
from macdunkl.operators import h_op, jet_matrix, macdonald_specialized, operator_matrix  # noqa: E402
from macdunkl.tbinom import t_binomial  # noqa: E402
from macdunkl.verify.typesums import type_sum_closed_apply, type_sum_raw_apply  # noqa: E402


def _jet_cells(n, r, degree):
    mat = jet_matrix(n, r, 4, degree)
    cells = {
        cell: {(h, j): c for h, bp in enumerate(v.coeffs) for j, c in bp.coeffs.items()}
        for cell, v in mat.entries.items()
    }
    return mat.basis, cells


def test_jet_checker_accepts_program_output():
    for n, r in ((2, 1), (3, 2), (4, 2)):
        basis, cells = _jet_cells(n, r, 3)
        assert checks.check_jet_matrix(n, r, 4, basis, cells) == []


def test_jet_checker_rejects_perturbed_diagonal():
    basis, cells = _jet_cells(3, 2, 3)
    lam = basis[-1]
    bad = dict(cells)
    bad[(lam, lam)] = dict(cells[(lam, lam)])
    bad[(lam, lam)][(4, 2)] = bad[(lam, lam)].get((4, 2), 0) + Fraction(1, 24)
    assert checks.check_jet_matrix(3, 2, 4, basis, bad)


def test_jet_checker_rejects_entry_outside_dominance():
    basis, cells = _jet_cells(3, 2, 3)
    bad = dict(cells)
    bad[((3,), (1, 1, 1))] = {(1, 0): 1}
    assert checks.check_jet_matrix(3, 2, 4, basis, bad)


def test_macdonald_checker():
    q, t = Fraction(3, 7), Fraction(5, 2)
    basis = tuple(partitions_upto(3, 3))
    mat = operator_matrix(macdonald_specialized(3, 2, q, t), basis)
    assert checks.check_macdonald_matrix(3, 2, q, t, basis, mat.entries) == []
    bad = dict(mat.entries)
    bad[((2, 1), (2, 1))] += Fraction(1, 1000)
    assert checks.check_macdonald_matrix(3, 2, q, t, basis, bad)
    bad = dict(mat.entries)
    bad[((2, 1), (1, 1, 1))] = Fraction(1, 3)
    assert checks.check_macdonald_matrix(3, 2, q, t, basis, bad)


def test_h2_checker():
    basis = tuple(partitions_upto(3, 3))
    mat = operator_matrix(h_op(2, 3, Ring.uni("b")), basis)
    cells = {cell: dict(v.coeffs) for cell, v in mat.entries.items()}
    assert checks.check_h2_matrix(3, basis, cells) == []
    bad = dict(cells)
    bad[((3,), (3,))] = dict(cells[((3,), (3,))])
    bad[((3,), (3,))][1] += 1
    assert checks.check_h2_matrix(3, basis, bad)


def test_t_binomial_checker():
    points = [Fraction(2, 3), Fraction(-7, 5)]
    coeffs = list(t_binomial(6, 3).coeffs)
    assert checks.check_t_binomial(6, 3, coeffs, points) == []
    coeffs[4] += 1
    assert checks.check_t_binomial(6, 3, coeffs, points)


def test_type_checker():
    n, r, tid, lam = 5, 2, 1, (2, 1)
    point = [Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(7, 4), Fraction(-1, 5)]
    f = monomial_symmetric(lam, n, Ring.q())
    raw = checks.evaluate_terms(type_sum_raw_apply(n, r, tid, f).terms, n, point)
    closed = checks.evaluate_terms(type_sum_closed_apply(n, r, tid, f).terms, n, point)
    assert raw != 0
    assert checks.check_type_column(n, r, tid, lam, point, raw, closed) == []
    assert checks.check_type_column(n, r, tid, lam, point, raw + 1, closed)
    assert checks.check_type_column(n, r, tid, lam, point, raw, closed * 2)


def test_calibrations_sample_inside_a_long_step():
    deadline = time.perf_counter() + 4 * one_round.CAL_EVERY_S
    with one_round._Calibrations() as cal:
        while time.perf_counter() < deadline:
            pass
    # one before, at least three from the timer, one at the end
    assert len(cal.samples) >= 5
    assert 0 < cal.spent < 2 * one_round.CAL_EVERY_S


def test_pass_steps_and_scaling():
    plan = [("tbinom_taylor", {"n": 3, "r": 1, "k": 2}), ("scalar_part", {"n": 2, "r": 1})]
    steps, scaled, report = one_round._verify(plan, None)
    assert len(steps) == len(scaled) == len(plan) + 1
    assert all(s > 0 for s in steps) and all(s > 0 for s in scaled)
    assert [row["status"] for row in json.loads(report)] == ["pass", "pass"]
    assert run._pass_seconds([[1.0, 2.0], [3.0, 2.5], [2.0, 9.0]]) == 2.0 + 2.5


def test_tracer_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))

    def body():
        inner()
        time.sleep(0.02)

    tracer.wrap("outer", body)()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 0.015 < tracer.self_s["outer"] < 0.045
    assert tracer.incl_s["outer"] >= tracer.self_s["inner"] + tracer.self_s["outer"] - 1e-9
    assert [span[2] for span in tracer.spans] == ["inner", "outer"]
    assert tracer.spans[0][1] == tracer.spans[1][0]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
