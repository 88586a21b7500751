"""Reads the program's output for the independent checks in checks.py.

Runs after the timed passes of a round, so caches are full: reading a
cached jet matrix costs nothing, while the matrices the registry checks
build and discard are rebuilt here.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks
from macdunkl.multipoly import Ring, monomial_symmetric, partitions_of, partitions_upto
from macdunkl.operators import h_op, jet_matrix, macdonald_specialized, operator_matrix
from macdunkl.tbinom import t_binomial
from macdunkl.verify.typesums import type_sum_closed_apply, type_sum_raw_apply

T_POINTS = 3


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(["perfbench", str(seed), *map(str, labels)]))


def _rational(rng: random.Random) -> Fraction:
    while True:
        value = Fraction(rng.randint(-19, 19), rng.randint(1, 13))
        if value not in (0, 1, -1):
            return value


def _jet_checks(plan):
    count, problems = 0, []
    done = set()
    for name, params in plan:
        if "r" not in params or "K" not in params:
            continue
        key = (params["n"], params["r"], params["K"], params["degree"])
        if key in done:
            continue
        done.add(key)
        mat = jet_matrix(*key)
        cells = {
            cell: {
                (h, j): c for h, bpoly in enumerate(value.coeffs) for j, c in bpoly.coeffs.items()
            }
            for cell, value in mat.entries.items()
        }
        problems += checks.check_jet_matrix(key[0], key[1], key[2], mat.basis, cells)
        count += 1
    return count, problems


def _type_checks(plan, seed):
    count, problems = 0, []
    ring = Ring.q()
    for name, params in plan:
        n, r, degree = params["n"], params["r"], params["degree"]
        tid = int(name[len("type")])
        rng = _rng(seed, name, n, r)
        lam = rng.choice(partitions_of(degree, n))
        point = []
        while len(point) < n:
            x = _rational(rng)
            if x not in point:
                point.append(x)
        f = monomial_symmetric(lam, n, ring)
        raw = checks.evaluate_terms(type_sum_raw_apply(n, r, tid, f).terms, n, point)
        closed = checks.evaluate_terms(type_sum_closed_apply(n, r, tid, f).terms, n, point)
        problems += checks.check_type_column(n, r, tid, lam, point, raw, closed)
        count += 1
    return count, problems


def _registry_checks(plan, seed, rows):
    count, problems = 0, []
    tbinoms, h2_sizes, macdonald = set(), set(), set()
    for (name, params), row in zip(plan, rows):
        if name == "tbinom_product_vs_recurrence":
            tbinoms.add((params["n"], params["r"]))
        elif name == "h_commutator" or name.startswith("h_explicit_"):
            h2_sizes.add((params["n"], params["degree"]))
        elif name == "macdonald_commutator":
            # the (q, t) pairs the program drew from --seed, as it reports them
            for pair in row["params"]["qt"]:
                q, t = (Fraction(part.split("=")[1]) for part in pair.split(","))
                for r in (params["r"], params["s"]):
                    macdonald.add((params["n"], r, q, t, params["degree"]))
    rng = _rng(seed, "tbinom")
    points = [_rational(rng) for _ in range(T_POINTS)]
    for n, r in sorted(tbinoms):
        problems += checks.check_t_binomial(n, r, t_binomial(n, r).coeffs, points)
        count += 1
    for n, degree in sorted(h2_sizes):
        mat = operator_matrix(h_op(2, n, Ring.uni("b")), tuple(partitions_upto(degree, n)))
        cells = {cell: dict(value.coeffs) for cell, value in mat.entries.items()}
        problems += checks.check_h2_matrix(n, mat.basis, cells)
        count += 1
    for n, r, q, t, degree in sorted(macdonald):
        mat = operator_matrix(macdonald_specialized(n, r, q, t), tuple(partitions_upto(degree, n)))
        problems += checks.check_macdonald_matrix(n, r, q, t, mat.basis, mat.entries)
        count += 1
    return count, problems


def run_checks(workload: str, plan, seed: int, rows):
    """(number of objects checked, problems found) for one workload."""
    if workload == "jet_expansion":
        return _jet_checks(plan)
    if workload == "type_families":
        return _type_checks(plan, seed)
    if workload == "registry_sweep":
        return _registry_checks(plan, seed, rows)
    raise ValueError(f"unknown workload {workload!r}")
