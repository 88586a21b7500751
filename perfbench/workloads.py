"""The benchmark's workloads: which checks each one runs, and why.

Sizes are chosen so that one round (a fresh interpreter doing a cold pass
and warm passes) takes 5-18 s on a 2-core machine, depending on the
host's load, and a run holds at least two rounds; see README.md.
"""

from __future__ import annotations

JET_SUITES = ("order1", "order2", "order3")
JET_NMAX = 5
JET_DEGREE = 2

TYPE_N = 6
# At n = 6, r = 3 is the only r for which all six families are non-empty.
TYPE_R = 3
TYPE_DEGREE = 2

REGISTRY_SUITES = ("tbinom", "dunkl", "commutators")
REGISTRY_NMAX = 6

JET_ORDER = 4

WORKLOADS = {
    "jet_expansion": "orders h^1..h^3 on n <= 5: cold jet_matrix builds over the jet ring dominate, no type sums",
    "type_families": "six type families at n = 6, r = 3: division by the 720-term Vandermonde, no jets",
    "registry_sweep": "t-binomials, Dunkl forms and commutators: many small multipoly calls, jets only for n <= 4",
}


def plan(workload: str, seed: int):
    """The (identity, params) list one pass of the workload verifies."""
    from macdunkl.verify.identities import suite_plan

    if workload == "jet_expansion":
        return [
            item
            for suite in JET_SUITES
            for item in suite_plan(suite, JET_NMAX, JET_DEGREE, seed, JET_ORDER)
        ]
    if workload == "type_families":
        return [
            (f"type{tid}_matches", {"n": TYPE_N, "r": TYPE_R, "degree": TYPE_DEGREE})
            for tid in range(1, 7)
        ]
    if workload == "registry_sweep":
        return [
            item
            for suite in REGISTRY_SUITES
            for item in suite_plan(suite, REGISTRY_NMAX, None, seed, JET_ORDER)
        ]
    raise ValueError(f"unknown workload {workload!r}")
