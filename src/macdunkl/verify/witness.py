"""Search for a noncommuting pair among the h-expansion coefficients.

The expansion coefficients of orders up to three commute; for order four
and above no closed Dunkl form exists and commutativity with the lower
orders can fail.  The search scans a deterministic grid, ascending in
(n, i+j, i, r, s, weight of the probe partition), and returns the first
pair whose commutator matrix is nonzero, together with the exact residual
column; re-evaluating the witness reproduces the residual.
"""

from __future__ import annotations

from ..errors import DomainError
from ..operators import extract_order
from ..rings import render_scalar


class WitnessReport:
    __slots__ = ("grid", "found", "witness")

    def __init__(self, grid: str, found: bool, witness: dict | None = None):
        self.grid = grid
        self.found = found
        self.witness = witness

    def to_json_dict(self):
        out = {"grid": self.grid, "found": self.found}
        if self.witness is not None:
            w = dict(self.witness)
            w["lam"] = list(w["lam"])
            w["residual"] = [
                {"m": list(mu), "value": val} for mu, val in w["residual"]
            ]
            out["witness"] = w
        else:
            out["witness"] = None
        return out


def _commutator_slices(n, r, s, i, j, degree, order):
    a = extract_order(n, r, i, degree, order)
    b = extract_order(n, s, j, degree, order)
    return a.commutator_with(b)


def _first_nonzero_column(mat):
    cols = {}
    for (mu, lam), v in mat.entries.items():
        cols.setdefault(lam, {})[mu] = v
    if not cols:
        return None
    lam = min(cols, key=lambda p: (sum(p), tuple(-x for x in p)))
    col = cols[lam]
    cells = sorted(col.items(), key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0])))
    return lam, [(mu, render_scalar(v)) for mu, v in cells]


def noncommutativity_witness(
    n_max: int, order_max: int = 4, basis_degree: int = 4, jet_order: int | None = None
) -> WitnessReport:
    """First commutator failure on the grid i in 4..order_max, j in {2, 3}."""
    if order_max < 4:
        raise DomainError("the search needs order_max >= 4")
    if basis_degree < 1:
        raise DomainError("degree must be at least 1")
    if n_max < 2:
        raise DomainError("the search needs n_max >= 2")
    if jet_order is None:
        jet_order = order_max
    if jet_order < order_max:
        raise DomainError("jet order must cover the searched orders")
    grid = (
        f"n <= {n_max}, i in 4..{order_max}, j in (2, 3), all 1 <= r, s <= n, "
        f"basis weight <= {basis_degree}, jet order {jet_order}"
    )
    pairs = sorted(
        ((i, j) for i in range(4, order_max + 1) for j in (2, 3)),
        key=lambda p: (p[0] + p[1], p[0], p[1]),
    )
    for n in range(2, n_max + 1):
        for i, j in pairs:
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    mat = _commutator_slices(n, r, s, i, j, basis_degree, jet_order)
                    hit = _first_nonzero_column(mat)
                    if hit is not None:
                        lam, cells = hit
                        return WitnessReport(
                            grid,
                            True,
                            {
                                "n": n,
                                "r": r,
                                "s": s,
                                "i": i,
                                "j": j,
                                "lam": lam,
                                "residual": cells,
                            },
                        )
    return WitnessReport(grid, False)


def reevaluate_witness(report: WitnessReport, basis_degree: int = 4, jet_order: int = 4):
    """Recompute the residual column stored in a witness report."""
    if not report.found:
        raise DomainError("nothing to re-evaluate: no witness found")
    w = report.witness
    mat = _commutator_slices(
        w["n"], w["r"], w["s"], w["i"], w["j"], basis_degree, jet_order
    )
    lam = tuple(w["lam"])
    cells = sorted(
        ((mu, v) for (mu, c), v in mat.entries.items() if c == lam),
        key=lambda kv: (sum(kv[0]), tuple(-x for x in kv[0])),
    )
    return [(mu, render_scalar(v)) for mu, v in cells]
