"""Triangular eigenfunction solver for the degree-two Dunkl power sum.

On each weight block of the m-basis (listed lex-descending, which refines
dominance) the matrix of H_2 is triangular, so the monic eigenvectors are
obtained by back-substitution.  The solver works at a rational
specialization of the coupling b, requires the block eigenvalues to be
pairwise distinct there, and post-checks every vector against H_3, whose
simultaneous eigenvectors they must be.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import DegenerateSpectrumError, DomainError
from ..multipoly import Ring, dominates, partitions_of
from ..operators import OperatorMatrix, h_op, operator_matrix
from ..rings import qnorm

RB = Ring.uni("b")


@lru_cache(maxsize=None)
def _h_matrix_block(k: int, n: int, weight: int) -> OperatorMatrix:
    basis = tuple(partitions_of(weight, n))
    return operator_matrix(h_op(k, n, RB), basis)


def _evaluate_block(mat: OperatorMatrix, beta_value: Fraction):
    return {key: qnorm(v.evaluate(beta_value)) for key, v in mat.entries.items()}


def jack_solve(n: int, max_degree: int, beta_value):
    """Monic joint eigenvectors of H_2 and H_3 for weights 1..max_degree.

    Returns a list of (partition, coords) with coords a
    {partition: value} map normalized so the leading coordinate is 1.
    Raises DegenerateSpectrumError when two partitions of the same weight
    share an H_2 eigenvalue at beta_value.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    if max_degree < 1:
        raise DomainError("max_degree must be at least 1")
    beta_value = Fraction(beta_value)
    out = []
    for w in range(1, max_degree + 1):
        basis = tuple(partitions_of(w, n))
        if not basis:
            continue
        m2 = _evaluate_block(_h_matrix_block(2, n, w), beta_value)
        m3 = _evaluate_block(_h_matrix_block(3, n, w), beta_value)
        eig = {lam: m2.get((lam, lam), 0) for lam in basis}
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                if eig[basis[a]] == eig[basis[b]]:
                    raise DegenerateSpectrumError(
                        f"H_2 eigenvalues collide at b = {beta_value}: "
                        f"{list(basis[a])} and {list(basis[b])}",
                        (basis[a], basis[b]),
                    )
        for pos, lam in enumerate(basis):
            coords = {lam: Fraction(1)}
            for mu in basis[pos + 1:]:
                acc = Fraction(0)
                for nu, c in coords.items():
                    acc += Fraction(m2.get((mu, nu), 0)) * c
                if acc:
                    coords[mu] = acc / (eig[lam] - eig[mu])
            coords = {k: v for k, v in coords.items() if v}
            _post_check(lam, coords, m2, m3, basis)
            out.append((lam, coords))
    return out


def _apply_block(mat_entries, coords, basis):
    out = {}
    for nu, c in coords.items():
        for mu in basis:
            v = mat_entries.get((mu, nu))
            if v:
                out[mu] = out.get(mu, Fraction(0)) + Fraction(v) * c
    return {k: v for k, v in out.items() if v}


def _post_check(lam, coords, m2, m3, basis):
    for mu in coords:
        if not dominates(lam, mu):
            raise DomainError(
                f"solver output is not dominance-triangular: m{list(mu)} "
                f"appears in the vector of {list(lam)}"
            )
    img2 = _apply_block(m2, coords, basis)
    e2 = img2.get(lam, Fraction(0))
    if img2 != {k: e2 * v for k, v in coords.items() if e2 * v}:
        raise DomainError(f"H_2 eigenvector post-check failed at {list(lam)}")
    img3 = _apply_block(m3, coords, basis)
    e3 = img3.get(lam, Fraction(0))
    if img3 != {k: e3 * v for k, v in coords.items() if e3 * v}:
        raise DomainError(f"H_3 eigenvector post-check failed at {list(lam)}")
