"""Triangular eigenfunction solver for the degree-two Dunkl power sum.

The matrices of H_2 and H_3 are the ``primitive_matrix`` entries on
``window(max_degree, n)`` that the explicit-form checks verify.  On each
weight block of that window (listed lex-descending, which refines
dominance) the matrix of H_2 is triangular, so the monic eigenvectors are
obtained by back-substitution.  The solver works at a rational
specialization of the coupling b, requires the block eigenvalues to be
pairwise distinct there, and post-checks every vector against H_2 and
H_3, whose simultaneous eigenvectors they must be.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from ..errors import DegenerateSpectrumError, DomainError
from ..multipoly import dominates
from ..operators import OperatorMatrix, h_op, primitive_matrix, window
from ..rings import qnorm


def _evaluate(mat: OperatorMatrix, beta_value: Fraction):
    return {key: qnorm(v.evaluate(beta_value)) for key, v in mat.entries.items()}


def jack_solve(n: int, max_degree: int, beta_value):
    """Monic joint eigenvectors of H_2 and H_3 for weights 1..max_degree.

    Returns a list of (partition, coords) with coords a
    {partition: value} map normalized so the leading coordinate is 1.
    ``window`` refuses n < 1 and max_degree < 1.  Raises
    DegenerateSpectrumError when two partitions of the same weight share
    an H_2 eigenvalue at beta_value.
    """
    beta_value = Fraction(beta_value)
    full = window(max_degree, n)
    m2, m3 = (
        _evaluate(primitive_matrix((h_op, k), n, full), beta_value) for k in (2, 3)
    )
    out = []
    for _, block in groupby(full, key=sum):
        basis = tuple(block)
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
            _post_check(lam, coords, (m2, m3), basis)
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


def _post_check(lam, coords, mats, basis):
    for mu in coords:
        if not dominates(lam, mu):
            raise DomainError(
                f"solver output is not dominance-triangular: m{list(mu)} "
                f"appears in the vector of {list(lam)}"
            )
    for k, mat in enumerate(mats, 2):
        img = _apply_block(mat, coords, basis)
        e = img.get(lam, Fraction(0))
        if img != {key: e * v for key, v in coords.items() if e * v}:
            raise DomainError(f"H_{k} eigenvector post-check failed at {list(lam)}")
