"""Exact operator calculus for the h-expansion of Macdonald operators.

The library builds Macdonald operators, Dunkl operators and t-binomials
over exact coefficient rings, expands the Macdonald operators in h under
q = exp(h), t = exp(b*h), and machine-verifies the closed-form identities
relating the two operator families, reporting exact residuals on failure.
"""

from .errors import (
    DegenerateSpectrumError,
    DomainError,
    InexactDivisionError,
    NonSymmetricError,
)
from .rings import BetaPoly, binom, binom_ff, exp_sum_slice
from .multipoly import (
    MultiPoly,
    Ring,
    dominates,
    exact_div,
    is_symmetric,
    monomial_symmetric,
    partitions_of,
    partitions_upto,
    to_msym_coords,
    vandermonde,
)
from .operators import (
    LinearOperator,
    OperatorMatrix,
    dunkl_apply,
    extract_order,
    h_op_apply,
    macdonald_specialized,
    operator_matrix,
    qshift_apply,
)

__version__ = "0.1.0"

__all__ = [
    "BetaPoly",
    "MultiPoly",
    "Ring",
    "LinearOperator",
    "OperatorMatrix",
    "binom",
    "binom_ff",
    "exp_sum_slice",
    "dunkl_apply",
    "h_op_apply",
    "extract_order",
    "macdonald_specialized",
    "operator_matrix",
    "qshift_apply",
    "exact_div",
    "monomial_symmetric",
    "to_msym_coords",
    "partitions_of",
    "partitions_upto",
    "dominates",
    "is_symmetric",
    "vandermonde",
    "DomainError",
    "InexactDivisionError",
    "NonSymmetricError",
    "DegenerateSpectrumError",
]
