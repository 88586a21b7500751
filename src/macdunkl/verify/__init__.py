"""Verification layer: closed-form operators, identity registry, witness
search and the triangular eigenfunction solver."""

from .identities import (
    REGISTRY,
    SUITES,
    Verdict,
    verify_identity,
)
from .jack import jack_solve
from .typesums import (
    type_sum_closed_apply,
    type_sum_raw_apply,
    type_term_count,
)
from .witness import WitnessReport, noncommutativity_witness, reevaluate_witness

__all__ = [
    "Verdict",
    "verify_identity",
    "REGISTRY",
    "SUITES",
    "jack_solve",
    "type_sum_raw_apply",
    "type_sum_closed_apply",
    "type_term_count",
    "WitnessReport",
    "noncommutativity_witness",
    "reevaluate_witness",
]
