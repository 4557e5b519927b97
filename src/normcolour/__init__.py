"""Norm conflict resolution through conflict-graph colouring.

Build a conflict graph over norms, colour it, rank the colour classes with
a policy heuristic, then admit norms — outright, completed into a full
extension, or curtailed so that every norm survives in some form. A
brute-force argumentation oracle and a benchmark harness sit alongside the
algorithms for verification and experiments.
"""
from .colouring import Colouring, dsatur, is_valid_colouring
from .errors import (
    DocumentSyntaxError,
    DuplicateNormId,
    EmptyInput,
    IncompleteColouring,
    InvalidScore,
    NormColourError,
    SchemaError,
    SelfConflict,
    TooLarge,
    TooManyConflicts,
    UnknownColour,
    UnknownNormId,
)
from .graph import ConflictGraph, Norm, NormId, build_graph
from .policies import (
    Policy,
    PolicyKind,
    ScoreMode,
    policy_label,
    rank_colours,
    score_admitted_set,
)
from .resolution import (
    ALGORITHMS,
    CurtailedNorm,
    Resolution,
    colour_curtail,
    colour_curtail_complete,
    colour_resolve,
    colour_resolve_complete,
)

__all__ = [
    "ALGORITHMS",
    "Colouring",
    "ConflictGraph",
    "CurtailedNorm",
    "DocumentSyntaxError",
    "DuplicateNormId",
    "EmptyInput",
    "IncompleteColouring",
    "InvalidScore",
    "Norm",
    "NormColourError",
    "NormId",
    "Policy",
    "PolicyKind",
    "Resolution",
    "SchemaError",
    "ScoreMode",
    "SelfConflict",
    "TooLarge",
    "TooManyConflicts",
    "UnknownColour",
    "UnknownNormId",
    "build_graph",
    "colour_curtail",
    "colour_curtail_complete",
    "colour_resolve",
    "colour_resolve_complete",
    "dsatur",
    "is_valid_colouring",
    "policy_label",
    "rank_colours",
    "score_admitted_set",
]
