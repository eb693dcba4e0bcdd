"""Static analysis substrate: design index, slicing, operand contexts.

The per-design facts slicing, contexts, dead code and cycle checks read
come from one frozen :class:`DesignIndex` per module (:func:`design_index`):
the paper's VDG as plain adjacency, per-statement data and control reads
(the CDFG facts the pipeline uses), dependency cones and static slices.

Replaces the GoldMine artifacts the paper consumes (§II).
"""

from .contexts import (
    LVALUE,
    RVALUE,
    OperandFingerprint,
    OperandInstance,
    StatementContext,
    extract_module_contexts,
    extract_statement_context,
)
from .index import DesignIndex, StatementReads, design_index
from .slicing import StaticSlice, compute_static_slice, slice_statements

__all__ = [
    "DesignIndex",
    "LVALUE",
    "OperandFingerprint",
    "OperandInstance",
    "RVALUE",
    "StatementContext",
    "StatementReads",
    "StaticSlice",
    "compute_static_slice",
    "design_index",
    "extract_module_contexts",
    "extract_statement_context",
    "slice_statements",
]
