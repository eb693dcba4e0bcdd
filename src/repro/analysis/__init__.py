"""Static analysis substrate: CDFG, VDG, COI, slicing, operand contexts.

The per-design facts slicing, contexts, dead code and cycle checks read
come from one frozen :class:`DesignIndex` per module (:func:`design_index`).

Replaces the GoldMine artifacts the paper consumes (§II).
"""

from .cdfg import build_cdfg, stmt_nodes
from .coi import build_coi_graph, cone_of_influence
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
from .slicing import (
    DynamicSlice,
    StaticSlice,
    compute_dynamic_slice,
    compute_static_slice,
    slice_statements,
)
from .vdg import build_vdg, dependency_cone

__all__ = [
    "DesignIndex",
    "DynamicSlice",
    "LVALUE",
    "OperandFingerprint",
    "OperandInstance",
    "RVALUE",
    "StatementContext",
    "StatementReads",
    "StaticSlice",
    "build_cdfg",
    "build_coi_graph",
    "build_vdg",
    "compute_dynamic_slice",
    "compute_static_slice",
    "cone_of_influence",
    "dependency_cone",
    "design_index",
    "extract_module_contexts",
    "extract_statement_context",
    "slice_statements",
    "stmt_nodes",
]
