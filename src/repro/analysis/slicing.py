"""Static design slicing for a target variable.

Paper §IV-B: the slicing criterion includes a statement in the slice when
its LHS variable is in ``Dep_t`` (the dependency cone of the target).
Statements a trace never executes drop out downstream, where the
localizer reads only the recorded executions of slice statements.
"""

from __future__ import annotations

from ..verilog.ast_nodes import Module, Statement
from .index import StaticSlice, design_index


def compute_static_slice(module: Module, target: str) -> StaticSlice:
    """Slice a design statically for a target variable.

    Served by the module's :class:`~repro.analysis.index.DesignIndex`:
    one BFS over the VDG adjacency per target, memoized.

    Args:
        module: The parsed design.
        target: Target variable (usually an output).

    Returns:
        The :class:`StaticSlice` with the dependency cone and statement
        ids (frozensets, shared between calls).
    """
    return design_index(module).static_slice(target)


def slice_statements(module: Module, static_slice: StaticSlice) -> list[Statement]:
    """The AST statements of a static slice, in stmt_id order."""
    return [
        stmt
        for stmt in design_index(module).statements
        if stmt.stmt_id in static_slice.stmt_ids
    ]
