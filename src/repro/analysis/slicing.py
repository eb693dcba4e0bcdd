"""Static and dynamic design slicing for a target variable.

Paper §IV-B: the slicing criterion includes a statement in the slice when
its LHS variable is in ``Dep_t`` (the dependency cone of the target), and
program slices whose branches cannot be executed by a given input vector
are excluded.  We obtain the latter directly from the simulator's
execution records: a statement is in the *dynamic* slice of a trace iff it
is in the static slice and actually executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..verilog.ast_nodes import Module, Statement
from ..sim.trace import StatementExecution, Trace
from .index import StaticSlice, design_index


@dataclass
class DynamicSlice:
    """The executed portion of a static slice for one trace.

    Attributes:
        target: The target variable name.
        stmt_ids: Statements of the static slice that executed.
        executions: Their execution records, in trace order.
    """

    target: str
    stmt_ids: set[int] = field(default_factory=set)
    executions: list[StatementExecution] = field(default_factory=list)


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


def compute_dynamic_slice(static_slice: StaticSlice, trace: Trace) -> DynamicSlice:
    """Restrict a static slice to the statements a trace actually executed.

    Intuition from the paper: if a statement is not executed by the input
    vector, it cannot be the cause of a bug symptomatized at the output.
    """
    dynamic = DynamicSlice(target=static_slice.target)
    for execution in trace.executions:
        if execution.stmt_id in static_slice.stmt_ids:
            dynamic.stmt_ids.add(execution.stmt_id)
            dynamic.executions.append(execution)
    return dynamic


def slice_statements(module: Module, static_slice: StaticSlice) -> list[Statement]:
    """The AST statements of a static slice, in stmt_id order."""
    return [
        stmt
        for stmt in design_index(module).statements
        if stmt.stmt_id in static_slice.stmt_ids
    ]
