"""Variable Dependency Graph (VDG) construction.

The VDG summarizes control and data dependencies among design variables by
abstracting away operation details (paper §II).  Nodes are signal names;
an edge ``u -> v`` means the value of ``v`` depends on ``u``:

* **data** edge: ``u`` appears in the RHS of an assignment to ``v``,
* **control** edge: ``u`` appears in a branch condition (``if`` guard or
  ``case`` subject/label) that governs an assignment to ``v``.

Edges carry an ``etype`` attribute in {"data", "control"}; when both
dependence kinds exist between a pair the edge is labeled "data+control".
"""

from __future__ import annotations

import networkx as nx

from ..verilog.ast_nodes import Module
from .index import design_index


def build_vdg(module: Module) -> nx.DiGraph:
    """Build the variable dependency graph of a module.

    A labeled view of the design index's statement reads
    (:class:`~repro.analysis.index.DesignIndex`); slicing itself runs
    on the index's plain adjacency and never builds this graph.

    Returns:
        A directed graph whose nodes are signal names and whose edges are
        labeled with ``etype`` ("data", "control", or "data+control").
    """
    graph = nx.DiGraph(name=f"vdg:{module.name}")
    for name in module.decls:
        graph.add_node(name)
    index = design_index(module)
    for stmt in index.statements:
        reads = index.reads(stmt.stmt_id)
        for src in reads.data + reads.select:
            _add_edge(graph, src, reads.target, "data")
        for src in reads.control:
            _add_edge(graph, src, reads.target, "control")
    return graph


def _add_edge(graph: nx.DiGraph, src: str, dst: str, etype: str) -> None:
    if src not in graph or dst not in graph:
        # Parameters referenced in expressions are constants, not variables.
        return
    if graph.has_edge(src, dst):
        existing = graph.edges[src, dst]["etype"]
        if etype not in existing:
            graph.edges[src, dst]["etype"] = "data+control"
    else:
        graph.add_edge(src, dst, etype=etype)


def dependency_cone(vdg: nx.DiGraph, target: str) -> set[str]:
    """Compute ``Dep_t``: every variable the target transitively depends on.

    Implemented, as in the paper, by reversing the VDG edges and running a
    DFS from the target node (paper §IV-B "Dependence analysis").  The
    target itself is included in the returned set.

    Raises:
        ValueError: If ``target`` is not a node of the VDG; the message
            names the missing signal and lists the available ones.
    """
    if target not in vdg:
        available = ", ".join(sorted(map(str, vdg.nodes))) or "(none)"
        raise ValueError(
            f"unknown dependency-cone target {target!r}: not a design"
            f" variable of this VDG (available: {available})"
        )
    reversed_vdg = vdg.reverse(copy=False)
    visited = {target}
    stack = [target]
    while stack:
        node = stack.pop()
        for succ in reversed_vdg.successors(node):
            if succ not in visited:
                visited.add(succ)
                stack.append(succ)
    return visited
