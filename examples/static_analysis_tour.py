#!/usr/bin/env python3
"""Tour of the static-analysis substrate (the GoldMine replacement).

Parses the Ibex controller re-implementation and shows every static
fact the VeriBug pipeline consumes, all served by the design's frozen
index (`repro.analysis.design_index`): per-statement data, select and
control reads (the VDG's edges), the target's dependency cone, its
static slice, the AST operand contexts of the slice statements and the
combinational-cycle check — plus the structural fingerprint that keys
the session's cross-mutant context-embedding cache, and the semantic
lint report built on the same index.

This is the layer *below* `repro.api.VeriBugSession` (see "API layering"
in docs/architecture.md); designs are loaded through the API facade.

Run:  python examples/static_analysis_tour.py
"""

from repro.analysis import design_index
from repro.api import load_design
from repro.lint import lint_module
from repro.verilog.printer import statement_source

TARGET = "stall"


def main() -> None:
    module = load_design("ibex_controller")
    print(f"design: {module.name}")
    print(f"inputs: {len(module.inputs)}, outputs: {len(module.outputs)}, "
          f"statements: {len(module.statements())}")

    index = design_index(module)

    print("\n== Statement reads (the VDG's edges) ==")
    for stmt in index.statements[:6]:
        reads = index.reads(stmt.stmt_id)
        print(f"  [{stmt.stmt_id:>3}] {reads.target}: data={list(reads.data)}"
              f" select={list(reads.select)} control={list(reads.control)}")
    if len(index.statements) > 6:
        print(f"  ... and {len(index.statements) - 6} more")

    print(f"\n== Dependency cone of {TARGET!r} ==")
    print(f"Dep({TARGET}) = {sorted(index.cone(TARGET))}")

    print(f"\n== Static slice for target {TARGET!r} ==")
    stmt_ids = sorted(index.static_slice(TARGET).stmt_ids)
    print(f"{len(stmt_ids)} statements in the slice:")
    for stmt_id in stmt_ids[:8]:
        print(f"  [{stmt_id:>3}] {statement_source(index.statement(stmt_id))}")
    if len(stmt_ids) > 8:
        print(f"  ... and {len(stmt_ids) - 8} more")

    print("\n== Operand contexts of the first slice statement ==")
    context = index.contexts(TARGET)[stmt_ids[0]]
    for operand, paths in zip(context.operands, context.contexts):
        print(f"  {operand.name}:")
        for path in paths:
            print(f"    {' -> '.join(path)}")

    print("\n== Structural fingerprints (context-embedding cache keys) ==")
    # Operand names never appear in paths, so structurally identical
    # operands — across statements, mutants, even designs — share one
    # fingerprint and therefore one cached PathRNN embedding.
    for op_index, operand in enumerate(context.operands):
        print(f"  {operand.name}: {context.structural_key(op_index)}")

    print("\n== Combinational cycles ==")
    components = index.comb_components()
    print(f"oscillation-capable components: {components or 'none'}")

    print("\n== Semantic lint (repro.lint over the same index) ==")
    # The lint engine reuses the index above (output cones, comb read
    # sites): driver analysis, combinational-cycle detection, latch
    # inference, race checks, width diagnostics, and dead-code analysis
    # all run without ever simulating the design.
    report = lint_module(module, file="ibex_controller.v")
    counts = report.counts()
    print(f"{counts['findings']} finding(s): {counts['error']} error(s), "
          f"{counts['warning']} warning(s), {counts['info']} info")
    for diag in report.findings:
        print(f"  {diag.render()}")


if __name__ == "__main__":
    main()
