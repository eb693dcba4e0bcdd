"""Combinational feedback analysis and the cycle lint rule.

The simulator evaluates combinational processes in order and iterates to
a fixpoint, so a read is only a *cross-pass* dependence when the read
variable is combinationally driven and has not yet been assigned
unconditionally earlier in the same pass of the same process (ordered
blocking-assignment semantics).  A dependence cycle that contains a
cross-pass edge means the fixpoint may not exist — the design can
oscillate.  The design index records that dependence structure as
combinational read sites (:meth:`repro.analysis.DesignIndex.comb_components`);
``cycle.comb`` reports each oscillation-capable cycle, and the mutation
engine's :func:`repro.datagen.mutation.creates_combinational_cycle`
rejects mutants on exactly the same analysis.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.index import design_index
from ..diagnostics import Diagnostic
from ..verilog.ast_nodes import Module
from .engine import LintContext, Rule


def oscillating_components(module: Module) -> list[list[str]]:
    """Signal groups forming oscillation-capable combinational cycles.

    Each returned group is the sorted signal set of one strongly
    connected component of the combinational read graph that contains a
    cross-pass edge (including single-signal self-loops).
    """
    return design_index(module).comb_components()


class CombinationalCycleRule(Rule):
    id = "cycle.comb"
    severity = "error"
    description = "combinational feedback loop (simulation may oscillate)"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        module = ctx.module
        for group in oscillating_components(module):
            # Anchor the finding at the first driver of the cycle's
            # lexically first signal.
            line, col = 1, 1
            for signal in group:
                sites = ctx.drivers.get(signal)
                if sites:
                    line, col = sites[0].stmt.line, sites[0].stmt.col
                    break
            member = ", ".join(group)
            yield self.finding(
                ctx,
                line,
                col,
                f"combinational cycle through {member}"
                " (fixpoint may oscillate)",
            )
