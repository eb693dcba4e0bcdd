"""Dead-code rules: logic that can never reach an output.

* ``dead.unobservable`` — an assignment whose target is outside *every*
  output's dependency cone
  (:attr:`repro.analysis.DesignIndex.dead_statement_ids`).  Such
  statements can never influence observable behavior: simulating them
  is wasted work, and bugs injected into them are
  unkillable — the mutation engine consults exactly this analysis
  (:func:`repro.datagen.mutation.dead_statement_ids`) to keep campaigns
  off them.
* ``dead.constant-branch`` — an ``if`` condition or ``case`` subject
  built only from literals and parameters; one branch arm can never
  execute (or the branch is vacuous), usually a leftover from manual
  specialization.

Designs with no output ports are skipped by ``dead.unobservable``
(everything would be trivially dead); ingestion rejects such designs
before lint runs anyway.
"""

from __future__ import annotations

from typing import Iterable

from ..diagnostics import Diagnostic
from ..verilog.ast_nodes import Case, If, Module
from .engine import LintContext, Rule, iter_assignments


def unobservable_statement_ids(module: Module) -> frozenset[int]:
    """Ids of assignment statements outside every output's cone.

    Read off the module's design index; empty for designs without
    outputs.
    """
    from ..analysis.index import design_index

    return design_index(module).dead_statement_ids


class DeadStatementRule(Rule):
    id = "dead.unobservable"
    severity = "warning"
    description = "assignment that cannot influence any output"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        module = ctx.module
        if not module.outputs:
            return
        observable = ctx.observable_vars
        for stmt, _clocked, _procedural in iter_assignments(module):
            if stmt.target.name in observable:
                continue
            yield self.finding(
                ctx,
                stmt.line,
                stmt.col,
                f"assignment to {stmt.target.name!r} cannot influence any"
                " output (dead code)",
            )


class ConstantBranchRule(Rule):
    id = "dead.constant-branch"
    severity = "warning"
    description = "branch condition that is compile-time constant"

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        for node in ctx.module.walk():
            if isinstance(node, If):
                value = ctx.const_value(node.cond)
                if value is None:
                    continue
                verdict = "true" if value else "false"
                arm = "else" if value else "then"
                suffix = (
                    f"; the {arm} arm is dead"
                    if value == 0 or node.else_stmt is not None
                    else ""
                )
                yield self.finding(
                    ctx,
                    node.line,
                    node.col,
                    f"'if' condition is constantly {verdict}{suffix}",
                )
            elif isinstance(node, Case):
                value = ctx.const_value(node.subject)
                if value is None:
                    continue
                yield self.finding(
                    ctx,
                    node.line,
                    node.col,
                    f"'{node.kind}' subject is constant ({value}); at most"
                    " one arm can ever execute",
                )
