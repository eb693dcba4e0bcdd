"""Semantic lint: rule-based static analysis over parsed designs.

The lint engine classifies designs *before* the system spends simulator
and model cycles on them, reusing the design index the paper's slicing
reads (:func:`repro.analysis.design_index`).  Findings are ordinary
:class:`repro.diagnostics.Diagnostic` records — the same shape the
ingest detector emits — so ``file:line:col`` reports interleave across
passes.

Rule catalog (six families)::

    driver.multi-driven       error    overlapping writes from 2+ processes
    driver.undriven           warning  read but never driven
    driver.unused             warning  declared/driven but never read
    cycle.comb                error    combinational feedback loop
    latch.inferred            warning  incomplete if/case in comb block
    race.nonblocking-in-comb  warning  '<=' in a combinational block
    race.blocking-in-seq      warning  '=' in a clocked block
    race.cross-block-blocking warning  blocking write read by another block
    width.truncation          warning  RHS wider than assignment target
    width.oversized-constant  warning  compare against an unfittable const
    dead.unobservable         warning  assignment outside every output cone
    dead.constant-branch      warning  constant if-condition/case-subject

Entry points: :func:`lint_module` for one parsed design,
:class:`LintEngine` for custom rule sets, ``repro lint`` on the command
line, and ``ingest_directory(..., lint_policy=...)`` for corpus-wide
lint during ingestion.
"""

from __future__ import annotations

from ..verilog.ast_nodes import Module
from .cycles import CombinationalCycleRule, oscillating_components
from .deadcode import (
    ConstantBranchRule,
    DeadStatementRule,
    unobservable_statement_ids,
)
from .drivers import MultiDrivenRule, UndrivenRule, UnusedRule
from .engine import DriverSite, LintContext, LintEngine, LintReport, Rule
from .latches import LatchInferenceRule, unconditional_assigns
from .races import (
    BlockingInSeqRule,
    CrossBlockBlockingRule,
    NonblockingInCombRule,
)
from .width import OversizedConstantRule, TruncatingAssignmentRule

#: Every built-in rule class, catalog order (family, then severity).
RULE_CLASSES: tuple[type[Rule], ...] = (
    MultiDrivenRule,
    UndrivenRule,
    UnusedRule,
    CombinationalCycleRule,
    LatchInferenceRule,
    NonblockingInCombRule,
    BlockingInSeqRule,
    CrossBlockBlockingRule,
    TruncatingAssignmentRule,
    OversizedConstantRule,
    DeadStatementRule,
    ConstantBranchRule,
)

#: Rule id -> rule class, for docs and rule filtering.
RULE_CATALOG: dict[str, type[Rule]] = {cls.id: cls for cls in RULE_CLASSES}


def default_rules() -> list[Rule]:
    """Fresh instances of every built-in rule."""
    return [cls() for cls in RULE_CLASSES]


def lint_module(module: Module, file: str = "<design>") -> LintReport:
    """Run the full rule catalog over one parsed design."""
    return LintEngine().run(module, file=file)


__all__ = [
    "BlockingInSeqRule",
    "CombinationalCycleRule",
    "ConstantBranchRule",
    "CrossBlockBlockingRule",
    "DeadStatementRule",
    "DriverSite",
    "LatchInferenceRule",
    "LintContext",
    "LintEngine",
    "LintReport",
    "MultiDrivenRule",
    "NonblockingInCombRule",
    "OversizedConstantRule",
    "RULE_CATALOG",
    "RULE_CLASSES",
    "Rule",
    "TruncatingAssignmentRule",
    "UndrivenRule",
    "UnusedRule",
    "default_rules",
    "lint_module",
    "oscillating_components",
    "unconditional_assigns",
    "unobservable_statement_ids",
]
