"""The lint engine: pluggable semantic rules over a parsed design.

A :class:`Rule` inspects one design through a :class:`LintContext` — a
lazy bundle of the module plus the static-analysis substrate the rules
share (driver map, read map, width resolution, the design index's output
cones) — and yields :class:`~repro.diagnostics.Diagnostic` findings.
:class:`LintEngine` runs a rule set over a module and returns a
:class:`LintReport` with the findings in the stable diagnostic order.

The engine is purely observational: it never modifies the module, and
running it (or not) must not change any simulation or localization
result.  Severity semantics:

* ``error`` — the design's semantics are broken or simulator-hostile
  (multiply-driven signals, combinational cycles); ingestion can be
  configured to reject on these (``lint_policy="reject-errors"``).
* ``warning`` — legal but suspect (inferred latches, blocking/
  nonblocking style races, truncating widths, dead code).
* ``info`` — advisory notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..diagnostics import SEVERITIES, Diagnostic, sort_diagnostics
from ..verilog.ast_nodes import (
    Assignment,
    Block,
    Case,
    Identifier,
    If,
    Module,
    Number,
    Statement,
)


@dataclass(frozen=True)
class DriverSite:
    """One place a signal is written.

    Attributes:
        signal: The written signal name.
        process: Process key — ``("assign", i)`` for the i-th continuous
            assign, ``("always", i)`` for the i-th always block.
        clocked: True when the writing process is edge-triggered.
        blocking: True for blocking writes (continuous assigns count as
            blocking; they have no scheduling phase to race with).
        stmt: The writing statement.
    """

    signal: str
    process: tuple[str, int]
    clocked: bool
    blocking: bool
    stmt: Statement


class LintContext:
    """Everything a rule may inspect, computed lazily and shared.

    One context is built per linted module; rules running under the same
    engine invocation see the same driver/read maps and graphs, so the
    substrate is computed at most once however many rules consume it.
    """

    def __init__(self, module: Module, file: str = "<design>"):
        self.module = module
        self.file = file
        self._drivers: dict[str, list[DriverSite]] | None = None
        self._reads: dict[str, tuple[int, int]] | None = None
        self._evaluator = None

    # ------------------------------------------------------------------
    # Driver / read maps
    # ------------------------------------------------------------------
    @property
    def drivers(self) -> dict[str, list[DriverSite]]:
        """Signal name -> every site that writes it, source order."""
        if self._drivers is None:
            self._drivers = self._collect_drivers()
        return self._drivers

    @property
    def reads(self) -> dict[str, tuple[int, int]]:
        """Signal name -> ``(line, col)`` of its first read.

        A "read" is any appearance outside an assignment target: RHS
        expressions, branch conditions, case subjects and labels, lvalue
        bit/part-select indices, and sensitivity lists.
        """
        if self._reads is None:
            self._reads = self._collect_reads()
        return self._reads

    def _collect_drivers(self) -> dict[str, list[DriverSite]]:
        drivers: dict[str, list[DriverSite]] = {}

        def add(site: DriverSite) -> None:
            drivers.setdefault(site.signal, []).append(site)

        for index, assign in enumerate(self.module.assigns):
            add(
                DriverSite(
                    signal=assign.target.name,
                    process=("assign", index),
                    clocked=False,
                    blocking=True,
                    stmt=assign,
                )
            )
        for index, blk in enumerate(self.module.always_blocks):
            for node in blk.body.walk():
                if isinstance(node, Assignment):
                    add(
                        DriverSite(
                            signal=node.target.name,
                            process=("always", index),
                            clocked=blk.is_clocked,
                            blocking=node.blocking,
                            stmt=node,
                        )
                    )
        return drivers

    def _collect_reads(self) -> dict[str, tuple[int, int]]:
        reads: dict[str, tuple[int, int]] = {}

        def note(name: str, line: int, col: int) -> None:
            if name not in reads and name in self.module.decls:
                reads[name] = (line, col)

        def note_expr(expr) -> None:
            if expr is None:
                return
            for node in expr.walk():
                if isinstance(node, Identifier):
                    note(node.name, node.line, node.col)

        def walk(stmt: Statement) -> None:
            if isinstance(stmt, Block):
                for child in stmt.statements:
                    walk(child)
            elif isinstance(stmt, If):
                note_expr(stmt.cond)
                walk(stmt.then_stmt)
                if stmt.else_stmt is not None:
                    walk(stmt.else_stmt)
            elif isinstance(stmt, Case):
                note_expr(stmt.subject)
                for item in stmt.items:
                    for label in item.labels:
                        note_expr(label)
                    walk(item.body)
            elif isinstance(stmt, Assignment):
                note_expr(stmt.rhs)
                for sub in (stmt.target.index, stmt.target.msb, stmt.target.lsb):
                    note_expr(sub)

        for assign in self.module.assigns:
            note_expr(assign.rhs)
            for sub in (assign.target.index, assign.target.msb, assign.target.lsb):
                note_expr(sub)
        for blk in self.module.always_blocks:
            for item in blk.sens:
                note(item.signal, blk.line, blk.col)
            walk(blk.body)
        return reads

    # ------------------------------------------------------------------
    # Cones / widths
    # ------------------------------------------------------------------
    @property
    def observable_vars(self) -> frozenset[str]:
        """Union of every output's dependency cone (the live signal set).

        Empty for designs with no outputs — rules that reason about
        observability must skip such designs rather than flagging
        everything dead.  Read off the module's design index.
        """
        from ..analysis.index import design_index

        return design_index(self.module).observable

    def const_value(self, expr) -> int | None:
        """Evaluate an expression of literals/parameters, else None."""
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Identifier):
            param = self.module.params.get(expr.name)
            return param.value if param is not None else None
        if not all(
            ident in self.module.params
            for ident in _expr_identifiers(expr)
        ):
            return None
        if self._evaluator is None:
            from ..sim.evaluator import Evaluator

            self._evaluator = Evaluator(self.module)
        try:
            return self._evaluator.eval(expr, {})
        except Exception:  # noqa: BLE001 - any failure means "not constant"
            return None

    def value_width(self, expr) -> int | None:
        """Value-aware self-determined width of an expression.

        Like :meth:`repro.sim.evaluator.Evaluator.width_of`, except that
        unsized literals and parameters take the width of their *value*
        (minimum 1) instead of the 32-bit container — the width a reader
        means, which is what width lints should compare against.
        Returns None when the expression's width cannot be resolved.
        """
        return _value_width(self, expr)


def _expr_identifiers(expr) -> Iterator[str]:
    for node in expr.walk():
        if isinstance(node, Identifier):
            yield node.name


def _value_width(ctx: LintContext, expr) -> int | None:
    from ..verilog.ast_nodes import (
        BinaryOp,
        BitSelect,
        Concat,
        PartSelect,
        Repeat,
        Ternary,
        UnaryOp,
    )

    module = ctx.module
    if isinstance(expr, Identifier):
        decl = module.decls.get(expr.name)
        if decl is not None:
            return decl.width
        param = module.params.get(expr.name)
        if param is not None:
            return max(1, param.value.bit_length())
        return None
    if isinstance(expr, Number):
        if expr.width is not None:
            return expr.width
        return max(1, expr.value.bit_length())
    if isinstance(expr, UnaryOp):
        if expr.op in ("!", "&", "|", "^", "~&", "~|", "~^", "^~"):
            return 1
        return _value_width(ctx, expr.operand)
    if isinstance(expr, BinaryOp):
        if expr.op in ("&&", "||", "==", "!=", "===", "!==", "<", "<=", ">", ">="):
            return 1
        if expr.op in ("<<", ">>", "<<<", ">>>"):
            return _value_width(ctx, expr.left)
        left = _value_width(ctx, expr.left)
        right = _value_width(ctx, expr.right)
        if left is None or right is None:
            return None
        return max(left, right)
    if isinstance(expr, Ternary):
        then = _value_width(ctx, expr.then)
        otherwise = _value_width(ctx, expr.otherwise)
        if then is None or otherwise is None:
            return None
        return max(then, otherwise)
    if isinstance(expr, BitSelect):
        return 1
    if isinstance(expr, PartSelect):
        msb = ctx.const_value(expr.msb)
        lsb = ctx.const_value(expr.lsb)
        if msb is None or lsb is None:
            return None
        return abs(msb - lsb) + 1
    if isinstance(expr, Concat):
        total = 0
        for part in expr.parts:
            # Concat parts are context-determined; unsized literals keep
            # their value width here too (good enough for lint).
            width = _value_width(ctx, part)
            if width is None:
                return None
            total += width
        return total
    if isinstance(expr, Repeat):
        count = ctx.const_value(expr.count)
        width = _value_width(ctx, expr.value)
        if count is None or width is None:
            return None
        return count * width
    return None


def lvalue_width(ctx: LintContext, target) -> int | None:
    """Bit width of an assignment target (whole signal or select)."""
    decl = ctx.module.decls.get(target.name)
    if decl is None:
        return None
    if target.index is not None:
        return 1
    if target.msb is not None and target.lsb is not None:
        msb = ctx.const_value(target.msb)
        lsb = ctx.const_value(target.lsb)
        if msb is None or lsb is None:
            return None
        return abs(msb - lsb) + 1
    return decl.width


class Rule:
    """Base class of lint rules.

    Subclasses define the class attributes and implement :meth:`check`:

    * ``id`` — stable dotted rule id, ``"<family>.<name>"``.
    * ``severity`` — default severity of this rule's findings.
    * ``description`` — one-line catalog entry (used by docs and CLI).
    """

    id: str = ""
    severity: str = "warning"
    description: str = ""

    def check(self, ctx: LintContext) -> Iterable[Diagnostic]:
        """Yield findings for one design."""
        raise NotImplementedError

    def finding(
        self,
        ctx: LintContext,
        line: int,
        col: int,
        message: str,
        severity: str | None = None,
    ) -> Diagnostic:
        """Build one finding of this rule at a source location."""
        return Diagnostic(
            file=ctx.file,
            line=line or 1,
            col=col or 1,
            rule=self.id,
            severity=severity or self.severity,
            message=message,
        )


@dataclass
class LintReport:
    """Every finding of one engine run over one design.

    Findings are stored in the stable diagnostic sort order
    (``file:line:col``, then severity, then rule id).
    """

    design: str
    file: str
    findings: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.findings if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.findings if d.severity == "warning"]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.findings)

    def at_least(self, min_severity: str) -> list[Diagnostic]:
        """Findings at or above a severity ("error" ⊃ "warning" ⊃ "info")."""
        if min_severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {min_severity!r};"
                f" available: {', '.join(SEVERITIES)}"
            )
        cutoff = SEVERITIES.index(min_severity)
        return [
            d
            for d in self.findings
            if d.severity in SEVERITIES and SEVERITIES.index(d.severity) <= cutoff
        ]

    def by_rule(self, rule_id: str) -> list[Diagnostic]:
        return [d for d in self.findings if d.rule == rule_id]

    def counts(self) -> dict[str, int]:
        result = {severity: 0 for severity in SEVERITIES}
        for diag in self.findings:
            result[diag.severity] = result.get(diag.severity, 0) + 1
        result["findings"] = len(self.findings)
        return result

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "file": self.file,
            "counts": self.counts(),
            "findings": [d.to_dict() for d in self.findings],
        }


class LintEngine:
    """Runs a rule set over parsed designs.

    Args:
        rules: The rules to run; defaults to the full catalog
            (:func:`repro.lint.default_rules`).  Order does not matter —
            findings are sorted into the stable diagnostic order.
    """

    def __init__(self, rules: Sequence[Rule] | None = None):
        if rules is None:
            from . import default_rules

            rules = default_rules()
        self.rules: tuple[Rule, ...] = tuple(rules)
        seen: set[str] = set()
        for rule in self.rules:
            if not rule.id:
                raise ValueError(f"rule {type(rule).__name__} has no id")
            if rule.id in seen:
                raise ValueError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)

    def run(self, module: Module, file: str = "<design>") -> LintReport:
        """Lint one parsed module; returns the sorted report."""
        ctx = LintContext(module, file=file)
        findings: list[Diagnostic] = []
        for rule in self.rules:
            findings.extend(rule.check(ctx))
        return LintReport(
            design=module.name,
            file=file,
            findings=sort_diagnostics(findings),
        )


def iter_assignments(module: Module) -> Iterator[tuple[Statement, bool, bool]]:
    """Yield ``(assignment, clocked, procedural)`` over the whole design."""
    for assign in module.assigns:
        yield assign, False, False
    for blk in module.always_blocks:
        for node in blk.body.walk():
            if isinstance(node, Assignment):
                yield node, blk.is_clocked, True


__all__ = [
    "DriverSite",
    "LintContext",
    "LintEngine",
    "LintReport",
    "Rule",
    "iter_assignments",
    "lvalue_width",
]
