"""AST -> instruction-stream compiler for the simulation engine.

The tree-walking :class:`~repro.sim.evaluator.Evaluator` re-derives
expression widths and re-dispatches on node types for every statement of
every settle pass of every cycle.  This module lowers a parsed
:class:`~repro.verilog.ast_nodes.Module` **once** into a flat,
width-resolved instruction stream over a signal *slot table*:

* every declared signal gets an integer slot; the runtime environment is
  a plain ``list[int]`` instead of a dict,
* every expression node becomes one register op with its width, mask and
  constant operands resolved at compile time (SSA-ish: each op writes a
  fresh virtual register),
* statement control flow (``if``/``case``) becomes forward-only
  conditional jumps, with no recursion and no isinstance checks,
* a non-blocking assignment is an ``NBA`` naming its lvalue *writer*
  (a whole signal, a part-select, or a bit-select with its own index
  code); the vector engine commits the ``NBA`` ops of a pass in execution
  order at the end of that pass, computing a dynamic bit index then,
  against the commit-time values, exactly like the reference
  interpreter's ``write_lvalue``.

Each region (combinational pass, clock edge) is emitted once, as one
stream whose ``RECORD`` instructions stand for the executed-assignment
facts of the statements it records.  A record's statement shape is
resolved at compile time (:attr:`CompiledProgram.shapes`; the
instruction's meta index *is* the shape slot), so no record objects are
ever constructed during simulation; a pass run without an event sink
(settle iterations, ``record=False`` runs) skips its ``RECORD`` lines.

The combinational region is emitted in the design index's *settle
order* (:meth:`~repro.analysis.DesignIndex.settle_schedule`) when the
design has one and the source-order fixpoint loop it replaces settles
within :data:`MAX_SETTLE_PASSES`; such a program is
:attr:`~CompiledProgram.levelized`, and one comb pass per cycle settles
it (and records it, when the pass gets a sink).  Every other program
keeps source order and the fixpoint loop.

The streams are not executed here: :mod:`repro.sim.vector` translates
each one into a lockstep SWAR function, whose lanes the differential
tests in ``tests/test_vector.py`` and ``tests/test_settle_schedule.py``
pin against the interpreter.

Compiled programs are cached per module *identity* (``id``), so repeated
testbenches over the same module object never recompile.

A *target program* (:func:`compile_target_program`) lowers a design
together with replacement versions of some of its statements — a
campaign target's mutants — into one program.  Each replaced statement
becomes a dispatch on a reserved selector slot: selector ``k`` runs
variant ``k``, selector 0 the original statement.  A trace run with
selector ``k`` is identical to a run of the design with variant ``k``
swapped in, records included, so a target's whole mutant set shares one
lowering and one vector codegen and runs as lanes of one suite.  A
target program's settle order also follows its variants' reads, and
the program is levelized only when one order settles the design with
any one variant swapped in.  It may also take a *record set*:
statements outside it emit no ``RECORD`` and get no shape row, so a
lane records exactly the per-mutant run's events of those statements.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ..analysis.index import design_index
from ..verilog.ast_nodes import (
    Assignment,
    BinaryOp,
    BitSelect,
    Block,
    Case,
    Concat,
    ContinuousAssign,
    Expr,
    Identifier,
    If,
    Lvalue,
    Module,
    Number,
    PartSelect,
    Repeat,
    Statement,
    Ternary,
    UnaryOp,
    collect_identifiers,
)
from ..verilog.errors import SemanticError
from ..verilog.visitors import ExprVisitor, StatementVisitor
from .evaluator import Evaluator
from .values import mask as make_mask
from .values import truncate

_UNSIZED_WIDTH = 32

#: Most comb passes per cycle before the simulator declares oscillation.
MAX_SETTLE_PASSES = 64

#: Slot name of a target program's variant selector (not a legal
#: Verilog identifier, so it cannot collide with a design signal).
SELECTOR = "$variant"
_SELECTOR_WIDTH = 32

# ----------------------------------------------------------------------
# Opcodes
# ----------------------------------------------------------------------

LOAD = 0  # (LOAD, dst, slot, mask)         regs[dst] = env[slot] & mask
STORE = 1  # (STORE, slot, src)             env[slot] = regs[src]
CONST = 2  # (CONST, dst, value)            regs[dst] = value
AND = 3  # (AND, dst, a, b)
OR = 4  # (OR, dst, a, b)
XOR = 5  # (XOR, dst, a, b)
NOT = 6  # (NOT, dst, a, mask)
JZ = 7  # (JZ, src, target)                 jump when regs[src] == 0
JMP = 8  # (JMP, target)
EQ = 9  # (EQ, dst, a, b)
SELECT = 10  # (SELECT, dst, c, a, b)       regs[dst] = a if regs[c] else b
RECORD = 11  # (RECORD, meta_idx, src)      append one columnar execution row
NBA = 12  # (NBA, writer_idx, src)          non-blocking update, committed at pass end
ADD = 13  # (ADD, dst, a, b, mask)
SUB = 14  # (SUB, dst, a, b, mask)
LNOT = 15  # (LNOT, dst, a)
LAND = 16  # (LAND, dst, a, b)
LOR = 17  # (LOR, dst, a, b)
NE = 18  # (NE, dst, a, b)
LT = 19  # (LT, dst, a, b)
LE = 20  # (LE, dst, a, b)
GT = 21  # (GT, dst, a, b)
GE = 22  # (GE, dst, a, b)
XNOR = 23  # (XNOR, dst, a, b, mask)
NEG = 24  # (NEG, dst, a, mask)
MUL = 25  # (MUL, dst, a, b, mask)
DIV = 26  # (DIV, dst, a, b, mask)
MOD = 27  # (MOD, dst, a, b, mask)
SHL = 28  # (SHL, dst, a, b, mask)
SHR = 29  # (SHR, dst, a, b)
RAND = 30  # (RAND, dst, a, mask)
ROR = 31  # (ROR, dst, a)
RXOR = 32  # (RXOR, dst, a)
RNAND = 33  # (RNAND, dst, a, mask)
RNOR = 34  # (RNOR, dst, a)
RNXOR = 35  # (RNXOR, dst, a)
BITSEL = 36  # (BITSEL, dst, a, i)          regs[dst] = (regs[a] >> regs[i]) & 1
PARTSEL = 37  # (PARTSEL, dst, a, lsb, mask)
SHLOR = 38  # (SHLOR, dst, acc, shift, part)  concat step
REPL = 39  # (REPL, dst, a, factor)         replication via multiply
MASK = 40  # (MASK, dst, a, mask)           truncate to lvalue width
JNZ = 41  # (JNZ, src, target)
STOREBIT = 42  # (STOREBIT, slot, src, i, fullmask)       RMW single bit
STOREPART = 43  # (STOREPART, slot, src, lsb, fieldmask, fullmask)

#: Non-blocking writer kinds (first element of a writer spec tuple).
_W_NAME = 0  # (0, slot)
_W_BIT = 1  # (1, slot, fullmask, index_code, index_reg)
_W_PART = 2  # (2, slot, fullmask, lsb, fieldmask)


@dataclass(frozen=True)
class RecordMeta:
    """Per-statement instrumentation data resolved at compile time.

    Attributes:
        stmt_id: Stable statement id.
        target: Assigned signal name.
        operands: RHS identifier names in first-use order.
        fetch: One ``(slot, mask)`` pair per operand; ``slot == -1`` marks
            a parameter whose (pre-truncated) constant value is stored in
            the mask field.
        width: Width of the written slice (``lvalue_width``).
    """

    stmt_id: int
    target: str
    operands: tuple[str, ...]
    fetch: tuple[tuple[int, int], ...]
    width: int


@dataclass(frozen=True)
class CompiledProgram:
    """A module lowered to executable instruction streams.

    Attributes:
        design: Module name.
        slot_of: Signal name -> slot index.
        names: Slot index -> signal name.
        widths / masks: Declared width and all-ones mask per slot.
        comb: Combinational pass; its ``RECORD`` instructions record
            every statement of the record set.
        seq: Clock-edge pass, instrumented like ``comb``.
        nba_writers: Non-blocking lvalue writer specs (commit time).
        metas: :class:`RecordMeta` table indexed by RECORD instructions.
        shapes: Statement-shape table for the columnar recorder, one
            ``(stmt_id, target, operands, lhs_width)`` row per meta — a
            RECORD instruction's meta index doubles as the recorder slot.
        output_slots: ``(name, slot)`` pairs for module outputs.
        selector_slot: Slot of the variant selector in a target program
            (:func:`compile_target_program`); -1 for plain programs.
        n_variants: Number of selectable variants (selector values
            ``1..n_variants``); 0 for plain programs.
        levelized: The comb streams run the comb processes in settle
            order, so one comb pass per cycle settles the design.
    """

    design: str
    slot_of: dict[str, int]
    names: tuple[str, ...]
    widths: tuple[int, ...]
    masks: tuple[int, ...]
    comb: tuple[tuple, ...]
    seq: tuple[tuple, ...]
    nba_writers: tuple[tuple, ...]
    metas: tuple[RecordMeta, ...]
    shapes: tuple[tuple[int, str, tuple[str, ...], int], ...]
    output_slots: tuple[tuple[str, int], ...]
    selector_slot: int = -1
    n_variants: int = 0
    levelized: bool = False


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------


class _ExprLowerer(ExprVisitor):
    """Lowers one expression tree to straight-line register ops.

    Width rules mirror :class:`repro.sim.evaluator.Evaluator` exactly;
    every handler returns ``(register, width)`` with the register holding
    a value already truncated to that width.
    """

    def __init__(self, compiler: "_ModuleCompiler"):
        super().__init__()
        self.c = compiler

    def visit_Identifier(self, e: Identifier, code: list) -> tuple[int, int]:
        c = self.c
        slot = c.slot_of.get(e.name)
        if slot is not None:
            r = c.new_reg()
            code.append((LOAD, r, slot, c.slot_masks[slot]))
            return r, c.slot_widths[slot]
        if e.name in c.params:
            r = c.new_reg()
            code.append((CONST, r, truncate(c.params[e.name], _UNSIZED_WIDTH)))
            return r, _UNSIZED_WIDTH
        raise SemanticError(f"signal {e.name!r} has no value", e.line, e.col)

    def visit_Number(self, e: Number, code: list) -> tuple[int, int]:
        width = e.width if e.width is not None else _UNSIZED_WIDTH
        r = self.c.new_reg()
        code.append((CONST, r, truncate(e.value, width)))
        return r, width

    def visit_UnaryOp(self, e: UnaryOp, code: list) -> tuple[int, int]:
        a, w = self.visit(e.operand, code)
        op = e.op
        if op == "+":
            return a, w
        r = self.c.new_reg()
        if op == "~":
            code.append((NOT, r, a, make_mask(w)))
            return r, w
        if op == "!":
            code.append((LNOT, r, a))
            return r, 1
        if op == "-":
            code.append((NEG, r, a, make_mask(w)))
            return r, w
        if op == "&":
            code.append((RAND, r, a, make_mask(w)))
            return r, 1
        if op == "|":
            code.append((ROR, r, a))
            return r, 1
        if op == "^":
            code.append((RXOR, r, a))
            return r, 1
        if op == "~&":
            code.append((RNAND, r, a, make_mask(w)))
            return r, 1
        if op == "~|":
            code.append((RNOR, r, a))
            return r, 1
        if op in ("~^", "^~"):
            code.append((RNXOR, r, a))
            return r, 1
        raise SemanticError(f"unknown unary operator {op!r}", e.line)

    _SIMPLE_BINOPS = {"&": AND, "|": OR, "^": XOR}
    _COMPARE_BINOPS = {
        "==": EQ,
        "===": EQ,
        "!=": NE,
        "!==": NE,
        "<": LT,
        "<=": LE,
        ">": GT,
        ">=": GE,
    }
    _MASKED_BINOPS = {"+": ADD, "-": SUB, "*": MUL, "/": DIV, "%": MOD}

    def visit_BinaryOp(self, e: BinaryOp, code: list) -> tuple[int, int]:
        op = e.op
        # Both operand subtrees are pure, so the interpreter's lazy
        # evaluation of &&/||/?: arms is value-identical to eager
        # evaluation here; lowering stays branch-free.
        a, lw = self.visit(e.left, code)
        if op in ("&&", "||"):
            b, _rw = self.visit(e.right, code)
            r = self.c.new_reg()
            code.append((LAND if op == "&&" else LOR, r, a, b))
            return r, 1
        b, rw = self.visit(e.right, code)
        w = max(lw, rw)
        r = self.c.new_reg()
        simple = self._SIMPLE_BINOPS.get(op)
        if simple is not None:
            code.append((simple, r, a, b))
            return r, w
        compare = self._COMPARE_BINOPS.get(op)
        if compare is not None:
            code.append((compare, r, a, b))
            return r, 1
        masked = self._MASKED_BINOPS.get(op)
        if masked is not None:
            code.append((masked, r, a, b, make_mask(w)))
            return r, w
        if op in ("~^", "^~"):
            code.append((XNOR, r, a, b, make_mask(w)))
            return r, w
        if op in ("<<", "<<<"):
            code.append((SHL, r, a, b, make_mask(lw)))
            return r, lw
        if op in (">>", ">>>"):
            code.append((SHR, r, a, b))
            return r, lw
        raise SemanticError(f"unknown binary operator {op!r}", e.line)

    def visit_Ternary(self, e: Ternary, code: list) -> tuple[int, int]:
        c, _ = self.visit(e.cond, code)
        a, tw = self.visit(e.then, code)
        b, ow = self.visit(e.otherwise, code)
        r = self.c.new_reg()
        # Both arms already fit max(tw, ow) bits; no extra mask needed.
        code.append((SELECT, r, c, a, b))
        return r, max(tw, ow)

    def visit_BitSelect(self, e: BitSelect, code: list) -> tuple[int, int]:
        base, _ = self.visit(e.base, code)
        index, _ = self.visit(e.index, code)
        r = self.c.new_reg()
        code.append((BITSEL, r, base, index))
        return r, 1

    def visit_PartSelect(self, e: PartSelect, code: list) -> tuple[int, int]:
        base, _ = self.visit(e.base, code)
        msb = self.c.const_value(e.msb)
        lsb = self.c.const_value(e.lsb)
        if msb < lsb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        r = self.c.new_reg()
        code.append((PARTSEL, r, base, lsb, make_mask(width)))
        return r, width

    def visit_Concat(self, e: Concat, code: list) -> tuple[int, int]:
        acc, total = self.visit(e.parts[0], code)
        for part in e.parts[1:]:
            p, pw = self.visit(part, code)
            r = self.c.new_reg()
            code.append((SHLOR, r, acc, pw, p))
            acc = r
            total += pw
        return acc, total

    def visit_Repeat(self, e: Repeat, code: list) -> tuple[int, int]:
        count = self.c.const_value(e.count)
        a, w = self.visit(e.value, code)
        # value < 2**w, so repetition is multiplication by sum_i 2**(i*w).
        factor = sum(1 << (i * w) for i in range(count))
        r = self.c.new_reg()
        code.append((REPL, r, a, factor))
        return r, count * w

    def generic_visit(self, e: Expr, *args) -> tuple[int, int]:
        raise SemanticError(f"cannot evaluate {type(e).__name__}", e.line)


class _StmtLowerer(StatementVisitor):
    """Lowers statements to instructions with jump-based control flow."""

    def __init__(self, compiler: "_ModuleCompiler"):
        super().__init__()
        self.c = compiler

    def visit_Block(self, s: Block, code: list) -> None:
        for child in s.statements:
            self.visit(child, code)

    def visit_If(self, s: If, code: list) -> None:
        cond, _ = self.c.expr.visit(s.cond, code)
        jz_at = len(code)
        code.append(None)
        self.visit(s.then_stmt, code)
        if s.else_stmt is None:
            code[jz_at] = (JZ, cond, len(code))
            return
        jmp_at = len(code)
        code.append(None)
        code[jz_at] = (JZ, cond, len(code))
        self.visit(s.else_stmt, code)
        code[jmp_at] = (JMP, len(code))

    def visit_Case(self, s: Case, code: list) -> None:
        subject, _ = self.c.expr.visit(s.subject, code)
        # The interpreter keeps the *last* default arm and scans the
        # labeled arms in source order; replicate both.
        default_body: Statement | None = None
        labeled = []
        for item in s.items:
            if not item.labels:
                default_body = item.body
            else:
                labeled.append(item)

        item_tests: list[list[tuple[int, int]]] = []
        for item in labeled:
            jumps: list[tuple[int, int]] = []
            for label in item.labels:
                lreg, _ = self.c.expr.visit(label, code)
                hit = self.c.new_reg()
                code.append((EQ, hit, subject, lreg))
                jumps.append((len(code), hit))
                code.append(None)
            item_tests.append(jumps)
        miss_at = len(code)
        code.append(None)

        end_jmps: list[int] = []
        for item, jumps in zip(labeled, item_tests):
            body_start = len(code)
            for at, hit in jumps:
                code[at] = (JNZ, hit, body_start)
            self.visit(item.body, code)
            end_jmps.append(len(code))
            code.append(None)

        if default_body is not None:
            code[miss_at] = (JMP, len(code))
            self.visit(default_body, code)
        else:
            code[miss_at] = (JMP, len(code))
        end = len(code)
        for at in end_jmps:
            code[at] = (JMP, end)

    def visit_Assignment(self, s: Assignment, code: list) -> None:
        self.c.emit_site(s, code)

    def visit_ContinuousAssign(self, s: ContinuousAssign, code: list) -> None:
        self.c.emit_site(s, code)

    def generic_visit(self, s: Statement, *args) -> None:
        # Matches the interpreter's error for unsupported statements.
        from .simulator import SimulationError

        raise SimulationError(f"cannot execute statement {type(s).__name__}")


class _ModuleCompiler:
    """Drives the lowering of one module into a :class:`CompiledProgram`."""

    def __init__(
        self,
        module: Module,
        variants: tuple[Statement, ...] = (),
        settle_order: tuple[int, ...] | None = None,
        record_set: frozenset[int] | None = None,
    ):
        self.module = module
        self.settle_order = settle_order
        self.record_set = record_set
        self.slot_of: dict[str, int] = {}
        names: list[str] = []
        widths: list[int] = []
        for name, decl in module.decls.items():
            self.slot_of[name] = len(names)
            names.append(name)
            widths.append(decl.width)
        #: stmt_id -> [(selector value, replacement statement), ...]
        self.arms: dict[int, list[tuple[int, Statement]]] = {}
        self.selector_slot = -1
        if variants:
            # The selector is not a declared signal: its name cannot be a
            # Verilog identifier, so no design signal can alias it.
            self.selector_slot = len(names)
            names.append(SELECTOR)
            widths.append(_SELECTOR_WIDTH)
            for value, variant in enumerate(variants, start=1):
                self.arms.setdefault(variant.stmt_id, []).append((value, variant))
        self.n_variants = len(variants)
        self.slot_names = tuple(names)
        self.slot_widths = tuple(widths)
        self.slot_masks = tuple(make_mask(w) for w in widths)
        self.params = {name: p.value for name, p in module.params.items()}
        self._const_evaluator = Evaluator(module)
        self.expr = _ExprLowerer(self)
        self.stmt = _StmtLowerer(self)
        self.nba_writers: list[tuple] = []
        self._writer_of: dict[int, int] = {}
        self.metas: list[RecordMeta] = []
        self._meta_of: dict[tuple[int, tuple[str, ...]], int] = {}
        self._reg = 0

    # -- helpers -------------------------------------------------------
    def new_reg(self) -> int:
        r = self._reg
        self._reg = r + 1
        return r

    def const_value(self, expr: Expr) -> int:
        """Compile-time constant (number or parameter) evaluation.

        Delegates to the reference :class:`Evaluator` so select bounds and
        replication counts resolve with exactly the interpreter's rules.
        """
        return self._const_evaluator._const(expr)

    def lvalue_width(self, lv: Lvalue) -> int:
        return self._const_evaluator.lvalue_width(lv)

    # -- assignment lowering -------------------------------------------
    def emit_site(self, stmt: "Assignment | ContinuousAssign", code: list) -> None:
        """Lower one statement, or its selector dispatch in a target program.

        A statement with replacement arms becomes a jump table on the
        selector slot laid out like a lowered ``case``: one compare per
        arm, the original statement as the fall-through, each arm's body
        ending in a jump past the others.  Each body is an ordinary
        assignment lowering, so a lane runs exactly the instructions (and
        records) of the design with its variant swapped in.
        """
        arms = self.arms.get(stmt.stmt_id)
        if not arms:
            self.emit_assign(stmt, code)
            return
        slot = self.selector_slot
        selector = self.new_reg()
        code.append((LOAD, selector, slot, self.slot_masks[slot]))
        tests: list[int] = []
        for value, _variant in arms:
            label = self.new_reg()
            code.append((CONST, label, value))
            hit = self.new_reg()
            code.append((EQ, hit, selector, label))
            tests.append(len(code))
            code.append((JNZ, hit, -1))  # target patched below
        self.emit_assign(stmt, code)
        end_jumps = [len(code)]
        code.append(None)
        for at, (_value, variant) in zip(tests, arms):
            code[at] = (JNZ, code[at][1], len(code))
            self.emit_assign(variant, code)
            end_jumps.append(len(code))
            code.append(None)
        for at in end_jumps:
            code[at] = (JMP, len(code))

    def emit_assign(self, stmt: "Assignment | ContinuousAssign", code: list) -> None:
        blocking = not isinstance(stmt, Assignment) or stmt.blocking
        value, vwidth = self.expr.visit(stmt.rhs, code)
        lv = stmt.target
        lv_width = self.lvalue_width(lv)
        if vwidth > lv_width:
            r = self.new_reg()
            code.append((MASK, r, value, make_mask(lv_width)))
            value = r
        if self.record_set is None or stmt.stmt_id in self.record_set:
            code.append((RECORD, self._meta_index(stmt, lv_width), value))
        if not blocking:
            code.append((NBA, self._writer_index(stmt), value))
            return
        slot = self.slot_of[lv.name]
        if lv.index is not None:
            index, _ = self.expr.visit(lv.index, code)
            code.append((STOREBIT, slot, value, index, self.slot_masks[slot]))
        elif lv.msb is not None and lv.lsb is not None:
            msb = self.const_value(lv.msb)
            lsb = self.const_value(lv.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            field = make_mask(msb - lsb + 1)
            code.append((STOREPART, slot, value, lsb, field, self.slot_masks[slot]))
        else:
            code.append((STORE, slot, value))

    def _writer_index(self, stmt) -> int:
        idx = self._writer_of.get(stmt.stmt_id)
        if idx is not None:
            return idx
        lv = stmt.target
        slot = self.slot_of[lv.name]
        fullmask = self.slot_masks[slot]
        if lv.index is not None:
            # Dynamic index: resolved at commit time against the
            # commit-time environment, like the interpreter.
            index_code: list = []
            index_reg, _ = self.expr.visit(lv.index, index_code)
            spec = (_W_BIT, slot, fullmask, tuple(index_code), index_reg)
        elif lv.msb is not None and lv.lsb is not None:
            msb = self.const_value(lv.msb)
            lsb = self.const_value(lv.lsb)
            if msb < lsb:
                msb, lsb = lsb, msb
            spec = (_W_PART, slot, fullmask, lsb, make_mask(msb - lsb + 1))
        else:
            spec = (_W_NAME, slot)
        idx = len(self.nba_writers)
        self.nba_writers.append(spec)
        self._writer_of[stmt.stmt_id] = idx
        return idx

    def _meta_index(self, stmt, lv_width: int) -> int:
        # Keyed by operand list too: a target program's variants of one
        # statement share a shape row unless they read different signals.
        operands = tuple(collect_identifiers(stmt.rhs))
        key = (stmt.stmt_id, operands)
        idx = self._meta_of.get(key)
        if idx is not None:
            return idx
        fetch = []
        for name in operands:
            slot = self.slot_of.get(name)
            if slot is not None:
                fetch.append((slot, self.slot_masks[slot]))
            elif name in self.params:
                fetch.append((-1, truncate(self.params[name], _UNSIZED_WIDTH)))
            else:
                raise SemanticError(f"signal {name!r} has no value")
        meta = RecordMeta(
            stmt_id=stmt.stmt_id,
            target=stmt.target.name,
            operands=operands,
            fetch=tuple(fetch),
            width=lv_width,
        )
        idx = len(self.metas)
        self.metas.append(meta)
        self._meta_of[key] = idx
        return idx

    # -- regions -------------------------------------------------------
    def _emit_region(self, sequential: bool) -> tuple[tuple, ...]:
        code: list = []
        self._reg = 0
        if sequential:
            for blk in self.module.always_blocks:
                if blk.is_clocked:
                    self.stmt.visit(blk.body, code)
        else:
            processes = [
                *self.module.assigns,
                *(blk.body for blk in self.module.always_blocks if not blk.is_clocked),
            ]
            order = self.settle_order
            for number in range(len(processes)) if order is None else order:
                self.stmt.visit(processes[number], code)
        return tuple(code)

    def compile(self) -> CompiledProgram:
        comb = self._emit_region(sequential=False)
        seq = self._emit_region(sequential=True)
        outputs = tuple(
            (name, self.slot_of[name]) for name in self.module.outputs
        )
        return CompiledProgram(
            design=self.module.name,
            slot_of=self.slot_of,
            names=self.slot_names,
            widths=self.slot_widths,
            masks=self.slot_masks,
            comb=comb,
            seq=seq,
            nba_writers=tuple(self.nba_writers),
            metas=tuple(self.metas),
            shapes=tuple(
                (m.stmt_id, m.target, m.operands, m.width) for m in self.metas
            ),
            output_slots=outputs,
            selector_slot=self.selector_slot,
            n_variants=self.n_variants,
            levelized=self.settle_order is not None,
        )


# ----------------------------------------------------------------------
# Compile cache (keyed by module identity)
# ----------------------------------------------------------------------

_CACHE: dict[int, tuple] = {}
_CACHE_STATS = {"hits": 0, "misses": 0, "target_programs": 0}


def compile_module(module: Module) -> CompiledProgram:
    """Compile ``module``, reusing the cached program for the same object.

    The cache is keyed by ``id(module)`` with a weak reference guard, so
    mutant modules (fresh path copies) each compile once and golden
    designs shared across testbenches never recompile.  Entries are
    evicted when the module object is garbage collected.

    The key is identity, not content: a module must not be mutated in
    place after it has been compiled, or later simulators will silently
    reuse the stale program.  Derive modified designs as new objects
    (``clone()``, or the path copies of
    :func:`repro.datagen.mutation.apply_mutation`) or call
    :func:`clear_compile_cache` after an in-place edit.
    """
    key = id(module)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is module:
        _CACHE_STATS["hits"] += 1
        return entry[1]
    _CACHE_STATS["misses"] += 1
    order = _settle_order(design_index(module), ())
    program = _ModuleCompiler(module, settle_order=order).compile()
    try:
        ref = weakref.ref(module, lambda _r, _k=key: _CACHE.pop(_k, None))
    except TypeError:  # pragma: no cover - modules always support weakrefs
        ref = lambda: module  # noqa: E731
    _CACHE[key] = (ref, program)
    return program


def _settle_order(index, variants) -> tuple[int, ...] | None:
    """The comb process order of a levelized program, or None.

    The index's settle order over the design and its variants, when the
    fixpoint loop it replaces cannot run out of passes on any of them.
    """
    schedule = index.settle_schedule(variants)
    if schedule is None or schedule.passes >= MAX_SETTLE_PASSES:
        return None
    return schedule.order


def compile_target_program(
    module: Module,
    variants: "list[Statement] | tuple[Statement, ...]",
    record_set: "frozenset[int] | None" = None,
) -> CompiledProgram:
    """Lower ``module`` plus replacement statements into one program.

    ``variants[k - 1]`` replaces the module statement with its
    ``stmt_id`` in lanes whose selector slot holds ``k``; selector 0
    runs the module unchanged.  Several variants may replace the same
    statement.  Variants must keep the statement's kind and target (a
    campaign mutation only rewrites the right-hand side), so
    non-blocking writers are shared.  Target programs are not cached:
    callers hold the one program of their target.

    ``record_set`` (statement ids; None records every statement) limits
    recording: other statements emit no record and get no shape row.

    Raises:
        ValueError: If a variant names no statement of ``module``, or
            changes the statement's kind or lvalue.
    """
    index = design_index(module)
    for variant in variants:
        try:
            original = index.statement(variant.stmt_id)
        except KeyError:
            raise ValueError(f"variant of unknown statement {variant.stmt_id}") from None
        if type(variant) is not type(original) or variant.target != original.target:
            raise ValueError(
                f"variant of statement {variant.stmt_id} changes its kind or target"
            )
        if isinstance(variant, Assignment) and variant.blocking != original.blocking:
            raise ValueError(
                f"variant of statement {variant.stmt_id} changes its blocking mode"
            )
    _CACHE_STATS["target_programs"] += 1
    variants = tuple(variants)
    return _ModuleCompiler(
        module, variants, _settle_order(index, variants), record_set
    ).compile()


def clear_compile_cache() -> None:
    """Drop all cached programs (mainly for tests and benchmarks)."""
    _CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def compile_cache_stats() -> dict[str, int]:
    """Cache hit/miss counters, live entry count, and target programs.

    ``target_programs`` counts :func:`compile_target_program` lowerings,
    which bypass the cache.
    """
    return {**_CACHE_STATS, "entries": len(_CACHE)}
