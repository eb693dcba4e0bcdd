"""Lockstep vectorized execution of whole testbench suites.

Every workload above the simulator — campaign golden/mutant runs, corpus
generation, both benchmarks — simulates a *suite* of independent traces
of one :class:`~repro.sim.compiler.CompiledProgram`.  This module runs
each cycle once per *suite* with SWAR (SIMD-within-a-register) over
Python big ints: every virtual register and every signal slot becomes a
single arbitrary-precision integer packing N lanes of ``F`` bits (one
lane per trace), and each compiled instruction stream is translated once
per program into a straight-line Python function of a handful of big-int
expressions per opcode.

The field width ``F`` is a property of the program: the narrowest of 8,
16, 32 and 64 bits whose low ``F - 1`` bits hold the widest value the
width audit (:func:`_audit`) proves any register, slot or constant can
take.  Narrow fields make every big int, every ``to_bytes`` and every
``from_bytes`` proportionally shorter; a design of 32 bits or more packs
at ``F = 64``.  Lane values occupy the low ``F - 1`` bits of their field;
bit ``F - 1`` is a guard bit that carry/borrow tricks exploit:

* ``ADD``: per-lane sums stay below ``2**F``, so a plain ``+`` cannot
  carry across lanes; masking restores the guard.
* ``SUB``: ``(a | H) - b`` biases every lane by ``2**(F-1)`` so no lane
  borrows; the low bits are exactly ``(a - b) mod 2**(F-1)``.
* Compares: ``((x | H) - L) & H`` leaves the guard bit set exactly in
  the nonzero lanes, one subtraction for all N traces at once.
* Predication masks expand a boolean lane bit to a full ``F``-bit field
  via ``(H - c) ^ H``.

Control flow is handled by predication over the compiler's forward-only
jumps.  Translated streams carry a runtime ``act`` mask (a packed
full-field lane mask): a taken ``JZ``/``JNZ``/``JMP`` clears the taking
lanes out of ``act`` into a per-jump join mask, and the join mask is
OR-ed back in at the jump target.  Register writes run unmasked for all
lanes — safe because lowering is SSA-ish (every op writes a fresh
register and no jump target separates a register write from its readers,
so a rejoining lane only ever reads registers computed on its own path).
Only the effects — environment stores, non-blocking commits, records —
consult the active mask.  Ragged suites (traces of unequal
length) reuse the same mechanism: lanes past their last cycle are simply
absent from the cycle's alive mask.

The lane boundary is columnar both ways.  Stimulus comes in as a
:class:`~repro.sim.testbench.StimulusSuite` (hand-written frame lists
are converted once) and each ``(cycle, input)`` row packs with one
``int.from_bytes`` over the suite's transposed bytes.  Recording is
one event log per suite, written by the generated passes themselves: a
``RECORD`` line builds one ``(slot, cycle, lhs, ops, active)`` tuple of
packed lane ints when the pass got the log as its sink, and the pass
footer extends the log with them in their final order (statement-id
order for a comb pass, execution order for a clock edge).  The footer
also commits the pass's non-blocking writes, so one call of a pass is
the interpreter's pass plus its commit.
:func:`unpack_events` drops the events no lane executed and unpacks
the rest into a :class:`~repro.sim.trace.SuiteLog` of ``[E, N]`` arrays.
Every lane's trace is a ``(log, lane)`` view of that log, the same
format the interpreter's :class:`ExecutionRecorder` produces as a
one-lane log, and event for event identical to it — the differential
tests in ``tests/test_vector.py`` and ``tests/test_lane_boundary.py``
compare shape rows, cycles, values and dtypes.  A lane's outputs and
stimulus are views of the suite's output matrix and stimulus arrays, not
per-lane copies.

Lanes carry at most 63 value bits: every simulated value must stay a
nonnegative ``int64`` on the wire, and every unpacked array is ``int64``
whatever ``F`` is.  :func:`vectorizable` audits a program's declared
widths and a conservative per-register width bound over every
instruction stream; :func:`run_vector_suite` refuses a program that can
overflow a 63-bit lane, and :class:`~repro.sim.Simulator` runs such a
design on the interpreter instead.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
from typing import Any, Callable, Sequence

import numpy as np

from ..verilog.ast_nodes import Module
from .compiler import (
    ADD,
    AND,
    BITSEL,
    CONST,
    DIV,
    EQ,
    GE,
    GT,
    JMP,
    JNZ,
    JZ,
    LAND,
    LE,
    LNOT,
    LOAD,
    LOR,
    LT,
    MASK,
    MAX_SETTLE_PASSES,
    MOD,
    MUL,
    NBA,
    NE,
    NEG,
    NOT,
    OR,
    PARTSEL,
    RAND,
    RECORD,
    REPL,
    RNAND,
    RNOR,
    RNXOR,
    ROR,
    RXOR,
    SELECT,
    SHL,
    SHLOR,
    SHR,
    STORE,
    STOREBIT,
    STOREPART,
    SUB,
    XNOR,
    XOR,
    CompiledProgram,
    _W_BIT,
    _W_NAME,
    _W_PART,
)
from .recorder import ShapeRow
from .testbench import StimulusSuite
from .trace import SuiteLog, Trace, _LaneOutputs, _LazyExecutions

#: Lane field widths, narrowest first; a program packs at the first whose
#: ``F - 1`` value bits hold its widest value (:func:`_field_bits`).  The
#: widest leaves 63 value bits: values must stay nonnegative ``int64``.
_FIELDS = (8, 16, 32, 64)

#: Field width -> little-endian dtype of one packed lane.  Narrow lanes
#: hold values below ``2**(F-1)`` and widen exactly to ``int64``; 64-bit
#: lanes read as ``int64`` directly (a full-field mask reads as -1).
_FIELD_DTYPE = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<i8"}

_JUMP_OPS = (JZ, JNZ, JMP)


# ----------------------------------------------------------------------
# Wide-value audit
# ----------------------------------------------------------------------


#: Opcode -> positions of the registers an instruction reads.
_READS: dict[int, tuple[int, ...]] = {
    STORE: (2,), RECORD: (2,), NBA: (2,), JZ: (1,), JNZ: (1,),
    SELECT: (2, 3, 4), SHLOR: (2, 4), STOREBIT: (2, 3), STOREPART: (2,),
    **dict.fromkeys(
        (AND, OR, XOR, EQ, NE, LT, LE, GT, GE, LAND, LOR, ADD, SUB, MUL, DIV,
         MOD, SHL, SHR, XNOR, BITSEL),
        (2, 3),
    ),
    **dict.fromkeys(
        (NOT, NEG, MASK, LNOT, RAND, RNAND, ROR, RXOR, RNOR, RNXOR, PARTSEL, REPL),
        (2,),
    ),
}


#: Ops folded at translate time when every register they read is a literal.
_FOLDS = frozenset((AND, OR, XOR, NOT, MASK))


def _stream_width(code: tuple[tuple, ...], slot_widths: Sequence[int]) -> int:
    """Conservative per-register width audit of one instruction stream.

    Walks the stream linearly (jumps are forward-only, so every register
    is written before it is read in stream order) tracking an upper
    bound on each register's bit width, and returns the widest bound
    (reduction mask constants included: they are SWAR operands too).

    A register computed from literals alone by ``CONST``, ``AND``/``OR``/
    ``XOR``, ``NOT`` or ``MASK`` is tracked by value: the emitter folds
    those ops exactly so, and the value reaches the generated code only
    where another instruction reads it, so it counts there, at its exact
    width (``WBS1_ADDR & ~ADDR_MASK`` counts as narrow as its result, not
    as the 32-bit ``~ADDR_MASK``).
    """
    w: dict[int, int] = {}
    literals: dict[int, int] = {}
    widest = 0
    for ins in code:
        op = ins[0]
        if op == CONST:
            literals[ins[1]] = value = int(ins[2])
            w[ins[1]] = value.bit_length()
            continue
        if op in _FOLDS and all(ins[i] in literals for i in _READS[op]):
            la = literals[ins[2]]
            if op == AND:
                value = la & literals[ins[3]]
            elif op == OR:
                value = la | literals[ins[3]]
            elif op == XOR:
                value = la ^ literals[ins[3]]
            else:
                value = la ^ ins[3] if op == NOT else la & ins[3]
            literals[ins[1]] = value
            w[ins[1]] = value.bit_length()
            continue
        reads = _READS.get(op)
        if reads is not None and literals:
            for position in reads:
                if ins[position] in literals and w[ins[position]] > widest:
                    widest = w[ins[position]]
        if op == LOAD:
            width = slot_widths[ins[2]]
        elif op in (AND, OR, XOR):
            width = max(w.get(ins[2], 0), w.get(ins[3], 0))
        elif op == SELECT:
            width = max(w.get(ins[3], 0), w.get(ins[4], 0))
        elif op in (NOT, NEG, MASK):
            width = int(ins[3]).bit_length()
        elif op in (ADD, SUB, MUL, DIV, MOD, SHL, XNOR, PARTSEL):
            width = int(ins[4]).bit_length()
        elif op == SHR:
            width = w.get(ins[2], 0)
        elif op == SHLOR:
            width = w.get(ins[2], 0) + ins[3]
        elif op == REPL:
            width = w.get(ins[2], 0) + int(ins[3]).bit_length()
        elif op in (RAND, RNAND):
            widest = max(widest, int(ins[3]).bit_length())
            width = 1
        elif op in (
            EQ, NE, LT, LE, GT, GE, LNOT, LAND, LOR,
            ROR, RXOR, RNOR, RNXOR, BITSEL,
        ):
            width = 1
        else:
            # Stores, jumps, RECORD, NBA: no register result.  Their
            # slot masks are covered by the declared widths.
            continue
        if width > widest:
            widest = width
        w[ins[1]] = width
    return widest


def vectorizable(program: CompiledProgram) -> bool:
    """True when every value in ``program`` provably fits a 63-bit lane.

    Checks all declared signal widths plus a per-register width bound
    over every instruction stream (including non-blocking writers'
    dynamic index expressions).  The audit is cached per program.
    """
    return field_bits(program) > 0


def field_bits(program: CompiledProgram) -> int:
    """The lane field width ``F`` (8, 16, 32 or 64) ``program`` packs at,
    or 0 when it fails the lane audit (see :func:`vectorizable`)."""
    return _program_entry(program).field


class _ProgramEntry:
    """Everything the engine derives from one program, built on demand:
    its lane field width (0 when it fails the lane audit), the comb and
    seq code objects with their K constants (None for an empty stream),
    and the passes bound per lane count."""

    __slots__ = ("ref", "field", "code", "fns")

    def __init__(self, ref: weakref.ref, field: int):
        self.ref = ref
        self.field = field
        self.code: tuple[tuple[Any, dict[int, str]] | None, ...] | None = None
        self.fns: dict[int, tuple[Callable | None, ...]] = {}


#: Program id -> its entry; a weakref on the program drops the entry.
_PROGRAMS: dict[int, _ProgramEntry] = {}


def _program_entry(program: CompiledProgram) -> _ProgramEntry:
    key = id(program)
    entry = _PROGRAMS.get(key)
    if entry is None or entry.ref() is not program:
        ref = weakref.ref(program, lambda _r, _k=key: _PROGRAMS.pop(_k, None))
        entry = _PROGRAMS[key] = _ProgramEntry(ref, _field_bits(_audit(program)))
    return entry


def _audit(program: CompiledProgram) -> int:
    """The widest value any lane of ``program`` can hold, in bits.

    The bound covers declared slot widths, parameter constants a record
    fetches, and every stream's registers (non-blocking writers' dynamic
    index code included).  A target program's selector slot is preset
    lane by lane to a variant index and never written, so it counts at
    the width of the largest index, not its declared width.
    """
    widths = list(program.widths)
    if program.selector_slot >= 0:
        widths[program.selector_slot] = program.n_variants.bit_length()
    streams = [program.comb, program.seq]
    for writer in program.nba_writers:
        if writer[0] == _W_BIT:  # dynamic index re-executed at commit
            streams.append(writer[3])
    constants = [
        value.bit_length()
        for meta in program.metas
        for slot, value in meta.fetch
        if slot < 0
    ]
    return max(
        max(widths, default=0),
        max(constants, default=0),
        *(_stream_width(code, widths) for code in streams),
    )


def _field_bits(width: int) -> int:
    """The narrowest lane field whose ``F - 1`` value bits hold a
    ``width``-bit value; 0 when none does (the program runs on the
    interpreter)."""
    return next((field for field in _FIELDS if width < field), 0)


# ----------------------------------------------------------------------
# Lane context and per-lane helper closures
# ----------------------------------------------------------------------

#: (n, F) -> (ones, L, H, ALL): the lane-replication multiplier, the
#: bit-0 lane mask, the guard-bit mask, and the all-bits mask.
_CTX: dict[tuple[int, int], tuple[int, int, int, int]] = {}


def _lane_ctx(n: int, field: int) -> tuple[int, int, int, int]:
    ctx = _CTX.get((n, field))
    if ctx is None:
        lane_all = (1 << (field * n)) - 1
        ones = lane_all // ((1 << field) - 1)
        ctx = _CTX[n, field] = (ones, ones, ones << (field - 1), lane_all)
    return ctx


_HELPERS: dict[tuple[int, int], dict[str, Callable]] = {}


def _helpers(n: int, field: int) -> dict[str, Callable]:
    """Per-lane fallback closures for ops SWAR cannot express.

    ``MUL``/``DIV``/``MOD`` and variable-count shifts/bit-selects need a
    per-lane Python loop: a product can exceed the lane field before the
    result mask is applied, and shift counts differ per lane.  Each
    helper replicates the interpreter's exact semantics lane by lane.
    Lane values sit below ``2**(F-1)``, so a shift by ``F - 1`` or more
    leaves nothing, like the interpreter's clamp at 64.
    """
    helpers = _HELPERS.get((n, field))
    if helpers is not None:
        return helpers
    shifts = tuple(i * field for i in range(n))
    lane = (1 << field) - 1
    top = field - 1

    def _mulv(a: int, b: int, m: int) -> int:
        r = 0
        for s in shifts:
            r |= ((((a >> s) & lane) * ((b >> s) & lane)) & m) << s
        return r

    def _divv(a: int, b: int, m: int) -> int:
        r = 0
        for s in shifts:
            bv = (b >> s) & lane
            if bv:
                r |= ((((a >> s) & lane) // bv) & m) << s
        return r

    def _modv(a: int, b: int, m: int) -> int:
        r = 0
        for s in shifts:
            bv = (b >> s) & lane
            if bv:
                r |= ((((a >> s) & lane) % bv) & m) << s
        return r

    def _shlv(a: int, b: int, m: int) -> int:
        r = 0
        for s in shifts:
            sh = (b >> s) & lane
            if sh < field:
                r |= ((((a >> s) & lane) << sh) & m) << s
        return r

    def _shrv(a: int, b: int) -> int:
        r = 0
        for s in shifts:
            sh = (b >> s) & lane
            if sh < top:
                r |= (((a >> s) & lane) >> sh) << s
        return r

    def _bitselv(a: int, b: int) -> int:
        r = 0
        for s in shifts:
            sh = (b >> s) & lane
            if sh < top:
                r |= (((a >> s) >> sh) & 1) << s
        return r

    def _storebitv(row: int, src: int, idx: int, fm: int) -> int:
        r = 0
        for s in shifts:
            cur = (row >> s) & fm
            i = (idx >> s) & lane
            if i > field:
                i = field
            cur = (cur & ~(1 << i)) | (((src >> s) & 1) << i)
            r |= (cur & fm) << s
        return r

    helpers = _HELPERS[n, field] = {
        "_mulv": _mulv,
        "_divv": _divv,
        "_modv": _modv,
        "_shlv": _shlv,
        "_shrv": _shrv,
        "_bitselv": _bitselv,
        "_storebitv": _storebitv,
    }
    return helpers


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------


def _unpack(values: Sequence[int], n: int, field: int) -> np.ndarray:
    """Bulk-convert packed lane ints to an ``(len(values), n)`` int64 matrix.

    One bytes join plus one zero-copy ``frombuffer`` of ``F``-bit fields
    instead of a numpy conversion per value, widened to ``int64`` (exact:
    lane data is < ``2**(F-1)``).  Full-field mask lanes read back
    nonzero, which is all callers need for the truthiness test.
    """
    nbytes = n * field // 8
    buf = b"".join([v.to_bytes(nbytes, "little") for v in values])
    lanes = np.frombuffer(buf, dtype=_FIELD_DTYPE[field]).reshape(len(values), n)
    return lanes.astype(np.int64, copy=False)


def unpack_events(
    shapes: tuple[ShapeRow, ...], events: list[tuple], n: int, field: int
) -> SuiteLog:
    """One suite's event log as numpy arrays, one :class:`SuiteLog`.

    ``events`` holds the ``(slot, cycle, lhs, ops, active)`` tuples the
    generated passes append, in log order: lhs, each op and active are
    lane ints packing ``n`` fields of ``field`` bits (active None == all
    lanes).  An event no lane executed (a ``RECORD`` under an arm no lane
    took) is dropped.  Packed lane ints unpack in bulk (:func:`_unpack`);
    the few distinct active masks that recur across events unpack once
    each.
    """
    events = [event for event in events if event[4] != 0]
    lane_all = _lane_ctx(n, field)[3]
    columns: tuple[tuple[Any, ...], ...] = tuple(zip(*events)) or ((),) * 5
    slots, cycles, lhs, ops, masks = columns
    flat = [value for values in ops for value in values]
    distinct = {mask: index for index, mask in enumerate(dict.fromkeys(masks))}
    which = np.fromiter(map(distinct.__getitem__, masks), np.int64, len(events))
    # Lane-major in memory (an ``[E, N]`` view of ``[N, E]``): the
    # dedup, sample gathers and lane slices read the mask by lane.
    active = (
        _unpack([lane_all if mask is None else mask for mask in distinct], n, field)
        != 0
    ).T[:, which].T
    return SuiteLog(
        shapes,
        np.array(slots, dtype=np.int64),
        np.array(cycles, dtype=np.int64),
        _unpack(lhs, n, field),
        _unpack(flat, n, field) if flat else np.zeros((0, n), dtype=np.int64),
        active,
    )


# ----------------------------------------------------------------------
# Stream translation: compiled instruction streams -> Python source
# ----------------------------------------------------------------------


class _StreamEmitter:
    """Translates one compiled instruction stream into SWAR Python source.

    The generated ``_pass(env, cycle, sink, lanes, nlanes, full)``
    function reads every touched environment slot into a local
    (``e3 = env[3]``), runs the stream as straight-line big-int
    expressions over packed lane values, and writes stored slots back at
    the end.  Registers are plain locals (SSA within a stream); constant
    registers fold at translate time with the interpreter's exact
    semantics, and remaining constants become symbolic ``K`` globals so
    the compiled code object is lane-count independent (the binder
    replicates each constant across lanes).

    ``sink`` is the suite's event log, or None for a pass that records
    nothing.  With a sink, each ``RECORD`` builds its event into a local
    (operands are read pre-store, at the instruction); the footer extends
    the log with them in an order fixed here: instruction order, which is
    execution order, or, for a ``by_statement`` (comb) stream, statement
    id with ties in instruction order — the order of the interpreter's
    settled comb records, whatever the settle order of the pass.

    An ``NBA`` keeps its value in a local ``_n<k>`` (an env alias could
    be stored to before the commit) and, in a jumpy stream, its active
    mask in ``_a<k>``.  Before the write-back, the footer commits them
    in instruction order, which is execution order, each as the store
    its writer names; a dynamic bit index is computed there, against
    commit-time values, like the interpreter's ``write_lvalue``.  A
    jumpy commit runs under ``if _a<k>:``, so an arm no lane took
    commits nothing.

    Jumpy streams maintain a runtime ``act``/``nact`` mask pair; each
    taken jump moves the taking lanes into a fresh join mask that is
    OR-ed back into ``act`` at the jump target (jumps are forward-only,
    so every join mask is assigned before its target is reached).

    ``field`` is the program's lane width ``F``: the guard bit is bit
    ``F - 1`` and every value, register and K constant fits below it
    (the program's width audit proves so), which the constant-shift and
    select clamps below rely on.
    """

    def __init__(
        self,
        program: CompiledProgram,
        code: tuple[tuple, ...],
        field: int,
        by_statement: bool = False,
    ):
        self.program = program
        self.code = code
        self.field = field
        #: The guard bit, which is also the number of value bits.
        self.top = field - 1
        #: All value bits of one lane.
        self.value_mask = (1 << self.top) - 1
        self.by_statement = by_statement
        self.lines: list[str] = []
        #: ``(footer sort key, n)`` per RECORD, whose event is local ``_v<n>``.
        self.records: list[tuple[int, int]] = []
        #: ``(writer index, value register)`` per NBA, committed in the footer.
        self.nbas: list[tuple[int, int]] = []
        #: reg -> ("a", source name) | ("l", folded lane constant)
        self.rv: dict[int, tuple] = {}
        #: Registers known to hold 0/1 in every lane's bit 0.
        self.bools: set[int] = set()
        #: lane constant value -> symbolic K name.
        self.consts: dict[int, str] = {}
        self.jumpy = any(ins[0] in _JUMP_OPS for ins in code)
        #: jump target ip -> join mask variable names.
        self.joins: dict[int, list[str]] = {}
        self.reads: set[int] = set()
        self.writes: set[int] = set()
        self._jn = 0

    # -- helpers --------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def K(self, value: int) -> str:
        """Symbolic name for a lane constant (replicated at bind time)."""
        if value == 0:
            return "0"
        if value == 1:
            return "L"
        name = self.consts.get(value)
        if name is None:
            name = self.consts[value] = f"K{len(self.consts)}"
        return name

    def ref(self, reg: int) -> str:
        kind, value = self.rv[reg]
        return value if kind == "a" else self.K(value)

    def lit(self, reg: int) -> int | None:
        kind, value = self.rv[reg]
        return value if kind == "l" else None

    def is_bool(self, reg: int) -> bool:
        if reg in self.bools:
            return True
        lv = self.lit(reg)
        return lv is not None and lv in (0, 1)

    def set_reg(self, dst: int, expr: str, bool_result: bool = False) -> None:
        self.emit(f"r{dst} = {expr}")
        self.rv[dst] = ("a", f"r{dst}")
        if bool_result:
            self.bools.add(dst)

    def alias(self, dst: int, src: int) -> None:
        self.rv[dst] = self.rv[src]
        if self.is_bool(src):
            self.bools.add(dst)

    # -- SWAR expression builders ---------------------------------------
    def nz(self, x: str) -> str:
        """Bool lane bit: 1 in bit 0 of every lane where ``x`` != 0."""
        return f"((((({x}) | H) - L) & H) >> {self.top})"

    def boolbit(self, reg: int) -> str:
        r = self.ref(reg)
        return r if self.is_bool(reg) else self.nz(r)

    def fieldmask(self, boolexpr: str) -> str:
        """Expand a bool lane bit to a full-field (``F``-bit) lane mask."""
        return f"((H - {boolexpr}) ^ H)"

    def _ge(self, a: str, b: str) -> str:
        return f"(((({a} | H) - {b}) & H) >> {self.top})"

    def _lt(self, a: str, b: str) -> str:
        return f"((((({a} | H) - {b}) ^ H) & H) >> {self.top})"

    # -- effects --------------------------------------------------------
    def env_ref(self, slot: int) -> str:
        self.reads.add(slot)
        return f"e{slot}"

    def store_env(self, slot: int, expr: str) -> None:
        self.reads.add(slot)
        self.writes.add(slot)
        e = f"e{slot}"
        if self.jumpy:
            self.emit(
                f"{e} = {expr} if act == ALL else"
                f" (({e} & nact) | (({expr}) & act))"
            )
        else:
            self.emit(
                f"{e} = {expr} if full else"
                f" (({e} & nlanes) | (({expr}) & lanes))"
            )

    def effect_act(self) -> str:
        """Active-mask expression a RECORD captures.

        All-active effects report ``None`` so the event log's uniform
        fast path survives jumpy streams whose lanes never diverged.
        """
        if self.jumpy:
            return "(None if act == ALL else act)"
        return "(None if full else lanes)"

    def _join_var(self, target: int) -> str:
        name = f"_j{self._jn}"
        self._jn += 1
        self.joins.setdefault(target, []).append(name)
        return name

    # -- translation ----------------------------------------------------
    def source(self) -> str:
        for ip, ins in enumerate(self.code):
            if self.jumpy and ip in self.joins:
                names = " | ".join(self.joins[ip])
                self.emit(f"act = act | {names}")
                self.emit("nact = act ^ ALL")
            self._emit_ins(ins)
        self._commit_nbas()
        header = ["def _pass(env, cycle, sink, lanes, nlanes, full):"]
        for slot in sorted(self.reads | self.writes):
            header.append(f"    e{slot} = env[{slot}]")
        if self.jumpy:
            header.append("    act = lanes")
            header.append("    nact = nlanes")
        footer = [f"    env[{slot}] = e{slot}" for slot in sorted(self.writes)]
        if self.records:
            names = ", ".join(f"_v{n}" for _key, n in sorted(self.records))
            footer.append(f"    if sink is not None: sink.extend(({names},))")
        lines = header + self.lines + footer
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n"

    def _commit_nbas(self) -> None:
        """Each NBA's store, in instruction order, over the lanes that ran it."""
        for k, (widx, src) in enumerate(self.nbas):
            writer = self.program.nba_writers[widx]
            start = len(self.lines)
            if self.jumpy:
                self.emit(f"act = _a{k}")
                self.emit("nact = act ^ ALL")
            if writer[0] == _W_NAME:
                self._emit_ins((STORE, writer[1], src))
            elif writer[0] == _W_PART:
                _, slot, fullmask, lsb, field = writer
                self._emit_ins((STOREPART, slot, src, lsb, field, fullmask))
            else:  # _W_BIT: the index against the commit-time env
                _, slot, fullmask, index_code, index_reg = writer
                for ins in index_code:
                    self._emit_ins(ins)
                self._emit_ins((STOREBIT, slot, src, index_reg, fullmask))
            if self.jumpy:
                body = self.lines[start:]
                self.lines[start:] = [f"    if _a{k}:", *("    " + line for line in body)]

    def _emit_ins(self, ins: tuple) -> None:  # noqa: C901 - opcode dispatch
        op = ins[0]
        rv = self.rv
        if op == LOAD:
            # Env locals are invariantly masked: alias, don't copy.
            slot = ins[2]
            self.reads.add(slot)
            rv[ins[1]] = ("a", f"e{slot}")
            if self.program.widths[slot] == 1:
                self.bools.add(ins[1])
        elif op == STORE:
            self.store_env(ins[1], self.ref(ins[2]))
        elif op == CONST:
            rv[ins[1]] = ("l", ins[2])
        elif op in (AND, OR, XOR):
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                folded = la & lb if op == AND else la | lb if op == OR else la ^ lb
                rv[ins[1]] = ("l", folded)
            else:
                ch = "&" if op == AND else "|" if op == OR else "^"
                self.set_reg(
                    ins[1],
                    f"{self.ref(ins[2])} {ch} {self.ref(ins[3])}",
                    bool_result=self.is_bool(ins[2]) and self.is_bool(ins[3]),
                )
        elif op == NOT:
            la = self.lit(ins[2])
            if la is not None:
                rv[ins[1]] = ("l", la ^ ins[3])
            else:
                # Operand bits are a subset of the mask: ~a & m == a ^ m.
                self.set_reg(
                    ins[1],
                    f"{self.ref(ins[2])} ^ {self.K(ins[3])}",
                    bool_result=ins[3] == 1,
                )
        elif op in (EQ, NE, LT, LE, GT, GE):
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                rv[ins[1]] = ("l", int(_COMPARES[op](la, lb)))
            else:
                a, b = self.ref(ins[2]), self.ref(ins[3])
                if op == NE:
                    expr = self.nz(f"{a} ^ {b}")
                elif op == EQ:
                    expr = f"({self.nz(f'{a} ^ {b}')} ^ L)"
                elif op == GE:
                    expr = self._ge(a, b)
                elif op == LE:
                    expr = self._ge(b, a)
                elif op == LT:
                    expr = self._lt(a, b)
                else:
                    expr = self._lt(b, a)
                self.set_reg(ins[1], expr, bool_result=True)
        elif op == SELECT:
            lc = self.lit(ins[2])
            if lc is not None:
                self.alias(ins[1], ins[3] if lc else ins[4])
            else:
                self.emit(f"_m = {self.fieldmask(self.boolbit(ins[2]))}")
                self.set_reg(
                    ins[1],
                    f"({self.ref(ins[3])} & _m) |"
                    f" ({self.ref(ins[4])} & (_m ^ ALL))",
                    bool_result=self.is_bool(ins[3]) and self.is_bool(ins[4]),
                )
        elif op == RECORD:
            meta = self.program.metas[ins[1]]
            parts = []
            for s, m in meta.fetch:
                if s >= 0:
                    self.reads.add(s)
                    parts.append(f"e{s}")
                else:
                    parts.append(self.K(m))
            ops = f"({', '.join(parts)},)" if parts else "()"
            # Straight-line code runs each RECORD once per pass; the
            # footer hands the events to the sink in a fixed order.
            n = len(self.records)
            self.records.append((meta.stmt_id if self.by_statement else 0, n))
            self.emit(
                f"if sink is not None: _v{n} = ({ins[1]}, cycle,"
                f" {self.ref(ins[2])}, {ops}, {self.effect_act()})"
            )
        elif op == NBA:
            # Committed in the footer; register -1 - k stands for the value.
            k = len(self.nbas)
            src = -1 - k
            if self.lit(ins[2]) is None:
                self.emit(f"_n{k} = {self.ref(ins[2])}")
                rv[src] = ("a", f"_n{k}")
            else:
                rv[src] = rv[ins[2]]
            if self.is_bool(ins[2]):
                self.bools.add(src)
            if self.jumpy:
                self.emit(f"_a{k} = act")
            self.nbas.append((ins[1], src))
        elif op in (ADD, SUB, MUL):
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                folded = la + lb if op == ADD else la - lb if op == SUB else la * lb
                rv[ins[1]] = ("l", folded & ins[4])
            elif op == ADD:
                self.set_reg(
                    ins[1],
                    f"({self.ref(ins[2])} + {self.ref(ins[3])}) & {self.K(ins[4])}",
                )
            elif op == SUB:
                # Guard-bit bias: no lane borrows, low bits are
                # (a-b) mod 2**(F-1).
                self.set_reg(
                    ins[1],
                    f"(({self.ref(ins[2])} | H) - {self.ref(ins[3])})"
                    f" & {self.K(ins[4])}",
                )
            else:
                # A product can exceed the lane field pre-mask: per-lane loop.
                self.set_reg(
                    ins[1],
                    f"_mulv({self.ref(ins[2])}, {self.ref(ins[3])}, {ins[4]})",
                )
        elif op == LNOT:
            la = self.lit(ins[2])
            if la is not None:
                rv[ins[1]] = ("l", 0 if la else 1)
            elif self.is_bool(ins[2]):
                self.set_reg(ins[1], f"{self.ref(ins[2])} ^ L", bool_result=True)
            else:
                self.set_reg(
                    ins[1], f"({self.nz(self.ref(ins[2]))} ^ L)", bool_result=True
                )
        elif op in (LAND, LOR):
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                truth = (la and lb) if op == LAND else (la or lb)
                rv[ins[1]] = ("l", 1 if truth else 0)
            elif la is not None or lb is not None:
                known, other = (la, ins[3]) if la is not None else (lb, ins[2])
                if (op == LAND) == bool(known):
                    # true AND x / false OR x: the result is bool(x).
                    if self.is_bool(other):
                        self.alias(ins[1], other)
                    else:
                        self.set_reg(
                            ins[1], self.nz(self.ref(other)), bool_result=True
                        )
                else:
                    rv[ins[1]] = ("l", 0 if op == LAND else 1)
            else:
                ch = "&" if op == LAND else "|"
                self.set_reg(
                    ins[1],
                    f"{self.boolbit(ins[2])} {ch} {self.boolbit(ins[3])}",
                    bool_result=True,
                )
        elif op == XNOR:
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                rv[ins[1]] = ("l", (la ^ lb) ^ ins[4])
            else:
                # Both operands fit the mask: ~(a ^ b) & m == (a ^ b) ^ m.
                self.set_reg(
                    ins[1],
                    f"({self.ref(ins[2])} ^ {self.ref(ins[3])})"
                    f" ^ {self.K(ins[4])}",
                    bool_result=ins[4] == 1,
                )
        elif op == NEG:
            la = self.lit(ins[2])
            if la is not None:
                rv[ins[1]] = ("l", -la & ins[3])
            else:
                # (2**(F-1) - a) mod 2**w == (-a) mod 2**w for w <= F-1.
                self.set_reg(
                    ins[1], f"(H - {self.ref(ins[2])}) & {self.K(ins[3])}"
                )
        elif op in (DIV, MOD):
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if lb is not None and la is not None:
                folded = ((la // lb if op == DIV else la % lb) if lb else 0)
                rv[ins[1]] = ("l", folded & ins[4])
            elif lb == 0:
                rv[ins[1]] = ("l", 0)
            else:
                name = "_divv" if op == DIV else "_modv"
                self.set_reg(
                    ins[1],
                    f"{name}({self.ref(ins[2])}, {self.ref(ins[3])}, {ins[4]})",
                )
        elif op == SHL:
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                # Literals fit F-1 bits: clamping at F drops what the
                # interpreter's clamp at 64 drops.
                clamped = lb if lb < self.field else self.field
                rv[ins[1]] = ("l", (la << clamped) & ins[4])
            elif lb is not None:
                pre = ins[4] >> lb if lb < self.top else 0
                if pre == 0:
                    rv[ins[1]] = ("l", 0)
                else:
                    # Pre-masking keeps every lane's shift inside its field:
                    # (a & (m >> c)) << c == (a << c) & m.
                    self.set_reg(
                        ins[1], f"({self.ref(ins[2])} & {self.K(pre)}) << {lb}"
                    )
            else:
                self.set_reg(
                    ins[1],
                    f"_shlv({self.ref(ins[2])}, {self.ref(ins[3])}, {ins[4]})",
                )
        elif op == SHR:
            la, lb = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and lb is not None:
                rv[ins[1]] = ("l", la >> (lb if lb < self.field else self.field))
            elif lb is not None:
                if lb >= self.top:
                    rv[ins[1]] = ("l", 0)
                else:
                    # Kept bits sit below F-1-c; neighbour-lane bleed sits
                    # at F-c and above — the shifted lane mask separates them.
                    self.set_reg(
                        ins[1],
                        f"({self.ref(ins[2])} >> {lb})"
                        f" & {self.K(self.value_mask >> lb)}",
                    )
            else:
                self.set_reg(
                    ins[1], f"_shrv({self.ref(ins[2])}, {self.ref(ins[3])})"
                )
        elif op in (RAND, RNAND):
            la = self.lit(ins[2])
            if la is not None:
                hit = la == ins[3]
                rv[ins[1]] = ("l", int(hit if op == RAND else not hit))
            else:
                ne = self.nz(f"{self.ref(ins[2])} ^ {self.K(ins[3])}")
                expr = f"({ne} ^ L)" if op == RAND else ne
                self.set_reg(ins[1], expr, bool_result=True)
        elif op in (ROR, RNOR):
            la = self.lit(ins[2])
            if la is not None:
                rv[ins[1]] = ("l", int(bool(la) if op == ROR else not la))
            elif self.is_bool(ins[2]):
                if op == ROR:
                    self.alias(ins[1], ins[2])
                else:
                    self.set_reg(
                        ins[1], f"{self.ref(ins[2])} ^ L", bool_result=True
                    )
            else:
                nzx = self.nz(self.ref(ins[2]))
                expr = nzx if op == ROR else f"({nzx} ^ L)"
                self.set_reg(ins[1], expr, bool_result=True)
        elif op in (RXOR, RNXOR):
            la = self.lit(ins[2])
            if la is not None:
                parity = la.bit_count() & 1
                rv[ins[1]] = ("l", parity if op == RXOR else 1 - parity)
            elif self.is_bool(ins[2]):
                if op == RXOR:
                    self.alias(ins[1], ins[2])
                else:
                    self.set_reg(
                        ins[1], f"{self.ref(ins[2])} ^ L", bool_result=True
                    )
            else:
                # Masked parity fold from F/2 bits down; each fold halves
                # the live width and the mask kills neighbour-lane bleed.
                self.emit(f"_x = {self.ref(ins[2])}")
                sh = self.field // 2
                while sh > 1:
                    self.emit(f"_x = (_x ^ (_x >> {sh})) & {self.K((1 << sh) - 1)}")
                    sh //= 2
                final = "(_x ^ (_x >> 1)) & L"
                if op == RNXOR:
                    final = f"(({final}) ^ L)"
                self.set_reg(ins[1], final, bool_result=True)
        elif op == BITSEL:
            la, li = self.lit(ins[2]), self.lit(ins[3])
            if la is not None and li is not None:
                rv[ins[1]] = ("l", (la >> min(li, self.field)) & 1)
            elif li is not None:
                if li >= self.top:
                    rv[ins[1]] = ("l", 0)
                else:
                    self.set_reg(
                        ins[1],
                        f"({self.ref(ins[2])} >> {li}) & L",
                        bool_result=True,
                    )
            else:
                self.set_reg(
                    ins[1],
                    f"_bitselv({self.ref(ins[2])}, {self.ref(ins[3])})",
                    bool_result=True,
                )
        elif op == PARTSEL:
            la = self.lit(ins[2])
            lsb, part = ins[3], ins[4]
            if la is not None:
                rv[ins[1]] = ("l", (la >> min(lsb, self.field)) & part)
            elif lsb >= self.top:
                rv[ins[1]] = ("l", 0)
            else:
                eff = part & (self.value_mask >> lsb)
                if eff == 0:
                    rv[ins[1]] = ("l", 0)
                else:
                    base = (
                        f"({self.ref(ins[2])} >> {lsb})" if lsb
                        else self.ref(ins[2])
                    )
                    self.set_reg(
                        ins[1], f"{base} & {self.K(eff)}", bool_result=eff == 1
                    )
        elif op == SHLOR:
            lacc, lpart = self.lit(ins[2]), self.lit(ins[4])
            k = ins[3]
            if lacc is not None and lpart is not None:
                rv[ins[1]] = ("l", (lacc << k) | lpart)
            elif lacc is not None:
                # Width audit bounds acc_width + shift <= F-1: no bleed.
                if lacc << k:
                    self.set_reg(
                        ins[1], f"{self.ref(ins[4])} | {self.K(lacc << k)}"
                    )
                else:
                    self.alias(ins[1], ins[4])
            else:
                base = f"({self.ref(ins[2])} << {k})" if k else self.ref(ins[2])
                if lpart == 0:
                    if k:
                        self.set_reg(ins[1], f"{self.ref(ins[2])} << {k}")
                    else:
                        self.alias(ins[1], ins[2])
                else:
                    self.set_reg(ins[1], f"{base} | {self.ref(ins[4])}")
        elif op == REPL:
            la = self.lit(ins[2])
            if la is not None:
                rv[ins[1]] = ("l", la * ins[3])
            else:
                # Audit bounds each lane's product below 2**(F-1): a plain
                # scalar multiply replicates lane-wise with no bleed.
                self.set_reg(ins[1], f"{self.ref(ins[2])} * {ins[3]}")
        elif op == MASK:
            la = self.lit(ins[2])
            if la is not None:
                rv[ins[1]] = ("l", la & ins[3])
            else:
                self.set_reg(
                    ins[1],
                    f"{self.ref(ins[2])} & {self.K(ins[3])}",
                    bool_result=ins[3] == 1,
                )
        elif op in (JZ, JNZ):
            lc = self.lit(ins[1])
            if lc is not None:
                if (lc == 0) == (op == JZ):
                    # Uniformly taken: every active lane jumps.
                    jv = self._join_var(ins[2])
                    self.emit(f"{jv} = act")
                    self.emit("act = 0")
                    self.emit("nact = ALL")
            else:
                self.emit(f"_m = {self.fieldmask(self.boolbit(ins[1]))}")
                jv = self._join_var(ins[2])
                if op == JZ:
                    self.emit(f"{jv} = act & (_m ^ ALL)")
                    self.emit("act = act & _m")
                else:
                    self.emit(f"{jv} = act & _m")
                    self.emit("act = act & (_m ^ ALL)")
                self.emit("nact = act ^ ALL")
        elif op == JMP:
            jv = self._join_var(ins[1])
            self.emit(f"{jv} = act")
            self.emit("act = 0")
            self.emit("nact = ALL")
        elif op == STOREBIT:
            slot, src, idx, fm = ins[1], ins[2], ins[3], ins[4]
            li, ls = self.lit(idx), self.lit(src)
            e = self.env_ref(slot)
            if li is not None:
                bit = 1 << min(li, self.field)
                keep = fm & ~bit
                base = f"({e} & {self.K(keep)})" if keep != fm else e
                contrib = None
                if bit & fm:
                    if ls is not None:
                        if ls & 1:
                            contrib = self.K(bit)
                    elif self.is_bool(src):
                        contrib = (
                            f"({self.ref(src)} << {li})" if li else self.ref(src)
                        )
                    else:
                        masked = f"({self.ref(src)} & L)"
                        contrib = f"({masked} << {li})" if li else masked
                expr = base if contrib is None else f"{base} | {contrib}"
                self.store_env(slot, expr)
            else:
                self.emit(
                    f"_c = _storebitv({e}, {self.ref(src)},"
                    f" {self.ref(idx)}, {fm})"
                )
                self.store_env(slot, "_c")
        elif op == STOREPART:
            slot, src, lsb, field, fm = ins[1], ins[2], ins[3], ins[4], ins[5]
            shifted = (field << lsb) & fm
            keep = fm & ~shifted
            eff = shifted >> lsb
            e = self.env_ref(slot)
            base = f"({e} & {self.K(keep)})" if keep != fm else e
            ls = self.lit(src)
            if ls is not None:
                cv = ((ls & field) << lsb) & fm
                expr = base if cv == 0 else f"{base} | {self.K(cv)}"
            elif eff == 0:
                expr = base
            else:
                part = f"({self.ref(src)} & {self.K(eff)})"
                expr = f"{base} | ({part} << {lsb})" if lsb else f"{base} | {part}"
            self.store_env(slot, expr)
        else:  # pragma: no cover - all opcodes are handled above
            raise RuntimeError(f"unknown opcode {op}")


_COMPARES = {
    EQ: lambda a, b: a == b,
    NE: lambda a, b: a != b,
    LT: lambda a, b: a < b,
    LE: lambda a, b: a <= b,
    GT: lambda a, b: a > b,
    GE: lambda a, b: a >= b,
}

@functools.lru_cache(maxsize=512)
def _compile_source(source: str, filename: str) -> Any:
    """``compile()`` of one generated pass, shared by identical sources.

    Separately lowered but identical programs (the same design in
    another session, a target program rebuilt in a pool worker)
    translate to the same text, so they share one code object; the
    program's K constants are bound at ``exec`` time.
    """
    return compile(source, filename, "exec")


def _translate(
    program: CompiledProgram, name: str, field: int
) -> tuple[Any, dict[int, str]]:
    """One stream (``comb`` or ``seq``) as a code object and its K constants.

    The code object's filename names the stream, the lane width and a
    digest of the source (``<vector:comb:F16:1a2b3c4d>``): profilers key
    functions by filename, line and name, so every distinct pass is its
    own profile row, while identical sources still share one compile.
    """
    emitter = _StreamEmitter(
        program, getattr(program, name), field, by_statement=name == "comb"
    )
    source = emitter.source()
    digest = hashlib.blake2b(source.encode(), digest_size=4).hexdigest()
    code = _compile_source(source, f"<vector:{name}:F{field}:{digest}>")
    return code, dict(emitter.consts)


def _bind(code: Any, consts: dict[int, str], n: int, field: int) -> Callable:
    """Bind one translated pass to an ``n``-lane context of ``field``-bit lanes."""
    ones, lane_l, lane_h, lane_all = _lane_ctx(n, field)
    bindings: dict[str, Any] = {"L": lane_l, "H": lane_h, "ALL": lane_all}
    bindings.update(_helpers(n, field))
    for value, kname in consts.items():
        bindings[kname] = value * ones
    exec(code, bindings)
    return bindings["_pass"]


def _pass_fns(program: CompiledProgram, n: int) -> tuple[Callable | None, ...]:
    """The program's ``(comb, seq)`` ``_pass(env, cycle, sink, lanes,
    nlanes, full)`` functions for ``n`` lanes, None for an empty stream.

    ``sink`` is the event log the pass extends with its records, or
    None to record nothing (settle iterations, unrecorded runs).  Each
    stream translates once per program, at the program's lane width, and
    binds once per lane count.
    """
    entry = _program_entry(program)
    fns = entry.fns.get(n)
    if fns is None:
        if entry.code is None:
            entry.code = tuple(
                _translate(program, name, entry.field) if getattr(program, name) else None
                for name in ("comb", "seq")
            )
        fns = entry.fns[n] = tuple(
            None if code is None else _bind(*code, n, entry.field)
            for code in entry.code
        )
    return fns


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------


def _pack(values: np.ndarray, field: int) -> int:
    """One packed lane int from a vector of lane values (lane ``i`` =
    ``values[i]``, each below ``2**field``).

    The bytes are taken little-endian explicitly, so lane ``i`` lands at
    bits ``field * i`` whatever the host's byte order.
    """
    return int.from_bytes(
        values.astype(_FIELD_DTYPE[field], copy=False).tobytes(), "little"
    )


def _pack_stimuli(
    program: CompiledProgram, suite: StimulusSuite, field: int
) -> tuple[list[list[tuple[int, int, int]]], list[int]]:
    """Pack a suite's stimulus into lane ints, straight from its arrays.

    Returns, per cycle, ``(slot, packed values, packed not-driven mask)``
    triples for every slot some lane drives, plus the packed alive-lane
    mask.  The masked values are transposed once to a contiguous
    ``[cycles, inputs, lanes]`` little-endian array of ``field``-bit
    lanes whose bytes are taken once; each ``(cycle, input)`` row is then
    one ``int.from_bytes`` over a ``memoryview`` slice (lane ``i`` lands
    at bits ``field * i``).
    """
    from .simulator import SimulationError

    slot_of = program.slot_of
    for name in suite.inputs:
        if name not in slot_of:
            raise SimulationError(f"stimulus drives unknown input {name!r}")
    slots = [slot_of[name] for name in suite.inputs]
    n = len(suite)
    lengths = suite.lengths
    cycles = int(lengths.max())
    values = suite.values[:, :cycles]
    masks = [program.masks[slot] for slot in slots]
    if values.dtype == object:
        values = (values & np.array(masks, dtype=object)).astype(np.uint64)
    else:
        values = values & np.array(masks, dtype=np.uint64)
    lane = np.uint64((1 << field) - 1)
    # A lane past its last cycle drives nothing, like an omitted input.
    driven = (np.arange(cycles) < lengths[:, None])[:, :, None]
    if suite.driven is not None:
        driven = driven & suite.driven[:, :cycles]
    if not driven.all():
        driven = np.broadcast_to(driven, values.shape)
        values = np.where(driven, values, np.uint64(0))
        undriven = _lane_bytes(np.where(driven, np.uint64(0), lane), field)
        any_driven = driven.any(axis=0).tolist()
        all_driven = driven.all(axis=0).tolist()
    else:
        undriven = memoryview(b"")
        any_driven = all_driven = [[True] * len(slots)] * cycles
    packed = _lane_bytes(values, field)
    row = n * field // 8
    frames: list[list[tuple[int, int, int]]] = []
    offset = 0
    for cycle in range(cycles):
        frame = []
        for slot, on, full in zip(slots, any_driven[cycle], all_driven[cycle]):
            if on:
                value = int.from_bytes(packed[offset : offset + row], "little")
                keep = 0 if full else int.from_bytes(undriven[offset : offset + row], "little")
                frame.append((slot, value, keep))
            offset += row
        frames.append(frame)
    lane_all = _lane_ctx(n, field)[3]
    shortest = int(lengths.min())
    alive_masks = [
        lane_all
        if cycle < shortest
        else _pack(np.where(lengths > cycle, lane, np.uint64(0)), field)
        for cycle in range(cycles)
    ]
    return frames, alive_masks


def _lane_bytes(cells: np.ndarray, field: int) -> memoryview:
    """The ``[lanes, cycles, inputs]`` cells as cycle-, input-, lane-major
    bytes of ``field``-bit lanes."""
    return memoryview(
        np.ascontiguousarray(cells.transpose(1, 2, 0), dtype=_FIELD_DTYPE[field]).tobytes()
    )


def run_vector_suite(
    module: Module,
    program: CompiledProgram,
    stimuli: "StimulusSuite | list[list[dict[str, int]]]",
    record: bool = True,
    selectors: list[int] | None = None,
) -> list[Trace]:
    """Simulate all ``stimuli`` of one compiled design in lockstep.

    Implements exactly the interpreter's per-cycle schedule (apply
    stimulus, settle comb, sample outputs, clock edge, commit) with
    every phase executing over all lanes at once.  The program has one
    comb and one clock-edge pass, each of which commits its own
    non-blocking writes; each gets the suite's event log as its sink
    when recording, None otherwise.  A
    :attr:`~repro.sim.compiler.CompiledProgram.levelized` program
    settles in exactly one comb pass per cycle, with no snapshot and no
    compare, and that pass also records.  Any other program settles comb
    to a fixpoint with no sink (at most
    :data:`~repro.sim.compiler.MAX_SETTLE_PASSES` passes, else
    :class:`~repro.sim.SimulationError`) and then, when recording, runs
    one more pass with the sink, like the interpreter.  Returns traces
    in stimulus order, byte-identical to per-trace interpreter runs —
    ragged suites included (a lane past its last cycle is simply never
    active again).

    On a target program, ``selectors`` holds each lane's variant: the
    selector slot is preset lane by lane and never written, so every
    lane runs its own variant's arm of each dispatch (the arms are
    predicated like any other branch) and a whole mutant set shares one
    dispatch per cycle.

    Raises:
        ValueError: If ``program`` fails the 63-bit lane audit
            (:func:`vectorizable`); simulate it on the interpreter.
    """
    from .simulator import _ENGINE_STATS, SimulationError

    field = _program_entry(program).field
    if not field:
        raise ValueError(
            f"design {module.name!r} does not fit 63-bit lanes;"
            " simulate it with engine='interpreted'"
        )
    suite = StimulusSuite.from_frames(stimuli)
    if not len(suite):
        return []
    n = len(suite)
    lane_lengths = suite.lengths.tolist()
    max_cycles = max(lane_lengths)
    lane_all = _lane_ctx(n, field)[3]
    frames, alive_masks = _pack_stimuli(program, suite, field)

    env: list[int] = [0] * len(program.names)
    variant_lanes = 0
    if selectors is not None:
        if (
            program.selector_slot < 0
            or len(selectors) != n
            or not 0 <= min(selectors) <= max(selectors) <= program.n_variants
        ):
            raise ValueError(
                "selectors need a target program and one variant per stimulus"
            )
        env[program.selector_slot] = _pack(np.array(selectors, dtype=np.uint64), field)
        variant_lanes = sum(1 for selector in selectors if selector)
    # The event log: each pass run with it as its sink extends it.
    events: list[tuple] | None = [] if record else None
    out_slots = [slot for _, slot in program.output_slots]
    out_names = tuple(name for name, _ in program.output_slots)
    out_frames: list[list[int]] = []

    # Purely sequential designs have empty comb streams: the settle loop
    # (and its fixpoint snapshot compare) can be skipped outright.
    comb_fn, seq_fn = _pass_fns(program, n)
    one_pass = program.levelized
    comb_passes = 0

    for cycle in range(max_cycles):
        lanes = alive_masks[cycle]
        nlanes = lanes ^ lane_all
        full = lanes == lane_all
        for slot, values, ndrive in frames[cycle]:
            env[slot] = (env[slot] & ndrive) | values if ndrive else values

        if comb_fn is not None and one_pass:
            comb_fn(env, cycle, events, lanes, nlanes, full)
            comb_passes += 1
        elif comb_fn is not None:
            for _iteration in range(MAX_SETTLE_PASSES):
                snapshot = env.copy()
                comb_fn(env, cycle, None, lanes, nlanes, full)
                comb_passes += 1
                if env == snapshot:
                    break
            else:
                raise SimulationError(
                    f"combinational logic did not settle in design {module.name!r}"
                )
            if events is not None:
                comb_fn(env, cycle, events, lanes, nlanes, full)
                comb_passes += 1

        out_frames.append([env[slot] for slot in out_slots])

        if seq_fn is not None:
            seq_fn(env, cycle, events, lanes, nlanes, full)

    log = unpack_events(program.shapes, events, n, field) if events is not None else None
    # Every lane's outputs are a view of one (cycles * outputs, N)
    # matrix, unpacked in one pass; stimuli are views of the suite.
    out_matrix = (
        _unpack([value for frame in out_frames for value in frame], n, field)
        if out_frames and out_names
        else np.zeros((0, n), dtype=np.int64)
    )
    traces: list[Trace] = []
    for lane, length in enumerate(lane_lengths):
        trace = Trace(
            design=module.name,
            stimulus=suite[lane],  # type: ignore[arg-type]
            outputs=_LaneOutputs(out_names, out_matrix, lane, length),  # type: ignore[arg-type]
        )
        if log is not None:
            trace.executions = _LazyExecutions(log=log, lane=lane)
        traces.append(trace)

    stats = _ENGINE_STATS["vector"]
    stats["batches"] += 1
    stats["lanes"] += n
    stats["variant_lanes"] += variant_lanes
    stats["cycles"] += sum(lane_lengths)
    stats["comb_passes"] += comb_passes
    stats["fixpoint_batches"] += bool(comb_fn is not None and not one_pass)
    return traces
