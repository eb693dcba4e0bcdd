"""Execution recording for the interpreter.

The paper's "free supervision" (§IV-C) is one execution record per
assignment statement per cycle.  Materializing those as
:class:`~repro.sim.trace.StatementExecution` objects costs one frozen
dataclass, one operand-value tuple, and several attribute stores per
execution — easily 10^5 allocations per trace set — only for downstream
consumers (the explainer's dedup, training samples, the shard wire
format) to read them as arrays anyway.

:class:`ExecutionRecorder` inverts that: the interpreter appends
executed facts straight into growing lists (statement slot, cycle, lhs
value, flat operand values) against a statement-shape table resolved
before the first cycle runs (``Evaluator.statement_shape`` per
statement), and :meth:`ExecutionRecorder.finish` turns them into a
one-lane :class:`~repro.sim.trace.SuiteLog` over that table — the same
format the vector engine's generated passes log for a whole suite
(:func:`~repro.sim.vector.unpack_events`), with its table resolved at
compile time (``CompiledProgram.shapes``).  Record objects are never constructed
during simulation; the trace's record list is a lazy derived view of
its lane.

The interpreter's combinational settle passes need dedup semantics
(only the final settled evaluation of each statement per cycle is kept,
ordered by statement id), so they stage into a reusable per-pass buffer
that :meth:`ExecutionRecorder.commit_pass` folds into the main lists.
The vector engine needs no stage: its recording comb pass runs each
``RECORD`` once and emits the events in statement-id order itself.
Clock-edge records append to the main lists directly, in execution
order — exactly the schedule the object-record path implemented.
"""

from __future__ import annotations

from .trace import SuiteLog

#: A statement-shape row — ``(stmt_id, target, operands, lhs_width)``,
#: the layout of :attr:`SuiteLog.shapes`.
ShapeRow = tuple[int, str, tuple[str, ...], int]


class _PassBuffer:
    """Reusable staging sink for one combinational settle pass.

    Exposes the same four list attributes as the recorder itself, so
    engine record paths append identically whether they target the main
    lists (clock edge) or a pass stage (final comb evaluation).
    """

    __slots__ = ("stmt_slots", "cycles", "lhs_values", "flat_values")

    def __init__(self) -> None:
        self.stmt_slots: list[int] = []
        self.cycles: list[int] = []
        self.lhs_values: list[int] = []
        self.flat_values: list[int] = []

    def clear(self) -> None:
        self.stmt_slots.clear()
        self.cycles.clear()
        self.lhs_values.clear()
        self.flat_values.clear()


class ExecutionRecorder:
    """Appends executed-assignment facts straight into growing lists.

    Args:
        shapes: The statement-shape table (:data:`ShapeRow` per slot).
            Engines append a pre-resolved *slot* (index into this table)
            per execution instead of the statement's names and widths.

    A record consists of one append to each of :attr:`stmt_slots`,
    :attr:`cycles`, and :attr:`lhs_values`, plus ``len(shapes[slot][2])``
    appends to :attr:`flat_values` (the operand values, recorded
    *pre-store* — a self-referencing blocking assign records the value
    its operand held before the write).
    """

    __slots__ = (
        "shapes",
        "stmt_slots",
        "cycles",
        "lhs_values",
        "flat_values",
        "_stage",
    )

    def __init__(self, shapes: tuple[ShapeRow, ...]):
        self.shapes = shapes
        self.stmt_slots: list[int] = []
        self.cycles: list[int] = []
        self.lhs_values: list[int] = []
        self.flat_values: list[int] = []
        self._stage: _PassBuffer | None = None

    def __len__(self) -> int:
        return len(self.stmt_slots)

    # -- combinational settle passes -----------------------------------
    def begin_pass(self) -> _PassBuffer:
        """Cleared staging buffer for one instrumented comb pass."""
        stage = self._stage
        if stage is None:
            stage = self._stage = _PassBuffer()
        else:
            stage.clear()
        return stage

    def commit_pass(self, cycle: int) -> None:
        """Fold the staged comb pass into the main lists.

        Keeps the *last* staged record per statement and appends the
        survivors ordered by statement id — the settled-value dedup of
        the interpreter's combinational records (the vector pass emits
        them in that order directly).
        """
        stage = self._stage
        if stage is None or not stage.stmt_slots:
            return
        slots = stage.stmt_slots
        shapes = self.shapes
        latest: dict[int, int] = {}
        offsets = [0]
        position = 0
        for index, slot in enumerate(slots):
            latest[slot] = index
            position += len(shapes[slot][2])
            offsets.append(position)
        flat = stage.flat_values
        lhs = stage.lhs_values
        for slot in sorted(latest, key=lambda s: shapes[s][0]):
            index = latest[slot]
            self.stmt_slots.append(slot)
            self.cycles.append(cycle)
            self.lhs_values.append(lhs[index])
            self.flat_values.extend(flat[offsets[index] : offsets[index + 1]])
        stage.clear()

    # -- finalization --------------------------------------------------
    def finish(self) -> SuiteLog:
        """The recorded run as a one-lane, all-active :class:`SuiteLog`.

        Slots index the full shape table; values are int64, or
        ``object`` when a >63-bit value overflows a lane.
        """
        return SuiteLog.one_lane(
            self.shapes, self.stmt_slots, self.cycles, self.lhs_values, self.flat_values
        )
