"""Trace containers produced by the simulator.

A :class:`Trace` is the unit of data VeriBug learns from: per-cycle input
stimulus, per-cycle output values, and — crucially — one execution record
for every assignment statement that actually executed in a cycle, with
the values its operands held at evaluation time.  This is the "free
supervision" of paper §IV-C.

Recorded executions have one format, :class:`SuiteLog`: an event-major
log whose lanes are traces.  The vector engine records one log per
suite (:func:`repro.sim.vector.unpack_events`), the interpreter a
one-lane log per run (:class:`repro.sim.recorder.ExecutionRecorder`),
and every trace's ``executions`` attribute is a :class:`_LazyExecutions`
view of its ``(log, lane)``: an unrecorded run reads one shared empty
log, and a hand-assembled record list is converted on construction
(:meth:`SuiteLog.from_records`).  :class:`StatementExecution` objects
are a *derived* representation, materialized only when something
actually indexes or iterates the record list; log-aware consumers (the
explainer's dedup, training samples, coverage,
:meth:`Trace.executions_of`, :meth:`Trace.executed_stmt_ids`) never pay
for them.

Traces of a vector-engine suite are *lane views*: besides their
executions, ``outputs`` is a :class:`_LaneOutputs` view of the lane's
column of the suite's output matrix and ``stimulus`` a view of the
lane's row of its :class:`~repro.sim.testbench.StimulusSuite`.  Lane
views read like the lists they stand for and pickle as plain objects:
a view ships its container and lane index, never its materialized
items, so the lanes of one suite pickled together share one log, one
output matrix and one stimulus suite.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

#: Pseudo-signal name reported by :meth:`Trace.first_divergence` when the
#: two traces disagree on cycle count before any common-cycle output
#: mismatch.  The angle brackets keep it disjoint from every legal
#: Verilog identifier.
LENGTH_DIVERGENCE = "<n_cycles>"


@dataclass(frozen=True)
class StatementExecution:
    """One dynamic execution of an assignment statement.

    Attributes:
        stmt_id: Stable id of the executed statement.
        cycle: 0-based simulation cycle.
        target: Name of the assigned signal.
        operands: RHS identifier names in first-use order.
        operand_values: Value of each operand at evaluation time.
        lhs_value: Value written (for non-blocking: value to be committed).
        lhs_width: Width of the written slice.
    """

    stmt_id: int
    cycle: int
    target: str
    operands: tuple[str, ...]
    operand_values: tuple[int, ...]
    lhs_value: int
    lhs_width: int

    @property
    def operand_map(self) -> dict[str, int]:
        """Operand name -> value mapping for this execution."""
        return dict(zip(self.operands, self.operand_values))


class _LazyList:
    """Read-only list facade whose items are built on first access.

    Subclasses give the length and :meth:`_build` the items; the facade
    indexes, iterates and compares like the list it stands for.
    """

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: list | None = None

    def _build(self) -> list:
        raise NotImplementedError

    def _materialized(self) -> list:
        if self._records is None:
            self._records = self._build()
        return self._records

    def __iter__(self):
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]

    def __eq__(self, other):
        try:
            other = list(other)
        except TypeError:
            # Non-iterable comparand (e.g. ``trace.executions == None``):
            # defer instead of raising, like any well-behaved sequence.
            return NotImplemented
        return self._materialized() == other

    def __repr__(self) -> str:
        return repr(self._materialized())

    def __getstate__(self):
        # A view pickles as what it reads, never as its built items.
        _dict, slots = super().__getstate__()
        return None, {**slots, "_records": None}


class SuiteLog:
    """The recorded executions of a suite's lanes, event-major.

    The one container of recorded executions: a vector suite's log has
    one lane per trace, an interpreter run's (and a hand-assembled
    record list's) has one lane.  One event per record the engine
    emitted, in emission order: ``slots``/``cycles`` are ``[E]`` (a slot
    indexes :attr:`shapes`, the statement-shape table, whose stmt ids
    and operand counts are :attr:`stmt_ids` and :attr:`widths`), ``lhs``
    and ``active`` are ``[E, N]`` over the N lanes, and event ``e`` owns the
    ``op_counts[e]`` operand rows from ``op_starts[e]`` on of the
    ``[F, N]`` operand matrix.  Lane ``n`` executed event ``e``
    iff ``active[e, n]``.

    Value arrays are int64, or ``object`` when a value overflows 63 bits
    (an interpreter run of a wide design); the execution dedup and
    sample gathers read int64 logs only.
    """

    __slots__ = (
        "shapes",
        "stmt_ids",
        "widths",
        "slots",
        "cycles",
        "lhs",
        "op_counts",
        "op_starts",
        "ops",
        "active",
        "_counts",
    )

    def __init__(self, shapes, slots, cycles, lhs, ops, active, stmt_ids=None, widths=None):
        self.shapes = shapes
        # A log over another log's table (a lane slice) shares its
        # derived columns instead of walking the table again.
        if stmt_ids is None:
            stmt_ids = np.fromiter((row[0] for row in shapes), np.int64, len(shapes))
            widths = np.fromiter((len(row[2]) for row in shapes), np.int64, len(shapes))
        self.stmt_ids = stmt_ids
        self.widths = widths
        self.slots = slots
        self.cycles = cycles
        self.lhs = lhs
        self.op_counts = self.widths[slots]
        self.op_starts = _bounds(self.op_counts)[:-1]
        self.ops = ops
        self.active = active
        self._counts: list[int] | None = None

    @classmethod
    def one_lane(cls, shapes, slots, cycles, lhs, flat) -> "SuiteLog":
        """A one-lane, all-active log of plain per-event lists.

        ``flat`` holds each event's operand values back to back.
        """
        return cls(
            shapes,
            np.asarray(slots, dtype=np.int64),
            np.asarray(cycles, dtype=np.int64),
            _value_column(lhs),
            _value_column(flat),
            np.ones((len(slots), 1), dtype=bool),
        )

    @classmethod
    def from_records(cls, executions: Iterable[StatementExecution]) -> "SuiteLog":
        """One lane holding ``executions`` in order, over their first-use
        shape table: how hand-assembled record lists enter the log format.
        """
        index: dict[tuple, int] = {}
        slots: list[int] = []
        cycles: list[int] = []
        lhs: list[int] = []
        flat: list[int] = []
        for execution in executions:
            slot = index.setdefault(
                (
                    execution.stmt_id,
                    execution.target,
                    execution.operands,
                    execution.lhs_width,
                ),
                len(index),
            )
            slots.append(slot)
            cycles.append(execution.cycle)
            lhs.append(execution.lhs_value)
            flat.extend(execution.operand_values)
        return cls.one_lane(tuple(index), slots, cycles, lhs, flat)

    @property
    def n_lanes(self) -> int:
        return self.active.shape[1]

    @property
    def wide(self) -> bool:
        """True when a >63-bit value keeps the value arrays as ``object``."""
        return self.lhs.dtype == object or self.ops.dtype == object

    def lane_count(self, lane: int) -> int:
        """Executions recorded in one lane."""
        if self._counts is None:
            self._counts = np.count_nonzero(self.active, axis=0).tolist()
        return self._counts[lane]

    def lane_slice(self, lane: int) -> "SuiteLog":
        """One lane alone: its events, their operand rows, the same shapes.

        How two lanes of different logs compare event by event; a
        one-lane, all-active log is its own slice.
        """
        if self.n_lanes == 1 and self.lane_count(0) == len(self.slots):
            return self
        mask = self.active[:, lane]
        return SuiteLog(
            self.shapes,
            self.slots[mask],
            self.cycles[mask],
            self.lhs[mask, lane : lane + 1],
            self.ops[np.repeat(mask, self.op_counts), lane : lane + 1],
            np.ones((self.lane_count(lane), 1), dtype=bool),
            self.stmt_ids,
            self.widths,
        )

    def records(self, lane: int, mask: np.ndarray | None = None) -> list[StatementExecution]:
        """One lane's execution records in order; with ``mask``, only the
        events it selects (a subset of the lane's active events)."""
        if mask is None:
            mask = self.active[:, lane]
        flat = self.ops[np.repeat(mask, self.op_counts), lane].tolist()
        shapes = self.shapes
        new = object.__new__
        executions: list[StatementExecution] = []
        position = 0
        for slot, cycle, lhs_value in zip(
            self.slots[mask].tolist(),
            self.cycles[mask].tolist(),
            self.lhs[mask, lane].tolist(),
        ):
            stmt_id, target, operands, lhs_width = shapes[slot]
            end = position + len(operands)
            execution = new(StatementExecution)
            # Frozen dataclass: populate the instance dict directly
            # (object.__setattr__ per field costs ~4x as much, which
            # matters at 10^5 records per trace set).
            execution.__dict__.update(
                stmt_id=stmt_id,
                cycle=cycle,
                target=target,
                operands=operands,
                operand_values=tuple(flat[position:end]),
                lhs_value=lhs_value,
                lhs_width=lhs_width,
            )
            executions.append(execution)
            position = end
        return executions

    def records_of(self, lane: int, stmt_id: int) -> list[StatementExecution]:
        """One lane's records of one statement, gathered off the log."""
        matching = self.stmt_ids[self.slots] == stmt_id
        return self.records(lane, self.active[:, lane] & matching)

    def stmt_counts(self, lane: int) -> dict[int, int]:
        """Per-statement execution counts of one lane: the coverage query."""
        ids, counts = np.unique(
            self.stmt_ids[self.slots[self.active[:, lane]]], return_counts=True
        )
        return dict(zip(ids.tolist(), counts.tolist()))


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Segment boundaries ``[0, c0, c0 + c1, ...]`` of a count vector."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _value_column(values: list[int]) -> np.ndarray:
    """``[len(values), 1]`` int64, or ``object`` on >63-bit overflow."""
    try:
        column = np.asarray(values, dtype=np.int64)
    except OverflowError:
        column = np.empty(len(values), dtype=object)
        column[:] = values
    return column.reshape(-1, 1)


class _LazyExecutions(_LazyList):
    """Sequence facade over one lane of a :class:`SuiteLog`.

    Log-aware consumers (the execution dedup, training samples,
    coverage) read :attr:`log` and never pay for object
    construction; everything else materializes the lane's records on
    first access.  ``len()`` reads the lane's active count.
    """

    __slots__ = ("log", "lane")

    def __init__(self, log: SuiteLog, lane: int = 0):
        super().__init__()
        self.log = log
        self.lane = lane

    def _build(self) -> list[StatementExecution]:
        return self.log.records(self.lane)

    def __len__(self) -> int:
        return self.log.lane_count(self.lane)


class _LaneOutputs(_LazyList):
    """Sequence facade over one lane of a suite's output matrix.

    The vector engine samples every lane's outputs into one ``(cycles *
    outputs, N)`` int64 matrix; a lane's :attr:`Trace.outputs` is this
    view of its column instead of its own list of per-cycle dicts.  It
    compares, indexes and iterates like that list (the dicts are built
    on first access), :meth:`column` hands the raw values to vectorized
    consumers (campaign classification).
    """

    __slots__ = ("names", "matrix", "lane", "length")

    def __init__(self, names: tuple[str, ...], matrix: np.ndarray, lane: int, length: int):
        super().__init__()
        self.names = names
        self.matrix = matrix
        self.lane = lane
        self.length = length

    def column(self) -> np.ndarray:
        """This lane's values, cycle-major: ``length * len(names)`` entries."""
        return self.matrix[: self.length * len(self.names), self.lane]

    def _build(self) -> list[dict[str, int]]:
        names = self.names
        width = len(names)
        if not width:
            return [{} for _ in range(self.length)]
        values = self.column().tolist()
        return [
            dict(zip(names, values[row : row + width]))
            for row in range(0, len(values), width)
        ]

    def __len__(self) -> int:
        return self.length


#: The log of every unrecorded run: no shapes, no events, one lane.
_EMPTY_LOG = SuiteLog.one_lane((), [], [], [], [])


@dataclass
class Trace:
    """A full simulation run of one design under one stimulus.

    ``executions`` is always a :class:`_LazyExecutions` view of one lane
    of a :class:`SuiteLog` (:meth:`execution_log`): both engines record
    the log natively and hand the trace its view, never constructing a
    :class:`StatementExecution` during the run; an unrecorded run's view
    reads :data:`_EMPTY_LOG`, and a hand-assembled record list is
    converted once on construction (:meth:`SuiteLog.from_records`).  The
    record list materializes only when something explicitly indexes or
    iterates the view; the dedup, training samples and coverage read the
    log and never do.  A trace pickles as its views, whose shared
    containers (log, output matrix, stimulus suite) pickle's memo ships
    once per payload.

    ``stimulus`` and ``outputs`` are lists of per-cycle dicts, or — for
    vector-engine lanes — sequence views that build those dicts on
    first access (see the module docstring).
    """

    design: str
    stimulus: list[dict[str, int]] = field(default_factory=list)
    outputs: list[dict[str, int]] = field(default_factory=list)
    executions: list[StatementExecution] = field(default_factory=list)
    is_failure: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.executions, _LazyExecutions):
            records = self.executions
            log = SuiteLog.from_records(records) if records else _EMPTY_LOG
            self.executions = _LazyExecutions(log)  # type: ignore[assignment]

    def execution_log(self) -> tuple[SuiteLog, int]:
        """``(log, lane)``: the log and lane ``executions`` reads."""
        executions: _LazyExecutions = self.executions  # type: ignore[assignment]
        return executions.log, executions.lane

    @property
    def n_cycles(self) -> int:
        """Number of simulated cycles."""
        return len(self.outputs)

    def executions_of(self, stmt_id: int) -> list[StatementExecution]:
        """All executions of one statement across the trace, gathered
        off the log."""
        log, lane = self.execution_log()
        return log.records_of(lane, stmt_id)

    def executed_stmt_ids(self) -> set[int]:
        """Ids of statements that executed at least once."""
        log, lane = self.execution_log()
        return set(log.stmt_counts(lane))

    def output_series(self, name: str) -> list[int]:
        """Per-cycle values of one output signal."""
        return [frame[name] for frame in self.outputs]

    def diverges_from(self, other: "Trace", signals: list[str] | None = None) -> bool:
        """True when any (selected) output differs from ``other`` in any cycle.

        Used to classify a mutant trace as failing relative to the golden
        design simulated under the same stimulus.
        """
        if self.n_cycles != other.n_cycles:
            return True
        names = signals if signals is not None else sorted(
            set(self.outputs[0]) & set(other.outputs[0])
        ) if self.outputs else []
        for mine, theirs in zip(self.outputs, other.outputs):
            for name in names:
                if mine.get(name) != theirs.get(name):
                    return True
        return False

    def first_divergence(
        self, other: "Trace", signals: list[str] | None = None
    ) -> tuple[int, str] | None:
        """Return (cycle, signal) of the first output mismatch, or None.

        Consistent with :meth:`diverges_from`: when one trace is a strict
        cycle-prefix of the other and every common cycle matches, the
        divergence is reported at the length-mismatch boundary — the
        first cycle present in only one trace — with
        :data:`LENGTH_DIVERGENCE` as the signal name.
        """
        names = signals if signals is not None else sorted(
            set(self.outputs[0]) & set(other.outputs[0])
        ) if self.outputs and other.outputs else []
        for cycle, (mine, theirs) in enumerate(zip(self.outputs, other.outputs)):
            for name in names:
                if mine.get(name) != theirs.get(name):
                    return cycle, name
        if self.n_cycles != other.n_cycles:
            return min(self.n_cycles, other.n_cycles), LENGTH_DIVERGENCE
        return None
