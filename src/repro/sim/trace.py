"""Trace containers produced by the simulator.

A :class:`Trace` is the unit of data VeriBug learns from: per-cycle input
stimulus, per-cycle output values, and — crucially — one execution record
for every assignment statement that actually executed in a cycle, with
the values its operands held at evaluation time.  This is the "free
supervision" of paper §IV-C.

The executions are **columnar-first**: both simulator engines record
straight into :class:`ExecutionColumns` (via
:class:`repro.sim.recorder.ExecutionRecorder`), and a recorded trace's
``executions`` attribute is a :class:`_LazyExecutions` view over those
columns.  :class:`StatementExecution` objects are a *derived*
representation, materialized only when something actually indexes or
iterates the record list; column-aware consumers (the explainer's
vectorized dedup, :meth:`Trace.executions_of`,
:meth:`Trace.executed_stmt_ids`, serialization) never pay for them.

Traces of a vector-engine suite are *lane views*: their executions are
one lane of the suite's event-major :class:`SuiteLog`, ``outputs`` is a
:class:`_LaneOutputs` view of the lane's column of the suite's output
matrix, and ``stimulus`` a view of the lane's row of its
:class:`~repro.sim.testbench.StimulusSuite`.  The execution dedup reads
the log directly; a lane's :class:`ExecutionColumns` are compacted out of
it only when a per-lane consumer (pickling, training, coverage, record
iteration) asks, and then for every lane of the log at once; a process
boundary that knows every trace it ships compacts just those lanes
first (:func:`compact_shipped_lanes`).  Lane views read like the lists
they stand for and pickle to just their own lane's data.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

#: Pseudo-signal name reported by :meth:`Trace.first_divergence` when the
#: two traces disagree on cycle count before any common-cycle output
#: mismatch.  The angle brackets keep it disjoint from every legal
#: Verilog identifier.
LENGTH_DIVERGENCE = "<n_cycles>"

_I32_MIN = np.iinfo(np.int32).min
_I32_MAX = np.iinfo(np.int32).max


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


class ExecutionColumns:
    """The executions of one trace in columnar (struct-of-arrays) form.

    Layout: ``stmt_table`` holds one ``(stmt_id, target, operands,
    lhs_width)`` row per distinct statement shape; per execution there is
    a slot into that table, a cycle, an lhs value, and a span of
    ``operand_width(slot)`` entries in the flat operand-value column.
    Execution order is preserved exactly.

    Value columns are int64 numpy arrays when every value fits (the
    common case — they pickle as flat buffers and feed the explainer's
    vectorized dedup without conversion) and plain Python lists when a
    >63-bit simulator value forces arbitrary precision.

    Since the simulator records columnar natively
    (:class:`repro.sim.recorder.ExecutionRecorder`), this is the source
    of truth for a recorded trace in-process and on the wire;
    :meth:`pack` remains for manually assembled record lists and
    round-trip testing.
    """

    __slots__ = ("stmt_table", "stmt_slots", "cycles", "lhs_values", "flat_values")

    def __init__(self, stmt_table, stmt_slots, cycles, lhs_values, flat_values):
        self.stmt_table = stmt_table
        self.stmt_slots = stmt_slots
        self.cycles = cycles
        self.lhs_values = lhs_values
        self.flat_values = flat_values

    def __len__(self) -> int:
        return len(self.stmt_slots)

    @staticmethod
    def _column(values: list[int]):
        """The narrowest integer array, or the list on >63-bit overflow."""
        try:
            column = np.asarray(values, dtype=np.int64)
        except OverflowError:
            return values
        if column.size and (
            column.min() >= np.iinfo(np.int32).min
            and column.max() <= np.iinfo(np.int32).max
        ):
            return column.astype(np.int32)
        return column

    @classmethod
    def pack(cls, executions: list[StatementExecution]) -> "ExecutionColumns":
        stmt_table: list[tuple[int, str, tuple[str, ...], int]] = []
        index_of: dict[tuple[int, str, tuple[str, ...], int], int] = {}
        stmt_slots: list[int] = []
        cycles: list[int] = []
        lhs_values: list[int] = []
        flat_values: list[int] = []
        for execution in executions:
            key = (
                execution.stmt_id,
                execution.target,
                execution.operands,
                execution.lhs_width,
            )
            slot = index_of.get(key)
            if slot is None:
                slot = index_of[key] = len(stmt_table)
                stmt_table.append(key)
            stmt_slots.append(slot)
            cycles.append(execution.cycle)
            lhs_values.append(execution.lhs_value)
            flat_values.extend(execution.operand_values)
        return cls(
            stmt_table,
            np.asarray(stmt_slots, dtype=np.int32),
            np.asarray(cycles, dtype=np.int32),
            cls._column(lhs_values),
            cls._column(flat_values),
        )

    def unpack(self) -> list[StatementExecution]:
        """Rebuild the execution records, identically and in order."""
        executions: list[StatementExecution] = []
        new = object.__new__
        flat = self.flat_values
        if isinstance(flat, np.ndarray):
            flat = flat.tolist()
        lhs_column = self.lhs_values
        if isinstance(lhs_column, np.ndarray):
            lhs_column = lhs_column.tolist()
        position = 0
        for slot, cycle, lhs_value in zip(
            self.stmt_slots.tolist(), self.cycles.tolist(), lhs_column
        ):
            stmt_id, target, operands, lhs_width = self.stmt_table[slot]
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

    def operand_offsets(self) -> np.ndarray:
        """Start offset of each execution's span in ``flat_values``.

        Length ``len(self) + 1``; execution ``i`` owns
        ``flat_values[offsets[i]:offsets[i + 1]]``.
        """
        offsets = np.zeros(len(self.stmt_slots) + 1, dtype=np.int64)
        if len(self.stmt_slots):
            widths = np.fromiter(
                (len(row[2]) for row in self.stmt_table),
                dtype=np.int64,
                count=len(self.stmt_table),
            )
            np.cumsum(widths[self.stmt_slots], out=offsets[1:])
        return offsets

    def executed_stmt_ids(self) -> set[int]:
        """Ids of statements with at least one execution (no unpack)."""
        if not len(self.stmt_slots):
            return set()
        table = self.stmt_table
        return {table[slot][0] for slot in np.unique(self.stmt_slots).tolist()}

    def execution_counts(self) -> dict[int, int]:
        """Per-statement execution counts — the coverage query.

        One ``np.unique`` over the slot column; no records materialize.
        """
        if not len(self.stmt_slots):
            return {}
        slots, counts = np.unique(self.stmt_slots, return_counts=True)
        table = self.stmt_table
        return {
            table[slot][0]: count
            for slot, count in zip(slots.tolist(), counts.tolist())
        }

    def executions_of(self, stmt_id: int) -> list[StatementExecution]:
        """Records of one statement only, gathered straight off the columns.

        Materializes just the matching rows — a trace-wide unpack is never
        paid for a single-statement query.
        """
        wanted = [
            slot for slot, row in enumerate(self.stmt_table) if row[0] == stmt_id
        ]
        if not wanted:
            return []
        rows = np.flatnonzero(np.isin(self.stmt_slots, wanted))
        if not rows.size:
            return []
        offsets = self.operand_offsets()
        flat = self.flat_values
        if isinstance(flat, np.ndarray):
            flat = flat.tolist()
        lhs_column = self.lhs_values
        new = object.__new__
        executions: list[StatementExecution] = []
        for row in rows.tolist():
            stmt_id_, target, operands, lhs_width = self.stmt_table[
                int(self.stmt_slots[row])
            ]
            start = int(offsets[row])
            execution = new(StatementExecution)
            execution.__dict__.update(
                stmt_id=stmt_id_,
                cycle=int(self.cycles[row]),
                target=target,
                operands=operands,
                operand_values=tuple(flat[start : start + len(operands)]),
                lhs_value=int(lhs_column[row]),
                lhs_width=lhs_width,
            )
            executions.append(execution)
        return executions


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


class SuiteLog:
    """The executions of a whole recorded suite, event-major.

    One event per record the engine emitted, in emission order:
    ``slots``/``cycles`` are ``[E]`` (a slot indexes :attr:`shapes`, the
    statement-shape table, whose stmt ids and operand counts are
    :attr:`stmt_ids` and :attr:`widths`), ``lhs`` and ``active`` are
    ``[E, N]`` over the suite's N lanes, and event ``e`` owns the operand
    rows ``ops[op_starts[e] : op_starts[e] + widths[slots[e]]]`` of the
    ``[F, N]`` operand matrix.  Lane ``n`` executed event ``e`` iff
    ``active[e, n]``.

    The execution dedup groups straight off these arrays.  Per-lane
    :class:`ExecutionColumns` exist only on demand
    (:meth:`lane_columns`), built for every lane in one compaction and
    cached; lane execution counts never need them.
    """

    __slots__ = (
        "shapes",
        "stmt_ids",
        "widths",
        "slots",
        "cycles",
        "lhs",
        "op_starts",
        "ops",
        "active",
        "_lanes",
        "_counts",
    )

    def __init__(self, shapes, slots, cycles, lhs, ops, active):
        self.shapes = shapes
        self.stmt_ids = np.fromiter((row[0] for row in shapes), np.int64, len(shapes))
        self.widths = np.fromiter((len(row[2]) for row in shapes), np.int64, len(shapes))
        self.slots = slots
        self.cycles = cycles
        self.lhs = lhs
        self.op_starts = _bounds(self.widths[slots])[:-1]
        self.ops = ops
        self.active = active
        self._lanes: list[ExecutionColumns] | None = None
        self._counts: list[int] | None = None

    @classmethod
    def stack(cls, columns: list[ExecutionColumns]) -> "SuiteLog | None":
        """One lane, all active: the given traces' columns back to back.

        Traces that are not vector lanes (interpreter runs, deserialized
        and :meth:`Trace.columnize`-d traces) enter the event-log dedup
        this way, a whole set in one log.  None when a >63-bit value
        kept some trace's columns as Python lists.
        """
        for trace_columns in columns:
            if not (
                isinstance(trace_columns.flat_values, np.ndarray)
                and isinstance(trace_columns.lhs_values, np.ndarray)
            ):
                return None
        # One shape table for the stack: each distinct row interned once.
        index: defaultdict[tuple, int] = defaultdict()
        index.default_factory = index.__len__
        rows = chain.from_iterable(trace_columns.stmt_table for trace_columns in columns)
        table = np.fromiter(map(index.__getitem__, rows), np.int64)
        table_starts = _bounds([len(c.stmt_table) for c in columns])[:-1]
        slots = table[
            np.concatenate([c.stmt_slots for c in columns])
            + np.repeat(table_starts, [len(c) for c in columns])
        ]
        return cls(
            tuple(index),
            slots,
            np.concatenate([c.cycles for c in columns]),
            np.concatenate([c.lhs_values for c in columns]).reshape(-1, 1),
            np.concatenate([c.flat_values for c in columns]).reshape(-1, 1),
            np.ones((len(slots), 1), dtype=bool),
        )

    @property
    def n_lanes(self) -> int:
        return self.active.shape[1]

    def lane_count(self, lane: int) -> int:
        """Executions recorded in one lane, without compacting."""
        if self._counts is None:
            self._counts = np.count_nonzero(self.active, axis=0).tolist()
        return self._counts[lane]

    def lane_columns(self) -> list[ExecutionColumns]:
        """One :class:`ExecutionColumns` per lane, interpreter-byte-identical.

        One lane-major compaction for the whole suite, run once per log:
        ``np.nonzero`` over the transposed active mask lists every lane's
        executions in order, and one ``np.unique`` over ``lane * S +
        slot`` yields every lane's first-use statement table and slot
        remap.  Each lane's columns are contiguous slices of the
        resulting lane-major buffers, narrowed to int32 per lane exactly
        as the scalar recorder does.
        """
        if self._lanes is None:
            self._lanes = self._compact()
        return self._lanes

    def _compact(self, lanes: list[int] | None = None) -> list[ExecutionColumns]:
        """Every lane's columns, or those of the listed ``lanes`` only."""
        shapes = self.shapes
        slots, cycles, lhs, ops, active = self.slots, self.cycles, self.lhs, self.ops, self.active
        if lanes is not None:
            lhs, ops, active = lhs[:, lanes], ops[:, lanes], active[:, lanes]
        n = active.shape[1]
        op_counts = self.widths[slots]

        # (lane, event) pairs, lane-major: each lane's executions in order.
        lane_of, event_of = np.nonzero(active.T)
        bounds = _bounds(np.bincount(lane_of, minlength=n))

        # First-use statement tables: sorting the distinct (lane, slot)
        # keys by first pair index orders them by lane, then first use.
        keys = lane_of * len(shapes) + slots[event_of]
        used, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        used = used[order]
        table_bounds = _bounds(np.bincount(used // len(shapes), minlength=n))
        table_slots = (used % len(shapes)).tolist()
        stmt_slots = (rank[inverse] - table_bounds[lane_of]).astype(np.int32)
        pair_cycles = cycles[event_of].astype(np.int32)
        pair_lhs = lhs[event_of, lane_of]

        # Operand values: each pair's span of the flat op rows, in order.
        pair_ops = op_counts[event_of]
        op_bounds = _bounds(pair_ops)
        flat_rows = np.repeat(self.op_starts[event_of] - op_bounds[:-1], pair_ops)
        flat_rows += np.arange(flat_rows.size)
        flat_values = ops[flat_rows, np.repeat(lane_of, pair_ops)]
        flat_bounds = op_bounds[bounds]

        lhs_columns = _narrowed(pair_lhs, bounds)
        flat_columns = _narrowed(flat_values, flat_bounds)
        bounds_l = bounds.tolist()
        table_l = table_bounds.tolist()
        flat_l = flat_bounds.tolist()
        return [
            ExecutionColumns(
                [shapes[slot] for slot in table_slots[table_l[lane] : table_l[lane + 1]]],
                stmt_slots[bounds_l[lane] : bounds_l[lane + 1]],
                pair_cycles[bounds_l[lane] : bounds_l[lane + 1]],
                lhs_columns[lane][bounds_l[lane] : bounds_l[lane + 1]],
                flat_columns[lane][flat_l[lane] : flat_l[lane + 1]],
            )
            for lane in range(n)
        ]


def _bounds(counts: np.ndarray) -> np.ndarray:
    """Segment boundaries ``[0, c0, c0 + c1, ...]`` of a count vector."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return bounds


def _narrowed(values: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """Per segment, the buffer its int32/int64 column is a slice of.

    A non-empty segment within int32 range narrows, like
    ``ExecutionColumns._column``; the cast runs once for the batch.
    """
    counts = np.diff(bounds)
    fits = np.zeros(len(counts), dtype=bool)
    filled = counts > 0
    if filled.any():
        starts = bounds[:-1][filled]
        fits[filled] = (np.minimum.reduceat(values, starts) >= _I32_MIN) & (
            np.maximum.reduceat(values, starts) <= _I32_MAX
        )
    if not fits.any():
        return [values] * len(counts)
    narrow = values.astype(np.int32)
    return [narrow if fit else values for fit in fits.tolist()]


class _LazyExecutions(_LazyList):
    """Sequence facade over one trace's executions.

    Holds either the trace's :class:`ExecutionColumns` (interpreter runs,
    deserialized and :meth:`Trace.columnize`-d traces) or a ``(log,
    lane)`` pair into a vector suite's :class:`SuiteLog`, whose
    :attr:`columns` compact on first access.  Column-aware consumers
    read :attr:`columns` (or, for the dedup, the log) and never pay for
    object construction; everything else transparently materializes on
    first access.  ``len()`` never compacts.
    """

    __slots__ = ("_columns", "log", "lane")

    def __init__(
        self,
        columns: ExecutionColumns | None = None,
        log: SuiteLog | None = None,
        lane: int = 0,
    ):
        super().__init__()
        self._columns = columns
        self.log = log
        self.lane = lane

    @property
    def columns(self) -> ExecutionColumns:
        columns = self._columns
        if columns is None:
            columns = self._columns = self.log.lane_columns()[self.lane]  # type: ignore[union-attr]
        return columns

    def _build(self) -> list[StatementExecution]:
        return self.columns.unpack()

    def __len__(self) -> int:
        if self._columns is None:
            return self.log.lane_count(self.lane)  # type: ignore[union-attr]
        return len(self._columns)


class _LaneOutputs(_LazyList):
    """Sequence facade over one lane of a suite's output matrix.

    The vector engine samples every lane's outputs into one ``(cycles *
    outputs, N)`` int64 matrix; a lane's :attr:`Trace.outputs` is this
    view of its column instead of its own list of per-cycle dicts.  It
    compares, indexes and iterates like that list (the dicts are built
    on first access), :meth:`column` hands the raw values to vectorized
    consumers (campaign classification), and pickling ships only this
    lane's column.
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

    def __reduce__(self):
        column = self.column().reshape(-1, 1).copy()
        return (_LaneOutputs, (self.names, column, 0, self.length))


@dataclass
class Trace:
    """A full simulation run of one design under one stimulus.

    Recorded traces are columnar end to end: the simulator records
    columns (the interpreter) or one event log per suite (the vector
    engine) natively, never constructing a :class:`StatementExecution`
    during the run; ``executions`` is a :class:`_LazyExecutions` view
    over those columns or over the trace's lane of the log, and
    serialization ships the column arrays as-is — zero repacking on
    either side of a process boundary (localization shards receive
    traces; a recorded trace holds easily 10^5 executions per shard).
    The record list materializes only when something explicitly indexes
    or iterates it; the inference fast path dedups straight off the log
    (:meth:`execution_log`) and never does.  ``executions`` is a plain
    (possibly empty) record list only for unrecorded runs and manually
    assembled traces.

    ``stimulus`` and ``outputs`` are lists of per-cycle dicts, or — for
    vector-engine lanes — sequence views that build those dicts on
    first access (see the module docstring).
    """

    design: str
    stimulus: list[dict[str, int]] = field(default_factory=list)
    outputs: list[dict[str, int]] = field(default_factory=list)
    executions: list[StatementExecution] = field(default_factory=list)
    is_failure: bool = False

    def execution_columns(self) -> ExecutionColumns | None:
        """The columnar execution view, when this trace carries one.

        Recorded and deserialized traces always do (a vector lane
        compacts its suite's log on the first such call); manually
        assembled traces (tests, dynamic slices) return None until
        :meth:`columnize` packs them.
        """
        executions = self.executions
        if isinstance(executions, _LazyExecutions):
            return executions.columns
        return None

    def execution_log(self) -> tuple[SuiteLog, int] | None:
        """``(log, lane)`` for a vector-engine lane, else None.

        A lane's executions live in its suite's :class:`SuiteLog`; the
        execution dedup reads them there without compacting the lane.
        """
        executions = self.executions
        if isinstance(executions, _LazyExecutions) and executions.log is not None:
            return executions.log, executions.lane
        return None

    def columnize(self) -> ExecutionColumns:
        """The columnar execution view, packing (once) if necessary.

        Simulator-recorded and deserialized traces already carry their
        columns, so this is a plain attribute read for them; the packing
        shim survives only for traces assembled from record objects by
        hand (tests, dynamic slices).  Packed columns are cached on the
        trace — the record list is kept, so nothing later re-pays
        :meth:`ExecutionColumns.unpack` — and serialization reuses them
        via ``__getstate__``.
        """
        executions = self.executions
        if isinstance(executions, _LazyExecutions):
            return executions.columns
        lazy = _LazyExecutions(ExecutionColumns.pack(executions))
        lazy._records = executions
        self.executions = lazy
        return lazy.columns

    def __getstate__(self) -> dict:
        state = {k: v for k, v in self.__dict__.items() if k != "executions"}
        columns = self.execution_columns()
        if columns is None:
            columns = ExecutionColumns.pack(self.executions)
        state["_exec_columns"] = columns
        return state

    def __setstate__(self, state: dict) -> None:
        columns = state.pop("_exec_columns")
        self.__dict__.update(state)
        self.__dict__["executions"] = _LazyExecutions(columns)

    @property
    def n_cycles(self) -> int:
        """Number of simulated cycles."""
        return len(self.outputs)

    def executions_of(self, stmt_id: int) -> list[StatementExecution]:
        """All executions of one statement across the trace.

        On a columnar trace whose record view has not materialized, the
        matching rows are gathered straight off the columns; otherwise
        the (already paid-for) record list is scanned.
        """
        executions = self.executions
        if isinstance(executions, _LazyExecutions) and executions._records is None:
            return executions.columns.executions_of(stmt_id)
        return [e for e in executions if e.stmt_id == stmt_id]

    def executed_stmt_ids(self) -> set[int]:
        """Ids of statements that executed at least once (column-aware)."""
        executions = self.executions
        if isinstance(executions, _LazyExecutions) and executions._records is None:
            return executions.columns.executed_stmt_ids()
        return {e.stmt_id for e in executions}

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


def compact_shipped_lanes(traces: Iterable[Trace]) -> None:
    """Compact the lane columns of the lane views among ``traces``.

    Pickling a lane ships its :class:`ExecutionColumns`, and the first
    lane asked for compacts every lane of its log
    (:meth:`SuiteLog.lane_columns`), shipped or not.  A caller that is
    about to pickle a known set of traces calls this first: each log
    then compacts once, over just the lanes the set holds, into
    columns byte-identical to the whole-log compaction's.  Lanes whose
    columns already exist, and logs that compacted already, are left
    alone.
    """
    pending: dict[int, tuple[SuiteLog, list[_LazyExecutions]]] = {}
    for trace in traces:
        view = trace.executions
        if isinstance(view, _LazyExecutions) and view._columns is None:
            log = view.log
            if log._lanes is None:  # type: ignore[union-attr]
                pending.setdefault(id(log), (log, []))[1].append(view)  # type: ignore[arg-type]
    for log, views in pending.values():
        lanes = sorted({view.lane for view in views})
        if len(lanes) == log.n_lanes:
            columns = log.lane_columns()
        else:
            columns = dict(zip(lanes, log._compact(lanes)))
        for view in views:
            view._columns = columns[view.lane]
