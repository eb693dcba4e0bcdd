"""Dataset construction: from traces and contexts to encoded batches.

A training/inference *sample* is one dynamic execution of one statement:
the statement's operand contexts (static, from the AST) plus the operand
values observed at execution time (dynamic, from the trace) and the
ground-truth LHS value.  This is the paper's free supervision: no labels
beyond what the simulator already produces.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..analysis.contexts import StatementContext
from ..sim.trace import StatementExecution, SuiteLog, Trace
from .vocab import Vocabulary


class ValueEncoder:
    """Buckets operand values into a small one-hot alphabet.

    Buckets: 0 -> "zero", 1 -> "one", 2 -> "small multi-bit" (< 256),
    3 -> "large".  Single-bit signals only ever hit the first two, which
    matches the paper's bit-level setting; wider operands in the realistic
    designs degrade gracefully to coarse magnitude buckets.
    """

    #: Number of buckets (the ``dv`` one-hot width).
    DEPTH = 4

    def encode(self, value: int) -> int:
        """Bucket index of an operand value."""
        if value == 0:
            return 0
        if value == 1:
            return 1
        if value < 256:
            return 2
        return 3

    def one_hot(self, values: np.ndarray) -> np.ndarray:
        """One-hot encode an array of values into ``[N, DEPTH]``.

        :meth:`encode` over the whole array at once, as bucket masks
        (``object`` arrays of >63-bit values compare the same way).
        """
        values = np.asarray(values)
        indices = np.select([values == 0, values == 1, values < 256], [0, 1, 2], 3)
        out = np.zeros((len(values), self.DEPTH), dtype=np.float64)
        out[np.arange(len(values)), indices] = 1.0
        return out


@dataclass(frozen=True)
class Sample:
    """One statement execution paired with its static context.

    Attributes:
        context: The statement's operand contexts.
        operand_values: Value per operand instance (position order).
        label: Ground truth: 1 when the assigned value is non-zero.
        design: Originating design name (for splits and reporting).
    """

    context: StatementContext
    operand_values: tuple[int, ...]
    label: int
    design: str = ""


@dataclass
class EncodedBatch:
    """Flattened, padded arrays for a batch of samples.

    Layout: every ``(operand, path)`` pair of every sample is one *path
    row*.  The token matrix holds each *distinct* token path once:
    ``path_tokens``/``path_mask`` are ``[D, T]``, and ``path_index`` maps
    each of the ``P`` path rows to its distinct row.  ``path_operand``
    maps each path row to its operand row and ``operand_stmt`` each
    operand row to its sample.  Paths hold AST node *types* only, so a
    batch of ``P`` path rows typically needs far fewer ``D`` PathRNN
    rows; stage 1 of the model runs the PathRNN once per distinct row
    and gathers the result back with ``path_index``.

    ``operand_contexts`` carries, per operand row, the originating
    ``(StatementContext, operand_index)`` pair.  The PathRNN output of an
    operand depends only on that pair — never on the dynamic values — so
    it is the identity the model's context-embedding cache memoizes on.
    """

    path_tokens: np.ndarray
    path_mask: np.ndarray
    path_index: np.ndarray
    path_operand: np.ndarray
    value_onehot: np.ndarray
    operand_stmt: np.ndarray
    labels: np.ndarray
    n_operands: int
    n_statements: int
    operand_counts: list[int] = field(default_factory=list)
    operand_contexts: list[tuple[StatementContext, int]] | None = None

    def select(self, stmt_rows) -> "EncodedBatch":
        """The sub-batch of the given statement rows, in the given order.

        Gathers the statements' operand rows and path rows, keeps only
        the distinct paths they reference (renumbered in first-use
        order) and trims the path axis to the longest of them, so every
        array equals what :meth:`BatchEncoder.encode` returns for the
        same samples in that order.  Training encodes its sample set
        once and selects each minibatch from it.
        """
        stmt_rows = np.asarray(stmt_rows, dtype=np.int64)
        counts = np.asarray(self.operand_counts, dtype=np.int64)
        op_rows = _concat_ranges(_starts(counts)[stmt_rows], counts[stmt_rows])
        paths_per_operand = np.bincount(self.path_operand, minlength=self.n_operands)
        selected_paths = paths_per_operand[op_rows]
        path_rows = _concat_ranges(_starts(paths_per_operand)[op_rows], selected_paths)
        distinct, path_index = _first_seen_compaction(self.path_index[path_rows])
        mask = self.path_mask[distinct]
        steps = max(int(mask.sum(axis=1).max()) if len(distinct) else 1, 1)
        return EncodedBatch(
            path_tokens=self.path_tokens[distinct, :steps],
            path_mask=np.ascontiguousarray(mask[:, :steps]),
            path_index=path_index,
            path_operand=np.repeat(
                np.arange(len(op_rows), dtype=np.int64), selected_paths
            ),
            value_onehot=self.value_onehot[op_rows],
            operand_stmt=np.repeat(
                np.arange(len(stmt_rows), dtype=np.int64), counts[stmt_rows]
            ),
            labels=self.labels[stmt_rows],
            n_operands=len(op_rows),
            n_statements=len(stmt_rows),
            operand_counts=counts[stmt_rows].tolist(),
            operand_contexts=(
                None
                if self.operand_contexts is None
                else [self.operand_contexts[row] for row in op_rows.tolist()]
            ),
        )


def _starts(counts: np.ndarray) -> np.ndarray:
    """Start offset of each run, given the run lengths."""
    return np.cumsum(counts, dtype=np.int64) - counts


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    total = int(lengths.sum())
    offsets = np.repeat(starts - _starts(lengths), lengths)
    return offsets + np.arange(total, dtype=np.int64)


def _first_seen_compaction(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``ids`` in first-seen order, and the rank of
    each entry among them: ``distinct[rank] == ids``."""
    values, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    by_first = np.argsort(first, kind="stable")
    rank = np.empty(len(values), dtype=np.int64)
    rank[by_first] = np.arange(len(values), dtype=np.int64)
    return values[by_first], rank[inverse]


class BatchEncoder:
    """Encodes :class:`Sample` lists into :class:`EncodedBatch` arrays.

    Each :meth:`encode` call finds the distinct token paths among its
    samples' operands and pads each one once (see :class:`EncodedBatch`
    for the ``path_index`` layout); the distinct-path table lives only
    as long as the call, so there is no unbounded interning state.

    Path token encodings are cached per context object, so repeated
    executions of the same statement — the common case — cost only the
    dynamic value encoding.  The cache is keyed by ``id(context)`` with a
    weak-reference guard (the same scheme as the simulator's compile
    cache): a later context that happens to reuse a garbage-collected
    context's ``id`` can never receive the previous statement's
    encodings, and entries are evicted when their context dies, so the
    cache stays bounded across long campaigns.
    """

    def __init__(self, vocab: Vocabulary, value_encoder: ValueEncoder | None = None):
        self.vocab = vocab
        self.value_encoder = value_encoder or ValueEncoder()
        self._path_cache: dict[
            int, tuple[weakref.ref, tuple[tuple[tuple[int, ...], ...], ...]]
        ] = {}

    def _context_paths(
        self, context: StatementContext
    ) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per operand, the token-id tuple of each of its paths."""
        key = id(context)
        entry = self._path_cache.get(key)
        if entry is not None and entry[0]() is context:
            return entry[1]
        encoded = tuple(
            tuple(tuple(self.vocab.encode_path(path)) for path in operand_paths)
            for operand_paths in context.contexts
        )
        ref = weakref.ref(context, lambda _r, _k=key: self._path_cache.pop(_k, None))
        self._path_cache[key] = (ref, encoded)
        return encoded

    def encode(self, samples: list[Sample]) -> EncodedBatch:
        """Encode a list of samples into one batch.

        Raises:
            ValueError: If any sample has zero operands (not encodable).
        """
        distinct: dict[tuple[int, ...], int] = {}
        # Per context of this call: its operands' distinct path rows
        # (flat), their path counts and the ``(context, operand)`` pairs.
        # The samples keep their contexts alive, so ``id`` is safe here.
        layouts: dict[
            int, tuple[list[int], list[int], list[tuple[StatementContext, int]]]
        ] = {}
        path_index: list[int] = []
        paths_per_operand: list[int] = []
        values: list[int] = []
        labels: list[int] = []
        operand_counts: list[int] = []
        operand_contexts: list[tuple[StatementContext, int]] = []

        for sample in samples:
            context = sample.context
            n_operands = context.n_operands
            if n_operands == 0:
                raise ValueError(
                    f"statement {context.stmt_id} has no operands; filter such "
                    "samples out with build_samples()"
                )
            if len(sample.operand_values) != n_operands:
                raise ValueError(
                    f"statement {context.stmt_id}: {len(sample.operand_values)} "
                    f"values for {n_operands} operands"
                )
            layout = layouts.get(id(context))
            if layout is None:
                operands = self._context_paths(context)[:n_operands]
                layout = (
                    [
                        distinct.setdefault(path, len(distinct))
                        for paths in operands
                        for path in paths
                    ],
                    [len(paths) for paths in operands],
                    [(context, op_index) for op_index in range(n_operands)],
                )
                layouts[id(context)] = layout
            path_index.extend(layout[0])
            paths_per_operand.extend(layout[1])
            operand_contexts.extend(layout[2])
            operand_counts.append(n_operands)
            values.extend(sample.operand_values)
            labels.append(sample.label)

        tokens, mask = self.vocab.pad_paths(list(distinct))
        counts = np.asarray(operand_counts, dtype=np.int64)
        return EncodedBatch(
            path_tokens=tokens,
            path_mask=mask,
            path_index=np.asarray(path_index, dtype=np.int64),
            path_operand=np.repeat(
                np.arange(len(operand_contexts), dtype=np.int64),
                np.asarray(paths_per_operand, dtype=np.int64),
            ),
            value_onehot=self.value_encoder.one_hot(np.asarray(values)),
            operand_stmt=np.repeat(np.arange(len(samples), dtype=np.int64), counts),
            labels=np.asarray(labels, dtype=np.int64),
            n_operands=len(operand_contexts),
            n_statements=len(samples),
            operand_counts=operand_counts,
            operand_contexts=operand_contexts,
        )


def sample_from_execution(
    context: StatementContext,
    execution: StatementExecution,
    design: str = "",
) -> Sample | None:
    """Build a sample from one execution record (None if no operands).

    Operand values are resolved per *instance*: repeated occurrences of
    the same name share the recorded value.
    """
    if context.n_operands == 0:
        return None
    value_map = execution.operand_map
    values = tuple(value_map[op.name] for op in context.operands)
    label = 1 if execution.lhs_value != 0 else 0
    return Sample(context=context, operand_values=values, label=label, design=design)


def operand_gather(
    operands: tuple[str, ...], context: StatementContext
) -> tuple[int, ...]:
    """Where each context operand instance reads its value in a record.

    ``operands`` is a statement-shape row's operand list (the order the
    recorder stores values in); the plan holds, per instance of
    ``context.operands``, the index of its value there.  A repeated name
    resolves to its last position, as :attr:`StatementExecution.
    operand_map` does.
    """
    value_index = {name: index for index, name in enumerate(operands)}
    return tuple(value_index[op.name] for op in context.operands)


def log_rows(
    sets: list[tuple[dict[int, StatementContext], list[Trace], set[int] | None]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ``(contexts, traces, restrict_to)`` set's sample rows,
    gathered straight off the traces' event logs.

    Sets sharing their ``contexts`` and ``restrict_to`` objects (a
    request's failing and correct sets) are one *kind*, with one
    kept-statement mask and one gather plan per shape row; kinds share
    neither, since a mutant can give a stmt id other operands.  Traces
    are grouped by log and kind: the lanes of one suite log form one
    segment; one-lane logs sharing a shape table are read back to back
    as one log whose events carry their trace position.  Per segment,
    events whose statement is outside ``restrict_to`` or has no context
    with operands are dropped *before* lanes expand; the kept events'
    active cells become rows, whose operand values are gathered in
    context-operand order (:func:`operand_gather`).

    Returns ``(keyed, lhs, order)``: ``keyed`` is ``[R, 2 + W]``, a row's
    set index, stmt id, then its operand values, −1-padded to the widest
    context; ``order`` is its record-loop position over all sets' traces
    back to back, ``trace position * stride + event``.  Value arrays are
    ``object`` when some log holds >63-bit values.
    """
    kinds: dict[tuple[int, int], int] = {}
    kept: list[dict[int, StatementContext]] = []
    set_indices: list[int] = []
    by_log: dict[tuple[int, int], tuple[SuiteLog, list[int], list[int]]] = {}
    by_table: dict[tuple[int, int], tuple[list[SuiteLog], list[int]]] = {}
    for set_index, (contexts, traces, restrict_to) in enumerate(sets):
        kind = kinds.setdefault((id(contexts), id(restrict_to)), len(kinds))
        if kind == len(kept):
            kept.append(
                {
                    stmt_id: context
                    for stmt_id, context in contexts.items()
                    if context.n_operands
                    and (restrict_to is None or stmt_id in restrict_to)
                }
            )
        for trace in traces:
            position = len(set_indices)
            set_indices.append(set_index)
            log, lane = trace.execution_log()
            if log.n_lanes == 1:
                logs, positions = by_table.setdefault((id(log.shapes), kind), ([], []))
                logs.append(log)
                positions.append(position)
            else:
                members = by_log.setdefault((id(log), kind), (log, [], []))
                members[1].append(lane)
                members[2].append(position)
    segments: list = [
        (log, kind, lanes, np.asarray(positions), None)
        for (_log, kind), (log, lanes, positions) in by_log.items()
    ]
    # One-lane logs over one table (interpreter runs of one design) are
    # read as one log, event by event.
    for (_table, kind), (logs, positions) in by_table.items():
        lengths = [len(log.slots) for log in logs]
        log = logs[0] if len(logs) == 1 else _stacked(logs)
        segments.append((log, kind, [0], None, np.repeat(positions, lengths)))

    stride = max((len(segment[0].slots) for segment in segments), default=0)
    set_of = np.asarray(set_indices, dtype=np.int64)
    plans: list[dict[tuple[int, tuple[str, ...]], tuple[int, ...]]] = [{} for _ in kept]
    pieces = []
    for log, kind, lanes, lane_positions, event_positions in segments:
        kept_stmts, kind_plans = kept[kind], plans[kind]
        kept_shape = np.fromiter(
            map(kept_stmts.__contains__, log.stmt_ids.tolist()), bool, len(log.shapes)
        )
        events = np.flatnonzero(kept_shape[log.slots])
        if not events.size:
            continue
        # Lane-major: each lane's kept events in order, lanes in set order.
        lane_index, event_index = np.nonzero(log.active.T[lanes][:, events])
        if not lane_index.size:
            continue
        events = events[event_index]
        lane_of = np.asarray(lanes)[lane_index]
        rows = log.slots[events]
        # Per shape row these lanes executed, its gather plan as a
        # −1-padded matrix row (a target program's table also holds
        # other variants' rows, which these contexts may not resolve).
        seen = np.zeros(len(log.shapes), dtype=bool)
        seen[rows] = True
        kept_rows = np.flatnonzero(seen).tolist()
        row_plans = []
        for row in kept_rows:
            stmt_id, _target, operands, _width = log.shapes[row]
            plan = kind_plans.get((stmt_id, operands))
            if plan is None:
                plan = kind_plans[stmt_id, operands] = operand_gather(
                    operands, kept_stmts[stmt_id]
                )
            row_plans.append(plan)
        plan_matrix = np.full(
            (len(log.shapes), max(map(len, row_plans))), -1, dtype=np.int64
        )
        for row, plan in zip(kept_rows, row_plans):
            plan_matrix[row, : len(plan)] = plan
        gather = plan_matrix[rows]
        pad = gather < 0
        values = log.ops[
            log.op_starts[events][:, None] + np.where(pad, 0, gather), lane_of[:, None]
        ]
        values[pad] = -1
        positions = (
            lane_positions[lane_index] if event_positions is None else event_positions[events]
        )
        ids, lhs = log.stmt_ids[rows], log.lhs[events, lane_of]
        pieces.append((set_of[positions], ids, values, lhs, positions * stride + events))

    if not pieces:
        return np.zeros((0, 2), np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    n_rows = sum(len(piece[1]) for piece in pieces)
    width = max(piece[2].shape[1] for piece in pieces)
    wide = any(piece[2].dtype == object for piece in pieces)
    # Column-major: the grouping reads the key matrix column by column.
    keyed = np.full((n_rows, 2 + width), -1, object if wide else np.int64, order="F")
    start = 0
    for set_index, ids, values, _lhs, _order in pieces:
        stop = start + len(ids)
        keyed[start:stop, 0] = set_index
        keyed[start:stop, 1] = ids
        keyed[start:stop, 2 : 2 + values.shape[1]] = values
        start = stop
    lhs = np.concatenate([piece[3] for piece in pieces])
    return keyed, lhs, np.concatenate([piece[4] for piece in pieces])


def _stacked(logs: list[SuiteLog]) -> SuiteLog:
    """One-lane logs over one shape table, back to back in one log."""
    first = logs[0]
    return SuiteLog(
        first.shapes,
        *(
            np.concatenate([getattr(log, name) for log in logs])
            for name in ("slots", "cycles", "lhs", "ops", "active")
        ),
        first.stmt_ids,
        first.widths,
    )


def row_samples(
    keyed: np.ndarray,
    lhs: np.ndarray,
    contexts: dict[int, StatementContext],
    design: str = "",
) -> list[Sample]:
    """One sample per ``[stmt id, −1-padded operand values]`` row: its
    context, values and label."""
    ends = {
        stmt_id: (contexts[stmt_id], 1 + contexts[stmt_id].n_operands)
        for stmt_id in np.unique(keyed[:, 0]).tolist()
    }
    new = object.__new__
    samples: list[Sample] = []
    labels = (lhs != 0).view(np.int8).tolist()
    for row, label in zip(keyed.tolist(), labels):
        context, end = ends[row[0]]
        sample = new(Sample)
        # Frozen dataclass: fill the instance dict directly (its
        # __init__ pays an object.__setattr__ per field).
        sample.__dict__.update(
            context=context, operand_values=tuple(row[1:end]), label=label, design=design
        )
        samples.append(sample)
    return samples


def build_samples(
    contexts: dict[int, StatementContext],
    traces: list[Trace],
    design: str = "",
    restrict_to: set[int] | None = None,
) -> list[Sample]:
    """Convert traces into model samples.

    The rows come off the traces' event logs (:func:`log_rows`) and are
    put back in record order, trace by trace, so samples equal the
    record-by-record loop's.

    Args:
        contexts: Statement contexts keyed by stmt_id.
        traces: Simulation traces of the same design.
        design: Name tag attached to each sample.
        restrict_to: Optional stmt_id filter (e.g. a slice).

    Returns:
        Samples for every execution of every context-bearing statement.
    """
    keyed, lhs, order = log_rows([(contexts, traces, restrict_to)])
    sort = np.argsort(order, kind="stable")
    return row_samples(keyed[sort, 1:], lhs[sort], contexts, design)


def train_test_split(
    samples: list[Sample],
    test_fraction: float,
    seed: int = 0,
    split_by_design: bool = False,
) -> tuple[list[Sample], list[Sample]]:
    """Shuffle and split samples into train/test lists.

    Args:
        samples: The sample pool.
        test_fraction: Approximate fraction of samples held out.
        seed: Shuffle seed.
        split_by_design: Split at the *design* level: whole designs are
            assigned to the test set until at least ``test_fraction`` of
            the samples are held out.  A sample-level split leaks
            near-duplicate executions of the same statement into both
            sides (repeated executions with identical operand values are
            the common case), which inflates held-out metrics; the
            grouped split measures generalization to unseen designs, the
            paper's actual transferability claim.  Falls back to the
            sample-level split when fewer than two distinct design tags
            are present.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must be in [0, 1]")
    if split_by_design:
        per_design: dict[str, int] = {}
        for s in samples:
            per_design[s.design] = per_design.get(s.design, 0) + 1
        designs = sorted(per_design)
        if len(designs) >= 2:
            rng = np.random.default_rng(seed)
            target = int(round(len(samples) * test_fraction))
            test_designs: set[str] = set()
            held_out = 0
            for d in (designs[i] for i in rng.permutation(len(designs))):
                if held_out >= target:
                    break
                test_designs.add(d)
                held_out += per_design[d]
            train = [s for s in samples if s.design not in test_designs]
            test = [s for s in samples if s.design in test_designs]
            return train, test
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_test = int(round(len(samples) * test_fraction))
    test_idx = set(order[:n_test].tolist())
    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test
