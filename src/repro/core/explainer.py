"""Explanation generation: attention maps, aggregated maps, heatmap Ht.

Implements paper §IV-D:

* an **attention map** holds, per statement, the attention weights of one
  trace's executions;
* the **aggregated maps** ``Ft`` (failing traces) and ``Ct`` (correct
  traces) are statement-wise averages of attention weights across all
  executions in the respective trace set;
* the **suspiciousness score** of a statement present in both maps is the
  min-max-normalized norm-1 distance ``‖Ft(l) − Ct(l)‖₁ / 2`` (a norm-1
  distance between two softmax weight vectors always lies in [0, 2]);
* the **heatmap** ``Ht`` applies the three presence cases: Ct-only →
  not suspicious; Ft-only → suspicious (weights copied, suspiciousness
  pinned to 1.0 since the statement executes exclusively in failures);
  both → suspicious iff the distance exceeds the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.contexts import StatementContext
from ..nn import inference_mode
from ..sim.trace import Trace
from .config import VeriBugConfig
from .features import BatchEncoder, Sample, log_rows, sample_from_execution
from .model import VeriBugModel

#: Suspiciousness assigned to statements that only execute in failing
#: traces (the paper marks them suspicious without computing a distance).
FT_ONLY_SUSPICIOUSNESS = 1.0


def _packed(keys: np.ndarray) -> np.ndarray:
    """``keys``' columns packed mixed-radix into as few int64 columns as
    their ranges allow (equal rows stay equal, distinct rows distinct),
    so grouping sorts a word or two per row.  ``object`` keys pass."""
    if keys.dtype == object:
        return keys
    words: list[np.ndarray] = []
    word, capacity = None, 1
    for column, lo, hi in zip(keys.T, keys.min(axis=0).tolist(), keys.max(axis=0).tolist()):
        span = hi - lo + 1
        if span >= 1 << 62:  # too wide to shift: a word of its own
            words.append(column)
            continue
        if capacity * span >= 1 << 62:
            words.append(word)
            word, capacity = None, 1
        word = column - lo if word is None else word * span + (column - lo)
        capacity *= span
    return np.column_stack(words if word is None else [*words, word])


def _group_rows(keys: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the equal rows of ``keys``, groups in order of their first row.

    One ``np.lexsort`` with ``order`` (distinct per row) as its least
    significant key makes each group's first sorted row its first row by
    ``order``.  Returns ``(first, sizes, group)``: per group its first
    row and its size, and per row its group's index.
    """
    if not len(keys):
        return (np.zeros(0, np.int64),) * 3
    keys = _packed(keys)
    sort = np.lexsort((order, *keys.T[::-1]))
    ranked = keys[sort]
    start = np.ones(len(sort), dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(start)
    firsts = sort[starts]
    replay = np.argsort(order[firsts])
    group = np.empty(len(sort), dtype=np.int64)
    group[sort] = np.argsort(replay)[np.cumsum(start) - 1]
    return firsts[replay], np.diff(starts, append=len(sort))[replay], group


@dataclass
class AttentionMap:
    """Statement-wise aggregated attention weights for one trace set.

    ``weights[stmt_id]`` is the mean attention vector over all executions
    of that statement; ``counts[stmt_id]`` is the number of executions
    aggregated.
    """

    weights: dict[int, np.ndarray] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def add(self, stmt_id: int, attention: np.ndarray, count: int = 1) -> None:
        """Accumulate ``count`` executions sharing one attention vector.

        The incremental update is the exact weighted mean, so adding a
        deduplicated group with its multiplicity yields the same result
        (up to float rounding order) as adding each execution separately.
        """
        if stmt_id in self.weights:
            seen = self.counts[stmt_id]
            total = seen + count
            self.weights[stmt_id] = (
                self.weights[stmt_id] * seen + attention * count
            ) / total
            self.counts[stmt_id] = total
        else:
            self.weights[stmt_id] = attention.astype(np.float64).copy()
            self.counts[stmt_id] = count

    def statements(self) -> set[int]:
        """Ids of statements present in the map."""
        return set(self.weights)


def mean_maps(
    n_sets: int, segments: np.ndarray, rows: np.ndarray, widths: np.ndarray, counts: np.ndarray
) -> list[AttentionMap]:
    """Each set's attention map, as count-weighted segment means.

    Row ``g`` of ``rows`` (zero-padded past ``widths[g]``) is the
    attention row of ``counts[g]`` executions of statement ``segments[g]
    == (set index, stmt_id)``.  Per segment, one ``np.add.at`` pass sums
    the weighted rows in row order and the sum is divided by the
    segment's count; a one-row segment keeps its row.  That is
    :meth:`AttentionMap.add` over the rows up to float summation order
    (exactly, for one or two rows per segment).
    """
    first, sizes, segment = _group_rows(segments, np.arange(len(segments)))
    totals = np.bincount(segment, weights=counts, minlength=len(first))
    sums = np.zeros((len(first), rows.shape[1]))
    np.add.at(sums, segment, rows * counts[:, None])
    means = sums / totals[:, None]
    means[sizes == 1] = rows[first[sizes == 1]]
    maps = [AttentionMap() for _ in range(n_sets)]
    for (set_index, stmt_id), mean, width, total in zip(
        segments[first].tolist(), means, widths[first].tolist(), totals.tolist()
    ):
        maps[set_index].weights[stmt_id] = mean[:width]
        maps[set_index].counts[stmt_id] = int(total)
    return maps


@dataclass
class HeatmapEntry:
    """One suspicious statement in the final heatmap ``Ht``.

    Attributes:
        stmt_id: The statement.
        weights: Operand importance scores copied from ``Ft``.
        suspiciousness: The statement's suspiciousness score.
        case: "ft_only" or "both" (which presence case applied).
    """

    stmt_id: int
    weights: np.ndarray
    suspiciousness: float
    case: str


@dataclass
class Heatmap:
    """The final heatmap ``Ht`` plus the evidence used to build it."""

    target: str
    entries: dict[int, HeatmapEntry] = field(default_factory=dict)
    ft: AttentionMap = field(default_factory=AttentionMap)
    ct: AttentionMap = field(default_factory=AttentionMap)
    suspiciousness: dict[int, float] = field(default_factory=dict)

    def ranked(self) -> list[HeatmapEntry]:
        """Heatmap entries ordered by decreasing suspiciousness."""
        return sorted(
            self.entries.values(), key=lambda e: (-e.suspiciousness, e.stmt_id)
        )

    def top_statement(self) -> int | None:
        """stmt_id with the highest suspiciousness, or None when empty."""
        ranked = self.ranked()
        return ranked[0].stmt_id if ranked else None


def normalized_l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Min-max-normalized norm-1 distance between two weight vectors.

    The normalization uses min = 0 and max = 2, the exact bounds of the
    L1 distance between two probability vectors, so results lie in [0, 1].
    Vectors of different lengths (a statement whose operand count changed
    between trace sets cannot occur, but defensive) raise ``ValueError``.
    """
    if a.shape != b.shape:
        raise ValueError(f"weight shape mismatch: {a.shape} vs {b.shape}")
    # Clamp: float rounding can push the L1 distance of two softmax
    # vectors an ulp past the theoretical bound of 2.
    return min(float(np.abs(a - b).sum()) / 2.0, 1.0)


class Explainer:
    """Builds attention maps and heatmaps from a trained model.

    Two arms build the attention maps, picked by ``fast_inference``:

    * **fast** (default) — executions are deduplicated
      (:meth:`distinct_samples`); ``(structure, operand values)`` keys
      already scored are served from the model's
      :class:`~repro.core.model.AttentionRowMemo`, and the rest run under
      :func:`repro.nn.inference_mode`, where the model takes the fused
      head (:func:`~repro.core.model.model_forward_fused`) and serves
      repeated operand structures from its
      :class:`~repro.core.model.ContextEmbeddingCache`;
    * **reference** — one autograd forward row per execution, no dedup
      and no memoization.

    The maps agree within 1e-9 (a sample's attention does not depend on
    its batch beyond last-ulp BLAS rounding, and a segment mean only
    reorders float sums), which ``tests/test_inference_fastpath.py`` pins.

    Args:
        model: The trained VeriBug model.
        encoder: Batch encoder bound to the model's vocabulary.
        config: Hyper-parameter source (defaults to the model's).
        fast_inference: Run the fast arm; False runs the reference arm.
    """

    def __init__(
        self,
        model: VeriBugModel,
        encoder: BatchEncoder,
        config: VeriBugConfig | None = None,
        fast_inference: bool = True,
    ):
        self.model = model
        self.encoder = encoder
        self.config = config or model.config
        self.fast_inference = fast_inference

    def distinct_samples(
        self,
        sets: list[tuple[dict[int, StatementContext], list[Trace], set[int] | None]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group every set's executions by ``(set, stmt_id, operand values)``.

        Returns ``(keyed, lhs, counts)`` per group: the ``keyed`` row
        ``[set index, stmt_id, operand values...]`` (values −1-padded to
        the widest context), the LHS value of its first execution (the
        label) and its execution count.  Groups come in first-seen order
        within each set, sets in order, exactly as the record-by-record
        loop groups them.  Inference cost then scales with the number of
        *distinct* samples — across cycles and traces a statement
        overwhelmingly re-executes with values it was already seen with.
        One :func:`~repro.core.features.log_rows` gather reads every set
        off its traces' event logs, and one ``np.lexsort``, the set index
        leading, groups the whole call.
        """
        keyed, lhs, order = log_rows(sets)
        first, counts, _group = _group_rows(keyed, order)
        return keyed[first], lhs[first], counts

    def attention_map(
        self,
        contexts: dict[int, StatementContext],
        traces: list[Trace],
        restrict_to: set[int] | None = None,
        batch_size: int = 512,
    ) -> AttentionMap:
        """Aggregate attention weights over all executions in a trace set.

        The one-set form of :meth:`attention_maps`.

        Args:
            contexts: Statement contexts keyed by stmt_id.
            traces: Traces of one set (all failing or all correct).
            restrict_to: Optional stmt_id filter (the dynamic slice).
            batch_size: Inference batch size.
        """
        (amap,) = self.attention_maps([(contexts, traces, restrict_to)], batch_size)
        return amap

    def attention_maps(
        self,
        sets: list[tuple[dict[int, StatementContext], list[Trace], set[int] | None]],
        batch_size: int = 512,
    ) -> list[AttentionMap]:
        """One attention map per ``(contexts, traces, restrict_to)`` set.

        On the fast arm one :meth:`distinct_samples` call groups every
        set's executions, the call's distinct ``(structure, operand
        values)`` memo keys are scored once each (:meth:`_memoized_rows`),
        so the sets share forward passes and memo entries, and each set's
        map is the count-weighted mean of its groups' rows per statement
        (:func:`mean_maps`), as if its set were scored alone.  The
        reference arm scores each set on its own, one autograd row per
        execution.
        """
        if not self.fast_inference:
            return [
                self._attention_map_per_execution(contexts, traces, restrict_to, batch_size)
                for contexts, traces, restrict_to in sets
            ]
        keyed, lhs, counts = self.distinct_samples(sets)
        if not len(counts):
            return [AttentionMap() for _ in sets]
        stream = np.arange(len(counts))
        memo = self.model.attention_memo
        # Per (set, statement) segment: its context, width and structure.
        seg_first, _sizes, segment = _group_rows(keyed[:, :2], stream)
        contexts = [sets[index][0][stmt_id] for index, stmt_id in keyed[seg_first, :2].tolist()]
        widths = np.array([context.n_operands for context in contexts])[segment]
        memo_keys = keyed[:, 1:].copy()
        memo_keys[:, 0] = np.array(list(map(memo.structure_id, contexts)))[segment]
        key_first, _sizes, key_of = _group_rows(memo_keys, stream)
        key_widths = widths[key_first]
        keys = memo.row_keys(memo_keys[key_first].tolist(), key_widths.tolist())
        key_segments = segment[key_first].tolist()
        labels = (lhs[key_first] != 0).view(np.int8).tolist()
        rows = self._memoized_rows(
            keys,
            lambda k: Sample(contexts[key_segments[k]], keys[k][1], labels[k]),
            batch_size,
        )
        padded = np.zeros((len(rows), keyed.shape[1] - 2))
        padded[np.arange(padded.shape[1]) < key_widths[:, None]] = np.concatenate(rows)
        return mean_maps(len(sets), keyed[:, :2], padded[key_of], widths, counts)

    def _memoized_rows(self, keys, make_sample, batch_size: int) -> list:
        """Attention row per distinct memo key, via the attention-row memo.

        ``keys[k]`` (:meth:`~repro.core.model.AttentionRowMemo.key_for`)
        stands for every distinct sample of the call carrying it;
        ``make_sample(k)`` builds its representative.  Each key is looked
        up once (one hit or one miss); keys not scored before (by an
        earlier set, mutant or request) are encoded in key order,
        ``batch_size`` rows per forward pass, and stored.  An attention row is segment-local, so
        one row serves every sample with the key.
        """
        memo = self.model.attention_memo
        rows = [memo.get_by_key(key) for key in keys]
        misses = [k for k, row in enumerate(rows) if row is None]
        with inference_mode():
            for start in range(0, len(misses), batch_size):
                chunk = misses[start : start + batch_size]
                output = self.model(self.encoder.encode(list(map(make_sample, chunk))))
                for k, row in zip(chunk, output.attention_per_statement()):
                    rows[k] = row
                    memo.put_by_key(keys[k], row)
        return rows

    def _attention_map_per_execution(
        self,
        contexts: dict[int, StatementContext],
        traces: list[Trace],
        restrict_to: set[int] | None = None,
        batch_size: int = 512,
    ) -> AttentionMap:
        """Reference path: one model row per execution, full autograd graph."""
        amap = AttentionMap()
        pending: list[Sample] = []
        pending_ids: list[int] = []

        def flush() -> None:
            if not pending:
                return
            batch = self.encoder.encode(pending)
            output = self.model(batch)
            for stmt_id, weights in zip(pending_ids, output.attention_per_statement()):
                amap.add(stmt_id, weights)
            pending.clear()
            pending_ids.clear()

        for trace in traces:
            for execution in trace.executions:
                if restrict_to is not None and execution.stmt_id not in restrict_to:
                    continue
                context = contexts.get(execution.stmt_id)
                if context is None:
                    continue
                sample = sample_from_execution(context, execution)
                if sample is None:
                    continue
                pending.append(sample)
                pending_ids.append(execution.stmt_id)
                if len(pending) >= batch_size:
                    flush()
        flush()
        return amap

    def build_heatmap(
        self,
        target: str,
        ft: AttentionMap,
        ct: AttentionMap,
        threshold: float | None = None,
    ) -> Heatmap:
        """Compare aggregated maps and emit the final heatmap ``Ht``."""
        threshold = (
            threshold if threshold is not None else self.config.suspicious_threshold
        )
        heatmap = Heatmap(target=target, ft=ft, ct=ct)

        for stmt_id in sorted(ft.statements() | ct.statements()):
            in_ft = stmt_id in ft.weights
            in_ct = stmt_id in ct.weights
            if in_ct and not in_ft:
                # Case 1: never executes in failing traces -> not suspicious.
                heatmap.suspiciousness[stmt_id] = 0.0
                continue
            if in_ft and not in_ct:
                # Case 2: executes only in failing traces -> suspicious.
                heatmap.suspiciousness[stmt_id] = FT_ONLY_SUSPICIOUSNESS
                heatmap.entries[stmt_id] = HeatmapEntry(
                    stmt_id=stmt_id,
                    weights=ft.weights[stmt_id].copy(),
                    suspiciousness=FT_ONLY_SUSPICIOUSNESS,
                    case="ft_only",
                )
                continue
            # Case 3: present in both -> threshold the normalized distance.
            distance = normalized_l1_distance(ft.weights[stmt_id], ct.weights[stmt_id])
            heatmap.suspiciousness[stmt_id] = distance
            if distance > threshold:
                heatmap.entries[stmt_id] = HeatmapEntry(
                    stmt_id=stmt_id,
                    weights=ft.weights[stmt_id].copy(),
                    suspiciousness=distance,
                    case="both",
                )
        return heatmap
