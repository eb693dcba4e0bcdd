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
from .features import (
    BatchEncoder,
    Sample,
    log_rows,
    record_samples,
    row_samples,
    sample_from_execution,
)
from .model import VeriBugModel

#: Suspiciousness assigned to statements that only execute in failing
#: traces (the paper marks them suspicious without computing a distance).
FT_ONLY_SUSPICIOUSNESS = 1.0


def _log_distinct(
    contexts: dict[int, StatementContext],
    traces: list[Trace],
    restrict_to: set[int] | None,
) -> tuple[list[Sample], list[int], list[int]]:
    """Deduplicate a trace set straight off its event logs.

    The set's rows come from :func:`~repro.core.features.log_rows`.  A
    row's key is its stmt id and its −1-padded operand values (simulator
    values are non-negative, and a stmt id pins its context width, so
    padding never merges or splits a group) — exactly the record loop's
    ``(stmt_id, operand_values)`` group key.  One ``np.lexsort`` with
    the record-loop order ``(trace position, event)`` as its least
    significant key makes each group's first sorted row its first
    occurrence, which supplies the label; groups come back in
    first-occurrence order with their counts.  Sets holding >63-bit
    values take the record loop.
    """
    rows = log_rows(contexts, traces, restrict_to)
    if rows is None:
        return _record_loop_distinct(contexts, traces, restrict_to)
    keyed, lhs, order = rows
    if not len(order):
        return [], [], []
    sort = np.lexsort((order, *keyed.T[::-1]))
    ranked = keyed[sort]
    starts = np.flatnonzero(
        np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    )
    group_counts = np.diff(np.append(starts, len(ranked)))
    firsts = sort[starts]
    replay = np.argsort(order[firsts])
    first = firsts[replay]
    samples = row_samples(keyed[first], lhs[first], contexts)
    return samples, keyed[first, 0].tolist(), group_counts[replay].tolist()


def _record_loop_distinct(
    contexts: dict[int, StatementContext],
    traces: list[Trace],
    restrict_to: set[int] | None,
) -> tuple[list[Sample], list[int], list[int]]:
    """The record-by-record dedup, for sets holding >63-bit values."""
    groups: dict[tuple[int, tuple[int, ...]], int] = {}
    samples: list[Sample] = []
    stmt_ids: list[int] = []
    counts: list[int] = []
    for stmt_id, sample in record_samples(contexts, traces, restrict_to):
        key = (stmt_id, sample.operand_values)
        slot = groups.get(key)
        if slot is None:
            groups[key] = len(samples)
            samples.append(sample)
            stmt_ids.append(stmt_id)
            counts.append(1)
        else:
            counts[slot] += 1
    return samples, stmt_ids, counts


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
      (:meth:`distinct_samples`); samples whose ``(structure, operand
      values)`` pair was already scored are served whole from the
      model's :class:`~repro.core.model.AttentionRowMemo`, and the rest
      run under :func:`repro.nn.inference_mode`, where the model takes
      the fused head (:func:`~repro.core.model.model_forward_fused`) and
      serves repeated operand structures from its
      :class:`~repro.core.model.ContextEmbeddingCache`;
    * **reference** — one autograd forward row per execution, no dedup
      and no memoization.

    The maps agree within 1e-9 (a sample's attention does not depend on
    its batch beyond last-ulp BLAS rounding, and the weighted mean is
    exact), which ``tests/test_inference_fastpath.py`` pins.

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
        contexts: dict[int, StatementContext],
        traces: list[Trace],
        restrict_to: set[int] | None = None,
    ) -> tuple[list[Sample], list[int], list[int]]:
        """Group a trace set's executions by ``(stmt_id, operand_values)``.

        Returns ``(samples, stmt_ids, counts)`` in first-seen order: one
        representative sample per distinct group plus the group's
        execution multiplicity.  Inference cost then scales with the
        number of *distinct* samples, not executions — across cycles and
        traces the same statement overwhelmingly re-executes with values
        it has already been seen with.

        The set is deduplicated straight off its event logs
        (:func:`_log_distinct`): every trace's lane is read in its log
        (a vector suite's, an interpreter run's, or a pickled lane's)
        and hand-assembled traces join one log of their records.  One
        padded key matrix and one ``np.lexsort`` group the whole set
        while preserving the exact first-seen order and counts of the
        record-by-record loop, so both produce bit-identical attention
        maps.  The record loop remains as the fallback when a trace
        holds >63-bit values (``object`` log arrays).
        """
        return _log_distinct(contexts, traces, restrict_to)

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

        On the fast arm every set's distinct samples join one stream of
        memoized rows (:meth:`_memoized_rows`), so the sets share forward
        passes and memo entries; rows come back in stream order, so each
        map accumulates its samples in first-seen order, exactly as if
        its set were scored alone.  The reference arm scores each set on
        its own, one autograd row per execution.
        """
        if not self.fast_inference:
            return [
                self._attention_map_per_execution(contexts, traces, restrict_to, batch_size)
                for contexts, traces, restrict_to in sets
            ]
        maps: list[AttentionMap] = []
        flat_samples: list[Sample] = []
        flat_adds: list[tuple[AttentionMap, int, int]] = []
        for contexts, traces, restrict_to in sets:
            amap = AttentionMap()
            samples, stmt_ids, counts = self.distinct_samples(
                contexts, traces, restrict_to
            )
            flat_samples.extend(samples)
            flat_adds.extend(
                (amap, stmt_id, count) for stmt_id, count in zip(stmt_ids, counts)
            )
            maps.append(amap)
        rows = self._memoized_rows(flat_samples, batch_size)
        for weights, (amap, stmt_id, count) in zip(rows, flat_adds):
            amap.add(stmt_id, weights, count)
        return maps

    def _memoized_rows(self, samples: list[Sample], batch_size: int) -> list:
        """Attention row per sample, via the model's attention-row memo.

        Samples whose ``(structure, operand values)`` pair was already
        scored — by an earlier trace set, mutant, or request — skip
        encoding and the whole forward pass; samples *within* this call
        sharing one memo key collapse onto a single representative
        forward row (a statement's attention row is segment-local, so the
        representative's row is bit-identical to recomputing each
        duplicate).  Rows come back in sample order, so callers
        accumulate attention maps in sample order.
        """
        memo = self.model.attention_memo
        rows: list[np.ndarray | None] = [None] * len(samples)
        # Each sample's key is built exactly once and reused for the
        # dedup map, the memo lookup, and the store below.
        pending_groups: list[list[int]] = []
        pending_keys: list[tuple] = []
        group_slot: dict = {}
        key_for = memo.key_for
        get_by_key = memo.get_by_key
        for index, sample in enumerate(samples):
            key = key_for(sample)
            slot = group_slot.get(key)
            if slot is not None:
                pending_groups[slot].append(index)
                continue
            row = get_by_key(key)
            if row is not None:
                rows[index] = row
            else:
                group_slot[key] = len(pending_groups)
                pending_groups.append([index])
                pending_keys.append(key)
        with inference_mode():
            for start in range(0, len(pending_groups), batch_size):
                chunk = pending_groups[start : start + batch_size]
                batch = self.encoder.encode([samples[group[0]] for group in chunk])
                output = self.model(batch)
                for offset, weights in enumerate(output.attention_per_statement()):
                    for index in chunk[offset]:
                        rows[index] = weights
                    memo.put_by_key(pending_keys[start + offset], weights)
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
