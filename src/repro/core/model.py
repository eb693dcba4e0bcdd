"""The VeriBug deep-learning model (paper §IV-C, Figure 3).

Three stages, all fully batched over ragged statements via segment ops:

1. **Operand embeddings** — each leaf-to-leaf path of an operand's context
   is embedded by PathRNN (an LSTM over node-type embeddings); path
   embeddings are summed into the context embedding ``c_i``; the operand's
   one-hot value encoding ``v_i`` is concatenated: ``x_i = (c_i || v_i)``.

2. **Weighted sum** — the aggregation layer computes updated embeddings
   ``x*_i = MLP_θ1(Σ_j x_j + ε · x_i)`` with a learnable skip weight ε;
   the attention layer scores each operand with the shared attention
   vector ``a`` and softmax-normalizes within the statement:
   ``w = softmax(a · X*ᵀ)``; the statement embedding is ``Σ_i w_i x_i``.

3. **Final prediction** — ``MLP_θ2`` maps the statement embedding to
   2-class logits for the LHS value.

Stage 1 is where the time goes.  The encoded batch stores each distinct
token path once (:class:`~repro.core.features.EncodedBatch`), so the
PathRNN runs once per distinct path and ``path_index`` gathers the
results back to every ``(operand, path)`` row before the per-operand
sums — one formulation for training and inference alike.  The PathRNN
is the packed LSTM kernel (:func:`repro.nn.lstm_forward_fused`): with
grad on it is one autograd node with a hand-written BPTT backward, with
grad off it saves nothing.  Its output is *value-independent*:
``c_i`` is a pure function of the static ``(StatementContext,
operand_index)`` pair and the current weights.
:class:`ContextEmbeddingCache` memoizes it per *structural fingerprint*
(the operand's ordered path tuple), so repeated executions of the same
statement *structure* — with whatever operand values, from whatever
context object, mutant, or design — skip the PathRNN entirely and
inference reduces to the value-MLP stages.  The cache is consulted only
while autograd is off; training and the per-execution reference arm
never see it.

Training adds one node on top of the PathRNN's:
:meth:`VeriBugModel.training_loss` runs the stage-1 fan-out, stages 2-3
and the loss as :func:`repro.nn.head_loss_fused`, whose backward is also
written by hand.  The grad-on :meth:`VeriBugModel.forward` Tensor graph
plus :func:`repro.nn.veribug_loss` is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.contexts import StatementContext
from ..nn import (
    LSTM,
    MLP,
    Embedding,
    Module,
    Parameter,
    Tensor,
    concat,
    gather_rows,
    head_forward_fused,
    head_loss_fused,
    inference_mode,
    is_grad_enabled,
    segment_softmax,
    segment_sum,
)
from .config import VeriBugConfig
from .features import EncodedBatch, Sample
from .vocab import Vocabulary


class _EpochLRU:
    """The LRU, request-epoch and hit-counter machinery both memos share.

    Entries are ``key -> (epoch, value)`` in a dict whose order tracks
    recency; :meth:`put_by_key` evicts least-recently-used overflow past
    ``max_entries``.  :meth:`begin_epoch` marks a request boundary — the
    localizer opens one per ``localize_many`` call — and hits on entries
    created in an *earlier* epoch are counted separately
    (``cross_epoch_hits``).  Since one localization call never spans the
    same mutant twice, cross-epoch hits are a lower bound on
    cross-mutant sharing, the number ``BENCH_localize.json`` reports.
    Entries are valid only for the weights they were computed with; the
    model clears both memos on every weight change
    (``VeriBugModel._on_state_loaded``).
    """

    def __init__(self, max_entries: int = 100_000):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: dict[object, tuple[int, np.ndarray]] = {}
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.cross_epoch_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def begin_epoch(self) -> None:
        """Mark a request boundary (one localization call = one epoch)."""
        self._epoch += 1

    def get_by_key(self, key) -> np.ndarray | None:
        """The entry stored under ``key``, or None; one lookup counts one
        hit or one miss, however many callers share its value."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        # LRU touch: re-insert so dict order tracks recency.
        del self._entries[key]
        self._entries[key] = entry
        self.hits += 1
        if entry[0] != self._epoch:
            self.cross_epoch_hits += 1
        return entry[1]

    def put_by_key(self, key, value: np.ndarray) -> None:
        """Store ``value`` under ``key``, evicting LRU overflow."""
        self._entries.pop(key, None)
        while len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = (self._epoch, value)

    def clear(self) -> None:
        """Drop every entry (weights changed or owner reset)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.cross_epoch_hits = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def cross_epoch_hit_rate(self) -> float:
        """Fraction of lookups served from an earlier epoch's entries."""
        total = self.hits + self.misses
        return self.cross_epoch_hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Hit/miss counters plus the derived hit rates."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "cross_epoch_hits": self.cross_epoch_hits,
            "cross_epoch_hit_rate": self.cross_epoch_hit_rate,
            "entries": len(self._entries),
            "evictions": self.evictions,
        }


class ContextEmbeddingCache(_EpochLRU):
    """Memoizes PathRNN context embeddings per *structural* fingerprint.

    Keys are :meth:`StatementContext.structural_key` fingerprints — the
    operand's ordered leaf-to-leaf path tuple — not object identities.
    Structurally identical operands therefore share one entry even when
    they live in different context objects: a campaign that re-extracts
    fresh :class:`StatementContext` objects for every mutant still hits
    the entries populated by earlier mutants on the golden/mutant
    statement overlap (the cross-campaign memoization the identity-keyed
    scheme could never provide).  Sharing is exact, not approximate: the
    fingerprint pins the paths *and their order*, so the summed PathRNN
    output is bit-identical to recomputing it.

    Entries outlive their contexts by design, so boundedness comes from
    the LRU bound (``max_entries``) instead of weakref eviction.
    """

    @staticmethod
    def key_for(context: StatementContext, op_index: int):
        """Cache key: the operand's structural fingerprint."""
        return context.structural_key(op_index)

    def get(self, context: StatementContext, op_index: int) -> np.ndarray | None:
        """The cached ``c_i`` row for the operand's structure, or None."""
        return self.get_by_key(self.key_for(context, op_index))

    def put(
        self, context: StatementContext, op_index: int, embedding: np.ndarray
    ) -> None:
        """Store an embedding, evicting least-recently-used overflow."""
        self.put_by_key(self.key_for(context, op_index), embedding)


class AttentionRowMemo(_EpochLRU):
    """Memoizes final attention rows per ``(structure, operand values)``.

    The campaign-scoped complement of :class:`ContextEmbeddingCache`: the
    cache removes the *value-independent* stage-1 cost, this memo removes
    everything else.  A statement's attention row is a pure function of
    ``(statement_key, operand value tuple, weights)`` — the whole head
    (aggregation, attention softmax, weighted sum) sees nothing but the
    per-operand structures and their one-hot values — so executions shared
    between the golden and mutant runs of a campaign (identical structure
    *and* identical simulated values) skip encoding and every forward
    stage outright.  Memoized rows are exact up to BLAS batch-shape
    rounding (the key pins operand order and every head stage is
    segment-local, so the only divergence from recomputing in a different
    batch is last-ulp matmul blocking — well inside the 1e-9 ranking
    tolerance the differential tests pin).

    Only attention rows are memoized — never logits — so ``predict`` and
    evaluation semantics are untouched; the memo is consulted by the
    explainer's fast path (``Explainer._memoized_rows``) exclusively,
    never by ``forward``.

    A key is ``(structure id, operand values)``, a tuple of ints: each
    distinct :meth:`StatementContext.statement_key` is interned once
    (:meth:`structure_id`; ids do not depend on the weights, so they
    outlive :meth:`clear`).  The explainer looks each distinct key of a
    ``localize_many`` call up once, for all the call's samples with it.
    """

    def __init__(self, max_entries: int = 100_000):
        super().__init__(max_entries)
        self._structures: dict[tuple, int] = {}

    def structure_id(self, context: StatementContext) -> int:
        """The small int interned for the context's statement structure."""
        return self._structures.setdefault(context.statement_key(), len(self._structures))

    def key_for(self, sample: Sample) -> tuple[int, tuple[int, ...]]:
        """Memo key: the statement's structure id plus operand values."""
        return (self.structure_id(sample.context), sample.operand_values)

    @staticmethod
    def row_keys(rows: list[list[int]], widths: list[int]) -> list[tuple[int, tuple[int, ...]]]:
        """The memo key of each ``[structure id, operand values...]`` row
        whose values are padded past its ``widths`` entry."""
        return [(row[0], tuple(row[1 : 1 + width])) for row, width in zip(rows, widths)]

    def get(self, sample: Sample) -> np.ndarray | None:
        """The memoized attention row for the sample, or None."""
        return self.get_by_key(self.key_for(sample))

    def put(self, sample: Sample, row: np.ndarray) -> None:
        """Store an attention row, evicting least-recently-used overflow."""
        self.put_by_key(self.key_for(sample), row)


@dataclass
class ModelOutput:
    """Everything the explainer and evaluation need from one forward pass.

    Attributes:
        logits: ``[B, 2]`` statement-level prediction logits.
        attention: ``[M]`` attention weight per operand row (sums to 1
            within each statement).
        updated_embeddings: ``[M, da]`` the ``x*`` matrix rows (input to
            the regularizer).
        operand_stmt: ``[M]`` owning statement per operand row.
        operand_counts: Operands per statement, for unflattening.
    """

    logits: Tensor
    attention: Tensor
    updated_embeddings: Tensor
    operand_stmt: np.ndarray
    operand_counts: list[int]

    def attention_per_statement(self) -> list[np.ndarray]:
        """Split the flat attention vector back into per-statement arrays."""
        weights = self.attention.data
        result: list[np.ndarray] = []
        offset = 0
        for count in self.operand_counts:
            result.append(weights[offset : offset + count].copy())
            offset += count
        return result

    def predictions(self) -> np.ndarray:
        """Argmax class per statement."""
        return self.logits.data.argmax(axis=1)


class VeriBugModel(Module):
    """PathRNN + aggregation + attention head + predictor.

    Example:
        >>> import numpy as np
        >>> from repro.core import VeriBugConfig, Vocabulary
        >>> model = VeriBugModel(VeriBugConfig(), Vocabulary())
    """

    def __init__(self, config: VeriBugConfig, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        rng = np.random.default_rng(config.seed)
        self.node_embedding = Embedding(len(vocab), config.node_embed_dim, rng)
        self.path_rnn = LSTM(config.node_embed_dim, config.dc, rng)
        self.aggregation_mlp = MLP(
            [config.operand_dim, config.da, config.da], rng, activation="leaky_relu"
        )
        self.epsilon = Parameter(np.array(0.1), name="epsilon")
        self.attention_vector = Parameter(
            rng.normal(0.0, 1.0 / np.sqrt(config.da), size=config.da), name="attention"
        )
        self.predictor = MLP(
            [config.operand_dim, config.predictor_hidden, 2],
            rng,
            activation="leaky_relu",
        )
        #: Inference-only memo of stage-1 context embeddings; consulted
        #: exclusively while autograd is off, so training and the autograd
        #: reference arm never see it.
        self.context_cache = ContextEmbeddingCache()
        #: Inference-only memo of final attention rows keyed on
        #: ``(statement structure, operand values)``; consulted by the
        #: explainer's fast path, never by ``forward``.
        self.attention_memo = AttentionRowMemo()
        #: Callbacks fired whenever the weights change wholesale
        #: (``load_state_dict`` or a completed ``Trainer.train`` run) —
        #: the execution runtime registers here to version its read-only
        #: worker snapshots (see ``repro.runtime``).
        self._weight_listeners: list = []

    def add_weight_listener(self, callback) -> None:
        """Register a zero-arg callback fired after every weight change."""
        self._weight_listeners.append(callback)

    def remove_weight_listener(self, callback) -> None:
        """Detach a listener (no-op when absent, e.g. double close)."""
        try:
            self._weight_listeners.remove(callback)
        except ValueError:
            pass

    def _on_state_loaded(self) -> None:
        # New weights invalidate every memoized context embedding and
        # attention row ...
        self.context_cache.clear()
        self.attention_memo.clear()
        # ... and every externally-held snapshot of the old weights.
        for callback in list(self._weight_listeners):
            callback()

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, batch: EncodedBatch) -> ModelOutput:
        """Run the full model on an encoded batch.

        With autograd off (:func:`inference_mode`) the pass runs
        :func:`model_forward_fused`; with grad on, the Tensor path below
        — the autograd reference of both that forward and the training
        node (:meth:`training_loss`).
        """
        if not is_grad_enabled():
            return model_forward_fused(self, batch)
        x = self._operand_embeddings(batch)
        updated = self._aggregation(x, batch)
        attention = self._attention_weights(updated, batch)
        statement = segment_sum(
            attention.reshape(-1, 1) * x, batch.operand_stmt, batch.n_statements
        )
        logits = self.predictor(statement)
        return ModelOutput(
            logits=logits,
            attention=attention,
            updated_embeddings=updated,
            operand_stmt=batch.operand_stmt,
            operand_counts=batch.operand_counts,
        )

    def _operand_embeddings(self, batch: EncodedBatch) -> Tensor:
        """Stage 1: ``x_i = (c_i || v_i)`` for every operand row."""
        context = self._context_embeddings(batch)  # [M, dc]
        value = Tensor(batch.value_onehot)
        return concat([context, value], axis=1)  # [M, dc+dv]

    def _context_embeddings(self, batch: EncodedBatch) -> Tensor:
        """PathRNN context embeddings ``c_i``, memoized under inference.

        With autograd on (training, reference arm) every distinct path of
        the batch runs through the PathRNN once (:meth:`_path_sums`).
        Under :func:`inference_mode`, distinct ``(context, operand)``
        structures are looked up in the cache and only the misses' paths
        reach the same formulation.
        """
        if is_grad_enabled() or batch.operand_contexts is None:
            return self._path_sums(
                batch.path_tokens,
                batch.path_mask,
                batch.path_index,
                batch.path_operand,
                batch.n_operands,
            )
        return Tensor(self._cached_context_embeddings(batch))

    def _path_sums(
        self,
        tokens: np.ndarray,
        mask: np.ndarray,
        path_index: np.ndarray,
        path_operand: np.ndarray,
        n_operands: int,
    ) -> Tensor:
        """Stage 1 proper: ``segment_sum(gather_rows(PathRNN(embedding(
        distinct rows)), path_index), path_operand)``.

        The embedding lookup, the LSTM and its BPTT run once per distinct
        path row of ``tokens``; ``path_index`` fans the results out to
        every ``(operand, path)`` row, whose sums are the ``c_i``.
        """
        path_embed = self.path_rnn(self.node_embedding(tokens), mask)  # [D, dc]
        return segment_sum(gather_rows(path_embed, path_index), path_operand, n_operands)

    def _cached_context_embeddings(self, batch: EncodedBatch) -> np.ndarray:
        cache = self.context_cache
        out = np.zeros((batch.n_operands, self.config.dc))
        # Group operand rows by structural fingerprint: one lookup (and at
        # most one PathRNN row group) per distinct operand structure —
        # operands of *different* contexts sharing a structure collapse
        # into one group here, even before the cache is consulted.
        groups: dict[object, list[int]] = {}
        for row, (context, op_index) in enumerate(batch.operand_contexts):
            groups.setdefault(context.structural_key(op_index), []).append(row)

        missing: list[tuple[object, list[int]]] = []  # (key, rows)
        for key, rows in groups.items():
            embedding = cache.get_by_key(key)
            if embedding is None:
                missing.append((key, rows))
            else:
                out[rows] = embedding
        if not missing:
            return out

        # One fused pass over the distinct paths of the representative
        # rows only.
        representative = np.array([rows[0] for _, rows in missing], dtype=np.int64)
        segment_of = np.full(batch.n_operands, -1, dtype=np.int64)
        segment_of[representative] = np.arange(len(representative))
        selected = segment_of[batch.path_operand] >= 0
        distinct, path_index = np.unique(
            batch.path_index[selected], return_inverse=True
        )
        computed = self._path_sums(
            batch.path_tokens[distinct],
            batch.path_mask[distinct],
            path_index,
            segment_of[batch.path_operand[selected]],
            len(representative),
        ).data
        for slot, (key, rows) in enumerate(missing):
            embedding = computed[slot]
            cache.put_by_key(key, embedding.copy())
            out[rows] = embedding
        return out

    def _aggregation(self, x: Tensor, batch: EncodedBatch) -> Tensor:
        """Stage 2a: ``x*_i = MLP_θ1(Σ_j x_j + ε · x_i)``."""
        stmt_sum = segment_sum(x, batch.operand_stmt, batch.n_statements)
        broadcast = gather_rows(stmt_sum, batch.operand_stmt)  # [M, dc+dv]
        return self.aggregation_mlp(broadcast + self.epsilon * x)

    def _attention_weights(self, updated: Tensor, batch: EncodedBatch) -> Tensor:
        """Stage 2b: ``softmax(a · x*_i)`` within each statement."""
        scores = updated @ self.attention_vector  # [M]
        return segment_softmax(scores, batch.operand_stmt, batch.n_statements)

    def training_loss(
        self, batch: EncodedBatch, class_weights: np.ndarray | None, alpha: float
    ) -> tuple[Tensor, dict[str, float]]:
        """The training loss of one minibatch as a three-node graph.

        Embedding lookup and packed PathRNN node over the batch's distinct
        paths, then one head-and-loss node (:func:`repro.nn.head_loss_fused`)
        whose hand-written backward sends a single ``[D, dc]`` gradient
        into the PathRNN's BPTT.  The value equals :func:`repro.nn.
        veribug_loss` on :meth:`forward`'s grad-on outputs, which stay the
        oracle of this node (``tests/test_fused_head.py``).

        Returns:
            ``(loss, {"ce": ..., "reg": ...})``.
        """
        path_embed = self.path_rnn(self.node_embedding(batch.path_tokens), batch.path_mask)
        return head_loss_fused(
            path_embed,
            batch,
            self.aggregation_mlp,
            self.epsilon,
            self.attention_vector,
            self.predictor,
            class_weights=class_weights,
            alpha=alpha,
        )

    # ------------------------------------------------------------------
    # Convenience inference
    # ------------------------------------------------------------------
    def predict(self, batch: EncodedBatch) -> np.ndarray:
        """Class predictions without keeping the autograd graph."""
        with inference_mode():
            return self.forward(batch).predictions()


def model_forward_fused(model: VeriBugModel, batch: EncodedBatch) -> ModelOutput:
    """Full no-grad forward pass on raw arrays (no Tensor graph).

    This is :meth:`VeriBugModel.forward` whenever autograd is off.
    Stage 1 reuses :meth:`VeriBugModel._context_embeddings` — the context
    cache, with the packed PathRNN kernel computing its misses — and the
    head stages run through :func:`repro.nn.head_forward_fused`.
    Every numpy call matches the Tensor path in operand order, so the
    outputs equal the grad-on autograd forward (the reference oracle)
    up to BLAS batch-shape rounding of the cache misses' stage 1, within
    1e-9 (the fused-head differential tests).

    Raises:
        RuntimeError: If autograd is enabled (the outputs carry no graph,
            so running under training would silently detach gradients).
    """
    if is_grad_enabled():
        raise RuntimeError(
            "model_forward_fused requires autograd to be disabled; wrap the "
            "call in repro.nn.inference_mode() (its outputs carry no graph; "
            "training runs VeriBugModel.training_loss)"
        )
    # Stage 1: x_i = (c_i || v_i) — context cache included.
    context = model._context_embeddings(batch).data  # [M, dc]
    x = np.concatenate([context, batch.value_onehot], axis=1)  # [M, dc+dv]
    # Stages 2-3: aggregation, attention, predictor.
    updated, attention, logits = head_forward_fused(
        x,
        batch.operand_stmt,
        batch.n_statements,
        model.aggregation_mlp,
        model.epsilon,
        model.attention_vector,
        model.predictor,
    )
    return ModelOutput(
        logits=Tensor(logits),
        attention=Tensor(attention),
        updated_embeddings=Tensor(updated),
        operand_stmt=batch.operand_stmt,
        operand_counts=batch.operand_counts,
    )
