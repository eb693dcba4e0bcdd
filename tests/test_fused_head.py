"""Fused model-head kernels + attention-row memo: differential/property tests.

The contracts pinned here mirror ``tests/test_fused_rnn.py`` one layer up:

* **Differential** — the no-grad forward (``model_forward_fused``, with
  its context cache) agrees with the grad-on autograd forward within
  1e-9 on hypothesis-random ragged statement batches.
* **Batch invariance** — a statement's attention row does not depend on
  which (ragged) batch it lands in (within 1e-9; BLAS batch-shape
  blocking perturbs the last ulp), the property that makes memoized rows
  reusable across batches.
* **Memo semantics** — rankings and attention maps with a cold or warm
  attention-row memo equal the memo-free autograd reference arm within
  1e-9; keys are structural (statement structure + operand values, label
  excluded); the LRU bound and epoch accounting match the context
  cache's.
* **Training node** — ``VeriBugModel.training_loss`` (one head-and-loss
  autograd node with a hand-written backward, :func:`repro.nn.
  head_loss_fused`) equals the Tensor-graph oracle kept here
  (``model(batch)`` + ``veribug_loss`` + ``backward()``): the loss value
  exactly, every parameter gradient and the ``[D, dc]`` PathRNN-output
  gradient within 1e-10, on hypothesis-random ragged batches and the
  edge cases, and a 3-epoch ``Trainer`` history within 1e-9 relative of
  the oracle training loop.  A training step records at most three
  autograd nodes.
* **Gating** — the fused forward refuses to run while autograd is
  enabled, including ``enable_grad`` nested inside ``inference_mode``;
  the raw kernels run in either mode.
* **Invalidation** — ``load_state_dict`` and a ``Trainer.train`` run,
  completed or interrupted by a raising step, all clear the memo via the
  ``_on_state_loaded`` weight hook.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AttentionRowMemo,
    BatchEncoder,
    Explainer,
    LocalizationEngine,
    Trainer,
    VeriBugConfig,
    VeriBugModel,
    Vocabulary,
    model_forward_fused,
)
from repro.core.features import Sample
from repro.nn import (
    Adam,
    Module,
    Tensor,
    class_weights_from_labels,
    enable_grad,
    inference_mode,
    linear_forward_fused,
    mlp_forward_fused,
    segment_softmax,
    segment_softmax_fused,
    segment_sum,
    segment_sum_fused,
    veribug_loss,
)

from tests.test_fused_rnn import (
    cold_memos,
    make_context,
    path_lists,
    planted_bug_case,
)

TOL = 1e-9
GRAD_TOL = 1e-10


def tiny_model(seed: int = 0) -> VeriBugModel:
    config = VeriBugConfig(
        dc=8, da=12, node_embed_dim=8, predictor_hidden=12, seed=seed
    )
    return VeriBugModel(config, Vocabulary())


@st.composite
def statement_batches(draw):
    """Random ragged batches: per-statement operand counts, paths, values."""
    n_statements = draw(st.integers(min_value=1, max_value=4))
    samples = []
    for stmt_id in range(n_statements):
        n_operands = draw(st.integers(min_value=1, max_value=3))
        paths = [draw(path_lists) for _ in range(n_operands)]
        values = tuple(
            draw(st.integers(min_value=0, max_value=300))
            for _ in range(n_operands)
        )
        samples.append(
            Sample(
                context=make_context(stmt_id, n_operands, paths=paths),
                operand_values=values,
                label=draw(st.integers(min_value=0, max_value=1)),
            )
        )
    return samples


# ----------------------------------------------------------------------
# Kernel-level properties
# ----------------------------------------------------------------------


class TestSegmentKernels:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_rows=st.integers(min_value=1, max_value=24),
        n_segments=st.integers(min_value=1, max_value=8),
        extra_segments=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_segment_softmax_matches_autograd_and_ignores_padding(
        self, seed, n_rows, n_segments, extra_segments
    ):
        """The single-sweep masked softmax equals the autograd op exactly,
        and appending empty segments (ragged-batch padding) is identity."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=4.0, size=n_rows)
        segment_ids = np.sort(rng.integers(0, n_segments, size=n_rows))
        with inference_mode():
            fused = segment_softmax_fused(scores, segment_ids, n_segments)
            padded = segment_softmax_fused(
                scores, segment_ids, n_segments + extra_segments
            )
            reference = segment_softmax(
                Tensor(scores), segment_ids, n_segments
            ).data
        assert np.array_equal(fused, reference)
        assert np.array_equal(fused, padded)
        # Each populated segment is a probability vector.
        sums = segment_sum_fused_sums(fused, segment_ids, n_segments)
        populated = np.bincount(segment_ids, minlength=n_segments) > 0
        assert np.allclose(sums[populated], 1.0, atol=1e-12)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_rows=st.integers(min_value=1, max_value=24),
        width=st.integers(min_value=1, max_value=6),
        n_segments=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_matches_autograd(self, seed, n_rows, width, n_segments):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_rows, width))
        segment_ids = rng.integers(0, n_segments, size=n_rows)
        with inference_mode():
            fused = segment_sum_fused(x, segment_ids, n_segments)
            reference = segment_sum(Tensor(x), segment_ids, n_segments).data
        assert np.array_equal(fused, reference)


def segment_sum_fused_sums(values, segment_ids, n_segments):
    with inference_mode():
        return segment_sum_fused(values, segment_ids, n_segments)


# ----------------------------------------------------------------------
# Full-head differential
# ----------------------------------------------------------------------


class TestFusedHeadDifferential:
    @given(samples=statement_batches(), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_matches_autograd_on_random_batches(self, samples, seed):
        model = tiny_model(seed % 1000)
        encoder = BatchEncoder(model.vocab)
        batch = encoder.encode(samples)
        # Autograd reference: grad on forces the Tensor path.
        reference = model.forward(batch)
        assert reference.logits.requires_grad
        with inference_mode():
            fused = model.forward(batch)
        assert not fused.logits.requires_grad
        assert np.allclose(fused.logits.data, reference.logits.data, atol=TOL)
        assert np.allclose(
            fused.attention.data, reference.attention.data, atol=TOL
        )
        assert np.allclose(
            fused.updated_embeddings.data,
            reference.updated_embeddings.data,
            atol=TOL,
        )

    @given(samples=statement_batches())
    @settings(max_examples=20, deadline=None)
    def test_batch_composition_invariance(self, samples):
        """A statement's attention row doesn't depend on which ragged
        batch it lands in (within 1e-9) — the property that makes
        memoized rows reusable across batches.  Exact bit-identity is
        not guaranteed across batch *shapes*: BLAS blocks matmuls
        differently for different operand sizes, so the same row can
        round differently in the last ulp."""
        model = tiny_model(7)
        encoder = BatchEncoder(model.vocab)
        with inference_mode():
            combined = model.forward(encoder.encode(samples))
            rows = combined.attention_per_statement()
            for sample, row in zip(samples, rows):
                alone = model.forward(encoder.encode([sample]))
                assert np.allclose(
                    alone.attention_per_statement()[0], row, rtol=0, atol=TOL
                )

    def test_predict_uses_fused_forward(self):
        """``predict`` runs no-grad (the fused forward, filling the
        context cache) and agrees with the grad-on forward."""
        model = tiny_model(3)
        encoder = BatchEncoder(model.vocab)
        samples = [
            Sample(make_context(0, 2), operand_values=(1, 0), label=0),
            Sample(make_context(1, 1), operand_values=(5,), label=1),
        ]
        batch = encoder.encode(samples)
        fused_pred = model.predict(batch)
        assert model.context_cache.misses > 0
        assert np.array_equal(fused_pred, model.forward(batch).predictions())


# ----------------------------------------------------------------------
# Grad gating
# ----------------------------------------------------------------------


class TestGradRefusal:
    def test_model_forward_fused_refuses_grad(self):
        model = tiny_model(1)
        encoder = BatchEncoder(model.vocab)
        batch = encoder.encode(
            [Sample(make_context(0, 1), operand_values=(1,), label=0)]
        )
        with pytest.raises(RuntimeError, match="inference_mode"):
            model_forward_fused(model, batch)
        # enable_grad nested inside inference_mode re-arms the refusal.
        with inference_mode():
            model_forward_fused(model, batch)
            with enable_grad():
                with pytest.raises(RuntimeError, match="inference_mode"):
                    model_forward_fused(model, batch)

    def test_kernels_run_with_grad_enabled(self):
        """The raw kernels record nothing, so they run in either grad
        mode and return the same arrays."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2))
        ids = np.array([0, 0, 1])
        model = tiny_model(2)
        rows = rng.normal(size=(4, model.config.operand_dim))

        def run():
            return (
                segment_sum_fused(x, ids, 2),
                segment_softmax_fused(x[:, 0], ids, 2),
                mlp_forward_fused(model.predictor, rows),
                linear_forward_fused(model.predictor.layers[0], rows),
            )

        with inference_mode():
            want = run()
        for got, expected in zip(run(), want):
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, expected)

    def test_training_forward_builds_graph(self):
        """With grad on, the forward dispatches to the autograd path."""
        model = tiny_model(4)
        encoder = BatchEncoder(model.vocab)
        batch = encoder.encode(
            [Sample(make_context(0, 2), operand_values=(1, 2), label=1)]
        )
        output = model.forward(batch)
        assert output.logits.requires_grad
        assert output.attention.requires_grad


# ----------------------------------------------------------------------
# The training node vs the Tensor-graph oracle
# ----------------------------------------------------------------------


class RecordingRNN(Module):
    """Wraps a PathRNN and keeps its output, whose ``grad`` after the
    backward is the loss gradient of the ``[D, dc]`` path embeddings."""

    def __init__(self, inner):
        self.inner = inner
        self.output = None

    def forward(self, x, mask):
        self.output = self.inner(x, mask)
        return self.output


def oracle_loss(model, batch, class_weights, alpha):
    """The reference training objective: the grad-on Tensor forward plus
    ``veribug_loss``."""
    output = model(batch)
    return veribug_loss(
        output.logits,
        batch.labels,
        output.updated_embeddings,
        batch.operand_stmt,
        class_weights=class_weights,
        alpha=alpha,
    )


def loss_and_gradients(model, batch, class_weights, alpha, fused):
    """Loss, parts, parameter gradients and the path-embedding gradient."""
    model.zero_grad()
    if fused:
        loss, parts = model.training_loss(batch, class_weights, alpha)
    else:
        loss, parts = oracle_loss(model, batch, class_weights, alpha)
    loss.backward()
    grads = {name: param.grad.copy() for name, param in model.named_parameters()}
    path_grad = model.path_rnn.output.grad.copy()
    model.zero_grad()
    return loss.item(), parts, grads, path_grad


def assert_node_matches_oracle(model, batch, class_weights, alpha):
    model.path_rnn = RecordingRNN(model.path_rnn)
    got = loss_and_gradients(model, batch, class_weights, alpha, fused=True)
    want = loss_and_gradients(model, batch, class_weights, alpha, fused=False)
    # The node's forward repeats the oracle's arithmetic op for op.
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2].keys() == want[2].keys()
    for name, grad in want[2].items():
        assert got[2][name].shape == grad.shape, name
        assert np.max(np.abs(got[2][name] - grad), initial=0.0) <= GRAD_TOL, name
    assert got[3].shape == want[3].shape == (len(batch.path_tokens), model.config.dc)
    assert np.max(np.abs(got[3] - want[3]), initial=0.0) <= GRAD_TOL


def oracle_train(model, encoder, samples, epochs):
    """The Tensor-graph training loop ``Trainer.train`` replaced, kept as
    its oracle: same shuffling, minibatches and Adam settings."""
    config = model.config
    optimizer = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    class_weights = class_weights_from_labels(np.array([s.label for s in samples]))
    encoded = encoder.encode(samples)
    losses, ce_terms, reg_terms = [], [], []
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        totals = np.zeros(3)
        n_batches = 0
        for start in range(0, len(samples), config.batch_size):
            batch = encoded.select(order[start : start + config.batch_size])
            loss, parts = oracle_loss(model, batch, class_weights, config.alpha)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            totals += (loss.item(), parts["ce"], parts["reg"])
            n_batches += 1
        losses.append(totals[0] / n_batches)
        ce_terms.append(totals[1] / n_batches)
        reg_terms.append(totals[2] / n_batches)
    return losses, ce_terms, reg_terms


def graph_nodes(root):
    """Every non-leaf Tensor reachable from ``root``."""
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestHeadLossNode:
    @given(
        samples=statement_batches(),
        seed=st.integers(0, 2**31),
        alpha=st.sampled_from([0.0, 0.1, 2.5]),
        weighted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_batches(self, samples, seed, alpha, weighted):
        model = tiny_model(seed % 1000)
        batch = BatchEncoder(model.vocab).encode(samples)
        rng = np.random.default_rng(seed)
        class_weights = rng.uniform(0.2, 3.0, size=2) if weighted else None
        assert_node_matches_oracle(model, batch, class_weights, alpha)

    def test_one_statement_one_operand(self):
        model = tiny_model(5)
        batch = BatchEncoder(model.vocab).encode(
            [Sample(make_context(0, 1), operand_values=(3,), label=1)]
        )
        assert batch.n_statements == batch.n_operands == 1
        assert_node_matches_oracle(model, batch, np.array([0.5, 1.5]), 0.1)

    def test_one_operand_statements(self):
        model = tiny_model(6)
        samples = [
            Sample(
                make_context(i, 1, paths=[[("And",) * (i + 1), ("Not", "Lvalue")]]),
                operand_values=(i,),
                label=i % 2,
            )
            for i in range(5)
        ]
        batch = BatchEncoder(model.vocab).encode(samples)
        assert batch.operand_counts == [1] * 5
        assert_node_matches_oracle(model, batch, class_weights_from_labels(batch.labels), 0.1)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_other_hidden_activations(self, tiny_samples, activation):
        model = tiny_model(10)
        model.aggregation_mlp.activation = activation
        model.predictor.activation = activation
        batch = BatchEncoder(model.vocab).encode(tiny_samples[:24])
        weights = class_weights_from_labels(batch.labels)
        assert_node_matches_oracle(model, batch, weights, 0.1)

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_labels_and_zero_alpha(self, tiny_samples, label):
        model = tiny_model(8)
        samples = [s for s in tiny_samples if s.label == label][:40]
        batch = BatchEncoder(model.vocab).encode(samples)
        weights = class_weights_from_labels(batch.labels)
        assert_node_matches_oracle(model, batch, weights, 0.0)
        assert_node_matches_oracle(model, batch, weights, 0.1)

    def test_corpus_minibatch(self, tiny_config, vocab, encoder, tiny_samples):
        model = VeriBugModel(tiny_config, vocab)
        full = encoder.encode(tiny_samples)
        batch = full.select(np.arange(0, len(tiny_samples), 3)[: tiny_config.batch_size])
        assert len(batch.path_tokens) < len(batch.path_index)
        weights = class_weights_from_labels(full.labels)
        assert_node_matches_oracle(model, batch, weights, tiny_config.alpha)

    def test_three_epoch_history_matches_oracle_loop(
        self, tiny_config, vocab, encoder, tiny_samples
    ):
        samples = tiny_samples[:160]
        model = VeriBugModel(tiny_config, vocab)
        twin = VeriBugModel(tiny_config, vocab)
        fused = Trainer(model, encoder).train(samples, epochs=3)
        oracle = oracle_train(twin, encoder, samples, epochs=3)
        for got, want in zip(
            (fused.losses, fused.ce_terms, fused.reg_terms), oracle
        ):
            assert np.allclose(got, want, rtol=1e-9, atol=0.0)

    def test_training_step_records_at_most_three_nodes(
        self, tiny_config, vocab, encoder, tiny_samples, monkeypatch
    ):
        model = VeriBugModel(tiny_config, vocab)
        batch = encoder.encode(tiny_samples[:32])
        made = []
        make = Tensor._make

        def counting(self, data, parents):
            out = make(self, data, parents)
            if out.requires_grad:
                made.append(out)
            return out

        monkeypatch.setattr(Tensor, "_make", counting)
        loss, _ = model.training_loss(batch, None, tiny_config.alpha)
        assert len(made) <= 3
        assert made[-1] is loss
        assert len(graph_nodes(loss)) <= 3
        loss.backward()
        assert all(param.grad is not None for param in model.parameters())

    def test_grad_off_records_nothing(self):
        model = tiny_model(9)
        batch = BatchEncoder(model.vocab).encode(
            [Sample(make_context(0, 2), operand_values=(1, 2), label=1)]
        )
        with inference_mode():
            loss, parts = model.training_loss(batch, None, 0.1)
        assert not loss.requires_grad and not loss._parents
        assert np.isclose(loss.item(), parts["ce"] + 0.1 * parts["reg"], rtol=1e-15)


# ----------------------------------------------------------------------
# Attention-row memo
# ----------------------------------------------------------------------


class TestAttentionRowMemo:
    def _sample(self, stmt_id=0, paths=None, values=(1, 0), label=0):
        context = make_context(stmt_id, len(values), paths=paths)
        return Sample(context=context, operand_values=values, label=label)

    def test_key_is_structure_plus_values_not_identity_or_label(self):
        memo = AttentionRowMemo()
        row = np.array([0.25, 0.75])
        paths = [[("And", "Rvalue")], [("Not", "Lvalue")]]
        memo.put(self._sample(0, paths=paths), row)
        # Fresh context object, different stmt_id, different label: same
        # structure + values -> served.
        assert memo.get(self._sample(9, paths=paths, label=1)) is row
        # Different operand values -> distinct entry.
        assert memo.get(self._sample(0, paths=paths, values=(0, 1))) is None
        # Different structure, same values -> distinct entry.
        other = [[("Or", "Rvalue")], [("Not", "Lvalue")]]
        assert memo.get(self._sample(0, paths=other)) is None

    def test_lru_bound_and_epoch_accounting(self):
        memo = AttentionRowMemo(max_entries=2)
        samples = [
            self._sample(i, paths=[[("And",) * (i + 1)]], values=(1,))
            for i in range(3)
        ]
        memo.put(samples[0], np.zeros(1))
        memo.put(samples[1], np.ones(1))
        assert memo.get(samples[0]) is not None  # touch: 0 becomes MRU
        memo.put(samples[2], np.full(1, 2.0))  # evicts 1, the LRU
        assert len(memo) == 2
        assert memo.evictions == 1
        assert memo.get(samples[1]) is None
        assert memo.cross_epoch_hits == 0
        memo.begin_epoch()
        assert memo.get(samples[0]) is not None
        assert memo.cross_epoch_hits == 1
        stats = memo.stats()
        assert stats["cross_epoch_hits"] == 1
        assert 0.0 < stats["cross_epoch_hit_rate"] <= 1.0
        with pytest.raises(ValueError):
            AttentionRowMemo(max_entries=0)

    def test_memo_on_off_ranking_identity(self, trained_session, localizer):
        """Memo on (the fast arm, cold and warm) vs memo off (the
        autograd reference arm): same rankings, scores within 1e-9."""
        buggy, failing, correct = planted_bug_case()
        model = trained_session.model
        with cold_memos(model):
            cold = localizer.localize(buggy, "y", failing, correct)
            warm = localizer.localize(buggy, "y", failing, correct)
            assert model.attention_memo.hits > 0
            assert model.attention_memo.cross_epoch_hits > 0
        reference = LocalizationEngine(
            model, trained_session.encoder, fast_inference=False
        )
        plain = reference.localize(buggy, "y", failing, correct)
        for result in (cold, warm):
            assert result.ranking == plain.ranking
            assert set(result.heatmap.suspiciousness) == set(
                plain.heatmap.suspiciousness
            )
            for stmt_id, score in plain.heatmap.suspiciousness.items():
                assert abs(result.heatmap.suspiciousness[stmt_id] - score) <= TOL

    def test_memoized_maps_match_reference(self, trained_session, arbiter):
        """Attention maps with a cold or warm memo equal the reference
        arm's within 1e-9 (batch regrouping perturbs BLAS rounding, so
        bit-identity across arms is not guaranteed)."""
        from repro.analysis import extract_module_contexts
        from tests.test_fused_rnn import assert_maps_equal, design_traces

        model = trained_session.model
        explainer = Explainer(model, trained_session.encoder)
        contexts = extract_module_contexts(arbiter.statements())
        traces = design_traces(arbiter, n_traces=3)
        with cold_memos(model):
            cold = explainer.attention_map(contexts, traces)
            warm = explainer.attention_map(contexts, traces)
            assert model.attention_memo.hits > 0
        reference = Explainer(
            model, trained_session.encoder, fast_inference=False
        ).attention_map(contexts, traces)
        for amap in (cold, warm):
            assert_maps_equal(amap, reference)
        # Warm lookups serve the exact rows the cold pass stored.
        for stmt_id in cold.statements():
            assert np.array_equal(cold.weights[stmt_id], warm.weights[stmt_id])


# ----------------------------------------------------------------------
# Weight-epoch invalidation
# ----------------------------------------------------------------------


def memoized_rows(explainer, samples):
    """The fast arm's memoized attention row per sample."""
    keys = [explainer.model.attention_memo.key_for(sample) for sample in samples]
    return explainer._memoized_rows(keys, samples.__getitem__, batch_size=8)


class TestWeightInvalidation:
    def _warm_memo(self, model):
        encoder = BatchEncoder(model.vocab)
        explainer = Explainer(model, encoder)
        # Multi-operand statements with distinct structures: their
        # attention rows are non-trivial (a single-operand row is always
        # [1.0] no matter the weights).
        samples = [
            Sample(
                make_context(
                    i, 2, paths=[[("And",) * (i + 1)], [("Not", "Lvalue")]]
                ),
                operand_values=(i % 3, (i + 1) % 3),
                label=0,
            )
            for i in range(4)
        ]
        rows = memoized_rows(explainer, samples)
        assert len(model.attention_memo) > 0
        return samples, rows

    def test_load_state_dict_clears_memo(self):
        model = tiny_model(11)
        samples, rows = self._warm_memo(model)
        state = model.state_dict()
        state["attention_vector"] = state["attention_vector"] * 1.5
        model.load_state_dict(state)
        assert len(model.attention_memo) == 0
        assert len(model.context_cache) == 0
        # Recomputed rows reflect the new weights, not the stale memo.
        explainer = Explainer(model, BatchEncoder(model.vocab))
        fresh = memoized_rows(explainer, samples)
        assert any(
            not np.array_equal(old, new) for old, new in zip(rows, fresh)
        )

    def test_trainer_train_clears_memo(self, tiny_samples):
        model = tiny_model(12)
        self._warm_memo(model)
        trainer = Trainer(model, BatchEncoder(model.vocab), model.config)
        trainer.train(tiny_samples[:24], epochs=1)
        assert len(model.attention_memo) == 0

    def test_interrupted_train_still_invalidates(self, tiny_samples):
        """A step that raises after earlier steps changed the weights
        still clears both memos, fires the weight listeners once, and
        advances a live session runtime's weight epoch."""
        from repro.api import SessionConfig, VeriBugSession

        model = tiny_model(13)
        session = VeriBugSession(
            model, config=SessionConfig(model=model.config, n_workers=2)
        )
        try:
            self._warm_memo(model)
            assert len(model.context_cache) > 0
            fired = []
            model.add_weight_listener(lambda: fired.append(True))
            epoch = session.runtime.weight_epoch
            trainer = Trainer(model, session.encoder, model.config)
            step = trainer.optimizer.step
            calls = []

            def failing_step():
                calls.append(True)
                if len(calls) == 2:
                    raise RuntimeError("step interrupted")
                step()

            trainer.optimizer.step = failing_step
            samples = tiny_samples[: 3 * model.config.batch_size]
            with pytest.raises(RuntimeError, match="step interrupted"):
                trainer.train(samples, epochs=1)
            assert len(calls) == 2
            assert len(model.context_cache) == 0
            assert len(model.attention_memo) == 0
            assert fired == [True]
            assert session.runtime.weight_epoch == epoch + 1
        finally:
            session.close()
