"""Differential and property tests pinning the packed PathRNN kernel.

The packed kernel (:func:`repro.nn.lstm_forward_fused`) is the only LSTM
forward, in training and inference.  Its oracle is the per-step
:class:`LSTMCell` Tensor graph, which lives here (:func:`oracle_lstm`):

* **Differential** — the kernel's output agrees with the oracle within
  1e-9 on random ragged batches; its hand-written BPTT backward gives
  ``dx``, ``dW_ih``, ``dW_hh`` and ``dbias`` within 1e-10 (hypothesis,
  zero-length rows, all-padded batches and T=1 included); a whole model
  on the kernel matches the oracle-LSTM model in loss gradients and a
  3-epoch loss history.  The cached fast arm produces the rankings and
  suspiciousness (within 1e-9) of the per-execution autograd reference
  arm, which never consults the cache (mirroring
  ``tests/test_inference_fastpath.py``).
* **Property (hypothesis)** — appending masked steps never changes the
  final hidden state, and the cache can never serve a dead context's
  embedding even when CPython reuses its ``id``.
* **Autograd regression** — the kernel's gradients pass a
  finite-difference check, and a training forward never consults the
  context cache.
"""

import gc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import extract_module_contexts
from repro.analysis.contexts import OperandInstance, StatementContext
from repro.core import (
    ContextEmbeddingCache,
    Explainer,
    LocalizationEngine,
    Trainer,
    VeriBugModel,
)
from repro.designs import REGISTRY, load_design
from repro.nn import (
    LSTM,
    Module,
    Tensor,
    class_weights_from_labels,
    enable_grad,
    inference_mode,
    lstm_forward_fused,
    veribug_loss,
)
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.verilog import parse_module

TOL = 1e-9
GRAD_TOL = 1e-10


def ragged_batch(rng, batch, steps, input_size):
    """Random inputs plus a left-aligned mask with random lengths (0..T)."""
    x = rng.normal(size=(batch, steps, input_size))
    lengths = rng.integers(0, steps + 1, size=batch)
    mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
    return x, mask


def oracle_lstm(cell, x, mask) -> Tensor:
    """The gradient oracle: the masked per-step ``LSTMCell`` Tensor graph.

    The mask freezes the state on padded steps (an exact 0/1 blend), so
    the result is the hidden state after each row's last valid step.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    batch, steps, _ = x.shape
    h = Tensor(np.zeros((batch, cell.hidden_size)))
    c = Tensor(np.zeros((batch, cell.hidden_size)))
    for t in range(steps):
        h_new, c_new = cell(x[:, t, :], h, c)
        step_mask = Tensor(mask[:, t : t + 1])
        h = step_mask * h_new + (1.0 - step_mask) * h
        c = step_mask * c_new + (1.0 - step_mask) * c
    return h


class OracleLSTM(Module):
    """A PathRNN that runs :func:`oracle_lstm` on a shared cell."""

    def __init__(self, cell):
        self.cell = cell
        self.hidden_size = cell.hidden_size

    def forward(self, x, mask) -> Tensor:
        return oracle_lstm(self.cell, x, mask)


@contextmanager
def cold_memos(model):
    """Run with an empty context cache and attention-row memo, zeroed
    counters, and leave both empty for the next test."""
    for memo in (model.context_cache, model.attention_memo):
        memo.clear()
        memo.reset_stats()
    try:
        yield
    finally:
        model.context_cache.clear()
        model.attention_memo.clear()


# ----------------------------------------------------------------------
# Fused kernel vs autograd LSTM
# ----------------------------------------------------------------------


class TestFusedKernelDifferential:
    @pytest.mark.parametrize(
        "batch,steps,input_size,hidden,seed",
        [
            (1, 1, 1, 1, 0),
            (1, 9, 4, 6, 1),
            (17, 1, 3, 5, 2),
            (13, 7, 6, 9, 3),
            (32, 12, 8, 16, 4),
        ],
    )
    def test_matches_autograd_on_ragged_batches(
        self, batch, steps, input_size, hidden, seed
    ):
        rng = np.random.default_rng(seed)
        lstm = LSTM(input_size, hidden, rng)
        x, mask = ragged_batch(rng, batch, steps, input_size)
        with inference_mode():
            fused = lstm(x, mask).data
        reference = oracle_lstm(lstm.cell, x, mask).data
        assert fused.shape == (batch, hidden)
        assert np.allclose(fused, reference, atol=TOL)

    def test_rejects_non_left_aligned_mask(self):
        rng = np.random.default_rng(7)
        lstm = LSTM(3, 5, rng)
        x = rng.normal(size=(2, 4, 3))
        mask = np.array([[1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        with inference_mode():
            with pytest.raises(ValueError, match="left-aligned"):
                lstm(x, mask)
        with pytest.raises(ValueError, match="left-aligned"):
            lstm(Tensor(x, requires_grad=True), mask)

    def test_all_masked_row_yields_initial_state(self):
        rng = np.random.default_rng(8)
        lstm = LSTM(3, 5, rng)
        x = rng.normal(size=(4, 6, 3))
        mask = np.zeros((4, 6))
        mask[0, :3] = 1.0  # one live row, three fully padded rows
        with inference_mode():
            out = lstm(x, mask).data
        assert np.array_equal(out[1:], np.zeros((3, 5)))
        assert np.any(out[0] != 0.0)

    def test_selected_automatically_under_inference_mode(self):
        """One kernel, two modes: no graph under inference_mode, one
        four-parent node with grad on, bit-identical values."""
        rng = np.random.default_rng(9)
        lstm = LSTM(4, 7, rng)
        x, mask = ragged_batch(rng, 6, 5, 4)
        with inference_mode():
            auto = lstm(Tensor(x), mask)
        assert not auto.requires_grad
        assert auto._parents == () and auto._backward is None
        inputs = Tensor(x)
        graph = lstm(inputs, mask)
        assert graph.requires_grad
        cell = lstm.cell
        assert graph._parents == (inputs, cell.w_ih, cell.w_hh, cell.bias)
        assert np.array_equal(graph.data, auto.data)
        # enable_grad nested inside inference_mode records the node again.
        with inference_mode():
            with enable_grad():
                assert lstm(x, mask).requires_grad

    def test_functional_form_matches_method(self):
        rng = np.random.default_rng(10)
        lstm = LSTM(3, 4, rng)
        x, mask = ragged_batch(rng, 5, 6, 3)
        cell = lstm.cell
        with inference_mode():
            assert np.array_equal(
                lstm_forward_fused(
                    cell.w_ih.data, cell.w_hh.data, cell.bias.data, x, mask
                ).data,
                lstm(x, mask).data,
            )


def lstm_gradients(forward, lstm, x, mask, projection):
    """(output, dx, dW_ih, dW_hh, dbias) of ``sum(forward(...) * projection)``."""
    cell = lstm.cell
    for param in (cell.w_ih, cell.w_hh, cell.bias):
        param.zero_grad()
    inputs = Tensor(x, requires_grad=True)
    out = forward(inputs)
    (out * Tensor(projection)).sum().backward()
    grads = [out.data, inputs.grad]
    grads += [param.grad.copy() for param in (cell.w_ih, cell.w_hh, cell.bias)]
    for param in (cell.w_ih, cell.w_hh, cell.bias):
        param.zero_grad()
    return grads


class TestPackedBackward:
    """The kernel's BPTT backward against the per-op oracle graph."""

    @staticmethod
    def assert_matches_oracle(lstm, x, mask, projection):
        fused = lstm_gradients(lambda t: lstm(t, mask), lstm, x, mask, projection)
        oracle = lstm_gradients(
            lambda t: oracle_lstm(lstm.cell, t, mask), lstm, x, mask, projection
        )
        for name, got, want in zip(
            ("h", "dx", "dW_ih", "dW_hh", "dbias"), fused, oracle
        ):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want), initial=0.0) <= GRAD_TOL, name

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        batch=st.integers(min_value=1, max_value=9),
        steps=st.integers(min_value=1, max_value=7),
        input_size=st.integers(min_value=1, max_value=5),
        hidden=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_gradients_match_oracle(self, seed, batch, steps, input_size, hidden):
        rng = np.random.default_rng(seed)
        lstm = LSTM(input_size, hidden, rng)
        x, mask = ragged_batch(rng, batch, steps, input_size)
        self.assert_matches_oracle(lstm, x, mask, rng.normal(size=(batch, hidden)))

    @pytest.mark.parametrize(
        "lengths,steps",
        [
            ([0, 0, 0], 4),  # all-padded batch
            ([1, 1], 1),  # T = 1
            ([0, 3, 0, 1, 3], 3),  # zero-length rows among live ones
            ([5], 5),  # one full row
        ],
    )
    def test_edge_shapes(self, lengths, steps):
        rng = np.random.default_rng(len(lengths) * 10 + steps)
        lstm = LSTM(3, 4, rng)
        lengths = np.asarray(lengths)
        x = rng.normal(size=(len(lengths), steps, 3))
        mask = (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)
        self.assert_matches_oracle(
            lstm, x, mask, rng.normal(size=(len(lengths), 4))
        )

    def test_gradients_accumulate_across_nodes(self):
        """Two kernel nodes over the same parameters add their gradients."""
        rng = np.random.default_rng(11)
        lstm = LSTM(2, 3, rng)
        x, mask = ragged_batch(rng, 4, 5, 2)
        (lstm(x, mask).sum() + (lstm(x, mask) * 2.0).sum()).backward()
        fused = lstm.cell.w_hh.grad.copy()
        lstm.cell.w_hh.zero_grad()
        oracle_lstm(lstm.cell, x, mask).sum().backward()
        single = lstm.cell.w_hh.grad.copy()
        for param in lstm.parameters():
            param.zero_grad()
        assert np.allclose(fused, 3.0 * single, atol=GRAD_TOL)


class TestModelOnOracle:
    """A whole model on the kernel vs the same model on the oracle LSTM."""

    @staticmethod
    def twins(config, vocab):
        model = VeriBugModel(config, vocab)
        twin = VeriBugModel(config, vocab)
        twin.path_rnn = OracleLSTM(twin.path_rnn.cell)
        return model, twin

    def test_loss_gradients_match(self, tiny_config, vocab, encoder, tiny_samples):
        model, twin = self.twins(tiny_config, vocab)
        batch = encoder.encode(tiny_samples[:48])
        weights = class_weights_from_labels(batch.labels)
        grads = []
        for candidate in (model, twin):
            output = candidate(batch)
            loss, _ = veribug_loss(
                output.logits,
                batch.labels,
                output.updated_embeddings,
                batch.operand_stmt,
                class_weights=weights,
                alpha=tiny_config.alpha,
            )
            loss.backward()
            grads.append(
                {name: param.grad.copy() for name, param in candidate.named_parameters()}
            )
        assert grads[0].keys() == grads[1].keys()
        for name, got in grads[0].items():
            assert np.max(np.abs(got - grads[1][name])) <= GRAD_TOL, name

    def test_three_epoch_loss_history_matches(
        self, tiny_config, vocab, encoder, tiny_samples
    ):
        model, twin = self.twins(tiny_config, vocab)
        samples = tiny_samples[:160]
        fused = Trainer(model, encoder).train(samples, epochs=3)
        oracle = Trainer(twin, encoder).train(samples, epochs=3)
        for got, want in (
            (fused.losses, oracle.losses),
            (fused.ce_terms, oracle.ce_terms),
            (fused.reg_terms, oracle.reg_terms),
        ):
            assert np.allclose(got, want, rtol=1e-9, atol=0.0)


# ----------------------------------------------------------------------
# Model-level differential: cached fast arm vs autograd reference
# ----------------------------------------------------------------------


def design_traces(module, n_traces=4, n_cycles=8, seed=5):
    stimuli = generate_testbench_suite(
        module, n_traces, TestbenchConfig(n_cycles=n_cycles), seed=seed
    )
    return Simulator(module).run_suite(stimuli)


def assert_maps_equal(a, b):
    assert a.statements() == b.statements()
    for stmt_id in a.statements():
        assert a.counts[stmt_id] == b.counts[stmt_id]
        assert np.allclose(a.weights[stmt_id], b.weights[stmt_id], atol=TOL)


def planted_bug_case():
    golden = parse_module(
        "module t(clk, rst_n, sel, a, b, y); input clk, rst_n, sel, a, b;"
        " output reg y;"
        " always @(*) if (sel) y = a & b; else y = a | b; endmodule"
    )
    buggy = parse_module(
        "module t(clk, rst_n, sel, a, b, y); input clk, rst_n, sel, a, b;"
        " output reg y;"
        " always @(*) if (sel) y = a & ~b; else y = a | b; endmodule"
    )
    stimuli = generate_testbench_suite(golden, 20, TestbenchConfig(n_cycles=6), seed=3)
    gsim, bsim = Simulator(golden), Simulator(buggy)
    failing, correct = [], []
    for stim in stimuli:
        golden_trace = gsim.run(stim, record=False)
        trace = bsim.run(stim)
        if trace.diverges_from(golden_trace, signals=["y"]):
            failing.append(trace)
        else:
            correct.append(trace)
    assert failing and correct
    return buggy, failing, correct


class TestModelCacheDifferential:
    def test_attention_maps_paper_designs(self, trained_session):
        """Cached fast arm vs the cache-free autograd reference arm:
        identical maps on the paper designs."""
        model = trained_session.model
        config = trained_session.config.model
        explainer = Explainer(model, trained_session.encoder, config)
        reference = Explainer(
            model, trained_session.encoder, config, fast_inference=False
        )
        for name in REGISTRY:
            module = load_design(name)
            contexts = extract_module_contexts(module.statements())
            traces = design_traces(module)
            with cold_memos(model):
                cached = explainer.attention_map(contexts, traces)
                assert model.context_cache.misses > 0
            plain = reference.attention_map(contexts, traces)
            assert_maps_equal(cached, plain)

    def test_localize_rankings_cache_on_vs_off(self, trained_session, localizer):
        """Cold and warm cache (the fast arm) vs no cache (the reference
        arm): the same rankings, suspiciousness within 1e-9."""
        buggy, failing, correct = planted_bug_case()
        model = trained_session.model
        legacy = LocalizationEngine(
            model,
            trained_session.encoder,
            trained_session.config.model,
            fast_inference=False,
        )
        plain = legacy.localize(buggy, "y", failing, correct)
        with cold_memos(model):
            cold = localizer.localize(buggy, "y", failing, correct)
            # Empty the memo so the second call re-encodes every sample
            # and its stage 1 is served from the warm cache.
            model.attention_memo.clear()
            misses = model.context_cache.misses
            warm = localizer.localize(buggy, "y", failing, correct)
            assert model.context_cache.misses == misses
            assert model.context_cache.cross_epoch_hits > 0
        for cached in (cold, warm):
            assert cached.ranking == plain.ranking
            assert set(cached.heatmap.suspiciousness) == set(
                plain.heatmap.suspiciousness
            )
            for stmt_id, score in plain.heatmap.suspiciousness.items():
                assert abs(cached.heatmap.suspiciousness[stmt_id] - score) < TOL

    def test_matches_legacy_per_execution_reference(self, trained_session, localizer):
        """Fused+cached fast path == the pre-dedup autograd reference arm."""
        buggy, failing, correct = planted_bug_case()
        model = trained_session.model
        legacy = LocalizationEngine(
            model,
            trained_session.encoder,
            trained_session.config.model,
            fast_inference=False,
        )
        with cold_memos(model):
            fast = localizer.localize(buggy, "y", failing, correct)
        reference = legacy.localize(buggy, "y", failing, correct)
        assert fast.ranking == reference.ranking
        for stmt_id, score in reference.heatmap.suspiciousness.items():
            assert abs(fast.heatmap.suspiciousness[stmt_id] - score) < TOL

    def test_cache_hits_accumulate_and_survive_context_churn(
        self, trained_session, arbiter, arbiter_source
    ):
        """Structural keys: fresh context objects for the same statements
        (the per-mutant re-extraction pattern) hit the warm cache."""
        from repro.verilog import parse_module

        model = trained_session.model
        explainer = Explainer(model, trained_session.encoder)
        contexts = extract_module_contexts(arbiter.statements())
        traces = design_traces(arbiter, n_traces=3)
        with cold_memos(model):
            explainer.attention_map(contexts, traces)
            cold = model.context_cache.stats()
            # The warm memo would serve every sample whole; empty it so
            # the second pass re-encodes and consults the cache.
            model.attention_memo.clear()
            explainer.attention_map(contexts, traces)
            warm = model.context_cache.stats()
            assert len(model.context_cache) > 0
            # Second pass over the same contexts is all hits.
            assert warm["hits"] > cold["hits"]
            assert warm["misses"] == cold["misses"]
            # Entries are keyed structurally, so they outlive the context
            # objects that populated them ...
            del contexts
            gc.collect()
            assert len(model.context_cache) > 0
            # ... and a freshly parsed module (new AST, new contexts, new
            # ids — exactly what a campaign mutant looks like) is served
            # entirely from the warm cache.
            reborn = parse_module(arbiter_source)
            reborn_contexts = extract_module_contexts(reborn.statements())
            reborn_traces = design_traces(reborn, n_traces=3)
            model.attention_memo.clear()
            before = model.context_cache.stats()
            explainer.attention_map(reborn_contexts, reborn_traces)
            after = model.context_cache.stats()
            assert after["misses"] == before["misses"]
            assert after["hits"] > before["hits"]


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------


class TestPaddingInvariance:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        batch=st.integers(min_value=1, max_value=6),
        steps=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_appending_masked_steps_is_identity(self, seed, batch, steps, extra):
        rng = np.random.default_rng(seed)
        lstm = LSTM(3, 5, rng)
        x, mask = ragged_batch(rng, batch, steps, 3)
        # Padding carries adversarial garbage values; only the mask
        # declares it dead.
        x_padded = np.concatenate(
            [x, 1e6 * rng.normal(size=(batch, extra, 3))], axis=1
        )
        mask_padded = np.concatenate([mask, np.zeros((batch, extra))], axis=1)
        with inference_mode():
            base = lstm(x, mask).data
            padded = lstm(x_padded, mask_padded).data
            base_auto = oracle_lstm(lstm.cell, x, mask).data
            padded_auto = oracle_lstm(lstm.cell, x_padded, mask_padded).data
        assert np.allclose(base, padded, atol=1e-12)
        assert np.allclose(base_auto, padded_auto, atol=1e-12)
        assert np.allclose(base, base_auto, atol=TOL)


def make_context(
    stmt_id: int, n_operands: int, paths=None
) -> StatementContext:
    default = [[("And", "Rvalue", "BlockingAssignment", "Lvalue")]] * n_operands
    return StatementContext(
        stmt_id=stmt_id,
        target="y",
        assign_type="BlockingAssignment",
        operands=[OperandInstance(f"s{i}", 0, i) for i in range(n_operands)],
        contexts=paths if paths is not None else default,
    )


#: Small alphabet of node types for generated structural paths.
_NODE_TYPES = ("And", "Or", "Xor", "Not", "Rvalue", "Lvalue")

path_lists = st.lists(
    st.lists(
        st.sampled_from(_NODE_TYPES), min_size=1, max_size=4
    ).map(tuple),
    min_size=1,
    max_size=4,
)


class TestStructuralKeys:
    @given(paths_a=path_lists, paths_b=path_lists)
    @settings(max_examples=60, deadline=None)
    def test_hits_iff_structures_equal(self, paths_a, paths_b):
        """Distinct context objects hit exactly when their operand's
        ordered path tuple is equal — never on mere id coincidence, and
        always on structural identity (the cross-mutant sharing case)."""
        cache = ContextEmbeddingCache()
        a = make_context(0, 1, paths=[paths_a])
        b = make_context(1, 1, paths=[paths_b])
        marker = np.full(4, 7.0)
        cache.put(a, 0, marker)
        assert cache.get(a, 0) is marker
        del a
        gc.collect()
        # Structural entries survive their creator's death ...
        assert len(cache) == 1
        got = cache.get(b, 0)
        if paths_a == paths_b:
            # ... and a structurally identical context shares the row.
            assert got is marker
        else:
            assert got is None

    def test_path_order_is_part_of_the_key(self):
        """Reordering paths changes the float summation order, so it must
        be a different key even though the path multiset is equal."""
        cache = ContextEmbeddingCache()
        p, q = ("And", "Rvalue"), ("Not", "Lvalue")
        forward = make_context(0, 1, paths=[[p, q]])
        backward = make_context(1, 1, paths=[[q, p]])
        cache.put(forward, 0, np.full(4, 1.0))
        assert cache.get(backward, 0) is None

    def test_lru_bound_and_cross_epoch_accounting(self):
        cache = ContextEmbeddingCache(max_entries=2)
        contexts = [
            make_context(i, 1, paths=[[("And",) * (i + 1)]]) for i in range(3)
        ]
        cache.put(contexts[0], 0, np.zeros(4))
        cache.put(contexts[1], 0, np.ones(4))
        assert cache.get(contexts[0], 0) is not None  # touch: 0 is now MRU
        cache.put(contexts[2], 0, np.full(4, 2.0))  # evicts 1, the LRU
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(contexts[1], 0) is None
        assert cache.get(contexts[0], 0) is not None
        # Entries created before an epoch boundary count as cross-epoch
        # (= cross-mutant in localization) hits afterwards.
        assert cache.cross_epoch_hits == 0
        cache.begin_epoch()
        assert cache.get(contexts[0], 0) is not None
        assert cache.cross_epoch_hits == 1
        stats = cache.stats()
        assert stats["cross_epoch_hits"] == 1
        assert 0.0 < stats["cross_epoch_hit_rate"] <= 1.0

    def test_reference_arm_bypasses_cache_and_memo(self, trained_session, arbiter):
        """The autograd reference arm never reads or fills either memo."""
        model = trained_session.model
        reference = Explainer(
            model, trained_session.encoder, fast_inference=False
        )
        contexts = extract_module_contexts(arbiter.statements())
        traces = design_traces(arbiter, n_traces=2)
        with cold_memos(model):
            reference.attention_map(contexts, traces)
            for memo in (model.context_cache, model.attention_memo):
                assert len(memo) == 0
                assert memo.hits == memo.misses == 0


# ----------------------------------------------------------------------
# Autograd regression: the training path
# ----------------------------------------------------------------------


class TestAutogradRegression:
    def finite_difference(self, lstm, param, x, mask, projection, eps=1e-6):
        numeric = np.zeros_like(param.data)
        flat = param.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + eps
            plus = float((lstm(Tensor(x), mask).data * projection).sum())
            flat[idx] = original - eps
            minus = float((lstm(Tensor(x), mask).data * projection).sum())
            flat[idx] = original
            num_flat[idx] = (plus - minus) / (2.0 * eps)
        return numeric

    def test_lstm_cell_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        lstm = LSTM(3, 4, rng)
        x, mask = ragged_batch(rng, 5, 6, 3)
        projection = rng.normal(size=(5, 4))

        out = lstm(Tensor(x), mask)
        assert out.requires_grad  # grad enabled -> the kernel records a node
        loss = (out * Tensor(projection)).sum()
        loss.backward()

        cell = lstm.cell
        for param in (cell.w_ih, cell.w_hh, cell.bias):
            assert param.grad is not None
            numeric = self.finite_difference(lstm, param, x, mask, projection)
            assert np.allclose(param.grad, numeric, rtol=1e-5, atol=1e-7), param.name
        lstm.cell.w_ih.zero_grad()

    def test_training_forward_ignores_cache(self, fresh_model, encoder):
        """With grad enabled the model never consults the context cache."""
        module = parse_module(
            "module m(a, b, y); input a, b; output y; assign y = a ^ b; endmodule"
        )
        contexts = extract_module_contexts(module.statements())
        traces = design_traces(module, n_traces=2, n_cycles=4)
        from repro.core.features import build_samples

        samples = build_samples(contexts, traces)
        batch = encoder.encode(samples)
        output = fresh_model(batch)
        assert output.logits.requires_grad
        assert len(fresh_model.context_cache) == 0
        assert fresh_model.context_cache.misses == 0
