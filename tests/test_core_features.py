"""Tests for the vocabulary, value encoder, and batch encoder."""

import numpy as np
import pytest

from repro.analysis import extract_module_contexts, extract_statement_context
from repro.core import (
    BatchEncoder,
    Sample,
    ValueEncoder,
    Vocabulary,
    build_samples,
    sample_from_execution,
    train_test_split,
)
from repro.sim import Simulator
from repro.verilog import parse_module


class TestVocabulary:
    def test_deterministic_across_instances(self):
        v1, v2 = Vocabulary(), Vocabulary()
        assert [v1.decode(i) for i in range(len(v1))] == [
            v2.decode(i) for i in range(len(v2))
        ]

    def test_pad_and_unk_reserved(self, vocab):
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.decode(0) == "<pad>"

    def test_known_types_encoded(self, vocab):
        for node_type in ("And", "Or", "Not", "Lvalue", "Rvalue", "BlockingAssignment"):
            assert vocab.encode(node_type) > 1

    def test_unknown_type_maps_to_unk(self, vocab):
        assert vocab.encode("Banana") == vocab.unk_id

    def test_encode_path(self, vocab):
        ids = vocab.encode_path(("And", "Not"))
        assert len(ids) == 2 and all(i > 1 for i in ids)

    def test_pad_paths_shapes_and_mask(self, vocab):
        tokens, mask = vocab.pad_paths([[2, 3], [4]])
        assert tokens.shape == (2, 2)
        assert mask.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert tokens[1, 1] == vocab.pad_id

    def test_pad_paths_empty(self, vocab):
        tokens, mask = vocab.pad_paths([])
        assert tokens.shape[0] == 0


class TestValueEncoder:
    @pytest.mark.parametrize(
        "value,bucket", [(0, 0), (1, 1), (2, 2), (255, 2), (256, 3), (1 << 20, 3)]
    )
    def test_buckets(self, value, bucket):
        assert ValueEncoder().encode(value) == bucket

    def test_one_hot_shape(self):
        out = ValueEncoder().one_hot(np.array([0, 1, 300]))
        assert out.shape == (3, 4)
        assert out.sum(axis=1).tolist() == [1.0, 1.0, 1.0]

    def test_one_hot_empty(self):
        assert ValueEncoder().one_hot(np.array([])).shape == (0, 4)


def arbiter_samples(arbiter):
    sim = Simulator(arbiter)
    stim = [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0} for _ in range(3)]
    traces = [sim.run(stim)]
    contexts = extract_module_contexts(arbiter.statements())
    return build_samples(contexts, traces, design="arb")


class TestSampleBuilding:
    def test_build_samples_skips_no_operand_statements(self, arbiter):
        samples = arbiter_samples(arbiter)
        assert all(s.context.n_operands > 0 for s in samples)

    def test_sample_labels_match_lhs(self, arbiter):
        samples = arbiter_samples(arbiter)
        assert {s.label for s in samples} <= {0, 1}

    def test_sample_from_execution_none_when_no_operands(self):
        m = parse_module(
            "module t(y); output reg y; always @(*) y = 1'b1; endmodule"
        )
        ctx = extract_statement_context(m.statements()[0])
        trace = Simulator(m).run([{}])
        execution = trace.executions[0]
        assert sample_from_execution(ctx, execution) is None

    def test_restrict_to_filter(self, arbiter):
        sim = Simulator(arbiter)
        trace = sim.run([{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0}])
        contexts = extract_module_contexts(arbiter.statements())
        samples = build_samples(contexts, [trace], restrict_to={4})
        assert {s.context.stmt_id for s in samples} == {4}

    def test_design_tag(self, arbiter):
        samples = arbiter_samples(arbiter)
        assert all(s.design == "arb" for s in samples)

    def test_train_test_split_sizes(self, arbiter):
        samples = arbiter_samples(arbiter)
        train, test = train_test_split(samples, 0.5, seed=0)
        assert len(train) + len(test) == len(samples)
        assert test  # half the set is not empty

    def test_train_test_split_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split([], 1.5)

    def test_train_test_split_deterministic(self, arbiter):
        samples = arbiter_samples(arbiter)
        a = train_test_split(samples, 0.3, seed=9)
        b = train_test_split(samples, 0.3, seed=9)
        assert [s.label for s in a[0]] == [s.label for s in b[0]]


class TestBatchEncoder:
    def test_encode_shapes(self, arbiter, encoder):
        samples = arbiter_samples(arbiter)
        batch = encoder.encode(samples)
        assert batch.n_statements == len(samples)
        assert batch.n_operands == sum(s.context.n_operands for s in samples)
        assert batch.path_tokens.shape == batch.path_mask.shape
        assert len(batch.path_index) == len(batch.path_operand)
        assert len(batch.path_operand) == sum(
            len(paths) for s in samples for paths in s.context.contexts
        )
        # Each distinct token path is stored once and every row is used.
        rows = {tuple(row) for row in batch.path_tokens.tolist()}
        assert len(rows) == batch.path_tokens.shape[0]
        assert np.array_equal(
            np.unique(batch.path_index), np.arange(batch.path_tokens.shape[0])
        )
        assert len(batch.operand_stmt) == batch.n_operands
        assert batch.value_onehot.shape == (batch.n_operands, 4)

    def test_operand_stmt_mapping_monotonic(self, arbiter, encoder):
        samples = arbiter_samples(arbiter)
        batch = encoder.encode(samples)
        assert (np.diff(batch.operand_stmt) >= 0).all()

    def test_labels_preserved(self, arbiter, encoder):
        samples = arbiter_samples(arbiter)
        batch = encoder.encode(samples)
        assert batch.labels.tolist() == [s.label for s in samples]

    def test_rejects_operandless_sample(self, encoder):
        m = parse_module(
            "module t(y); output reg y; always @(*) y = 1'b1; endmodule"
        )
        ctx = extract_statement_context(m.statements()[0])
        bad = Sample(context=ctx, operand_values=(), label=1)
        with pytest.raises(ValueError):
            encoder.encode([bad])

    def test_rejects_value_count_mismatch(self, arbiter, encoder):
        samples = arbiter_samples(arbiter)
        sample = samples[0]
        bad = Sample(
            context=sample.context,
            operand_values=sample.operand_values + (1,),
            label=sample.label,
        )
        with pytest.raises(ValueError):
            encoder.encode([bad])

    def test_path_cache_reused(self, arbiter, encoder):
        samples = arbiter_samples(arbiter)
        encoder.encode(samples)
        cache_size = len(encoder._path_cache)
        encoder.encode(samples)
        assert len(encoder._path_cache) == cache_size

    def test_path_cache_evicted_on_gc(self, arbiter, vocab):
        """Cache entries die with their contexts, so the cache is bounded."""
        import gc

        encoder = BatchEncoder(vocab)
        samples = arbiter_samples(arbiter)
        encoder.encode(samples)
        assert len(encoder._path_cache) > 0
        del samples
        gc.collect()
        assert len(encoder._path_cache) == 0

    def test_path_cache_survives_gc_driven_id_reuse(self, vocab):
        """A recycled context id must never resurrect stale path encodings.

        Mimics a long campaign: one mutant's contexts are encoded and
        garbage-collected, then a later mutant's (different) context is
        allocated — on CPython typically at the very same memory address,
        i.e. the same ``id()``.  The encoder must produce the new
        context's encodings, not the previous statement's.
        """
        import gc

        encoder = BatchEncoder(vocab)

        def make_context(source: str):
            module = parse_module(source)
            return extract_statement_context(module.statements()[0])

        old = make_context(
            "module a(x, y, z); input x, y; output z; assign z = x & y; endmodule"
        )
        stale_encoding = encoder._context_paths(old)
        old_id = id(old)
        del old
        gc.collect()

        # Allocate new contexts until one lands on the recycled id (on
        # CPython the very next same-shaped allocation usually does).
        source = (
            "module b(p, q, r); input p, q; output r;"
            " assign r = p | ~q; endmodule"
        )
        new = make_context(source)
        for _ in range(64):
            if id(new) == old_id:
                break
            new = make_context(source)

        fresh = BatchEncoder(vocab)
        expected = fresh._context_paths(new)
        got = encoder._context_paths(new)
        assert got == expected
        if id(new) == old_id:  # the regression scenario actually triggered
            assert got != stale_encoding
        # The batch built from the recycled id carries the new paths too.
        sample = Sample(new, (1,) * new.n_operands, 1)
        got_batch, want_batch = encoder.encode([sample]), fresh.encode([sample])
        assert np.array_equal(got_batch.path_tokens, want_batch.path_tokens)
        assert np.array_equal(got_batch.path_index, want_batch.path_index)


class TestEncodedBatchSelect:
    ARRAYS = (
        "path_tokens",
        "path_mask",
        "path_index",
        "path_operand",
        "value_onehot",
        "operand_stmt",
        "labels",
    )

    def assert_same_batch(self, got, want):
        for name in self.ARRAYS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        assert got.n_operands == want.n_operands
        assert got.n_statements == want.n_statements
        assert got.operand_counts == want.operand_counts
        assert len(got.operand_contexts) == len(want.operand_contexts)
        for (ctx_a, op_a), (ctx_b, op_b) in zip(
            got.operand_contexts, want.operand_contexts
        ):
            assert ctx_a is ctx_b and op_a == op_b

    def test_select_equals_encode_of_the_chunk(self, encoder, tiny_samples):
        """Every minibatch of a shuffled pass: select == encode(chunk)."""
        full = encoder.encode(tiny_samples)
        order = np.random.default_rng(3).permutation(len(tiny_samples))
        for start in range(0, len(order), 32):
            rows = order[start : start + 32]
            self.assert_same_batch(
                full.select(rows), encoder.encode([tiny_samples[i] for i in rows])
            )

    def test_select_trims_to_the_longest_selected_path(self, vocab):
        def context(expr):
            return extract_statement_context(
                parse_module(
                    "module m(a, b, y); input a, b; output y;"
                    f" assign y = {expr}; endmodule"
                ).statements()[0]
            )

        short = Sample(context("a"), (1,), 1)
        deep = Sample(context("~(~(a & b))"), (1, 0), 1)
        encoder = BatchEncoder(vocab)
        full = encoder.encode([short, deep, short])
        picked = full.select([2, 0])
        assert picked.path_tokens.shape[1] < full.path_tokens.shape[1]
        self.assert_same_batch(picked, encoder.encode([short, short]))
        self.assert_same_batch(full.select([1]), encoder.encode([deep]))


class TestGroupedSplit:
    def tagged_samples(self, counts: dict[str, int]) -> list:
        m = parse_module(
            "module t(a, b, y); input a, b; output reg y;"
            " always @(*) y = a & b; endmodule"
        )
        ctx = extract_statement_context(m.statements()[0])
        samples = []
        for design, n in counts.items():
            samples.extend(
                Sample(context=ctx, operand_values=(1, 0), label=1, design=design)
                for _ in range(n)
            )
        return samples

    def test_whole_designs_held_out(self):
        samples = self.tagged_samples({"d0": 10, "d1": 10, "d2": 10, "d3": 10})
        train, test = train_test_split(
            samples, 0.25, seed=0, split_by_design=True
        )
        train_designs = {s.design for s in train}
        test_designs = {s.design for s in test}
        assert train_designs & test_designs == set()
        assert len(train) + len(test) == len(samples)
        assert test  # at least one design held out

    def test_holds_out_at_least_fraction(self):
        samples = self.tagged_samples({"d0": 30, "d1": 10, "d2": 10})
        train, test = train_test_split(samples, 0.2, seed=3, split_by_design=True)
        assert len(test) >= round(len(samples) * 0.2)

    def test_deterministic(self):
        samples = self.tagged_samples({"d0": 5, "d1": 7, "d2": 9})
        a = train_test_split(samples, 0.3, seed=4, split_by_design=True)
        b = train_test_split(samples, 0.3, seed=4, split_by_design=True)
        assert [s.design for s in a[1]] == [s.design for s in b[1]]

    def test_zero_fraction_keeps_all_training(self):
        samples = self.tagged_samples({"d0": 5, "d1": 5})
        train, test = train_test_split(samples, 0.0, seed=0, split_by_design=True)
        assert test == [] and len(train) == 10

    def test_single_design_falls_back_to_sample_split(self):
        samples = self.tagged_samples({"only": 20})
        train, test = train_test_split(samples, 0.25, seed=0, split_by_design=True)
        assert len(test) == 5  # sample-level fallback, not all-or-nothing
