"""Differential tests pinning the distinct-path stage 1.

:meth:`BatchEncoder.encode` stores each distinct token path once and maps
every ``(operand, path)`` row to it through ``path_index``; the model runs
the embedding lookup, the PathRNN and its BPTT once per distinct row and
gathers the results back.  The oracle is the same model run on the
*expanded* batch (:func:`expand`): one token row per path row and
``path_index = arange``, which is the all-rows layout.  On multi-design
batches, ``select()``ed minibatches and the edge cases (one path, no
shared path, the inference cache-miss path) the two agree:

* logits and attention within 1e-12;
* every parameter gradient within 1e-10 of the oracle's, relative to that
  gradient's largest magnitude;
* a 3-epoch ``Trainer.train`` loss history within 1e-9 relative.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import extract_statement_context
from repro.core import BatchEncoder, Sample, Trainer, VeriBugModel
from repro.nn import class_weights_from_labels, inference_mode, veribug_loss
from repro.verilog import parse_module

OUT_TOL = 1e-12
GRAD_TOL = 1e-10
LOSS_RTOL = 1e-9


def expand(batch):
    """The oracle layout: one token row per ``(operand, path)`` row."""
    return dataclasses.replace(
        batch,
        path_tokens=batch.path_tokens[batch.path_index],
        path_mask=batch.path_mask[batch.path_index],
        path_index=np.arange(len(batch.path_index), dtype=np.int64),
    )


class ExpandingEncoder(BatchEncoder):
    """Encodes into the expanded layout (``select`` keeps it expanded)."""

    def encode(self, samples):
        return expand(super().encode(samples))


def loss_and_gradients(model, batch, alpha):
    """Forward outputs and every parameter gradient of the training loss."""
    for param in model.parameters():
        param.zero_grad()
    output = model(batch)
    loss, _ = veribug_loss(
        output.logits,
        batch.labels,
        output.updated_embeddings,
        batch.operand_stmt,
        class_weights=class_weights_from_labels(batch.labels),
        alpha=alpha,
    )
    loss.backward()
    grads = {name: param.grad.copy() for name, param in model.named_parameters()}
    for param in model.parameters():
        param.zero_grad()
    return output, grads


def assert_matches_oracle(model, batch, alpha):
    distinct, distinct_grads = loss_and_gradients(model, batch, alpha)
    oracle, oracle_grads = loss_and_gradients(model, expand(batch), alpha)
    for name in ("logits", "attention", "updated_embeddings"):
        got, want = getattr(distinct, name).data, getattr(oracle, name).data
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want), initial=0.0) <= OUT_TOL, name
    assert distinct_grads.keys() == oracle_grads.keys()
    for name, want in oracle_grads.items():
        scale = max(np.max(np.abs(want), initial=0.0), 1e-300)
        error = np.max(np.abs(distinct_grads[name] - want), initial=0.0)
        assert error / scale <= GRAD_TOL, (name, error, scale)


def context(expr):
    return extract_statement_context(
        parse_module(
            "module m(a, b, y); input a, b; output y;"
            f" assign y = {expr}; endmodule"
        ).statements()[0]
    )


@pytest.fixture
def model(tiny_config, vocab):
    return VeriBugModel(tiny_config, vocab)


class TestStageOneDifferential:
    def test_multi_design_batch(self, model, tiny_config, encoder, tiny_samples):
        samples = tiny_samples[::7]
        assert len({s.design for s in samples}) > 1
        batch = encoder.encode(samples)
        assert len(batch.path_tokens) < len(batch.path_index)
        assert_matches_oracle(model, batch, tiny_config.alpha)

    def test_selected_minibatches(self, model, tiny_config, encoder, tiny_samples):
        full = encoder.encode(tiny_samples)
        order = np.random.default_rng(5).permutation(len(tiny_samples))
        for start in range(0, 4 * tiny_config.batch_size, tiny_config.batch_size):
            batch = full.select(order[start : start + tiny_config.batch_size])
            assert_matches_oracle(model, batch, tiny_config.alpha)

    def test_single_path_batch(self, model, tiny_config, encoder):
        batch = encoder.encode([Sample(context("a"), (1,), 1)])
        assert len(batch.path_index) == len(batch.path_tokens) == 1
        assert_matches_oracle(model, batch, tiny_config.alpha)

    def test_every_path_distinct(self, model, tiny_config, encoder):
        batch = encoder.encode(
            [Sample(context("a & ~b"), (1, 0), 1), Sample(context("a"), (0,), 0)]
        )
        assert np.array_equal(batch.path_index, np.arange(len(batch.path_tokens)))
        assert len(batch.path_index) > 1
        assert_matches_oracle(model, batch, tiny_config.alpha)

    def test_three_epoch_loss_history(self, tiny_config, vocab, tiny_samples):
        samples = tiny_samples[:160]
        distinct = Trainer(
            VeriBugModel(tiny_config, vocab), BatchEncoder(vocab)
        ).train(samples, epochs=3)
        oracle = Trainer(
            VeriBugModel(tiny_config, vocab), ExpandingEncoder(vocab)
        ).train(samples, epochs=3)
        for got, want in (
            (distinct.losses, oracle.losses),
            (distinct.ce_terms, oracle.ce_terms),
            (distinct.reg_terms, oracle.reg_terms),
        ):
            assert np.allclose(got, want, rtol=LOSS_RTOL, atol=0.0)


class TestInferenceCacheMiss:
    def test_cache_misses_match_the_expanded_oracle(self, model, encoder, tiny_samples):
        """A cold cache computes the misses' distinct paths; the values
        equal the grad-on forward of the expanded batch, and the refilled
        cache serves the same values on the next call."""
        batch = encoder.encode(tiny_samples[::7])
        cache = model.context_cache
        oracle = model(expand(batch))
        with inference_mode():
            cache.clear()
            cache.reset_stats()
            cold = model(batch)
            assert cache.misses > 0 and cache.hits == 0
            warm = model(batch)
            assert cache.hits > 0
        for got in (cold, warm):
            for name in ("logits", "attention"):
                diff = np.abs(getattr(got, name).data - getattr(oracle, name).data)
                assert np.max(diff) <= OUT_TOL, name

    def test_partial_hits_compute_only_the_misses(self, model, encoder, tiny_samples):
        samples = tiny_samples[::7]
        batch = encoder.encode(samples)
        first = [row for row, s in enumerate(samples) if s.design == samples[0].design]
        assert len(first) < len(samples)
        cache = model.context_cache
        oracle = model(expand(batch))
        with inference_mode():
            cache.clear()
            model(batch.select(first))  # warms the first design's structures
            cache.reset_stats()
            mixed = model(batch)
        assert cache.hits > 0 and cache.misses > 0
        for name in ("logits", "attention"):
            diff = np.abs(getattr(mixed, name).data - getattr(oracle, name).data)
            assert np.max(diff) <= OUT_TOL, name
