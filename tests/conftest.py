"""Shared fixtures.

Expensive artifacts (trained model, simulated corpus) are session-scoped
so the suite stays fast while still exercising real end-to-end behavior.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import generate_corpus
from repro.core import (
    BatchEncoder,
    LocalizationEngine,
    VeriBugConfig,
    VeriBugModel,
    Vocabulary,
)
from repro.core.explainer import Explainer
from repro.core.features import sample_from_execution
from repro.pipeline import CorpusSpec
from repro.verilog import parse_module

ARBITER_SOURCE = """
module arb (clk, rst_n, req1, req2, gnt1, gnt2);
    input clk, rst_n, req1, req2;
    output reg gnt1, gnt2;
    reg state;
    always @(posedge clk or negedge rst_n) begin
        if (!rst_n) state <= 1'b0;
        else state <= ~state;
    end
    always @(*) begin
        if (state) begin
            gnt1 = req1 & ~req2;
            gnt2 = req2;
        end else begin
            gnt1 = req1;
            gnt2 = ~req1 & req2;
        end
    end
endmodule
"""


@pytest.fixture
def arbiter_source():
    """Source text of the running-example arbiter (for printer round-trips)."""
    return ARBITER_SOURCE


@pytest.fixture
def arbiter():
    """The paper's running example: a tiny two-request arbiter."""
    return parse_module(ARBITER_SOURCE)


@pytest.fixture(scope="session")
def vocab():
    return Vocabulary()


@pytest.fixture(scope="session")
def tiny_config():
    """Small-but-real hyper-parameters for fast tests."""
    return VeriBugConfig(
        dc=8, da=12, node_embed_dim=8, predictor_hidden=12, epochs=3, batch_size=32
    )


@pytest.fixture(scope="session")
def tiny_samples(tiny_config):
    """A small simulated RVDG corpus."""
    return generate_corpus(
        CorpusSpec(n_designs=3, n_traces_per_design=2, n_cycles=12), seed=11
    )


@pytest.fixture(scope="session")
def trained_session():
    """A paper-scale trained session shared by explainer/localizer tests.

    Trained once (~70 s) and cached on disk; the cache file for the
    default config is committed to the repo, so fresh checkouts reload
    the weights in under a second instead of retraining.  The cache key
    includes the config so changing hyper-parameters invalidates it.
    """
    import pathlib

    from repro.api import SessionConfig, VeriBugSession

    # 20 designs so ~16 remain on the training side after the grouped
    # (design-level) holdout — see "Train/test split" in
    # docs/architecture.md; localization quality degrades noticeably when
    # the training pool falls much below paper scale.
    config = VeriBugConfig(epochs=30)
    corpus = CorpusSpec(n_designs=20, n_traces_per_design=4, n_cycles=25)
    cache_dir = pathlib.Path(__file__).parent / ".cache"
    cache_dir.mkdir(exist_ok=True)
    key = f"model_e{config.epochs}_d{corpus.n_designs}_s1.npz"
    cache = cache_dir / key

    if cache.exists():
        session = VeriBugSession.from_checkpoint(
            cache, SessionConfig(model=config)
        )
    else:
        session = VeriBugSession.train(
            SessionConfig(model=config).with_seed(1), corpus, evaluate=False
        )
        session.save(cache)
    return session


@pytest.fixture(scope="session")
def localizer(trained_session):
    """A sequential localization engine over the shared trained model."""
    return LocalizationEngine(
        trained_session.model, trained_session.encoder, trained_session.config.model
    )


@pytest.fixture
def fresh_model(tiny_config, vocab):
    """An untrained model (deterministic init)."""
    return VeriBugModel(tiny_config, vocab)


@pytest.fixture
def encoder(vocab):
    return BatchEncoder(vocab)


def assert_executions_identical(actual, expected, record_set=None):
    """Two recorded traces' executions are event-for-event identical.

    Each trace's lane is read as a one-lane slice of its log; per event
    the shape row, cycle, lhs value and operand values must agree, and
    so must the dtypes of the cycle, lhs and operand arrays.  The two
    logs' shape tables may differ (a target program's also holds other
    variants' rows): events compare by the row their slot names.  With
    ``record_set`` (statement ids), ``expected`` is a full recording and
    ``actual`` must hold exactly its events of those statements.
    """
    left, right = (
        log.lane_slice(lane)
        for log, lane in (actual.execution_log(), expected.execution_log())
    )
    events = np.arange(len(right.slots))
    if record_set is not None:
        events = events[np.isin(right.stmt_ids[right.slots], list(record_set))]
    operand_rows = np.array(
        [
            row
            for event in events.tolist()
            for row in range(right.op_starts[event], right.op_starts[event] + right.op_counts[event])
        ],
        dtype=np.int64,
    )
    assert [left.shapes[slot] for slot in left.slots.tolist()] == [
        right.shapes[slot] for slot in right.slots[events].tolist()
    ], "shape rows"
    for name, a, b in (
        ("cycles", left.cycles, right.cycles[events]),
        ("lhs", left.lhs, right.lhs[events]),
        ("ops", left.ops, right.ops[operand_rows]),
    ):
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def record_loop_samples(contexts, traces, restrict_to=None):
    """Reference sample extraction: ``(stmt_id, sample)`` per execution
    record, in trace order, through ``sample_from_execution``."""
    for trace in traces:
        for execution in trace.executions:
            stmt_id = execution.stmt_id
            context = contexts.get(stmt_id)
            if context is None or (
                restrict_to is not None and stmt_id not in restrict_to
            ):
                continue
            sample = sample_from_execution(context, execution)
            if sample is not None:
                yield stmt_id, sample


def record_loop_distinct(contexts, traces, restrict_to=None):
    """Reference execution dedup, one record at a time.

    Groups :func:`record_loop_samples` by ``(stmt_id, operand_values)``
    in first-seen order.  Returns one ``(stmt_id, operand_values, label,
    context stmt_id, count)`` tuple per group; the label is the group's
    first execution's.
    """
    groups: dict[tuple, list] = {}
    for stmt_id, sample in record_loop_samples(contexts, traces, restrict_to):
        group = groups.get((stmt_id, sample.operand_values))
        if group is None:
            groups[(stmt_id, sample.operand_values)] = [
                stmt_id,
                sample.operand_values,
                sample.label,
                sample.context.stmt_id,
                1,
            ]
        else:
            group[-1] += 1
    return [tuple(group) for group in groups.values()]


def distinct_groups(explainer, sets):
    """``Explainer.distinct_samples`` over ``sets``, per set in
    :func:`record_loop_distinct`'s tuple form."""
    keyed, lhs, counts = explainer.distinct_samples(sets)
    assert len(keyed) == len(lhs) == len(counts)
    groups = [[] for _ in sets]
    for row, value, count in zip(keyed.tolist(), lhs.tolist(), counts.tolist()):
        set_index, stmt_id = row[:2]
        context = sets[set_index][0][stmt_id]
        values = tuple(row[2 : 2 + context.n_operands])
        assert all(v == -1 for v in row[2 + context.n_operands :])
        label = 1 if value != 0 else 0
        groups[set_index].append((stmt_id, values, label, context.stmt_id, count))
    return groups


@pytest.fixture(scope="session")
def check_dedup(vocab):
    """Assert ``Explainer.distinct_samples`` equals the record loop.

    The returned function compares the groups' stmt ids, operand values,
    labels, context stmt ids and counts exactly, in order, and returns
    them.
    """
    explainer = Explainer(VeriBugModel(VeriBugConfig(), vocab), BatchEncoder(vocab))

    def check(contexts, traces, restrict_to=None):
        (got,) = distinct_groups(explainer, [(contexts, traces, restrict_to)])
        assert got == record_loop_distinct(contexts, traces, restrict_to)
        return got

    return check
