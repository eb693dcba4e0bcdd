"""Execution-runtime guarantees: sharding, reuse, refresh, shutdown.

The runtime layer's contract (see ``docs/architecture.md``, "Execution
runtime") is pinned here:

* sharded ``localize_many`` is observably identical to the serial fast
  path (rankings equal, suspiciousness within 1e-9);
* one session = one process pool, reused across campaigns and corpus
  runs (pool reuse is the whole point of the layer);
* weight changes (``load_state_dict`` / ``Trainer.train``) propagate to
  workers through the epoch-tagged refresh protocol;
* ``close()`` joins every worker process — nothing leaks — and work
  dispatched afterwards runs in process, spawning nothing;
* pooled campaigns and corpora equal sequential ones;
* pools are spawn-safe by construction, and seed derivation depends on
  task identity only.
"""

from __future__ import annotations

import multiprocessing
import pathlib

import numpy as np
import pytest

from repro.analysis import compute_static_slice
from repro.api import SessionConfig, VeriBugSession, generate_corpus
from repro.core import VeriBugConfig
from repro.core.localizer import LocalizationRequest
from repro.datagen import sample_mutations
from repro.datagen.campaign import _simulate_mutant
from repro.datagen.mutation import apply_mutation
from repro.designs import design_info, design_testbench, load_design
from repro.pipeline import CorpusSpec
from repro.runtime import ExecutionRuntime, derive_seed, plan_shards
from repro.sim import TestbenchConfig

CACHE = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"
PAPER_CONFIG = VeriBugConfig(epochs=30)
TOL = 1e-9


def _paper_session(n_workers: int = 0) -> VeriBugSession:
    """A fresh session over the committed paper-scale checkpoint."""
    config = SessionConfig(model=PAPER_CONFIG).with_workers(n_workers)
    return VeriBugSession.from_checkpoint(CACHE, config)


@pytest.fixture(scope="module", autouse=True)
def _ensure_checkpoint(trained_session):
    """Depend on the shared fixture so the checkpoint file exists."""


@pytest.fixture(scope="module")
def worker_session():
    session = _paper_session(n_workers=2)
    yield session
    session.close()


def _build_requests() -> list[LocalizationRequest]:
    """Observable localization requests from a small wb_mux_2 campaign."""
    module = load_design("wb_mux_2")
    testbench = design_testbench("wb_mux_2", n_cycles=8)
    stimuli_seed = 29
    requests: list[LocalizationRequest] = []
    from repro.sim import Simulator, generate_testbench_suite

    stimuli = generate_testbench_suite(module, 8, testbench, seed=stimuli_seed)
    golden = Simulator(module, engine=testbench.engine)
    golden_traces = golden.run_suite(stimuli, record=False)
    for target in design_info("wb_mux_2").targets:
        cone = compute_static_slice(module, target).stmt_ids
        mutations = sample_mutations(
            module,
            {"negation": 2, "operation": 2, "misuse": 3},
            seed=13,
            restrict_to=cone,
            min_operands=2,
        )
        for mutation in mutations:
            outcome, failing, correct = _simulate_mutant(
                module, target, mutation, stimuli, golden_traces,
                testbench, 8, stimuli_seed, 4, 4,
            )
            if outcome.observable and not outcome.error:
                requests.append(
                    LocalizationRequest(
                        apply_mutation(module, mutation),
                        target,
                        failing,
                        correct,
                    )
                )
    return requests


@pytest.fixture(scope="module")
def requests():
    built = _build_requests()
    assert len(built) >= 2, "workload must produce shardable batches"
    return built


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.mutation == b.mutation
        assert a.observable == b.observable
        assert a.localized == b.localized
        assert a.rank == b.rank
        assert a.n_failing == b.n_failing
        assert a.n_correct == b.n_correct
        assert a.error == b.error


def _sample_key(sample):
    return (
        sample.design,
        sample.context.stmt_id,
        tuple(sample.operand_values),
        sample.label,
    )


def _assert_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.ranking == b.ranking
        assert set(a.heatmap.suspiciousness) == set(b.heatmap.suspiciousness)
        for stmt_id, score in b.heatmap.suspiciousness.items():
            assert abs(a.heatmap.suspiciousness[stmt_id] - score) <= TOL


class TestShardedLocalization:
    def test_matches_serial_fast_path(self, worker_session, requests):
        serial = _paper_session(n_workers=0)
        _assert_identical(
            worker_session.localize_many(requests),
            serial.localize_many(requests),
        )
        stats = worker_session.runtime_stats()
        assert stats["localize_calls"] >= 1
        assert sum(stats["last_shard_sizes"]) == len(requests)
        assert len(stats["last_shard_sizes"]) == min(2, len(requests))

    def test_single_request_stays_in_process(self, requests):
        session = _paper_session(n_workers=2)
        try:
            session.localize_many(requests[:1])
            # One request cannot amortize worker dispatch: the fast path
            # runs in-process and the pool is never even started.
            assert not session.runtime.started
        finally:
            session.close()

    def test_shard_plan_is_contiguous_and_balanced(self):
        assert plan_shards(0, 4) == []
        assert plan_shards(3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert plan_shards(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        for n_items, n_shards in ((1, 1), (7, 2), (16, 5), (23, 8)):
            spans = plan_shards(n_items, n_shards)
            assert spans[0][0] == 0 and spans[-1][1] == n_items
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            sizes = [end - start for start, end in spans]
            assert max(sizes) - min(sizes) <= 1


class TestPoolLifecycle:
    def test_one_pool_across_two_campaigns(self, requests):
        session = _paper_session(n_workers=2)
        try:
            module = load_design("wb_mux_2")
            plan = {"negation": 1, "operation": 1, "misuse": 1}
            first = session.campaign(
                module, "wbs0_we_o", plan=plan, seed=29
            ).run()
            second = session.campaign(
                module, "wbs0_we_o", plan=plan, seed=29
            ).run()
            _assert_same_outcomes(second.outcomes, first.outcomes)
            stats = session.runtime_stats()
            assert stats["pools_started"] == 1
            assert stats["campaigns_served"] == 2
        finally:
            session.close()

    def test_handle_executed_after_close_runs_in_process(self):
        module = load_design("wb_mux_2")
        plan = {"negation": 1, "operation": 1, "misuse": 1}
        session = _paper_session(n_workers=2)
        handle = session.campaign(module, "wbs0_we_o", plan=plan, seed=29)
        assert len(handle) > 1
        session.close()
        before = set(multiprocessing.active_children())
        spawned = set()
        outcomes = []
        for update in handle.stream():
            spawned |= set(multiprocessing.active_children()) - before
            outcomes.append(update.outcome)
        assert not spawned
        sequential = _paper_session(n_workers=0).campaign(
            module, "wbs0_we_o", plan=plan, seed=29
        ).run()
        _assert_same_outcomes(outcomes, sequential.outcomes)

    def test_corpus_generation_reuses_session_pool(self):
        spec = CorpusSpec(n_designs=3, n_traces_per_design=2, n_cycles=8)
        session = _paper_session(n_workers=2)
        try:
            parallel = session.generate_corpus(spec, seed=5)
            stats = session.runtime_stats()
            assert stats["corpus_runs"] == 1
            assert stats["pools_started"] == 1
        finally:
            session.close()
        sequential = generate_corpus(spec, seed=5)
        assert [_sample_key(s) for s in parallel] == [
            _sample_key(s) for s in sequential
        ]

    def test_default_spec_inherits_session_pool(self):
        # A corpus spec carries no worker count: it rides the session
        # pool, never silently de-parallelizing.
        session = _paper_session(n_workers=2)
        try:
            session.generate_corpus(
                CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=6),
                seed=3,
            )
            assert session.runtime_stats()["corpus_runs"] == 1
        finally:
            session.close()
        # After close(), the same call runs in process — no new pools.
        before = set(multiprocessing.active_children())
        session.generate_corpus(
            CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=6),
            seed=3,
        )
        assert set(multiprocessing.active_children()) == before

    @pytest.mark.timeout(120)
    def test_clean_shutdown_leaves_no_processes(self, requests):
        before = set(multiprocessing.active_children())
        session = _paper_session(n_workers=2)
        session.localize_many(requests)
        assert session.runtime.started
        session.close()
        leaked = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        assert leaked == []
        assert session.runtime is None
        # The session stays usable on the in-process path after close().
        assert session.localize_many(requests[:1])

    def test_close_is_idempotent_and_refuses_new_work(self):
        runtime = ExecutionRuntime(2)
        runtime.close()
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.localize_many([object()])


class TestPooledMatchesSequential:
    """A session pool changes where work runs, never what it produces."""

    def test_corpus_matches_sequential(self):
        spec = CorpusSpec(n_designs=4, n_traces_per_design=2, n_cycles=10)
        session = _paper_session(n_workers=2)
        try:
            pooled = session.generate_corpus(spec, seed=5)
            assert session.runtime_stats()["corpus_runs"] == 1
        finally:
            session.close()
        sequential = _paper_session(n_workers=0).generate_corpus(spec, seed=5)
        assert [_sample_key(s) for s in pooled] == [
            _sample_key(s) for s in sequential
        ]

    def test_campaign_matches_sequential(self, arbiter):
        mutations = sample_mutations(
            arbiter, {"negation": 2, "operation": 2}, seed=1
        )

        def run(session):
            return session.campaign(
                arbiter,
                "gnt1",
                mutations,
                testbench=TestbenchConfig(n_cycles=8),
                seed=3,
                n_traces=6,
            ).run()

        session = _paper_session(n_workers=2)
        try:
            pooled = run(session)
            assert session.runtime_stats()["campaigns_served"] == 1
        finally:
            session.close()
        _assert_same_outcomes(
            pooled.outcomes, run(_paper_session(n_workers=0)).outcomes
        )


class TestCorpusEngines:
    def test_engines_produce_identical_samples(self):
        spec = dict(n_designs=4, n_traces_per_design=2, n_cycles=10)
        vector = generate_corpus(CorpusSpec(**spec, engine="vector"), seed=5)
        interpreted = generate_corpus(
            CorpusSpec(**spec, engine="interpreted"), seed=5
        )
        assert [_sample_key(s) for s in vector] == [
            _sample_key(s) for s in interpreted
        ]


class TestWeightRefresh:
    def test_sharded_results_track_retrained_weights(self, requests):
        session = _paper_session(n_workers=2)
        try:
            stale = session.localize_many(requests)
            # Perturb the weights wholesale, as a retrain would.
            state = session.model.state_dict()
            state["attention_vector"] = state["attention_vector"] * 1.5
            state["epsilon"] = state["epsilon"] + 0.25
            session.model.load_state_dict(state)
            assert session.runtime.weight_epoch == 1

            refreshed = session.localize_many(requests)
            stats = session.runtime_stats()
            assert stats["weight_refresh_dispatches"] >= 1

            reference = _paper_session(n_workers=0)
            reference.model.load_state_dict(state)
            _assert_identical(refreshed, reference.localize_many(requests))
            # The perturbation must actually have changed something,
            # otherwise this test pins nothing.
            changed = any(
                abs(a.heatmap.suspiciousness[s] - b.heatmap.suspiciousness[s])
                > TOL
                for a, b in zip(stale, refreshed)
                for s in a.heatmap.suspiciousness
                if s in b.heatmap.suspiciousness
            )
            assert changed
        finally:
            session.close()


class TestColumnarTraces:
    """The columnar trace wire format feeding the sharded path."""

    def _roundtrip(self, traces):
        import pickle

        return pickle.loads(pickle.dumps(traces, protocol=5))

    def test_roundtrip_is_lossless(self, requests):
        trace = requests[0].failing_traces[0]
        (back,) = self._roundtrip([trace])
        assert len(back.executions) == len(trace.executions)
        for got, want in zip(back.executions, trace.executions):
            assert got == want
        assert back.stimulus == trace.stimulus
        assert back.outputs == trace.outputs
        assert back.is_failure == trace.is_failure
        # A deserialized trace re-serializes from its columns directly.
        (again,) = self._roundtrip([back])
        assert list(again.executions) == list(trace.executions)

    def test_columnar_dedup_matches_object_loop(self, requests, check_dedup):
        """Recorded traces and their pickled round trip both dedup off
        native columns; each must equal the record loop."""
        from repro.analysis import compute_static_slice
        from repro.analysis.contexts import extract_module_contexts
        from repro.analysis.slicing import slice_statements

        for request in requests:
            static_slice = compute_static_slice(request.module, request.target)
            contexts = extract_module_contexts(
                slice_statements(request.module, static_slice)
            )
            for traces in (request.failing_traces, request.correct_traces):
                for trace_set in (traces, self._roundtrip(traces)):
                    assert all(t.execution_columns() is not None for t in trace_set)
                    groups = check_dedup(contexts, trace_set, static_slice.stmt_ids)
                    assert groups

    def test_traces_with_different_statement_shapes(self, arbiter, check_dedup):
        """Branch-dependent designs execute different statement sets per
        trace, so per-trace operand widths differ; the set-wide key
        matrix must pad every row to the widest statement of the set."""
        from repro.analysis import extract_module_contexts
        from repro.sim.trace import StatementExecution, Trace

        contexts = extract_module_contexts(arbiter.statements())
        by_width = {}
        for stmt_id, context in contexts.items():
            by_width.setdefault(context.n_operands, (stmt_id, context))
        widths = sorted(by_width)
        assert len(widths) >= 2, "need statements of differing operand width"

        def trace_for(width: int, value: int) -> Trace:
            stmt_id, context = by_width[width]
            names = tuple(dict.fromkeys(op.name for op in context.operands))
            executions = [
                StatementExecution(
                    stmt_id=stmt_id,
                    cycle=cycle,
                    target="t",
                    operands=names,
                    operand_values=tuple(value for _ in names),
                    lhs_value=cycle % 2,
                    lhs_width=1,
                )
                for cycle in range(3)
            ]
            return Trace(design="arb", executions=executions)

        traces = [trace_for(widths[0], 1), trace_for(widths[-1], 0)]
        want = check_dedup(contexts, traces)
        assert check_dedup(contexts, self._roundtrip(traces)) == want

    def test_wide_values_fall_back_to_object_path(self, check_dedup):
        from repro.analysis.contexts import OperandInstance, StatementContext
        from repro.sim.trace import ExecutionColumns, StatementExecution, Trace

        def executions(value):
            return [
                StatementExecution(
                    stmt_id=0,
                    cycle=cycle,
                    target="y",
                    operands=("a",),
                    operand_values=(value,),
                    lhs_value=cycle % 2,
                    lhs_width=128,
                )
                for cycle in range(3)
            ]

        wide = executions(1 << 90)
        trace = Trace(design="wide", executions=wide)
        columns = ExecutionColumns.pack(wide)
        assert isinstance(columns.flat_values, list)  # >63-bit: no array
        (back,) = self._roundtrip([trace])
        assert list(back.executions) == wide

        # Array-column traces first, the list-column trace last: the
        # columnar pass must bail out before accumulating anything, or the
        # record loop would count the narrow traces twice.
        contexts = {
            0: StatementContext(
                stmt_id=0,
                target="y",
                assign_type="BlockingAssignment",
                operands=[OperandInstance("a", 0, 0)],
            )
        }
        narrow = [Trace(design="wide", executions=executions(v)) for v in (1, 2, 1)]
        assert all(
            isinstance(t.columnize().flat_values, np.ndarray) for t in narrow
        )
        groups = check_dedup(contexts, narrow + [back])
        assert [(values, count) for _s, values, _l, _c, count in groups] == [
            ((1,), 6),
            ((2,), 3),
            ((1 << 90,), 3),
        ]


class _FakeFuture:
    def __init__(self, value, error=None):
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            error, self._error = self._error, None
            raise error

        return self._value


class _FakePool:
    """Records submissions; results come back immediately (no processes)."""

    def __init__(self, fail_first_without_blob: bool = False):
        self.submissions: list[tuple] = []
        self._fail_first_without_blob = fail_first_without_blob

    def submit(self, fn, ctx_id, blob, mutation):
        from repro.runtime.worker import MissingWorkerContext

        self.submissions.append((ctx_id, blob, mutation))
        if self._fail_first_without_blob and blob is None:
            self._fail_first_without_blob = False
            return _FakeFuture(
                None, MissingWorkerContext("worker lacks context")
            )
        return _FakeFuture(mutation)

    def shutdown(self, wait=True):
        pass


class TestWindowedSimulationDispatch:
    """Campaign sims must not monopolize the executor queue.

    ``ProcessPoolExecutor`` drains FIFO with no priorities, so the only
    way an interleaved ``localize_many`` dispatch (streaming campaigns
    localize mutants while later mutants still simulate) can run promptly
    is for ``simulate_mutants`` to keep at most one small window of sim
    tasks queued — never the whole campaign backlog.  These tests pin the
    window invariant deterministically with a recording fake pool.
    """

    def _runtime_with_fake_pool(self, n_workers=2, **fake_kwargs):
        runtime = ExecutionRuntime(n_workers)
        fake = _FakePool(**fake_kwargs)
        runtime._pool = fake  # bypasses _ensure_pool's lazy start
        return runtime, fake

    def test_in_flight_tasks_never_exceed_window(self):
        runtime, fake = self._runtime_with_fake_pool(n_workers=2)
        mutations = [f"m{i}" for i in range(11)]
        window = 2 * runtime.n_workers
        stream = runtime.simulate_mutants(("ctx",), mutations)
        # Submission is lazy: nothing hits the queue before consumption.
        assert fake.submissions == []
        consumed = []
        for result in stream:
            consumed.append(result)
            in_flight = len(fake.submissions) - len(consumed)
            assert in_flight <= window
        assert consumed == mutations  # mutation order preserved
        assert len(fake.submissions) == len(mutations)
        assert runtime.stats().tasks_dispatched == len(mutations)
        runtime.close()

    def test_localize_shards_jump_the_sim_backlog(self):
        """The streaming-campaign interleave: after consuming one sim
        result, a localize dispatch waits behind at most one window of
        queued sim tasks, not the campaign's full backlog."""
        runtime, fake = self._runtime_with_fake_pool(n_workers=2)
        mutations = [f"m{i}" for i in range(40)]
        stream = runtime.simulate_mutants(("ctx",), mutations)
        next(stream)  # consumer now holds one result (and localizes it)
        window = 2 * runtime.n_workers
        queued_sims = len(fake.submissions) - 1
        assert queued_sims <= window  # a shard submitted now runs soon
        assert len(fake.submissions) < len(mutations)
        runtime.close()

    def test_first_window_carries_context_blob(self):
        runtime, fake = self._runtime_with_fake_pool(n_workers=2)
        mutations = [f"m{i}" for i in range(11)]
        window = 2 * runtime.n_workers
        list(runtime.simulate_mutants(("ctx",), mutations))
        blobs = [blob for _ctx_id, blob, _mutation in fake.submissions]
        assert all(blob is not None for blob in blobs[:window])
        assert all(blob is None for blob in blobs[window:])
        runtime.close()

    def test_missing_context_retry_survives_windowing(self):
        runtime, fake = self._runtime_with_fake_pool(
            n_workers=1, fail_first_without_blob=True
        )
        mutations = [f"m{i}" for i in range(5)]
        results = list(runtime.simulate_mutants(("ctx",), mutations))
        assert results == mutations
        # The failed submission was retried once, with the blob attached.
        retried = [
            (blob, mutation)
            for _ctx_id, blob, mutation in fake.submissions
            if mutation == mutations[2 * runtime.n_workers]
        ]
        assert len(retried) == 2
        assert retried[0][0] is None and retried[1][0] is not None
        runtime.close()


class TestWorkerProtocol:
    """In-process checks of the worker task protocol's recovery paths."""

    def test_missing_context_raises_for_retry(self):
        from repro.runtime.worker import (
            MissingWorkerContext,
            _STATE,
            _install_context,
        )

        _STATE["contexts"].clear()
        with pytest.raises(MissingWorkerContext):
            _install_context(99, None)

    def test_stale_weights_raise_without_refresh(self):
        from repro.runtime.worker import (
            StaleWorkerWeights,
            _STATE,
            _ensure_engine,
        )

        saved = (_STATE["engine"], _STATE["model_init"])
        _STATE["engine"] = None
        _STATE["model_init"] = None
        try:
            with pytest.raises(StaleWorkerWeights):
                _ensure_engine(epoch=3, refresh_blob=None)
        finally:
            _STATE["engine"], _STATE["model_init"] = saved

    def test_refresh_blob_rebuilds_engine_at_epoch(self):
        import pickle

        from repro.core import VeriBugConfig, VeriBugModel, Vocabulary
        from repro.runtime.worker import ModelPayload, _STATE, _ensure_engine

        model = VeriBugModel(VeriBugConfig(), Vocabulary())
        payload = ModelPayload(
            config=model.config, state=model.state_dict(), epoch=7
        )
        blob = pickle.dumps(payload, protocol=5)
        saved = (_STATE["engine"], _STATE["model_init"])
        _STATE["engine"] = None
        _STATE["model_init"] = None
        try:
            engine = _ensure_engine(epoch=7, refresh_blob=blob)
            assert _STATE["engine"][0] == 7
            state = engine.model.state_dict()
            for name, value in model.state_dict().items():
                assert (state[name] == value).all()
        finally:
            _STATE["engine"], _STATE["model_init"] = saved


class TestSpawnSafety:
    def test_fork_context_is_rejected(self):
        with pytest.raises(ValueError, match="spawn-safe"):
            ExecutionRuntime(2, mp_context="fork")

    def test_session_runtime_uses_spawn(self, worker_session):
        assert worker_session.runtime.start_method == "spawn"

    def test_derive_seed_is_deterministic_and_stream_separated(self):
        assert derive_seed(13, "shard", 0) == derive_seed(13, "shard", 0)
        seen = {
            derive_seed(seed, label, index)
            for seed in (0, 1, 13)
            for label in ("shard", "corpus")
            for index in range(8)
        }
        assert len(seen) == 3 * 2 * 8  # no collisions across streams
        assert all(seed >= 0 for seed in seen)
