"""Execution-runtime guarantees: sharding, reuse, refresh, shutdown.

The runtime layer's contract (see ``docs/architecture.md``, "Execution
runtime") is pinned here:

* the runtime's sharded ``localize_many`` is observably identical to
  the serial fast path (rankings equal, suspiciousness within 1e-9),
  and a pooled session's own ``localize_many`` runs in process;
* one session = one process pool, reused across campaigns and corpus
  runs (pool reuse is the whole point of the layer);
* every localizing task carries its weight epoch and snapshot: after
  ``load_state_dict`` new tasks use the new weights, tasks dispatched
  before it the old ones, and a worker holding no engine (or another
  epoch's) computes from the task's own snapshot;
* ``close()`` joins every worker process — nothing leaks — and work
  dispatched afterwards runs in process, spawning nothing;
* pooled campaigns and corpora equal sequential ones;
* pooled campaigns run as worker-resident chunks (simulate + localize on
  the worker, no trace round trip) and an abandoned stream cancels the
  chunks no worker has started; a failed localization shard or corpus
  task likewise cancels the tasks queued behind it;
* pools are spawn-safe by construction, and seed derivation depends on
  task identity only.
"""

from __future__ import annotations

import multiprocessing
import pathlib

import pytest

from repro.analysis import compute_static_slice
from repro.api import SessionConfig, VeriBugSession, generate_corpus
from repro.core import VeriBugConfig, VeriBugModel, Vocabulary
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
            worker_session.runtime.localize_many(requests),
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

    def test_pooled_session_localizes_in_process(self, requests):
        session = _paper_session(n_workers=2)
        try:
            pooled = session.localize_many(requests)
            assert session.runtime_stats()["localize_calls"] == 0
            assert not session.runtime.started
        finally:
            session.close()
        _assert_identical(pooled, _paper_session(n_workers=0).localize_many(requests))

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

    @pytest.mark.timeout(180)
    def test_dead_worker_costs_one_campaign(self):
        """A killed worker breaks the pool: the next campaign raises and
        discards it, the one after runs on a fresh pool and matches a
        sequential session."""
        import os
        import signal
        from concurrent.futures.process import BrokenProcessPool

        module = load_design("wb_mux_2")
        plan = {"negation": 1, "operation": 1, "misuse": 1}
        session = _paper_session(n_workers=2)
        try:
            os.kill(session.runtime.warm_up()[0], signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                session.campaign(module, "wbs0_we_o", plan=plan, seed=29).run()
            assert not session.runtime.started
            recovered = session.campaign(module, "wbs0_we_o", plan=plan, seed=29).run()
            assert session.runtime_stats()["pools_started"] == 2
        finally:
            session.close()
        sequential = _paper_session(n_workers=0).campaign(
            module, "wbs0_we_o", plan=plan, seed=29
        ).run()
        _assert_same_outcomes(recovered.outcomes, sequential.outcomes)

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
        session.runtime.localize_many(requests)
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


def _perturbed_state(session) -> dict:
    """The session's weights changed wholesale, as a retrain would."""
    state = session.model.state_dict()
    state["attention_vector"] = state["attention_vector"] * 1.5
    state["epsilon"] = state["epsilon"] + 0.25
    return state


def _scores_differ(a, b) -> bool:
    """Some suspiciousness score moved by more than the tolerance."""
    return any(
        abs(x.heatmap.suspiciousness[s] - y.heatmap.suspiciousness[s]) > TOL
        for x, y in zip(a, b)
        for s in x.heatmap.suspiciousness
        if s in y.heatmap.suspiciousness
    )


class TestWeightRefresh:
    def test_sharded_results_track_retrained_weights(self, requests):
        module = load_design("wb_mux_2")
        plan = {"negation": 1, "operation": 1, "misuse": 1}
        session = _paper_session(n_workers=2)
        try:
            stale = session.runtime.localize_many(requests)
            state = _perturbed_state(session)
            session.model.load_state_dict(state)
            assert session.runtime.weight_epoch == 1
            refreshed = session.runtime.localize_many(requests)
            campaign = session.campaign(module, "wbs0_we_o", plan=plan, seed=29).run()
            assert session.runtime_stats()["campaigns_served"] == 1
        finally:
            session.close()
        reference = _paper_session(n_workers=0)
        reference.model.load_state_dict(state)
        _assert_identical(refreshed, reference.localize_many(requests))
        want = reference.campaign(module, "wbs0_we_o", plan=plan, seed=29).run()
        _assert_same_outcomes(campaign.outcomes, want.outcomes)
        for got, expected in zip(campaign.outcomes, want.outcomes):
            assert abs((got.suspiciousness or 0.0) - (expected.suspiciousness or 0.0)) <= TOL
        # The perturbation must actually have changed something,
        # otherwise this test pins nothing.
        assert _scores_differ(stale, refreshed)

    def test_chunks_dispatched_before_a_reload_keep_their_weights(
        self, inline_worker, requests
    ):
        """A stream's chunks are all submitted on its first update; a
        reload afterwards must not reach the chunks still queued, even
        when the same worker runs a task at the new epoch in between."""
        session = _paper_session(n_workers=2)
        runtime = session.runtime
        pool = _InlinePool()
        runtime._pool = pool  # bypasses _ensure_pool's lazy start
        try:
            stream = _chunked_campaign(session).stream()
            updates = [next(stream)]
            state = _perturbed_state(session)
            session.model.load_state_dict(state)
            between = runtime.localize_many(requests[:2])
            updates.extend(stream)
        finally:
            session.close()
        reloaded = _paper_session(n_workers=0)
        reloaded.model.load_state_dict(state)
        _assert_identical(between, reloaded.localize_many(requests[:2]))
        before = list(_chunked_campaign(_paper_session(n_workers=0)).stream())
        assert [future.state for future in pool.futures[:6]] == ["done"] * 6
        _assert_same_outcomes([u.outcome for u in updates], [u.outcome for u in before])
        for got, want in zip(updates, before):
            assert (got.localization is None) == (want.localization is None)
            if want.localization is not None:
                _assert_identical([got.localization], [want.localization])
        after = list(_chunked_campaign(reloaded).stream())
        pairs = [
            (got.localization, new.localization)
            for got, new in zip(updates[1:], after[1:])
            if new.localization is not None
        ]
        assert _scores_differ(*zip(*pairs))


class TestColumnarTraces:
    """The trace wire format feeding the sharded path: one-lane logs."""

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
        # A deserialized trace re-serializes its one-lane log as-is.
        (again,) = self._roundtrip([back])
        assert list(again.executions) == list(trace.executions)

    def test_columnar_dedup_matches_object_loop(self, requests, check_dedup):
        """Recorded traces and their pickled round trip both dedup off
        their event logs; each must equal the record loop."""
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
                    assert all(t.execution_log() is not None for t in trace_set)
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
        from repro.sim.trace import StatementExecution, SuiteLog, Trace

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
        assert SuiteLog.from_records(wide).wide  # >63-bit: object arrays
        (back,) = self._roundtrip([trace])
        assert list(back.executions) == wide

        # int64-log traces first, the object-log trace last: one key
        # matrix holds them all, as ``object``, and groups across them.
        contexts = {
            0: StatementContext(
                stmt_id=0,
                target="y",
                assign_type="BlockingAssignment",
                operands=[OperandInstance("a", 0, 0)],
            )
        }
        narrow = [Trace(design="wide", executions=executions(v)) for v in (1, 2, 1)]
        assert not any(SuiteLog.from_records(t.executions).wide for t in narrow)
        groups = check_dedup(contexts, narrow + [back])
        assert [(values, count) for _s, values, _l, _c, count in groups] == [
            ((1,), 6),
            ((2,), 3),
            ((1 << 90,), 3),
        ]


class _LazyFuture:
    """Computes on ``result()``; ``cancel()`` succeeds until then."""

    def __init__(self, compute):
        self._compute = compute
        self.state = "pending"

    def result(self):
        assert self.state != "cancelled"
        self.state = "done"
        return self._compute()

    def cancel(self):
        if self.state == "pending":
            self.state = "cancelled"
        return self.state == "cancelled"


class _InlinePool:
    """Runs submitted tasks in this process, lazily; records the futures."""

    def __init__(self):
        self.futures: list[_LazyFuture] = []

    def submit(self, fn, *args):
        future = _LazyFuture(lambda: fn(*args))
        self.futures.append(future)
        return future

    def shutdown(self, wait=True):
        pass


#: A plan of 17 mutants: three program groups (8 + 8 + 1).
CHUNKED_DESIGN = "usbf_pl"
CHUNKED_PLAN = {"negation": 6, "operation": 6, "misuse": 5}


def _chunked_campaign(session):
    module = session.resolve_design(CHUNKED_DESIGN)
    target = design_info(CHUNKED_DESIGN).targets[0]
    mutations = sample_mutations(
        module,
        CHUNKED_PLAN,
        seed=3,
        restrict_to=compute_static_slice(module, target).stmt_ids,
        min_operands=2,
        exclude_dead=True,
    )
    assert len(mutations) == 17
    return session.campaign(
        CHUNKED_DESIGN, target, mutations, n_cycles=8, seed=3, n_traces=8
    )


@pytest.fixture(scope="module")
def pooled_chunked():
    """The 17-mutant campaign on a 2-worker pool: updates and runtime stats."""
    session = _paper_session(n_workers=2)
    try:
        updates = list(_chunked_campaign(session).stream())
        return updates, session.runtime_stats()
    finally:
        session.close()


@pytest.fixture
def inline_worker():
    """Let this process play a fresh pool worker; restore its state afterwards.

    Campaign contexts are keyed by a per-runtime id, so each test's
    runtime needs a worker of its own, as a real pool would be.
    """
    from collections import OrderedDict

    from repro.runtime.worker import _STATE

    saved = dict(_STATE)
    _STATE.update(engine=None, campaigns=OrderedDict())
    yield
    _STATE.clear()
    _STATE.update(saved)


def _same_ranking(a, b, scores) -> bool:
    """Rankings equal up to the order of statements with tied scores."""
    return sorted(a) == sorted(b) and all(
        x == y or abs(scores[x] - scores[y]) <= TOL for x, y in zip(a, b)
    )


class TestCampaignChunks:
    """Pooled campaigns run as worker-resident simulate+localize chunks."""

    def test_plan_starts_alone_and_covers_every_index_in_order(self):
        from repro.datagen.campaign import plan_chunks

        assert plan_chunks(0, 2) == []
        assert plan_chunks(1, 2) == [(0, 1)]
        assert plan_chunks(7, 2) == [(0, 1), (1, 4), (4, 7)]
        assert plan_chunks(17, 2) == [
            (0, 1), (1, 5), (5, 8), (8, 12), (12, 16), (16, 17)
        ]
        for n_mutations in range(0, 30):
            for n_workers in (1, 2, 3, 8):
                chunks = plan_chunks(n_mutations, n_workers)
                flat = [i for start, end in chunks for i in range(start, end)]
                assert flat == list(range(n_mutations))
                assert all(start < end for start, end in chunks)
                if n_mutations:
                    assert chunks[0] == (0, 1)

    def test_plan_never_straddles_a_program_group(self):
        from repro.datagen.campaign import MAX_PROGRAM_VARIANTS, plan_chunks

        for n_mutations in range(1, 40):
            for n_workers in (1, 2, 3, 8):
                chunks = plan_chunks(n_mutations, n_workers)
                per_group: dict[int, int] = {}
                for start, end in chunks[1:]:
                    group = start // MAX_PROGRAM_VARIANTS
                    assert (end - 1) // MAX_PROGRAM_VARIANTS == group
                    per_group[group] = per_group.get(group, 0) + 1
                assert all(count <= n_workers for count in per_group.values())

    def test_pooled_matches_sequential_with_heatmaps(self, pooled_chunked):
        pooled, _stats = pooled_chunked
        sequential = list(_chunked_campaign(_paper_session(n_workers=0)).stream())
        assert len(pooled) == len(sequential) == 17
        _assert_same_outcomes(
            [u.outcome for u in pooled], [u.outcome for u in sequential]
        )
        localized = 0
        for got, want in zip(pooled, sequential):
            assert abs(
                (got.outcome.suspiciousness or 0.0)
                - (want.outcome.suspiciousness or 0.0)
            ) <= TOL
            assert (got.localization is None) == (want.localization is None)
            if want.localization is None:
                continue
            localized += 1
            scores = want.localization.heatmap.suspiciousness
            got_scores = got.localization.heatmap.suspiciousness
            assert got_scores.keys() == scores.keys()
            assert all(abs(got_scores[k] - scores[k]) <= TOL for k in scores)
            assert _same_ranking(
                got.localization.ranking, want.localization.ranking, scores
            )
        assert localized >= 2, "the plan must localize mutants in several chunks"
        final, reference = pooled[-1].snapshot, sequential[-1].snapshot
        assert final.counts == reference.counts
        assert _same_ranking(
            final.ranking, reference.ranking, reference.suspiciousness
        )

    def test_workers_localize_without_trace_round_trip(self, pooled_chunked):
        _updates, stats = pooled_chunked
        # One task per chunk; no sharded localize_many, so no campaign
        # trace set was shipped back out to a worker.
        assert stats["tasks_dispatched"] == 6
        assert stats["localize_calls"] == 0
        memo = stats["worker_memo"]
        assert memo["hits"] + memo["misses"] > 0

    def test_abandoned_stream_cancels_queued_chunks(self, inline_worker):
        session = _paper_session(n_workers=2)
        runtime = session.runtime
        pool = _InlinePool()
        runtime._pool = pool  # bypasses _ensure_pool's lazy start
        try:
            handle = _chunked_campaign(session)
            stream = handle.stream()
            assert next(stream).outcome.mutation == handle.mutations[0]
            stream.close()
            states = [future.state for future in pool.futures]
            assert states == ["done"] + ["cancelled"] * 5
        finally:
            session.close()


class TestWorkerTasks:
    """In-process checks that a task is a pure function of its arguments."""

    def test_engineless_worker_runs_tasks_from_their_snapshots(
        self, inline_worker, requests, monkeypatch
    ):
        from repro.datagen import campaign
        from repro.runtime.worker import _STATE

        spans = []
        original = campaign.TargetSimulation.localize_chunk

        def spy(simulation, span, *args):
            spans.append(span)
            return original(simulation, span, *args)

        monkeypatch.setattr(campaign.TargetSimulation, "localize_chunk", spy)
        module = load_design("wb_mux_2")
        plan = {"negation": 1, "operation": 1, "misuse": 1}
        session = _paper_session(n_workers=2)
        runtime = session.runtime
        pool = _InlinePool()
        runtime._pool = pool  # bypasses _ensure_pool's lazy start
        try:
            pooled = session.campaign(module, "wbs0_we_o", plan=plan, seed=29).run()
            assert _STATE["engine"][0] == runtime.weight_epoch
            _STATE["engine"] = None
            sharded = runtime.localize_many(requests)
            stats = session.runtime_stats()
        finally:
            session.close()
        assert stats["campaigns_served"] == stats["localize_calls"] == 1
        assert len(pool.futures) == stats["tasks_dispatched"]
        # The pool's chunk tasks and the in-process campaign run the
        # same chunk function, each over its own chunk plan.
        n = len(pooled.outcomes)
        assert spans == campaign.plan_chunks(n, 2)
        spans.clear()
        sequential = _paper_session(n_workers=0)
        want = sequential.campaign(module, "wbs0_we_o", plan=plan, seed=29).run()
        assert spans == campaign.plan_chunks(n, 1) != campaign.plan_chunks(n, 2)
        _assert_same_outcomes(pooled.outcomes, want.outcomes)
        _assert_identical(sharded, sequential.localize_many(requests))


class TestFailedTaskCancelsQueue:
    """A task that raises fails the call and cancels the queued rest."""

    @staticmethod
    def _inline_runtime(monkeypatch, task_name: str):
        import repro.runtime.runtime as runtime_module

        def broken_task(*args):
            raise ValueError("task failed")

        monkeypatch.setattr(runtime_module, task_name, broken_task)
        runtime = ExecutionRuntime(3)
        runtime.attach_model(VeriBugModel(VeriBugConfig(), Vocabulary()))
        pool = _InlinePool()
        runtime._pool = pool  # bypasses _ensure_pool's lazy start
        return runtime, pool

    def test_localize_many_cancels_unstarted_shards(self, monkeypatch):
        runtime, pool = self._inline_runtime(monkeypatch, "_task_localize_shard")
        stub = LocalizationRequest(None, "out", failing_traces=[], correct_traces=[])
        with pytest.raises(ValueError, match="task failed"):
            runtime.localize_many([stub] * 3)
        assert [future.state for future in pool.futures] == [
            "done", "cancelled", "cancelled"
        ]
        runtime.close()

    def test_map_corpus_cancels_unstarted_designs(self, monkeypatch):
        runtime, pool = self._inline_runtime(monkeypatch, "_task_corpus_design")
        with pytest.raises(ValueError, match="task failed"):
            runtime.map_corpus(["a", "b", "c"], spec=None, seed=0)
        assert [future.state for future in pool.futures] == [
            "done", "cancelled", "cancelled"
        ]
        runtime.close()


class TestSpawnSafety:
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
