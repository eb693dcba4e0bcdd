"""Differential tests for the execution recorders.

Both simulator engines record their executions as event logs natively:
the interpreter a one-lane :class:`~repro.sim.SuiteLog` through
:class:`~repro.sim.ExecutionRecorder`, the vector engine one log per
suite through its lane-batched recorder.  The recorder's contract has
two halves, and every test here pins one of them:

* **Engine identity** — the vector engine and the tree-walking
  interpreter record event-for-event identical logs for the same
  stimulus (``assert_executions_identical``, dtypes included).
* **Oracle identity** — the natively recorded log is event for event
  what :meth:`SuiteLog.from_records` builds from the materialized record
  objects.  That makes the record-object path a trustworthy oracle for
  the log.

The suite drives both random RVDG designs (hypothesis-chosen seeds) and
the paper designs, plus hand-written corners the pool can't reach:
>63-bit values (``object`` value arrays), empty traces, and the
laziness guarantee that recorded runs never construct
``StatementExecution`` objects unless a caller iterates the view.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import extract_module_contexts
from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.designs import REGISTRY, load_design
from repro.sim import (
    Simulator,
    SuiteLog,
    TestbenchConfig,
    Trace,
    generate_testbench_suite,
)
from repro.sim.trace import _LazyExecutions
from repro.verilog import parse_module

from conftest import assert_executions_identical


def records_trace(records) -> Trace:
    """A trace over the one-lane log :meth:`SuiteLog.from_records` builds."""
    return Trace(design="records", executions=_LazyExecutions(SuiteLog.from_records(records)))


def assert_recorder_sound(module, stimuli):
    """The full differential contract on one design + stimulus batch."""
    vector = Simulator(module, engine="vector")
    interpreted = Simulator(module, engine="interpreted")
    for stimulus in stimuli:
        tc = vector.run(stimulus)
        ti = interpreted.run(stimulus)
        assert tc.outputs == ti.outputs

        # Both engines must expose a native log (no record objects yet).
        assert tc.execution_log() is not None and ti.execution_log() is not None
        assert_executions_identical(tc, ti)

        # Native log == the log of the materialized record oracle.
        records = list(tc.executions)
        assert records == list(ti.executions)
        assert_executions_identical(tc, records_trace(records))

        # Records -> log -> records is the identity.
        assert list(records_trace(records).executions) == records


class TestRecorderDifferential:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_rvdg_recorder_matches_oracles(self, seed):
        gen = RandomVerilogDesignGenerator(
            RVDGConfig(n_inputs=4, n_state=3, n_outputs=2, n_branches=3), seed=seed
        )
        module = gen.generate("d")
        stimuli = generate_testbench_suite(
            module, 2, TestbenchConfig(n_cycles=12), seed=seed
        )
        assert_recorder_sound(module, stimuli)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_paper_design_recorder_matches_oracles(self, name):
        module = load_design(name)
        stimuli = generate_testbench_suite(
            module, 2, TestbenchConfig(n_cycles=20), seed=5
        )
        assert_recorder_sound(module, stimuli)


class TestLaziness:
    """Recorded runs must not construct StatementExecution objects."""

    def _recorded_trace(self, engine):
        module = load_design(sorted(REGISTRY)[0])
        stimulus = generate_testbench_suite(
            module, 1, TestbenchConfig(n_cycles=10), seed=11
        )[0]
        return Simulator(module, engine=engine).run(stimulus)

    @pytest.mark.parametrize("engine", ["vector", "interpreted"])
    def test_recorded_executions_are_lazy(self, engine):
        trace = self._recorded_trace(engine)
        assert isinstance(trace.executions, _LazyExecutions)
        assert trace.executions._records is None

    @pytest.mark.parametrize("engine", ["vector", "interpreted"])
    def test_column_queries_do_not_materialize(self, engine):
        trace = self._recorded_trace(engine)
        stmt_ids = trace.executed_stmt_ids()
        assert stmt_ids
        for stmt_id in stmt_ids:
            assert trace.executions_of(stmt_id)
        assert len(trace.executions) > 0
        log, lane = trace.execution_log()
        assert log.stmt_counts(lane)
        # Every query above ran off the log; no records were built.
        assert trace.executions._records is None

    @pytest.mark.parametrize("engine", ["vector", "interpreted"])
    def test_serialization_ships_columns_not_records(self, engine):
        """A pickled trace carries its view of the log, not records."""
        trace = self._recorded_trace(engine)
        clone = pickle.loads(pickle.dumps(trace))
        assert isinstance(clone.executions, _LazyExecutions)
        assert clone.executions._records is None
        assert_executions_identical(clone, trace)
        assert clone.outputs == trace.outputs
        assert list(clone.executions) == list(trace.executions)


class TestWideValues:
    """>63-bit values keep Python ints: ``object`` value arrays."""

    SOURCE = (
        "module t(a, b, y); input [69:0] a, b; output reg [70:0] y;"
        " always @(*) y = a | b; endmodule"
    )

    def wide_stimuli(self):
        top = 1 << 69
        return [
            [
                {"a": top | 5, "b": top | 3},
                {"a": (1 << 70) - 1, "b": 1},
                {"a": 7, "b": 9},
            ]
        ]

    def test_wide_columns_fall_back_to_lists(self):
        """The log's value arrays fall back to ``object`` (Python ints)."""
        module = parse_module(self.SOURCE)
        # Too wide for a vector lane: the interpreter records it.
        trace = Simulator(module, engine="vector").run(self.wide_stimuli()[0])
        log, _lane = trace.execution_log()
        assert log.wide
        assert log.lhs.dtype == object and log.ops.dtype == object
        assert max(log.ops[:, 0]) >= (1 << 69)

    def test_wide_recorder_matches_oracles(self):
        assert_recorder_sound(parse_module(self.SOURCE), self.wide_stimuli())

    def test_wide_trace_round_trips(self):
        module = parse_module(self.SOURCE)
        trace = Simulator(module, engine="interpreted").run(self.wide_stimuli()[0])
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone.executions) == list(trace.executions)

    def test_wide_trace_round_trips_with_object_arrays_and_dedups(self, check_dedup):
        """A >63-bit interpreter trace pickles as an ``object`` log and
        dedups like its records, alone and mixed with narrow traces."""
        module = parse_module(self.SOURCE)
        simulator = Simulator(module, engine="interpreted")
        trace = simulator.run(self.wide_stimuli()[0])
        clone = pickle.loads(pickle.dumps(trace))
        log, _lane = clone.execution_log()
        assert log.lhs.dtype == object and log.ops.dtype == object
        assert_executions_identical(clone, trace)
        contexts = extract_module_contexts(module.statements())
        narrow = simulator.run([{"a": 3, "b": 4}, {"a": 7, "b": 9}])
        assert not narrow.execution_log()[0].wide
        for trace_set in ([clone], [narrow, clone, trace], [trace, narrow]):
            groups = check_dedup(contexts, trace_set)
            assert sum(group[-1] for group in groups) == sum(
                len(t.executions) for t in trace_set
            )


class TestEmptyTraces:
    @pytest.mark.parametrize("engine", ["vector", "interpreted"])
    def test_empty_stimulus_records_empty_columns(self, engine):
        module = load_design(sorted(REGISTRY)[0])
        trace = Simulator(module, engine=engine).run([])
        log, lane = trace.execution_log()
        assert len(log.slots) == 0 and log.lane_count(lane) == 0
        assert len(trace.executions) == 0
        assert trace.executions == []
        assert trace.executed_stmt_ids() == set()
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone.executions) == 0
        assert_executions_identical(clone, trace)

    def test_unrecorded_run_has_no_columns(self):
        """An unrecorded run reads a log that holds 0 events."""
        module = load_design(sorted(REGISTRY)[0])
        stimulus = generate_testbench_suite(
            module, 1, TestbenchConfig(n_cycles=5), seed=2
        )[0]
        trace = Simulator(module, engine="vector").run(stimulus, record=False)
        assert trace.executions == []
        log, lane = trace.execution_log()
        assert len(log.slots) == 0 and log.lane_count(lane) == 0
