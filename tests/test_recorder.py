"""Differential tests for the columnar execution recorder.

Both simulator engines write struct-of-arrays traces natively: the
interpreter through :class:`~repro.sim.ExecutionRecorder`, the vector
engine through its lane-batched recorder.  The recorder's contract has
two halves, and every test here pins one of them:

* **Engine identity** — the vector engine and the tree-walking
  interpreter record byte-equivalent columns for the same stimulus.
* **Oracle identity** — the natively recorded columns are exactly what
  :meth:`ExecutionColumns.pack` would produce from the materialized
  record objects, column types and dtypes included.  That makes the
  record-object path a trustworthy oracle for the columnar one.

The suite drives both random RVDG designs (hypothesis-chosen seeds) and
the paper designs, plus hand-written corners the pool can't reach:
>63-bit values (the recorder's Python-list fallback), empty traces, and
the laziness guarantee that recorded runs never construct
``StatementExecution`` objects unless a caller iterates the view.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.designs import REGISTRY, load_design
from repro.sim import (
    ExecutionColumns,
    Simulator,
    TestbenchConfig,
    generate_testbench_suite,
)
from repro.sim.trace import _LazyExecutions
from repro.verilog import parse_module


def assert_columns_equal(ours: ExecutionColumns, oracle: ExecutionColumns):
    """Byte-level equivalence: same shape table, types, dtypes, values."""
    assert ours.stmt_table == oracle.stmt_table
    for attr in ("stmt_slots", "cycles", "lhs_values", "flat_values"):
        a, b = getattr(ours, attr), getattr(oracle, attr)
        assert type(a) is type(b), f"{attr}: {type(a)} != {type(b)}"
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, f"{attr}: {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b), f"{attr} values differ"


def assert_recorder_sound(module, stimuli):
    """The full differential contract on one design + stimulus batch."""
    vector = Simulator(module, engine="vector")
    interpreted = Simulator(module, engine="interpreted")
    for stimulus in stimuli:
        tc = vector.run(stimulus)
        ti = interpreted.run(stimulus)
        assert tc.outputs == ti.outputs

        # Both engines must expose native columns (no record objects yet).
        cc, ci = tc.execution_columns(), ti.execution_columns()
        assert cc is not None and ci is not None
        assert_columns_equal(cc, ci)

        # Native columns == repack of the materialized record oracle.
        records = list(tc.executions)
        assert records == list(ti.executions)
        assert_columns_equal(cc, ExecutionColumns.pack(records))

        # Unpack/pack round trip is the identity on recorded columns.
        assert_columns_equal(ExecutionColumns.pack(cc.unpack()), cc)


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
        assert trace.execution_columns().execution_counts()
        # Every query above ran off the columns; no records were built.
        assert trace.executions._records is None

    @pytest.mark.parametrize("engine", ["vector", "interpreted"])
    def test_serialization_ships_columns_not_records(self, engine):
        trace = self._recorded_trace(engine)
        clone = pickle.loads(pickle.dumps(trace))
        assert isinstance(clone.executions, _LazyExecutions)
        assert clone.executions._records is None
        assert_columns_equal(clone.execution_columns(), trace.execution_columns())
        assert clone.outputs == trace.outputs
        assert list(clone.executions) == list(trace.executions)


class TestWideValues:
    """>63-bit values force the recorder's Python-list column fallback."""

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
        module = parse_module(self.SOURCE)
        # Too wide for a vector lane: the interpreter records it.
        trace = Simulator(module, engine="vector").run(self.wide_stimuli()[0])
        columns = trace.execution_columns()
        assert isinstance(columns.lhs_values, list)
        assert isinstance(columns.flat_values, list)
        assert max(columns.flat_values) >= (1 << 69)

    def test_wide_recorder_matches_oracles(self):
        assert_recorder_sound(parse_module(self.SOURCE), self.wide_stimuli())

    def test_wide_trace_round_trips(self):
        module = parse_module(self.SOURCE)
        trace = Simulator(module, engine="interpreted").run(self.wide_stimuli()[0])
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone.executions) == list(trace.executions)


class TestEmptyTraces:
    @pytest.mark.parametrize("engine", ["vector", "interpreted"])
    def test_empty_stimulus_records_empty_columns(self, engine):
        module = load_design(sorted(REGISTRY)[0])
        trace = Simulator(module, engine=engine).run([])
        columns = trace.execution_columns()
        assert columns is not None
        assert len(columns) == 0
        assert columns.stmt_table == []
        assert len(trace.executions) == 0
        assert trace.executions == []
        assert trace.executed_stmt_ids() == set()
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone.executions) == 0

    def test_unrecorded_run_has_no_columns(self):
        module = load_design(sorted(REGISTRY)[0])
        stimulus = generate_testbench_suite(
            module, 1, TestbenchConfig(n_cycles=5), seed=2
        )[0]
        trace = Simulator(module, engine="vector").run(stimulus, record=False)
        assert trace.executions == []
        assert trace.execution_columns() is None
