"""The vector engine's lane boundary against per-lane oracles.

* A suite's event log, unpacked by :func:`repro.sim.vector.unpack_events`,
  must slice into one-lane logs (:meth:`SuiteLog.lane_slice`, what a
  pickled lane ships) equal to :func:`reference_finish`, the per-lane
  masked loop over the raw events, down to every value and every dtype;
  lane counts must match.
* The campaign's vectorized classification must sort traces exactly as
  :meth:`Trace.diverges_from`, trace by trace, does.
* A lane-view trace (outputs, stimulus and executions all views of
  suite-wide buffers) pickles to just its own lane's data.
* Identical generated pass sources share one ``compile()``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.campaign import _classify
from repro.designs import load_design
from repro.sim import (
    SimulationError,
    Simulator,
    StimulusSuite,
    SuiteLog,
    TestbenchConfig,
    Trace,
    generate_testbench_suite,
    vector,
)
from repro.sim.trace import _LaneOutputs
from repro.sim.vector import unpack_events
from repro.verilog import parse_module

from conftest import assert_executions_identical


# ----------------------------------------------------------------------
# Oracle: the per-lane masked slice
# ----------------------------------------------------------------------


def lane_matrix(packed, n, field) -> np.ndarray:
    """``[len(packed), n]``: each packed int's lanes of ``field`` bits,
    shifted out one by one."""
    lane = (1 << field) - 1
    rows = [[(value >> (field * i)) & lane for i in range(n)] for value in packed]
    return np.array(rows, dtype=object).reshape(len(packed), n)


def reference_finish(shapes, events, n, field) -> list[SuiteLog]:
    """Lane by lane: the lane's active events and operand rows, alone."""
    slots = np.array([e[0] for e in events], dtype=np.int64)
    cycles = np.array([e[1] for e in events], dtype=np.int64)
    lhs = lane_matrix([e[2] for e in events], n, field).astype(np.int64)
    flat = [value for e in events for value in e[3]]
    ops = lane_matrix(flat, n, field).astype(np.int64)
    everyone = (1 << (field * n)) - 1
    masks = [everyone if e[4] is None else e[4] for e in events]
    active = lane_matrix(masks, n, field) != 0
    op_active = np.repeat(active, [len(e[3]) for e in events], axis=0)
    slices = []
    for lane in range(n):
        mask = active[:, lane]
        slices.append(
            SuiteLog(
                shapes,
                slots[mask],
                cycles[mask],
                lhs[mask, lane : lane + 1],
                ops[op_active[:, lane], lane : lane + 1],
                np.ones((int(mask.sum()), 1), dtype=bool),
            )
        )
    return slices


def assert_logs_identical(actual, expected):
    assert len(actual) == len(expected)
    for left, right in zip(actual, expected):
        assert left.shapes == right.shapes
        for name in ("slots", "cycles", "lhs", "ops", "active"):
            a, b = getattr(left, name), getattr(right, name)
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@st.composite
def event_logs(draw):
    """``(shapes, events, n, field)``: a random event log of ``field``-bit
    lanes, values up to the lane's top value bit, masks sparse, full, or
    empty."""
    field = draw(st.sampled_from([8, 16, 32, 64]))

    def _pack_lanes(values) -> int:
        return sum(value << (field * lane) for lane, value in enumerate(values))

    n = draw(st.integers(1, 7))
    n_shapes = draw(st.integers(1, 6))
    shapes = tuple(
        (100 + slot, f"t{slot}", tuple(f"o{k}" for k in range(width)), 8)
        for slot, width in enumerate(
            draw(st.lists(st.integers(0, 3), min_size=n_shapes, max_size=n_shapes))
        )
    )
    top = (1 << (field - 1)) - 1
    small = st.integers(0, min(300, top))
    big = st.integers(top >> 1, top)
    value = st.one_of(small, small, big)
    events = []
    for cycle in range(draw(st.integers(0, 4))):
        for _ in range(draw(st.integers(0, 6))):
            slot = draw(st.integers(0, n_shapes - 1))
            kind = draw(st.sampled_from(["all", "none", "sparse", "full"]))
            if kind == "all":
                active = None
            else:
                lanes = {
                    "none": [False] * n,
                    "full": [True] * n,
                    "sparse": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                }[kind]
                active = _pack_lanes([(1 << field) - 1 if on else 0 for on in lanes])
            events.append(
                (
                    slot,
                    cycle,
                    _pack_lanes(draw(st.lists(value, min_size=n, max_size=n))),
                    tuple(
                        _pack_lanes(draw(st.lists(value, min_size=n, max_size=n)))
                        for _ in shapes[slot][2]
                    ),
                    active,
                )
            )
    return shapes, events, n, field


def assert_log_matches(log, expected):
    """No event without a lane, lane counts, then every lane's slice."""
    assert log.active.any(axis=1).all()
    assert [log.lane_count(lane) for lane in range(log.n_lanes)] == [
        len(lane_log.slots) for lane_log in expected
    ]
    assert_logs_identical([log.lane_slice(lane) for lane in range(log.n_lanes)], expected)


class TestBatchedCompaction:
    """Each lane's slice of the suite log against the per-lane oracle."""

    @settings(max_examples=150, deadline=None)
    @given(log=event_logs())
    def test_matches_per_lane_reference(self, log):
        assert_log_matches(unpack_events(*log), reference_finish(*log))

    def test_empty_log(self):
        log = (((0, "y", ("a",), 1),), [], 3, 16)
        assert_log_matches(unpack_events(*log), reference_finish(*log))

    @pytest.mark.parametrize("name", ["usbf_pl", "ibex_controller"])
    def test_ragged_selector_suites(self, name, monkeypatch):
        """Real event logs: ragged lanes, an empty lane, mutant selectors;
        the pickled lanes carry exactly the reference slices."""
        from repro.datagen.mutation import mutate_statement, sample_mutations

        module = load_design(name)
        mutations = sample_mutations(
            module, {"negation": 2, "operation": 2}, seed=3, min_operands=2
        )
        variants = [
            mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations
        ]
        stimuli = list(generate_testbench_suite(module, 4, TestbenchConfig(n_cycles=9)))
        stimuli[1] = stimuli[1][:4]
        stimuli[2] = []
        lanes = [stimulus for _ in range(len(variants) + 1) for stimulus in stimuli]
        selectors = [k for k in range(len(variants) + 1) for _ in stimuli]
        logs = []

        def capture(*log):
            logs.append(log)
            return unpack_events(*log)

        monkeypatch.setattr(vector, "unpack_events", capture)
        simulator = Simulator(module, engine="vector", variants=variants)
        traces = simulator.run_suite(lanes, selectors=selectors)
        monkeypatch.undo()
        (log,) = logs
        assert any(e[4] is not None for e in log[1])
        expected = reference_finish(*log)
        assert_log_matches(unpack_events(*log), expected)
        assert [len(t.executions) for t in traces] == [len(s.slots) for s in expected]
        shipped = [pickle.loads(pickle.dumps(t)).execution_log() for t in traces]
        assert {lane for _log, lane in shipped} == {0}
        assert_logs_identical([log for log, _lane in shipped], expected)


# ----------------------------------------------------------------------
# Classification: one numpy compare == diverges_from per trace
# ----------------------------------------------------------------------


def reference_classify(traces, goldens, target, outputs):
    failing, correct = [], []
    for trace, golden in zip(traces, goldens):
        if trace.diverges_from(golden, signals=[target]):
            failing.append(trace)
        elif not trace.diverges_from(golden, signals=outputs):
            correct.append(trace)
    return failing, correct


@st.composite
def classification_rounds(draw):
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 8))
    cycles = draw(st.integers(1, 5))
    rows = cycles * len(names)
    values = st.integers(0, 3)
    golden_matrix = np.array(
        draw(st.lists(values, min_size=rows * n, max_size=rows * n)), dtype=np.int64
    ).reshape(rows, n)
    mutant_matrix = golden_matrix.copy()
    for _ in range(draw(st.integers(0, 2 * n))):
        row, lane = draw(st.integers(0, rows - 1)), draw(st.integers(0, n - 1))
        mutant_matrix[row, lane] = draw(values)
    goldens, traces = [], []
    for lane in range(n):
        golden = _LaneOutputs(names, golden_matrix, lane, cycles)
        mutant = _LaneOutputs(names, mutant_matrix, lane, cycles)
        shape = draw(st.sampled_from(["view", "view", "list", "short", "foreign"]))
        if shape == "list":
            mutant = list(mutant)
        elif shape == "short":
            mutant = _LaneOutputs(names, mutant_matrix, lane, cycles - 1)
        elif shape == "foreign":
            mutant = _LaneOutputs(names, mutant_matrix[:, [lane]].copy(), 0, cycles)
        goldens.append(Trace(design="d", outputs=golden))
        traces.append(Trace(design="d", outputs=mutant))
    target = draw(st.sampled_from(names))
    outputs = list(draw(st.sets(st.sampled_from(names + ("absent",)))))
    return traces, goldens, target, outputs


class TestVectorizedClassify:
    @settings(max_examples=200, deadline=None)
    @given(round_=classification_rounds())
    def test_matches_diverges_from(self, round_):
        traces, goldens, target, outputs = round_
        want_failing, want_correct = reference_classify(traces, goldens, target, outputs)
        failing, correct = [], []
        _classify(traces, goldens, target, outputs, failing, correct)
        assert [id(t) for t in failing] == [id(t) for t in want_failing]
        assert [id(t) for t in correct] == [id(t) for t in want_correct]
        failed = {id(t) for t in failing}
        assert all(t.is_failure == (id(t) in failed) for t in traces)

    def test_recorded_round_matches_diverges_from(self, arbiter):
        from repro.datagen.mutation import mutate_statement, sample_mutations

        mutations = sample_mutations(arbiter, {"negation": 2, "operation": 2}, seed=1)
        variants = [
            mutate_statement(arbiter.statement_by_id(m.stmt_id), m) for m in mutations
        ]
        simulator = Simulator(arbiter, engine="vector", variants=variants)
        suite = generate_testbench_suite(arbiter, 6, TestbenchConfig(n_cycles=7), seed=2)
        goldens = simulator.run_suite(suite, record=False)
        lanes = StimulusSuite.concat([suite] * len(variants))
        selectors = [k for k in range(1, len(variants) + 1) for _ in suite]
        traces = simulator.run_suite(lanes, selectors=selectors)
        all_goldens = goldens * len(variants)
        sizes = []
        for target in arbiter.outputs:
            want_failing, want_correct = reference_classify(
                traces, all_goldens, target, arbiter.outputs
            )
            failing, correct = [], []
            _classify(traces, all_goldens, target, arbiter.outputs, failing, correct)
            assert [id(t) for t in failing] == [id(t) for t in want_failing]
            assert [id(t) for t in correct] == [id(t) for t in want_correct]
            sizes.append((len(failing), len(correct)))
        assert any(f for f, _ in sizes) and any(c for _, c in sizes)


# ----------------------------------------------------------------------
# Lane views: outputs, stimulus, executions
# ----------------------------------------------------------------------


class TestLaneViews:
    def test_pickled_lane_trace_carries_only_its_lane(self):
        module = load_design("usbf_pl")
        suite = generate_testbench_suite(module, 16, TestbenchConfig(n_cycles=12), seed=4)
        traces = Simulator(module, engine="vector").run_suite(suite)
        trace = traces[5]
        assert isinstance(trace.outputs, _LaneOutputs)
        assert trace.outputs.matrix.shape[1] == 16
        assert trace.stimulus.suite is suite
        blob = pickle.dumps(trace)
        back = pickle.loads(blob)
        assert back.outputs == trace.outputs
        assert back.stimulus == trace.stimulus
        assert back.stimulus == list(suite[5])
        assert back.executions == trace.executions
        assert back.outputs.matrix.shape == (12 * len(module.outputs), 1)
        assert back.stimulus.suite.values.shape == (1, 12, len(module.inputs))
        assert len(blob) * 8 < len(pickle.dumps(traces))

    def test_pickled_lane_holds_a_one_lane_log_of_its_events(self):
        """A pickled lane ships a one-lane log of exactly ``lane_count``
        events, all active; re-pickling ships that log unchanged."""
        module = load_design("usbf_pl")
        suite = generate_testbench_suite(module, 5, TestbenchConfig(n_cycles=10), seed=2)
        suite = [list(stimulus) for stimulus in suite]
        suite[1] = suite[1][:3]
        suite[3] = []
        traces = Simulator(module, engine="vector").run_suite(suite)
        log, _ = traces[0].execution_log()
        assert log.n_lanes == 5
        for lane, trace in enumerate(traces):
            back = pickle.loads(pickle.dumps(trace))
            lane_log, lane_index = back.execution_log()
            assert (lane_log.n_lanes, lane_index) == (1, 0)
            assert len(lane_log.slots) == log.lane_count(lane) == len(back.executions)
            assert lane_log.active.all()
            assert lane_log.ops.shape == (int(lane_log.widths[lane_log.slots].sum()), 1)
            assert lane_log.lane_slice(0) is lane_log
            assert list(back.executions) == list(trace.executions)

    def test_pickled_lane_wire_form_is_narrow_and_restores_exactly(self):
        """On the wire a lane ships int32 slots and cycles and no all-true
        mask; unpickled, its log has int64 columns and the mask again and
        is event for event identical to the lane.  A multi-lane log keeps
        its mask on the wire."""
        module = load_design("usbf_pl")
        suite = generate_testbench_suite(module, 4, TestbenchConfig(n_cycles=10), seed=2)
        traces = Simulator(module, engine="vector").run_suite(suite)
        log, _ = traces[0].execution_log()
        wire = log.__reduce__()[1]
        assert wire[5] is log.active
        back = pickle.loads(pickle.dumps(log))
        for name in ("slots", "cycles", "lhs", "ops", "active"):
            assert getattr(back, name).dtype == getattr(log, name).dtype
            assert np.array_equal(getattr(back, name), getattr(log, name))
        for lane, trace in enumerate(traces):
            sliced = log.lane_slice(lane)
            wire = sliced.__reduce__()[1]
            assert wire[1].dtype == wire[2].dtype == np.int32
            assert wire[5] is None
            full = (sliced.shapes, sliced.slots, sliced.cycles, sliced.lhs, sliced.ops,
                    sliced.active, sliced.stmt_ids, sliced.widths)
            # Narrowing and the dropped mask save 4 + 4 + 1 bytes per
            # event; at least 8 of them survive the fixed overheads.
            assert len(pickle.dumps(sliced)) <= len(pickle.dumps(full)) - 8 * len(sliced.slots)
            back = pickle.loads(pickle.dumps(trace))
            lane_log, _ = back.execution_log()
            assert lane_log.slots.dtype == lane_log.cycles.dtype == np.int64
            assert lane_log.active.dtype == bool
            assert lane_log.active.shape == (len(lane_log.slots), 1)
            assert lane_log.active.all()
            assert_executions_identical(back, trace)

    def test_outputs_view_behaves_like_frames(self, arbiter):
        suite = generate_testbench_suite(arbiter, 3, TestbenchConfig(n_cycles=5), seed=1)
        vector_traces = Simulator(arbiter, engine="vector").run_suite(suite)
        oracle = Simulator(arbiter, engine="interpreted")
        for stimulus, trace in zip(suite, vector_traces):
            expected = oracle.run(stimulus).outputs
            assert trace.outputs == expected
            assert trace.n_cycles == len(expected)
            assert trace.outputs[-1] == expected[-1]
            assert trace.outputs[1:3] == expected[1:3]
            assert trace.output_series("gnt1") == [f["gnt1"] for f in expected]

    def test_design_without_outputs_keeps_cycle_count(self):
        module = parse_module(
            "module t(input clk, input a); reg r;"
            " always @(posedge clk) r <= a; endmodule"
        )
        suite = [[{"a": 1}] * 4, [{"a": 0}] * 2]
        vector_traces = Simulator(module, engine="vector").run_suite(suite)
        oracle_traces = Simulator(module, engine="interpreted").run_suite(suite)
        assert [t.outputs for t in vector_traces] == [t.outputs for t in oracle_traces]
        assert [t.n_cycles for t in vector_traces] == [4, 2]


class TestPacking:
    @pytest.mark.parametrize("extra", [{}, {"b": -3}, {"b": 1 << 70}])
    def test_values_wider_than_the_input_are_masked(self, extra):
        module = parse_module(
            "module t(input clk, input [3:0] a, input [3:0] b,"
            " output reg [3:0] acc, output [3:0] y);"
            " assign y = a ^ b;"
            " always @(posedge clk) acc <= acc + a;"
            " endmodule"
        )
        stimuli = [
            [{"a": 0xFF, "b": 0x1F}, {"a": 18}, {**extra}],
            [{"a": 3}, {"b": 0xFFF0}],
        ]
        vector_traces = Simulator(module, engine="vector").run_suite(stimuli)
        scalar = Simulator(module, engine="interpreted")
        for stimulus, trace in zip(stimuli, vector_traces):
            assert trace.outputs == scalar.run(stimulus).outputs


class TestSuiteInputCheck:
    def test_names_the_first_trace_driving_a_foreign_input(self, arbiter):
        stimuli = [
            [{"req1": 1}],
            [{"req1": 1}, {"req1": 0}],
            [{"req2": 1}, {"bogus": 1}],
        ]
        for engine in ("vector", "interpreted"):
            with pytest.raises(
                SimulationError,
                match="unknown input 'bogus' \\(suite trace 2 does not belong",
            ):
                Simulator(arbiter, engine=engine).run_suite(stimuli)


# ----------------------------------------------------------------------
# Content-keyed codegen
# ----------------------------------------------------------------------


class TestContentKeyedCodegen:
    def test_identical_programs_compile_once(self, monkeypatch):
        from repro.datagen.mutation import mutate_statement, sample_mutations

        module = load_design("wb_mux_2")
        mutations = sample_mutations(module, {"negation": 2}, seed=5)
        variants = [
            mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations
        ]
        vector._compile_source.cache_clear()
        compiled = []

        def counting(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(vector, "compile", counting, raising=False)
        suite = generate_testbench_suite(module, 3, TestbenchConfig(n_cycles=4))
        first = Simulator(module, engine="vector", variants=variants)
        second = Simulator(module, engine="vector", variants=variants)
        assert first.program is not second.program
        runs = [sim.run_suite(suite, selectors=[1, 2, 0]) for sim in (first, second)]
        assert compiled and len(compiled) == len(set(compiled))
        assert [t.outputs for t in runs[0]] == [t.outputs for t in runs[1]]

    def test_each_distinct_pass_has_its_own_profile_label(self):
        """Profilers key functions by (filename, line, name), and every
        pass is ``_pass`` at line 1: distinct passes must get distinct
        filenames, each naming its stream and lane width."""
        from repro.designs import REGISTRY

        labels = []
        for name in REGISTRY:
            program = Simulator(load_design(name), engine="vector").program
            field = vector.field_bits(program)
            for stream, fn in zip(("comb", "seq"), vector._pass_fns(program, 2)):
                if fn is not None:
                    label = fn.__code__.co_filename
                    assert label.startswith(f"<vector:{stream}:F{field}:")
                    labels.append(label)
        assert len(labels) > len(REGISTRY)
        assert len(set(labels)) == len(labels)
