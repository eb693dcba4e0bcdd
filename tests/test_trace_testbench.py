"""Tests for trace containers and testbench generation.

The stimulus oracle is :func:`oracle_stimulus`: the per-bit
``random.Random`` walk (one ``rng.random()`` per hold decision and per
bit).  Generated suites must equal it bit for bit.
"""

import hashlib
import json
import pathlib
import pickle
import random

import numpy as np
import pytest

from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.designs import REGISTRY, load_design
from repro.ingest import ingest_directory
from repro.sim import (
    Simulator,
    StimulusSuite,
    TestbenchConfig,
    Trace,
    generate_stimulus,
    generate_testbench_suite,
    identify_clock,
    identify_reset,
)
from repro.sim.trace import LENGTH_DIVERGENCE, StatementExecution
from repro.verilog import parse_module

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "examples" / "corpus"


def random_value(width: int, rng: random.Random, one_probability: float = 0.5) -> int:
    """Random ``width``-bit value with per-bit density ``one_probability``."""
    value = 0
    for i in range(width):
        if rng.random() < one_probability:
            value |= 1 << i
    return value


def oracle_stimulus(module, config: TestbenchConfig, seed: int) -> list[dict[str, int]]:
    """The reference stimulus: one ``rng.random()`` call per draw."""
    clock = identify_clock(module)
    reset = identify_reset(module)
    rng = random.Random(seed)
    frames: list[dict[str, int]] = []
    previous: dict[str, int] = {}
    for cycle in range(config.n_cycles):
        frame: dict[str, int] = {}
        for name in module.inputs:
            if name == clock:
                frame[name] = 0
            elif reset is not None and name == reset[0]:
                active, level = cycle < config.reset_cycles, reset[1]
                frame[name] = level if active else 1 - level
            elif name in config.forced:
                frame[name] = config.forced[name]
            elif name in previous and rng.random() < config.hold_probability:
                frame[name] = previous[name]
            else:
                density = config.biases.get(name, config.one_probability)
                frame[name] = random_value(module.decls[name].width, rng, density)
        previous = frame
        frames.append(frame)
    return frames


def oracle_suite(module, n_traces, config, seed):
    return [
        oracle_stimulus(module, config, seed * 100003 + idx) for idx in range(n_traces)
    ]


def assert_matches_oracle(module, config, n_traces=3, seed=5):
    suite = generate_testbench_suite(module, n_traces, config, seed=seed)
    expected = oracle_suite(module, n_traces, config, seed)
    assert [list(stimulus) for stimulus in suite] == expected
    assert generate_stimulus(module, config, seed=seed * 100003) == expected[0]


def make_trace(design, outputs):
    return Trace(design=design, outputs=outputs)


class TestTrace:
    def test_divergence_detected(self):
        a = make_trace("d", [{"y": 0}, {"y": 1}])
        b = make_trace("d", [{"y": 0}, {"y": 0}])
        assert a.diverges_from(b)
        assert a.first_divergence(b) == (1, "y")

    def test_no_divergence(self):
        a = make_trace("d", [{"y": 1}])
        b = make_trace("d", [{"y": 1}])
        assert not a.diverges_from(b)
        assert a.first_divergence(b) is None

    def test_divergence_respects_signal_filter(self):
        a = make_trace("d", [{"y": 0, "z": 1}])
        b = make_trace("d", [{"y": 0, "z": 0}])
        assert not a.diverges_from(b, signals=["y"])
        assert a.diverges_from(b, signals=["z"])

    def test_length_mismatch_diverges(self):
        a = make_trace("d", [{"y": 0}])
        b = make_trace("d", [{"y": 0}, {"y": 0}])
        assert a.diverges_from(b)

    def test_length_mismatch_first_divergence_reports_boundary(self):
        # A strict cycle-prefix trace diverges at the length boundary;
        # first_divergence must agree with diverges_from rather than
        # silently returning None.
        a = make_trace("d", [{"y": 0}])
        b = make_trace("d", [{"y": 0}, {"y": 0}])
        assert a.first_divergence(b) == (1, LENGTH_DIVERGENCE)
        assert b.first_divergence(a) == (1, LENGTH_DIVERGENCE)

    def test_value_divergence_wins_over_length(self):
        a = make_trace("d", [{"y": 0}])
        b = make_trace("d", [{"y": 1}, {"y": 0}])
        assert a.first_divergence(b) == (0, "y")

    def test_executions_eq_non_iterable_does_not_raise(self):
        # Recorded traces hold a lazy columnar view; comparing it against
        # a non-iterable must fall back to NotImplemented, not raise.
        module = parse_module(
            "module t(a, y); input a; output reg y;"
            " always @(*) y = a; endmodule"
        )
        trace = Simulator(module).run([{"a": 1}])
        assert not (trace.executions == None)  # noqa: E711
        assert trace.executions != None  # noqa: E711
        assert not (trace.executions == 5)
        assert trace.executions != 5

    def test_executions_of(self):
        e0 = StatementExecution(0, 0, "y", ("a",), (1,), 1, 1)
        e1 = StatementExecution(1, 0, "z", ("a",), (1,), 0, 1)
        trace = Trace(design="d", executions=[e0, e1, e0])
        assert len(trace.executions_of(0)) == 2
        assert trace.executed_stmt_ids() == {0, 1}

    def test_operand_map(self):
        e = StatementExecution(0, 0, "y", ("a", "b"), (1, 0), 1, 1)
        assert e.operand_map == {"a": 1, "b": 0}


class TestClockResetDetection:
    def test_identify_clock(self):
        m = parse_module(
            "module t(clk, a, y); input clk, a; output y; assign y = a; endmodule"
        )
        assert identify_clock(m) == "clk"

    def test_identify_wishbone_clock(self):
        m = parse_module(
            "module t(wb_clk_i, a, y); input wb_clk_i, a; output y;"
            " assign y = a; endmodule"
        )
        assert identify_clock(m) == "wb_clk_i"

    def test_identify_active_low_reset(self):
        m = parse_module(
            "module t(clk, rst_n, y); input clk, rst_n; output y;"
            " assign y = rst_n; endmodule"
        )
        assert identify_reset(m) == ("rst_n", 0)

    def test_identify_active_high_reset(self):
        m = parse_module(
            "module t(clk, rst, y); input clk, rst; output y;"
            " assign y = rst; endmodule"
        )
        assert identify_reset(m) == ("rst", 1)

    def test_no_clock_or_reset(self):
        m = parse_module("module t(a, y); input a; output y; assign y = a; endmodule")
        assert identify_clock(m) is None
        assert identify_reset(m) is None


class TestStimulusGeneration:
    def test_deterministic_by_seed(self, arbiter):
        s1 = generate_stimulus(arbiter, seed=42)
        s2 = generate_stimulus(arbiter, seed=42)
        assert s1 == s2

    def test_different_seeds_differ(self, arbiter):
        s1 = generate_stimulus(arbiter, seed=1)
        s2 = generate_stimulus(arbiter, seed=2)
        assert s1 != s2

    def test_reset_window(self, arbiter):
        stim = generate_stimulus(arbiter, TestbenchConfig(reset_cycles=3), seed=0)
        assert all(frame["rst_n"] == 0 for frame in stim[:3])
        assert all(frame["rst_n"] == 1 for frame in stim[3:])

    def test_all_inputs_driven(self, arbiter):
        stim = generate_stimulus(arbiter, seed=0)
        for frame in stim:
            assert set(frame) == set(arbiter.inputs)

    def test_forced_inputs(self, arbiter):
        config = TestbenchConfig(forced={"req1": 1})
        stim = generate_stimulus(arbiter, config, seed=0)
        assert all(frame["req1"] == 1 for frame in stim)

    def test_n_cycles_respected(self, arbiter):
        stim = generate_stimulus(arbiter, TestbenchConfig(n_cycles=7), seed=0)
        assert len(stim) == 7

    def test_hold_probability_one_freezes_inputs(self, arbiter):
        config = TestbenchConfig(hold_probability=1.0, reset_cycles=0)
        stim = generate_stimulus(arbiter, config, seed=3)
        req1 = [frame["req1"] for frame in stim]
        assert len(set(req1)) == 1

    def test_suite_is_independent(self, arbiter):
        suite = generate_testbench_suite(arbiter, 3, seed=0)
        assert len(suite) == 3
        assert suite[0] != suite[1]
        assert suite[1] == generate_stimulus(arbiter, seed=1)

    def test_random_value_density(self):
        rng = random.Random(0)
        ones = sum(random_value(1, rng, 0.9) for _ in range(1000))
        assert ones > 800

    def test_random_value_width(self):
        rng = random.Random(0)
        assert all(random_value(4, rng) < 16 for _ in range(100))

    def test_stimulus_runs_on_simulator(self, arbiter):
        stim = generate_stimulus(arbiter, TestbenchConfig(n_cycles=10), seed=5)
        trace = Simulator(arbiter).run(stim)
        assert trace.n_cycles == 10


class TestStimulusRngBackends:
    """The bulk-draw numpy replay must equal the per-bit oracle exactly."""

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {},
            {"n_cycles": 17, "reset_cycles": 0},
            {"hold_probability": 0.0},
            {"hold_probability": 1.0},
            {"one_probability": 0.05},
            {"forced": {"req1": 1}, "biases": {"req2": 0.95}},
        ],
    )
    def test_numpy_backend_bit_identical_to_legacy(self, arbiter, config_kwargs):
        for seed in (0, 7, 100003 * 12 + 5):
            via_numpy = generate_stimulus(
                arbiter, TestbenchConfig(**config_kwargs), seed=seed
            )
            legacy = oracle_stimulus(arbiter, TestbenchConfig(**config_kwargs), seed)
            assert via_numpy == legacy

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 5, 2**32 - 1, 2**32 + 7, 1234567891 * 100003 + 19, -5, 2**70 + 3],
    )
    def test_replayed_stream_is_random_random(self, seed):
        """One-word, word-boundary, multi-word and negative seeds all
        replay ``random.Random(seed).random()`` float for float."""
        from repro.sim.testbench import _replay_stream

        rng = random.Random(seed)
        expected = [rng.random() for _ in range(40)]
        assert _replay_stream(seed, 40).tolist() == expected

    def test_default_suite_pinned(self, arbiter):
        """Default suites must not drift.

        Pins a digest of the full default suite so any change to the
        draw order or value construction fails loudly instead of
        silently invalidating recorded fixtures.
        """
        suite = generate_testbench_suite(arbiter, 4, seed=0)
        digest = hashlib.sha256(
            json.dumps([list(stimulus) for stimulus in suite], sort_keys=True).encode()
        ).hexdigest()
        assert suite == oracle_suite(arbiter, 4, TestbenchConfig(), 0)
        assert digest == (
            "a1138664715c37ca15383e3140b41a15ffc2e465187bf7e3bae29fda7a1efed6"
        )

    def test_wide_inputs_cross_word_boundary(self):
        module = parse_module(
            "module w(input clk, input [70:0] a, output [70:0] y);"
            " assign y = a; endmodule"
        )
        config = TestbenchConfig(n_cycles=8)
        wide = generate_stimulus(module, config, seed=2)
        assert wide == oracle_stimulus(module, config, 2)
        assert any(frame["a"] >> 64 for frame in wide)


#: Hold probabilities 0 and 1, skewed bit densities, no reset window and
#: a long one; ``_biased`` adds a forced and a biased input to each.
ORACLE_CONFIGS = [
    TestbenchConfig(n_cycles=12),
    TestbenchConfig(n_cycles=9, hold_probability=0.0, one_probability=0.2),
    TestbenchConfig(n_cycles=7, hold_probability=1.0, reset_cycles=0),
    TestbenchConfig(n_cycles=5, reset_cycles=4, one_probability=0.9),
]


def _biased(module, config):
    """``config`` plus one forced and one biased randomized input."""
    reset = identify_reset(module)
    free = [
        name
        for name in module.inputs
        if name != identify_clock(module) and (reset is None or name != reset[0])
    ]
    forced = {free[0]: (1 << module.decls[free[0]].width) - 1} if free else {}
    biases = {free[-1]: 0.85} if len(free) > 1 else {}
    return TestbenchConfig(
        n_cycles=config.n_cycles,
        reset_cycles=config.reset_cycles,
        hold_probability=config.hold_probability,
        one_probability=config.one_probability,
        forced=forced,
        biases=biases,
    )


class TestSuiteMatchesOracle:
    """``generate_testbench_suite`` == the per-bit oracle, design by design."""

    @pytest.mark.parametrize("name", list(REGISTRY))
    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=range(len(ORACLE_CONFIGS)))
    def test_paper_designs(self, name, config):
        module = load_design(name)
        assert_matches_oracle(module, config)
        assert_matches_oracle(module, _biased(module, config), seed=8)

    @pytest.mark.parametrize("seed", range(4))
    def test_rvdg_designs(self, seed):
        module = RandomVerilogDesignGenerator(
            RVDGConfig(n_inputs=3 + seed), seed=seed
        ).generate(f"r{seed}")
        for config in ORACLE_CONFIGS:
            assert_matches_oracle(module, config, seed=seed)
            assert_matches_oracle(module, _biased(module, config), seed=seed)

    def test_corpus_designs(self):
        corpus = ingest_directory(CORPUS)
        config = TestbenchConfig(n_cycles=6, hold_probability=0.3)
        for name in corpus.names():
            assert_matches_oracle(corpus.module(name), config, n_traces=2, seed=1)

    def test_active_low_reset(self, arbiter):
        config = TestbenchConfig(n_cycles=6, reset_cycles=3)
        suite = generate_testbench_suite(arbiter, 2, config, seed=4)
        assert [frame["rst_n"] for frame in suite[1]] == [0, 0, 0, 1, 1, 1]
        assert_matches_oracle(arbiter, config)

    def test_wide_and_forced_out_of_range_values(self):
        module = parse_module(
            "module w(input clk, input rst, input [99:0] a, input [3:0] b,"
            " output [99:0] y, output [3:0] z);"
            " assign y = a; assign z = b; endmodule"
        )
        for config in (
            TestbenchConfig(n_cycles=9, biases={"a": 0.7}),
            TestbenchConfig(n_cycles=4, forced={"b": -1}),
            TestbenchConfig(n_cycles=4, forced={"b": 1 << 70}),
        ):
            suite = generate_testbench_suite(module, 3, config, seed=6)
            assert suite.values.dtype == object
            assert_matches_oracle(module, config, seed=6)

    def test_generated_suite_layout(self, arbiter):
        suite = generate_testbench_suite(arbiter, 3, TestbenchConfig(n_cycles=5), seed=2)
        assert suite.inputs == tuple(arbiter.inputs)
        assert suite.values.shape == (3, 5, len(arbiter.inputs))
        assert suite.values.dtype == np.uint64
        assert suite.lengths.tolist() == [5, 5, 5]
        assert suite.driven is None


class TestStimulusSuite:
    def test_from_frames_round_trip_keeps_omitted_inputs_omitted(self):
        frames = [
            [{"a": 1, "b": 2}, {"b": 3}, {}],
            [{"c": 1 << 63}],
            [],
        ]
        suite = StimulusSuite.from_frames(frames)
        assert suite.inputs == ("a", "b", "c")
        assert suite.lengths.tolist() == [3, 1, 0]
        assert suite == frames
        assert [list(stimulus) for stimulus in suite] == frames
        assert StimulusSuite.from_frames(suite) is suite

    def test_from_frames_falls_back_to_object_cells(self):
        frames = [[{"a": -1}], [{"a": 1 << 80}]]
        suite = StimulusSuite.from_frames(frames)
        assert suite.values.dtype == object
        assert suite == frames

    def test_concat_unions_inputs_and_pads(self, arbiter):
        generated = generate_testbench_suite(arbiter, 2, TestbenchConfig(n_cycles=4))
        other = generate_testbench_suite(arbiter, 1, TestbenchConfig(n_cycles=6))
        manual = [[{"req1": 1}, {"req2": 1}]]
        joined = StimulusSuite.concat([generated, other, manual])
        assert joined == [*generated, *other, *manual]
        assert joined.lengths.tolist() == [4, 4, 6, 2]
        same = StimulusSuite.concat([generated, generated])
        assert same.driven is None
        assert same == [*generated, *generated]

    def test_slices_and_negative_indices(self, arbiter):
        suite = generate_testbench_suite(arbiter, 4, TestbenchConfig(n_cycles=3), seed=9)
        assert isinstance(suite[1:3], StimulusSuite)
        assert suite[1:3] == [suite[1], suite[2]]
        assert suite[-1] == suite[3]
        with pytest.raises(IndexError):
            suite[4]

    def test_lane_view_pickles_only_its_lane(self, arbiter):
        suite = generate_testbench_suite(arbiter, 6, TestbenchConfig(n_cycles=8), seed=1)
        view = suite[4]
        back = pickle.loads(pickle.dumps(view))
        assert back == view
        assert back.suite.values.shape == (1, 8, len(arbiter.inputs))
        assert len(pickle.dumps(view)) < len(pickle.dumps(suite))
