"""Differential tests of the lowering: vector engine vs the interpreter.

Every program :mod:`repro.sim.compiler` lowers runs on the lockstep
vector engine, whose contract is *trace identity*: same ``Trace``
(stimulus, per-cycle outputs, and every recorded execution, columns
down to dtypes) as the tree-walking oracle, on every design the project
touches — the four paper designs, a pool of RVDG random designs, and
hand-written corner cases for each lowering path.  Single traces run as
one-lane suites; ``tests/test_vector.py`` covers multi-lane suites.
"""

import pytest

from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.designs import REGISTRY, load_design
from repro.sim import (
    ENGINES,
    SimulationError,
    Simulator,
    TestbenchConfig,
    clear_compile_cache,
    compile_cache_stats,
    compile_module,
    generate_testbench_suite,
)
from repro.verilog import parse_module
from tests.test_vector import assert_trace_byte_equal

N_RVDG_DESIGNS = 25


def assert_trace_identical(module, stimuli, record=True):
    """Each stimulus as a one-lane vector run == the interpreter."""
    oracle = Simulator(module, engine="interpreted")
    vector = Simulator(module, engine="vector")
    assert vector.lockstep, module.name
    for stimulus in stimuli:
        expected = oracle.run(stimulus, record=record)
        actual = vector.run(stimulus, record=record)
        assert_trace_byte_equal(actual, expected, record)


class TestPaperDesigns:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_trace_identical(self, name):
        module = load_design(name)
        stimuli = generate_testbench_suite(
            module, 4, TestbenchConfig(n_cycles=30), seed=17
        )
        assert_trace_identical(module, stimuli)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_trace_identical_without_recording(self, name):
        module = load_design(name)
        stimuli = generate_testbench_suite(
            module, 2, TestbenchConfig(n_cycles=20), seed=23
        )
        assert_trace_identical(module, stimuli, record=False)


class TestRandomDesigns:
    def test_rvdg_pool_trace_identical(self):
        generator = RandomVerilogDesignGenerator(
            RVDGConfig(n_inputs=5, n_state=3, n_outputs=2, n_branches=4), seed=99
        )
        for module in generator.generate_corpus(N_RVDG_DESIGNS):
            stimuli = generate_testbench_suite(
                module, 2, TestbenchConfig(n_cycles=15), seed=7
            )
            assert_trace_identical(module, stimuli)


class TestLoweringCorners:
    """One focused design per lowering path the RVDG pool can't reach."""

    def diff(self, source, stimuli):
        assert_trace_identical(parse_module(source), stimuli)

    def test_arithmetic_and_compares(self):
        self.diff(
            "module t(a, b, y); input [7:0] a, b; output reg [7:0] y;"
            " always @(*) begin"
            "   if (a > b) y = a - b;"
            "   else if (a == b) y = a * b;"
            "   else y = (a + b) % (b + 8'd1);"
            " end endmodule",
            [[{"a": 200, "b": 56}, {"a": 9, "b": 9}, {"a": 3, "b": 250}]],
        )

    def test_division_by_zero_yields_zero(self):
        self.diff(
            "module t(a, b, y); input [3:0] a, b; output [3:0] y;"
            " assign y = a / b; endmodule",
            [[{"a": 9, "b": 0}, {"a": 9, "b": 2}]],
        )

    def test_shifts_and_reductions(self):
        self.diff(
            "module t(a, s, y, r); input [7:0] a; input [2:0] s;"
            " output [7:0] y; output r;"
            " assign y = (a << s) | (a >> s);"
            " assign r = ^a & ~&a | ~|a ^ ~^a; endmodule",
            [[{"a": 170, "s": 3}, {"a": 255, "s": 7}, {"a": 0, "s": 1}]],
        )

    def test_concat_repeat_partselect(self):
        self.diff(
            "module t(a, y); input [1:0] a; output [7:0] y;"
            " assign y = {a, {2{~a}}, a[1:0]}; endmodule",
            [[{"a": 2}, {"a": 1}]],
        )

    def test_dynamic_bitselect_read_and_write(self):
        self.diff(
            "module t(a, i, y); input [7:0] a; input [2:0] i; output reg [7:0] y;"
            " always @(*) begin y = 8'd0; y[i] = a[i]; end endmodule",
            [[{"a": 255, "i": 5}, {"a": 128, "i": 7}, {"a": 1, "i": 0}]],
        )

    def test_part_select_write(self):
        self.diff(
            "module t(a, y); input [1:0] a; output reg [3:0] y;"
            " always @(*) begin y = 4'd0; y[3:2] = a; end endmodule",
            [[{"a": 3}, {"a": 1}]],
        )

    def test_ternary_and_logical_ops(self):
        self.diff(
            "module t(a, b, c, y); input a; input [3:0] b, c; output [3:0] y;"
            " assign y = a && b ? b : (a || c ? c : b + c); endmodule",
            [[{"a": 1, "b": 5, "c": 2}, {"a": 0, "b": 0, "c": 9}, {"a": 0, "b": 0, "c": 0}]],
        )

    def test_parameters_in_expressions(self):
        self.diff(
            "module t(a, y); parameter P = 5; input [7:0] a; output [7:0] y;"
            " assign y = a + P; endmodule",
            [[{"a": 3}, {"a": 254}]],
        )

    def test_case_with_middle_default(self):
        # The interpreter keeps scanning later arms before falling back to
        # a default that appears mid-list; the lowering must too.
        self.diff(
            "module t(s, y); input [1:0] s; output reg [1:0] y;"
            " always @(*) case (s)"
            "   2'd0: y = 2'd1;"
            "   default: y = 2'd3;"
            "   2'd2: y = 2'd2;"
            " endcase endmodule",
            [[{"s": 0}, {"s": 1}, {"s": 2}, {"s": 3}]],
        )

    def test_nonblocking_in_comb_block(self):
        self.diff(
            "module t(a, y); input a; output reg y; reg m;"
            " always @(*) begin m <= a; y = m; end endmodule",
            [[{"a": 1}, {"a": 0}, {"a": 1}]],
        )

    def test_sequential_nba_swap(self):
        self.diff(
            "module t(clk, rst_n, a, b); input clk, rst_n; output reg a, b;"
            " always @(posedge clk or negedge rst_n)"
            " if (!rst_n) begin a <= 1'b0; b <= 1'b1; end"
            " else begin a <= b; b <= a; end endmodule",
            [[{"clk": 0, "rst_n": 0}] + [{"clk": 0, "rst_n": 1}] * 4],
        )

    def test_nba_bit_index_read_at_commit(self):
        # ``z[i]`` commits after ``i <= i + 1``: its index is the new ``i``
        # (z = 0, 0, 2, 6, 14, ...), not the one the pass saw (0, 0, 1, 3, 7).
        self.diff(
            "module t(clk, rst_n, a, z); input clk, rst_n; input [7:0] a;"
            " output reg [7:0] z; reg [2:0] i;"
            " always @(posedge clk or negedge rst_n)"
            " if (!rst_n) begin i <= 3'd0; z <= 8'd0; end"
            " else begin i <= i + 3'd1; z[i] <= a[0]; end endmodule",
            [[{"clk": 0, "rst_n": 0, "a": 1}] + [{"clk": 0, "rst_n": 1, "a": 1}] * 6],
        )

    def test_self_referencing_blocking_assign(self):
        # Target appears in its own RHS: the recorded operand value must
        # be the pre-store value in both engines.
        self.diff(
            "module t(clk, q); input clk; output reg [3:0] q;"
            " always @(posedge clk) q <= q + 4'd1; endmodule",
            [[{"clk": 0}] * 5],
        )

    def test_oscillation_raises_in_both_engines(self):
        source = (
            "module t(a, y); input a; output y; wire b;"
            " assign y = ~b | (a & ~a); assign b = y; endmodule"
        )
        for engine in ("interpreted", "vector"):
            with pytest.raises(SimulationError, match="did not settle"):
                Simulator(parse_module(source), engine=engine).run([{"a": 0}])

    def test_unknown_stimulus_raises_in_both_engines(self):
        source = "module t(a, y); input a; output y; assign y = a; endmodule"
        for engine in ("interpreted", "vector"):
            with pytest.raises(SimulationError, match="unknown input 'ghost'"):
                Simulator(parse_module(source), engine=engine).run([{"ghost": 1}])


class TestCompileCache:
    def test_same_module_compiles_once(self):
        clear_compile_cache()
        module = load_design("wb_mux_2")
        first = compile_module(module)
        second = compile_module(module)
        assert first is second
        stats = compile_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_simulators_share_cached_program(self):
        clear_compile_cache()
        module = load_design("wb_mux_2")
        a = Simulator(module)
        b = Simulator(module)
        assert a.program is b.program
        assert compile_cache_stats()["misses"] == 1

    def test_distinct_modules_compile_separately(self):
        clear_compile_cache()
        a = load_design("wb_mux_2")
        b = load_design("wb_mux_2")
        assert compile_module(a) is not compile_module(b)
        assert compile_cache_stats()["entries"] == 2


class TestBatchedRunner:
    def test_run_suite_matches_individual_runs(self, arbiter):
        stimuli = generate_testbench_suite(
            arbiter, 5, TestbenchConfig(n_cycles=12), seed=3
        )
        sim = Simulator(arbiter)
        batched = sim.run_suite(stimuli)
        individual = [sim.run(stimulus) for stimulus in stimuli]
        assert len(batched) == 5
        for got, want in zip(batched, individual):
            assert got.outputs == want.outputs
            assert got.executions == want.executions

    def test_unknown_engine_rejected(self, arbiter):
        assert ENGINES == ("vector", "interpreted")
        for engine in ("jit", "auto", "compiled"):
            with pytest.raises(ValueError, match="unknown engine"):
                Simulator(arbiter, engine=engine)
