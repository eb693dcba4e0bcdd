"""Differential tests: lockstep vector engine vs the interpreter.

The vector engine's contract is byte-identity per lane: running a suite
through :func:`repro.sim.vector.run_vector_suite` must produce, for
every stimulus, the exact :class:`Trace` the tree-walking interpreter
produces — same outputs, same stimulus echo, and the same recorded
executions event for event, dtypes included, before and after a pickle
round trip.  Suites here are deliberately
ragged and branch-divergent so the predication, join, and recorder-merge
paths all carry real work.  Designs too wide for a 63-bit lane run on
the interpreter; campaigns over them must match ``engine="interpreted"``.

Fuzzed *mutant* lanes run RVDG designs and their ``sample_mutations``
mutants as selector lanes of one target program, over two ragged
suites: every lane's executions must equal the interpreter running
that mutant module alone, and ``Explainer.distinct_samples``
must equal the record loop (the ``check_dedup`` fixture) on shuffled
subsets of one mutant's lanes drawn from both suites, mixed with one
pickled lane and one interpreter trace — one trace set spanning several
suite logs and two one-lane logs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import extract_module_contexts
from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig
from repro.datagen.campaign import CampaignEngine
from repro.datagen.mutation import apply_mutation, mutate_statement, sample_mutations
from repro.sim import (
    SimulationError,
    Simulator,
    TestbenchConfig,
    clear_compile_cache,
    compile_cache_stats,
    compile_module,
    engine_stats,
    generate_testbench_suite,
)
from repro.sim import vector
from repro.sim.vector import field_bits, run_vector_suite, vectorizable
from repro.verilog import parse_module

from conftest import assert_executions_identical


def assert_lane_identical(module, stimuli, record=True):
    """Vector suite == per-stimulus interpreter runs, byte-exact."""
    program = compile_module(module)
    assert vectorizable(program), module.name
    oracle = Simulator(module, engine="interpreted")
    vector_traces = run_vector_suite(module, program, stimuli, record=record)
    assert len(vector_traces) == len(stimuli)
    for stimulus, actual in zip(stimuli, vector_traces):
        assert_trace_byte_equal(actual, oracle.run(stimulus, record=record), record)


def assert_trace_byte_equal(actual, expected, record=True):
    assert actual.design == expected.design
    assert actual.stimulus == expected.stimulus
    assert actual.outputs == expected.outputs
    if not record:
        return
    assert_executions_identical(actual, expected)
    assert_executions_identical(pickle.loads(pickle.dumps(actual)), expected)


def ragged(suite):
    """Truncate/empty a few lanes so cycle counts genuinely differ."""
    suite = [list(stimulus) for stimulus in suite]
    if len(suite) > 2:
        suite[2] = suite[2][: max(1, len(suite[2]) // 2)]
    if len(suite) > 4:
        suite[4] = []
    return suite


# ----------------------------------------------------------------------
# Corpus and random designs
# ----------------------------------------------------------------------


def _corpus_modules():
    import pathlib

    from repro.ingest import ingest_directory

    corpus_dir = pathlib.Path(__file__).resolve().parents[1] / "examples" / "corpus"
    corpus = ingest_directory(corpus_dir)
    return [
        corpus.module(name)
        for name in sorted(corpus.names())
        if vectorizable(compile_module(corpus.module(name)))
    ]


@pytest.mark.parametrize("module", _corpus_modules(), ids=lambda m: m.name)
def test_corpus_design_lane_identical(module):
    suite = ragged(
        generate_testbench_suite(module, 6, TestbenchConfig(n_cycles=23), seed=7)
    )
    assert_lane_identical(module, suite)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_rvdg_lane_identical(seed):
    generator = RandomVerilogDesignGenerator(
        RVDGConfig(n_inputs=4, n_state=3, n_outputs=2, n_branches=3), seed=seed
    )
    module = generator.generate("d")
    suite = ragged(
        generate_testbench_suite(module, 5, TestbenchConfig(n_cycles=12), seed=seed)
    )
    assert_lane_identical(module, suite)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_rvdg_lane_identical_without_recording(seed):
    generator = RandomVerilogDesignGenerator(
        RVDGConfig(n_inputs=3, n_state=2, n_outputs=2, n_branches=2), seed=seed
    )
    module = generator.generate("d")
    suite = generate_testbench_suite(module, 4, TestbenchConfig(n_cycles=10), seed=3)
    assert_lane_identical(module, suite, record=False)


# ----------------------------------------------------------------------
# Fuzzed mutant lanes: target programs vs per-mutant interpreter runs
# ----------------------------------------------------------------------

N_STIMULI = 5
N_CYCLES = 8


def _design(seed: int):
    """An RVDG design, its mutants, and their lockstep target program."""
    module = RandomVerilogDesignGenerator(
        RVDGConfig(n_inputs=4, n_state=3, n_outputs=2, n_branches=3), seed=seed
    ).generate("d")
    mutations = sample_mutations(
        module, {"negation": 2, "operation": 2, "misuse": 2}, seed=seed
    )
    assume(mutations)
    variants = [
        mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations
    ]
    simulator = Simulator(module, engine="vector", variants=variants)
    assume(simulator.lockstep)
    modules = [module] + [apply_mutation(module, m) for m in mutations]
    return modules, simulator


def _suite(module, modules, simulator, seed):
    """One ragged stimulus suite run as every variant's lanes."""
    stimuli = ragged(
        generate_testbench_suite(
            module, N_STIMULI, TestbenchConfig(n_cycles=N_CYCLES), seed=seed
        )
    )
    lanes = [stimulus for _ in modules for stimulus in stimuli]
    selectors = [k for k in range(len(modules)) for _ in stimuli]
    try:
        traces = simulator.run_suite(lanes, selectors=selectors)
    except SimulationError:
        # Some lane oscillates: its mutant alone must fail the same way.
        failed = 0
        for stimulus, selector in zip(lanes, selectors):
            try:
                Simulator(modules[selector], engine="interpreted").run(stimulus)
            except SimulationError:
                failed += 1
        assert failed
        assume(False)
    return traces, selectors, lanes


@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
@settings(max_examples=12, deadline=None)
def test_mutant_lanes_match_per_mutant_oracles(check_dedup, seed, data):
    modules, simulator = _design(seed)
    suites = [_suite(modules[0], modules, simulator, seed + k) for k in range(2)]

    # Dedup first, while every lane is still an uncompacted log view.
    variant = data.draw(st.integers(0, len(modules) - 1), label="variant")
    module = modules[variant]
    lanes = [
        trace
        for traces, selectors, _ in suites
        for trace, selector in zip(traces, selectors)
        if selector == variant
    ]
    contexts = extract_module_contexts(module.statements())
    stimulus = generate_testbench_suite(
        module, 1, TestbenchConfig(n_cycles=N_CYCLES), seed=seed + 2
    )[0]
    interpreted = Simulator(module, engine="interpreted").run(stimulus)
    picked = data.draw(
        st.lists(st.sampled_from(range(len(lanes))), min_size=1, max_size=8),
        label="lanes",
    )
    trace_set = [lanes[index] for index in picked]
    trace_set.append(pickle.loads(pickle.dumps(lanes[picked[0]])))
    trace_set.append(interpreted)
    trace_set = data.draw(st.permutations(trace_set), label="order")
    restrict_to = data.draw(
        st.none() | st.sets(st.sampled_from(sorted(contexts))).map(frozenset)
        if contexts
        else st.none(),
        label="restrict_to",
    )
    check_dedup(contexts, trace_set, restrict_to)

    for traces, selectors, stimuli in suites:
        for trace, selector, lane_stimulus in zip(traces, selectors, stimuli):
            oracle = Simulator(modules[selector], engine="interpreted")
            assert_trace_byte_equal(trace, oracle.run(lane_stimulus))


# ----------------------------------------------------------------------
# Focused corners: predication, zero divisors, part-selects
# ----------------------------------------------------------------------


class TestPredicationCorners:
    def test_divergent_if_branches_across_lanes(self):
        module = parse_module(
            "module t(input clk, input [3:0] a, output reg [3:0] y);"
            " always @(*) begin"
            "   if (a > 7) y = a - 4'd7;"
            "   else y = a + 4'd1;"
            " end endmodule"
        )
        # Half the lanes take the then-arm every cycle, half the else-arm,
        # and two lanes alternate — joins see genuinely mixed masks.
        stimuli = [
            [{"clk": 0, "a": 15} for _ in range(6)],
            [{"clk": 0, "a": 0} for _ in range(6)],
            [{"clk": 0, "a": 15 if c % 2 else 0} for c in range(6)],
            [{"clk": 0, "a": 0 if c % 2 else 15} for c in range(6)],
        ]
        assert_lane_identical(module, stimuli)

    def test_divergent_case_items_across_lanes(self):
        module = parse_module(
            "module t(input clk, input [1:0] sel, input [3:0] a,"
            " output reg [3:0] y);"
            " always @(*) begin"
            "   case (sel)"
            "     2'd0: y = a;"
            "     2'd1: y = a + 4'd1;"
            "     2'd2: y = ~a;"
            "     default: y = 4'd9;"
            "   endcase"
            " end endmodule"
        )
        stimuli = [
            [{"clk": 0, "sel": lane, "a": (lane * 3 + c) % 16} for c in range(8)]
            for lane in range(4)
        ]
        assert_lane_identical(module, stimuli)

    def test_division_and_modulo_by_zero_per_lane(self):
        # Verilog x/0 and x%0 are defined as 0 two-state here; only some
        # lanes hit the zero divisor, so the skip-lane helper is load-bearing.
        module = parse_module(
            "module t(input clk, input [3:0] a, input [3:0] b,"
            " output [3:0] q, output [3:0] r);"
            " assign q = a / b;"
            " assign r = a % b;"
            " endmodule"
        )
        stimuli = [
            [{"clk": 0, "a": 9, "b": 0} for _ in range(4)],
            [{"clk": 0, "a": 9, "b": 2} for _ in range(4)],
            [{"clk": 0, "a": 13, "b": c % 3} for c in range(4)],
        ]
        assert_lane_identical(module, stimuli)

    def test_part_select_and_bit_select_stores(self):
        module = parse_module(
            "module t(input clk, input [7:0] a, input [2:0] i,"
            " output reg [7:0] y, output reg [7:0] z);"
            " always @(posedge clk) begin"
            "   y[3:0] <= a[7:4];"
            "   y[7:4] <= a[3:0];"
            "   z[i] <= a[0];"
            " end endmodule"
        )
        stimuli = [
            [{"clk": 0, "a": (lane * 37 + c * 11) % 256, "i": (lane + c) % 8}
             for c in range(7)]
            for lane in range(5)
        ]
        assert_lane_identical(module, stimuli)

    def test_nba_bit_stores_under_divergent_arms(self):
        # Lanes take either arm of the ``if`` (both write a bit of ``z``)
        # and case arms 0 or 1, never 3; every ``z[...]`` index is read at
        # commit, after ``i <= i + 1``.
        module = parse_module(
            "module t(input clk, input rst_n, input s, input [1:0] sel,"
            " input [7:0] a, output reg [7:0] z);"
            " reg [2:0] i;"
            " always @(posedge clk or negedge rst_n)"
            "   if (!rst_n) begin i <= 3'd0; z <= 8'd0; end"
            "   else begin"
            "     i <= i + 3'd1;"
            "     if (s) z[i] <= a[0];"
            "     else z[i + 3'd2] <= a[1];"
            "     case (sel)"
            "       2'd0: z[i] <= ~a[2];"
            "       2'd1: z[i + 3'd1] <= a[3];"
            "       2'd3: z[i] <= 1'b1;"
            "     endcase"
            "   end endmodule"
        )
        stimuli = [
            [{"clk": 0, "rst_n": 0, "s": 0, "sel": 0, "a": 0}]
            + [
                {
                    "clk": 0,
                    "rst_n": 1,
                    "s": (lane + c) % 2 if lane > 1 else lane,
                    "sel": (lane // 2 + c) % 2,
                    "a": (lane * 53 + c * 29) % 256,
                }
                for c in range(9)
            ]
            for lane in range(5)
        ]
        assert_lane_identical(module, stimuli)

    def test_ragged_suite_with_empty_lane(self):
        module = parse_module(
            "module t(input clk, input rst_n, input [3:0] a,"
            " output reg [3:0] acc);"
            " always @(posedge clk) begin"
            "   if (!rst_n) acc <= 4'd0;"
            "   else acc <= acc + a;"
            " end endmodule"
        )
        suite = list(
            generate_testbench_suite(module, 6, TestbenchConfig(n_cycles=15), seed=11)
        )
        suite[0] = suite[0][:1]
        suite[3] = []
        suite[5] = suite[5][:9]
        assert_lane_identical(module, suite)

    def test_repeated_and_partial_stimuli(self):
        """Lanes sharing one stimulus object, frames that drive only some
        inputs (the rest hold), and out-of-width values all pack as the
        interpreter applies them."""
        module = parse_module(
            "module t(input clk, input [3:0] a, input [3:0] b,"
            " output reg [3:0] acc, output [3:0] y);"
            " assign y = a ^ b;"
            " always @(posedge clk) acc <= acc + (a & b);"
            " endmodule"
        )
        shared = [{"a": 3, "b": 5}, {"a": 18}, {}, {"b": -1}, {"a": 7, "b": 2}]
        other = [{"b": 9}, {"a": 1, "b": 1}, {"a": 4}]
        assert_lane_identical(module, [shared, other, shared, [], shared[:2]])

    def test_unknown_input_rejected(self):
        module = parse_module("module t(input a, output y); assign y = ~a; endmodule")
        program = compile_module(module)
        with pytest.raises(SimulationError, match="unknown input 'z'"):
            run_vector_suite(module, program, [[{"a": 1}], [{"z": 1}]])

    def test_packing_ignores_byte_order(self):
        from repro.sim.vector import _pack

        for field in (8, 16, 32, 64):
            values = [1, (1 << field) - 1, 5, (1 << (field - 1)) + 3]
            expected = sum(value << (field * lane) for lane, value in enumerate(values))
            for dtype in ("<u8", ">u8"):
                assert _pack(np.array(values, dtype=dtype), field) == expected


# ----------------------------------------------------------------------
# Engine selection, fallback, counters, suite hygiene
# ----------------------------------------------------------------------

WIDE_SOURCE = (
    "module w(input clk, input [63:0] a, output [63:0] y);"
    " assign y = ~a; endmodule"
)


class TestEngineRouting:
    def test_wide_design_is_not_vectorizable(self):
        program = compile_module(parse_module(WIDE_SOURCE))
        assert not vectorizable(program)

    def test_run_vector_suite_refuses_wide_program(self):
        module = parse_module(
            "module w(input [63:0] a, output [63:0] y);"
            " assign y = a + 64'd1; endmodule"
        )
        stimulus = [{"a": 2**63 + 5}]
        with pytest.raises(ValueError, match="63-bit lanes"):
            run_vector_suite(module, compile_module(module), [stimulus])
        trace = Simulator(module, engine="vector").run(stimulus)
        assert trace.outputs[0]["y"] == 2**63 + 6
        assert trace.outputs == Simulator(module, engine="interpreted").run(
            stimulus
        ).outputs

    def test_wide_design_falls_back_to_scalar(self):
        module = parse_module(WIDE_SOURCE)
        before = engine_stats()
        sim = Simulator(module, engine="vector")
        assert not sim.lockstep
        suite = [[{"a": (1 << 63) + lane}] for lane in range(3)]
        traces = sim.run_suite(suite)
        sim.run_suite(suite)
        after = engine_stats()
        assert [t.outputs[0]["y"] for t in traces] == [
            (~((1 << 63) + lane)) & ((1 << 64) - 1) for lane in range(3)
        ]
        # The audit runs once per simulator, not once per suite.
        assert (
            after["vector"]["scalar_fallbacks"]
            == before["vector"]["scalar_fallbacks"] + 1
        )
        assert after["vector"]["batches"] == before["vector"]["batches"]
        assert after["interpreted"]["runs"] == before["interpreted"]["runs"] + 6

    def test_vector_counters_track_lanes_and_cycles(self, arbiter):
        sim = Simulator(arbiter, engine="vector")
        suite = generate_testbench_suite(
            arbiter, 3, TestbenchConfig(n_cycles=5), seed=2
        )
        before = engine_stats()
        sim.run_suite(suite)
        after = engine_stats()
        assert after["vector"]["batches"] == before["vector"]["batches"] + 1
        assert after["vector"]["lanes"] == before["vector"]["lanes"] + 3
        assert after["vector"]["cycles"] == before["vector"]["cycles"] + 15

    def test_single_run_is_a_one_lane_suite(self, arbiter):
        sim = Simulator(arbiter)
        assert sim.engine == "vector" and sim.lockstep
        (stimulus,) = generate_testbench_suite(
            arbiter, 1, TestbenchConfig(n_cycles=4), seed=2
        )
        before = engine_stats()
        trace = sim.run(stimulus)
        after = engine_stats()
        assert after["vector"]["batches"] == before["vector"]["batches"] + 1
        assert after["vector"]["lanes"] == before["vector"]["lanes"] + 1
        assert after["interpreted"]["runs"] == before["interpreted"]["runs"]
        oracle = Simulator(arbiter, engine="interpreted")
        assert_trace_byte_equal(trace, oracle.run(stimulus))

    def test_simulator_suite_matches_interpreter(self, arbiter):
        suite = ragged(
            generate_testbench_suite(arbiter, 5, TestbenchConfig(n_cycles=9), seed=4)
        )
        oracle = Simulator(arbiter, engine="interpreted").run_suite(suite)
        actual = Simulator(arbiter, engine="vector").run_suite(suite)
        for got, want in zip(actual, oracle, strict=True):
            assert_trace_byte_equal(got, want)

    def test_empty_suite(self, arbiter):
        assert Simulator(arbiter, engine="vector").run_suite([]) == []


class TestSuiteHygiene:
    def test_suite_compiles_exactly_once(self, arbiter):
        clear_compile_cache()
        sim = Simulator(arbiter, engine="vector")
        suite = generate_testbench_suite(
            arbiter, 4, TestbenchConfig(n_cycles=6), seed=5
        )
        sim.run_suite(suite)
        stats = compile_cache_stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 1

    def test_mixed_module_suite_rejected(self, arbiter):
        other = parse_module(
            "module o(input clk, input [3:0] p, output [3:0] q);"
            " assign q = ~p; endmodule"
        )
        sim = Simulator(arbiter, engine="vector")
        foreign = generate_testbench_suite(
            other, 2, TestbenchConfig(n_cycles=3), seed=0
        )
        with pytest.raises(SimulationError, match="mixed-module"):
            sim.run_suite(foreign)

    def test_mutated_module_detected_mid_suite(self, arbiter):
        sim = Simulator(arbiter, engine="vector")
        clear_compile_cache()  # evicts arbiter's program entry
        suite = generate_testbench_suite(
            arbiter, 2, TestbenchConfig(n_cycles=3), seed=0
        )
        with pytest.raises(SimulationError, match="recompiled mid-suite"):
            sim.run_suite(suite)


# ----------------------------------------------------------------------
# Campaign outcomes: vector vs the interpreter oracle
# ----------------------------------------------------------------------

WIDE_ACCUMULATOR = (
    "module wide_acc(input clk, input rst_n, input [63:0] a, input [63:0] b,"
    " output reg [63:0] acc, output [63:0] y);"
    " assign y = a ^ b;"
    " always @(posedge clk or negedge rst_n)"
    "   if (!rst_n) acc <= 64'd0;"
    "   else acc <= acc + (a & b);"
    " endmodule"
)


def campaign_outcomes(localizer, module, target, mutations, engine):
    campaign = CampaignEngine(
        localizer,
        n_traces=6,
        testbench_config=TestbenchConfig(n_cycles=8, engine=engine),
        seed=3,
    )
    return campaign.run(module, target, mutations).outcomes


def assert_same_outcomes(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.observable == want.observable
        assert got.localized == want.localized
        assert got.rank == want.rank
        assert got.suspiciousness == want.suspiciousness
        assert got.n_failing == want.n_failing
        assert got.n_correct == want.n_correct
        assert got.error == want.error


class TestCampaignBitIdentity:
    def test_rankings_bit_identical_vector_vs_interpreted(self, localizer, arbiter):
        mutations = sample_mutations(
            arbiter, {"negation": 2, "operation": 2, "misuse": 1}, seed=1
        )
        assert_same_outcomes(
            campaign_outcomes(localizer, arbiter, "gnt1", mutations, "vector"),
            campaign_outcomes(localizer, arbiter, "gnt1", mutations, "interpreted"),
        )

    def test_wide_design_campaign_matches_interpreted(self, localizer):
        module = parse_module(WIDE_ACCUMULATOR)
        mutations = sample_mutations(
            module, {"negation": 2, "operation": 2, "misuse": 1}, seed=1
        )
        before = engine_stats()["vector"]
        via_vector = campaign_outcomes(localizer, module, "acc", mutations, "vector")
        after = engine_stats()["vector"]
        # Golden and every mutant fail the lane audit: nothing ran in lockstep.
        assert after["scalar_fallbacks"] > before["scalar_fallbacks"]
        assert after["batches"] == before["batches"]
        assert any(outcome.observable for outcome in via_vector)
        assert_same_outcomes(
            via_vector,
            campaign_outcomes(localizer, module, "acc", mutations, "interpreted"),
        )


# ----------------------------------------------------------------------
# Lane field widths: the same lanes at every field a program fits
# ----------------------------------------------------------------------

FIELDS = (8, 16, 32, 64)

#: Literal shift counts and select positions on both sides of every
#: field's guard bit (F - 1) and width (F).
SHIFTS = (1, 6, 7, 8, 15, 16, 31, 32, 63, 64, 70)


def field_design(width: int):
    """A ``width``-bit design exercising every SWAR corner: carries and
    borrows, compares, NEG/NOT, per-lane MUL/DIV/MOD and variable shifts,
    reductions, literal shifts and bit/part selects past every field, a
    parameter operand, and dynamic, literal and part non-blocking stores.
    Nothing in it is wider than ``width`` bits."""
    w = width
    ports = [
        "input clk", "input rst", f"input [{w - 1}:0] a", f"input [{w - 1}:0] b",
        "input [6:0] k", f"output reg [{w - 1}:0] acc",
        f"output reg [{w - 1}:0] bits", f"output reg [{w - 1}:0] part",
    ]
    body = [f"parameter P = {w}'d{(1 << (w - 1)) + 1};"]
    exprs = {
        "add": (w, "a + b"), "sub": (w, "a - b"), "neg": (w, "-a"),
        "inv": (w, "~a"), "xnor": (w, "a ~^ b"), "lt": (1, "a < b"),
        "le": (1, "a <= b"), "gt": (1, "a > b"), "ge": (1, "a >= b"),
        "eq": (1, "a == b"), "ne": (1, "a != b"), "land": (1, "a && b"),
        "lnot": (1, "!a"), "mul": (w, "a * b"), "div": (w, "a / b"),
        "mod": (w, "a % b"), "shlv": (w, "a << k"), "shrv": (w, "a >> k"),
        "bitv": (1, "a[k]"), "rand": (1, "&a"), "ror": (1, "|a"),
        "rxor": (1, "^a"), "rnxor": (1, "~^a"), "rnand": (1, "~&a"),
        "sel": (w, "a > b ? a - b : b - a"), "cat": (7, "{a[2:0], b[3:0]}"),
        "rep": (6, "{3{a[1:0]}}"), "par": (w, "a ^ P"),
    }
    for c in SHIFTS:
        exprs[f"shl{c}"] = (w, f"a << {c}")
        exprs[f"shr{c}"] = (w, f"a >> {c}")
        exprs[f"bit{c}"] = (1, f"a[{c}]")
        exprs[f"part{c}"] = (4, f"a[{c + 3}:{c}]")
    for name, (out_width, expr) in exprs.items():
        vector_range = f"[{out_width - 1}:0] " if out_width > 1 else ""
        ports.append(f"output {vector_range}y_{name}")
        body.append(f"assign y_{name} = {expr};")
    body.append(
        "always @(posedge clk) begin"
        f" if (rst) acc <= {w}'d0; else acc <= acc - b;"
        " bits[k] <= a[0]; bits[70] <= b[0]; bits[3] <= b[1];"
        " part[5:2] <= b[3:0];"
        " end"
    )
    return parse_module(
        f"module fw({', '.join(ports)});\n" + "\n".join(body) + "\nendmodule\n"
    )


def boundary_suite(module, width: int) -> list[list[dict[str, int]]]:
    """Every pair of boundary values (0, 1, the top bit, all ones and
    one less) with shift counts around every field, plus random lanes;
    ragged, with an empty lane."""
    top = (1 << width) - 1
    values = [0, 1, 1 << (width - 1), top - 1, top]
    counts = [0, 1, width - 1, width, *(f - 1 for f in FIELDS), *FIELDS, 127]
    lanes = [
        [
            {"rst": int(cycle == 0), "a": a, "b": b, "k": counts[(i + cycle) % len(counts)]}
            for cycle in range(4)
        ]
        for i, (a, b) in enumerate((a, b) for a in values for b in values)
    ]
    lanes += ragged(
        generate_testbench_suite(module, 5, TestbenchConfig(n_cycles=6), seed=width)
    )
    lanes[3] = lanes[3][:2]
    return lanes


def force_field(monkeypatch, field: int) -> None:
    """Programs audited from here on pack at ``field`` bits when their
    values fit it (and fail the audit when they do not)."""
    monkeypatch.setattr(
        vector, "_field_bits", lambda width: field if width < field else 0
    )


def assert_selector_lanes_identical(module, mutations, stimuli, field):
    """Every (variant, stimulus) lane of a ``field``-bit target program
    == that mutant module alone on the interpreter."""
    variants = [mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations]
    simulator = Simulator(module, engine="vector", variants=variants)
    assert simulator.lockstep and field_bits(simulator.program) == field
    lanes = [stimulus for _ in range(len(variants) + 1) for stimulus in stimuli]
    selectors = [k for k in range(len(variants) + 1) for _ in stimuli]
    oracles = [Simulator(module, engine="interpreted")] + [
        Simulator(apply_mutation(module, m), engine="interpreted") for m in mutations
    ]
    traces = simulator.run_suite(lanes, selectors=selectors)
    for trace, lane, selector in zip(traces, lanes, selectors):
        assert_trace_byte_equal(trace, oracles[selector].run(lane))


class TestFieldWidths:
    def test_paper_designs_pack_at_the_narrowest_field(self):
        from repro.designs import REGISTRY, load_design

        fields = {
            name: field_bits(compile_module(load_design(name))) for name in REGISTRY
        }
        assert fields == {
            "ibex_controller": 8,
            "wb_mux_2": 16,
            "usbf_pl": 16,
            "usbf_idma": 64,
        }

    def test_selector_counts_at_its_largest_variant(self):
        """The selector slot is declared 32 bits wide but holds variant
        indices: a narrow design's target program stays narrow."""
        module = field_design(7)
        mutations = sample_mutations(module, {"negation": 2}, seed=1)
        variants = [
            mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations
        ]
        program = Simulator(module, variants=variants).program
        assert field_bits(program) == 8
        # A selector past the last variant could overflow a narrow lane.
        stimuli = [[{"a": 1}], [{"a": 2}]]
        with pytest.raises(ValueError, match="one variant per stimulus"):
            run_vector_suite(module, program, stimuli, selectors=[0, len(variants) + 1])

    def test_folded_literals_count_where_they_are_read(self):
        """A literal-only subexpression folds at translate time: a wide
        intermediate (``~M`` of an unsized parameter) leaves the lanes
        narrow, a wide literal that a runtime compare reads does not."""
        header = "module t(input [7:0] a, output y); parameter M = 240;"
        narrow = parse_module(header + " assign y = (a & M) == (8'd5 & ~M); endmodule")
        wide = parse_module(header + " assign y = a == ~M; endmodule")
        assert field_bits(compile_module(narrow)) == 16
        assert field_bits(compile_module(wide)) == 64
        stimuli = [[{"a": value}, {"a": 255 - value}] for value in (0, 5, 15, 240, 255)]
        for module in (narrow, wide):
            assert_lane_identical(module, stimuli)

    @pytest.mark.parametrize("width", [7, 8, 15, 16, 31, 32, 63])
    def test_lanes_identical_at_every_field_that_fits(self, width, monkeypatch):
        """At the widest value each field holds and one bit over it, the
        natural field is the narrowest that fits, and plain and selector
        lanes at it and at every wider field equal the interpreter."""
        natural = field_bits(compile_module(field_design(width)))
        assert natural == min(f for f in FIELDS if width < f)
        for field in FIELDS:
            if field < natural:
                continue
            force_field(monkeypatch, field)
            module = field_design(width)
            assert field_bits(compile_module(module)) == field
            stimuli = boundary_suite(module, width)
            assert_lane_identical(module, stimuli)
            mutations = sample_mutations(
                module,
                {"negation": 2, "operation": 2, "misuse": 2},
                seed=width,
                min_operands=2,
            )
            assert_selector_lanes_identical(module, mutations, stimuli[::4], field)

    @pytest.mark.parametrize("name", ["ibex_controller", "wb_mux_2", "usbf_pl"])
    def test_narrow_paper_design_forced_to_64_bit_lanes(self, name, monkeypatch):
        """A narrow paper design's Table-III-shaped target program, at its
        own field and forced to 64-bit lanes: both equal the interpreter."""
        from repro.designs import load_design

        def target(module):
            mutations = sample_mutations(
                module, {"negation": 2, "operation": 2, "misuse": 3}, seed=29
            )
            variants = [
                mutate_statement(module.statement_by_id(m.stmt_id), m)
                for m in mutations
            ]
            return mutations, Simulator(module, variants=variants).program

        natural = field_bits(target(load_design(name))[1])
        assert natural < 64
        for field in (natural, 64):
            force_field(monkeypatch, field)
            module = load_design(name)
            mutations, _program = target(module)
            stimuli = ragged(
                generate_testbench_suite(module, 5, TestbenchConfig(n_cycles=12), seed=3)
            )
            assert_selector_lanes_identical(module, mutations, stimuli, field)
