"""One-pass settle: levelized comb regions against the interpreter.

A design whose comb processes have a settle order
(:meth:`repro.analysis.DesignIndex.settle_schedule`) compiles to a
*levelized* program, and the vector engine settles it with one comb pass
per cycle instead of the interpreter's source-order fixpoint loop.  Every
lane must still equal the interpreter, event for event: on fuzzed comb
DAGs in shuffled source order, on target programs with mutant variants,
and on the paper designs.  Each condition without a settle order gets a
design here that must take the fixpoint path, match the interpreter and
keep its :class:`~repro.sim.SimulationError` on oscillating rings.
"""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import design_index
from repro.datagen.mutation import apply_mutation, mutate_statement, sample_mutations
from repro.designs import REGISTRY, load_design
from repro.ingest import ingest_directory
from repro.sim import (
    SimulationError,
    Simulator,
    TestbenchConfig,
    compile_module,
    engine_stats,
    generate_testbench_suite,
)
from repro.sim.compiler import MAX_SETTLE_PASSES
from repro.verilog import parse_module
from repro.verilog.ast_nodes import Identifier

from conftest import assert_executions_identical

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "examples" / "corpus"


def ragged(suite):
    """Shorten one lane so lane lengths differ."""
    suite = [list(stimulus) for stimulus in suite]
    suite[1] = suite[1][: max(1, len(suite[1]) // 2)]
    return suite


def assert_trace_equal(actual, expected, record):
    assert actual.stimulus == expected.stimulus
    assert actual.outputs == expected.outputs
    if record:
        assert_executions_identical(actual, expected)


def assert_matches_interpreter(module, stimuli, levelized):
    """Recorded and unrecorded suites equal the interpreter, on the
    expected schedule: one comb pass per suite-cycle, or the fixpoint."""
    assert compile_module(module).levelized is levelized
    oracle = Simulator(module, engine="interpreted")
    simulator = Simulator(module)
    for record in (True, False):
        before = engine_stats()["vector"]
        traces = simulator.run_suite(stimuli, record=record)
        after = engine_stats()["vector"]
        for stimulus, trace in zip(stimuli, traces):
            assert_trace_equal(trace, oracle.run(stimulus, record=record), record)
        passes = after["comb_passes"] - before["comb_passes"]
        fixpoints = after["fixpoint_batches"] - before["fixpoint_batches"]
        suite_cycles = max(len(stimulus) for stimulus in stimuli)
        if levelized:
            assert (passes, fixpoints) == (suite_cycles, 0)
        else:
            # At least one settle pass, plus the instrumented pass.
            assert fixpoints == 1 and passes >= suite_cycles * (1 + record)


def stimuli_for(module, n_traces=4, n_cycles=12, seed=3):
    return ragged(
        generate_testbench_suite(module, n_traces, TestbenchConfig(n_cycles=n_cycles), seed=seed)
    )


# ----------------------------------------------------------------------
# Levelized designs
# ----------------------------------------------------------------------


def comb_dag_source(seed: int) -> str:
    """A random comb DAG over four inputs and a register, its processes
    (continuous assigns and ``always @*`` blocks, some with ``if`` or
    ``case`` over defaulted targets) in shuffled source order."""
    rng = random.Random(seed)
    n_wires = rng.randint(3, 9)
    ops = ["&", "|", "^", "+", "-"]

    def operand(i):
        pool = ["a", "b", "c", "d", "r"] + [f"w{j}" for j in range(i)]
        return rng.choice(pool)

    def rhs(i):
        return f"{operand(i)} {rng.choice(ops)} {operand(i)}"

    processes = []
    i = 0
    while i < n_wires:
        kind = rng.choice(["assign", "block", "if", "case"])
        if kind == "assign" or i + 1 >= n_wires:
            processes.append(f"assign w{i} = {rhs(i)};")
            i += 1
        elif kind == "block":
            processes.append(
                f"always @* begin w{i} = {rhs(i)}; w{i + 1} = {rhs(i + 1)}; end"
            )
            i += 2
        elif kind == "if":
            processes.append(
                f"always @* begin w{i} = {rhs(i)}; w{i + 1} = {rhs(i + 1)};"
                f" if ({operand(i)} > {operand(i)}) w{i + 1} = w{i} ^ {operand(i)}; end"
            )
            i += 2
        else:
            processes.append(
                f"always @* begin w{i} = {rhs(i)};"
                f" case ({operand(i)}[1:0]) 2'd0: w{i} = {rhs(i)};"
                f" 2'd1: w{i} = {operand(i)}; default: w{i} = {operand(i)}; endcase end"
            )
            i += 1
    rng.shuffle(processes)
    decls = " ".join(
        f"{'reg' if any(p.startswith('always') and f'w{j} =' in p for p in processes) else 'wire'}"
        f" [3:0] w{j};"
        for j in range(n_wires)
    )
    return (
        "module dag(clk, a, b, c, d, y, z); input clk; input [3:0] a, b, c, d;"
        f" output [3:0] y, z; reg [3:0] r; {decls} "
        + " ".join(processes)
        + f" always @(posedge clk) r <= w{n_wires - 1} ^ a;"
        f" assign y = w{n_wires - 1}; assign z = r; endmodule"
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_fuzzed_comb_dags_settle_in_one_pass(seed):
    module = parse_module(comb_dag_source(seed))
    assert design_index(module).settle_schedule() is not None
    assert_matches_interpreter(module, stimuli_for(module, seed=seed), levelized=True)


def test_shuffled_chain_settles_in_one_pass():
    # Source order is the reverse of the dependency order: the fixpoint
    # loop needs one pass per link, the levelized program one in all.
    links = 40
    body = " ".join(f"assign w{i} = w{i + 1} + 1;" for i in range(links))
    module = parse_module(
        f"module chain(a, y); input [7:0] a; output [7:0] y;"
        f" wire [7:0] {', '.join(f'w{i}' for i in range(links + 1))};"
        f" {body} assign w{links} = a; assign y = w0; endmodule"
    )
    schedule = design_index(module).settle_schedule()
    assert schedule.passes == links + 1
    assert schedule.order[0] == links  # assign w40 = a
    assert_matches_interpreter(module, stimuli_for(module), levelized=True)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_fuzzed_target_program_lanes_match_mutants(seed):
    module = parse_module(comb_dag_source(seed))
    mutations = sample_mutations(module, {"negation": 2, "operation": 2, "misuse": 2}, seed=seed)
    variants = [mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations]
    stimuli = stimuli_for(module, n_traces=3, n_cycles=8, seed=seed)
    simulator = Simulator(module, variants=variants)
    lanes = [stimulus for _ in range(len(mutations) + 1) for stimulus in stimuli]
    selectors = [k for k in range(len(mutations) + 1) for _ in stimuli]
    try:
        traces = simulator.run_suite(lanes, selectors=selectors)
    except SimulationError:
        # A variant closed an oscillating loop; the program is not levelized.
        assert not simulator.program.levelized
        return
    references = [Simulator(module, engine="interpreted")] + [
        Simulator(apply_mutation(module, m), engine="interpreted") for m in mutations
    ]
    for lane, trace in enumerate(traces):
        expected = references[selectors[lane]].run(lanes[lane])
        assert_trace_equal(trace, expected, record=True)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_paper_designs_are_levelized(name):
    module = load_design(name)
    assert_matches_interpreter(module, stimuli_for(module), levelized=True)


def test_corpus_designs_levelize_except_gray2bin():
    corpus = ingest_directory(CORPUS)
    fallback = [
        name for name in corpus.names() if not compile_module(corpus.module(name)).levelized
    ]
    assert fallback == ["gray2bin"]


# ----------------------------------------------------------------------
# Fallbacks: no settle order, the fixpoint loop
# ----------------------------------------------------------------------

FALLBACKS = {
    # Comb feedback that settles (an AND latch-up).
    "feedback": "module t(a, b, y); input a, b; output y; wire p, q;"
    " assign p = a & q; assign q = b | p; assign y = p ^ q; endmodule",
    # Two comb drivers of disjoint bits of one signal.
    "two_drivers": "module t(a, b, y); input a, b; output [1:0] y; reg [1:0] y;"
    " always @* y[0] = a & b; always @* y[1] = a | b; endmodule",
    # A non-blocking assignment in a comb block.
    "nonblocking": "module t(a, b, y); input a, b; output y; reg q;"
    " always @* q <= a & b; assign y = ~q; endmodule",
    # A comb block reading a signal it assigns later in the pass.
    "reads_later": "module t(a, b, y); input a, b; output y; reg y, t;"
    " always @* begin y = t ^ b; t = a; end endmodule",
    # A comb block reading a signal it assigns only conditionally.
    "reads_conditional": "module t(a, b, y); input a, b; output y; reg y, t;"
    " always @* begin if (a) t = b; y = t ^ a; end endmodule",
    # A process cycle without a signal cycle: the block feeds d, d feeds it.
    "process_cycle": "module t(x, y); input x; output y; reg c, y; wire d;"
    " assign d = ~c; always @* begin c = x; y = d; end endmodule",
    # A latch fed by a later process: the loop's first pass can latch a
    # transient enable.
    "latched_glitch": "module t(a, b, d, y); input a, b, d; output y; reg en, q;"
    " always @* if (en) q = d; always @* en = a & b; assign y = q; endmodule",
}


@pytest.mark.parametrize("name", list(FALLBACKS))
def test_unordered_design_takes_the_fixpoint(name):
    module = parse_module(FALLBACKS[name])
    assert design_index(module).settle_schedule() is None
    stimuli = stimuli_for(module, n_traces=6, n_cycles=16)
    assert_matches_interpreter(module, stimuli, levelized=False)


def test_gray2bin_takes_the_fixpoint():
    module = ingest_directory(CORPUS).module("gray2bin")
    assert design_index(module).settle_schedule() is None
    assert_matches_interpreter(module, stimuli_for(module), levelized=False)


def test_deep_reversed_chain_keeps_the_oscillation_error():
    # Ordered, but the source-order loop runs out of passes before the
    # chain settles, so both engines must raise.
    links = MAX_SETTLE_PASSES + 2
    body = " ".join(f"assign w{i} = w{i + 1} + 1;" for i in range(links))
    module = parse_module(
        f"module chain(a, y); input [7:0] a; output [7:0] y;"
        f" wire [7:0] {', '.join(f'w{i}' for i in range(links + 1))};"
        f" {body} assign w{links} = a; assign y = w0; endmodule"
    )
    assert design_index(module).settle_schedule().passes >= MAX_SETTLE_PASSES
    assert not compile_module(module).levelized
    stimulus = [{"a": 3}, {"a": 9}]
    for engine in ("vector", "interpreted"):
        with pytest.raises(SimulationError, match="did not settle"):
            Simulator(module, engine=engine).run(stimulus)


def test_oscillating_ring_keeps_the_error():
    module = parse_module(
        "module t(a, y); input a; output y; wire r; assign r = a ? ~r : 1'b0;"
        " assign y = r; endmodule"
    )
    assert not compile_module(module).levelized
    quiet = [{"a": 0}, {"a": 0}]
    assert_matches_interpreter(module, [quiet, quiet[:1]], levelized=False)
    for engine in ("vector", "interpreted"):
        with pytest.raises(SimulationError, match="did not settle"):
            Simulator(module, engine=engine).run([{"a": 0}, {"a": 1}])


def mutant_of(source, variant):
    """``source`` parsed with ``variant`` replacing its statement."""
    mutant = parse_module(source)
    mutant.statement_by_id(variant.stmt_id).rhs = variant.rhs
    return mutant


def assert_variant_lanes_match(source, variants, levelized):
    module = parse_module(source)
    simulator = Simulator(module, variants=variants)
    assert simulator.program.levelized is levelized
    stimuli = stimuli_for(module, n_traces=3, n_cycles=10)
    lanes = [stimulus for _ in range(len(variants) + 1) for stimulus in stimuli]
    selectors = [k for k in range(len(variants) + 1) for _ in stimuli]
    before = engine_stats()["vector"]["fixpoint_batches"]
    traces = simulator.run_suite(lanes, selectors=selectors)
    assert engine_stats()["vector"]["fixpoint_batches"] == before + (not levelized)
    modules = [module] + [mutant_of(source, variant) for variant in variants]
    for lane, trace in enumerate(traces):
        oracle = Simulator(modules[selectors[lane]], engine="interpreted")
        assert_trace_equal(trace, oracle.run(lanes[lane]), record=True)


LATER_READ = (
    "module t(x, y, z, out); input [3:0] x, y, z; output [3:0] out; wire [3:0] p, q;"
    " assign p = x & y; assign q = y | z; assign out = p ^ q; endmodule"
)


def _rhs_reads(module, stmt_index, name):
    """A variant of the statement at ``stmt_index`` whose RHS reads ``name``."""
    variant = module.statements()[stmt_index].clone()
    variant.rhs.right = Identifier(name=name)
    return variant


def test_variant_reading_a_later_process_is_ordered_first():
    module = parse_module(LATER_READ)
    # p = x & q reads q, written by the next process: q now settles first.
    later = _rhs_reads(module, 0, "q")
    assert design_index(module).settle_schedule([later]).order == (1, 0, 2)
    assert_variant_lanes_match(LATER_READ, [later], levelized=True)


def test_variants_needing_opposite_orders_take_the_fixpoint():
    module = parse_module(LATER_READ)
    # p = x & q and q = y | p: each alone has an order, not both at once.
    variants = [_rhs_reads(module, 1, "p"), _rhs_reads(module, 0, "q")]
    assert all(design_index(module).settle_schedule([v]) for v in variants)
    assert design_index(module).settle_schedule(variants) is None
    assert_variant_lanes_match(LATER_READ, variants, levelized=False)


LATCH = (
    "module t(en, a, b, d, y); input en; input [3:0] a, b, d; output [3:0] y;"
    " reg [3:0] q, t; always @* if (en) q = d; always @* t = a + b; assign y = q; endmodule"
)


def test_latch_variant_reading_a_later_process_takes_the_fixpoint():
    module = parse_module(LATCH)
    assert compile_module(module).levelized
    # q = t: the latch would read t in the loop's first pass before the
    # later block settles it.
    variant = module.statement_by_id(0).clone()
    variant.rhs = Identifier(name="t")
    assert design_index(module).settle_schedule([variant]) is None
    assert_variant_lanes_match(LATCH, [variant], levelized=False)
