"""Target programs: a campaign target's mutants as selector lanes.

:func:`repro.sim.compiler.compile_target_program` lowers a design plus
one replacement statement per mutant into a single program; a lane run
with selector ``k`` must be byte-identical — outputs, stimulus echo, and
recorded executions event for event, dtypes included, also after a
pickle round trip — to simulating the mutant module on its own, on the
vector engine and on the interpreter.
Campaign outcomes built on target programs must equal the per-mutant
reference path on the interpreter mutant for mutant, including the
oscillation error semantics.  A campaign program records only its
record set (the union of its mutants' static slices of the target), so
its traces must hold exactly the per-mutant recordings' events of those
statements.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compute_static_slice
from repro.datagen import RandomVerilogDesignGenerator, RVDGConfig, campaign
from repro.datagen.campaign import (
    SuiteMemo,
    TargetSimulation,
    _simulate_mutant,
)
from repro.datagen.mutation import (
    Mutation,
    apply_mutation,
    mutant_index,
    mutate_statement,
    sample_mutations,
)
from repro.designs import REGISTRY, design_info, load_design
from repro.sim import (
    Simulator,
    TestbenchConfig,
    compile_cache_stats,
    engine_stats,
    generate_testbench_suite,
)
from repro.sim.compiler import SELECTOR, compile_target_program
from repro.verilog import format_module, parse_module
from repro.verilog.ast_nodes import Number
from repro.verilog.printer import statement_source

from conftest import ARBITER_SOURCE, assert_executions_identical

TABLE3_PLAN = {"negation": 2, "operation": 2, "misuse": 3}


def assert_trace_byte_equal(actual, expected, record_set=None):
    assert actual.design == expected.design
    assert actual.stimulus == expected.stimulus
    assert actual.outputs == expected.outputs
    assert_executions_identical(actual, expected, record_set)
    assert_executions_identical(pickle.loads(pickle.dumps(actual)), expected, record_set)


def ragged(suite):
    """Shorten one lane and empty another so lane lengths differ."""
    suite = [list(stimulus) for stimulus in suite]
    suite[2] = suite[2][: max(1, len(suite[2]) // 2)]
    suite[4] = []
    return suite


def _variants(module, mutations):
    return [mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations]


def assert_lanes_match_mutants(module, mutations, stimuli, reference="vector"):
    """Every (mutant, stimulus) lane == the mutant module run alone on
    the ``reference`` engine."""
    simulator = Simulator(module, variants=_variants(module, mutations))
    assert simulator.lockstep
    lanes = [stimulus for _ in mutations for stimulus in stimuli] + list(stimuli)
    selectors = [k for k in range(1, len(mutations) + 1) for _ in stimuli]
    traces = simulator.run_suite(lanes, selectors=selectors + [0] * len(stimuli))
    # An arm no lane took logs nothing: every suite event has a lane.
    log, _lane = traces[0].execution_log()
    assert log.active.any(axis=1).all()
    references = [
        Simulator(apply_mutation(module, m), engine=reference) for m in mutations
    ]
    references.append(Simulator(module, engine=reference))
    for index, trace in enumerate(traces):
        reference = references[index // len(stimuli)]
        assert_trace_byte_equal(trace, reference.run(lanes[index]))


def _table3_targets():
    return [(name, target) for name in REGISTRY for target in design_info(name).targets]


@pytest.mark.parametrize("name,target", _table3_targets())
@pytest.mark.parametrize("reference", ["vector", "interpreted"])
def test_paper_target_lanes_identical(name, target, reference):
    module = load_design(name)
    cone = compute_static_slice(module, target).stmt_ids
    mutations = sample_mutations(
        module, TABLE3_PLAN, seed=29, restrict_to=cone, min_operands=2
    )
    stimuli = ragged(
        generate_testbench_suite(module, 5, TestbenchConfig(n_cycles=12), seed=3)
    )
    assert_lanes_match_mutants(module, mutations, stimuli, reference)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_rvdg_mutant_lanes_identical(seed):
    module = RandomVerilogDesignGenerator(
        RVDGConfig(n_inputs=4, n_state=3, n_outputs=2, n_branches=3), seed=seed
    ).generate("d")
    mutations = sample_mutations(
        module, {"negation": 2, "operation": 2, "misuse": 2}, seed=seed
    )
    stimuli = generate_testbench_suite(module, 3, TestbenchConfig(n_cycles=10), seed=seed)
    assert_lanes_match_mutants(module, mutations, stimuli, "interpreted")


#: ``(source, levelized, [(kind, statement index, node index,
#: replacement), ...])``: three variants of the first named statement
#: that read its signals (one shared shape row) and a variant of another
#: statement, all in one suite with golden lanes.
MIXED_SELECTORS = {
    # Settle order (p, q, y, z) differs from source and statement order.
    "reordered": (
        "module t(a, b, c, y, z); input [3:0] a, b, c; output [3:0] y, z;"
        " wire [3:0] p, q; assign y = p ^ q; assign p = a & b;"
        " assign q = b | c; assign z = y + a; endmodule",
        True,
        [
            ("negation", 0, 1, "insert"),
            ("negation", 0, 2, "insert"),
            ("operation", 0, 0, "&"),
            ("operation", 1, 0, "|"),
        ],
    ),
    # A branchy comb block: records under predicated lanes.
    "arbiter": (
        ARBITER_SOURCE,
        True,
        [
            ("negation", 2, 1, "insert"),
            ("negation", 2, 2, "remove"),
            ("operation", 2, 0, "|"),
            ("operation", 5, 0, "|"),
        ],
    ),
    # Comb feedback: no settle order, the fixpoint loop.
    "feedback": (
        "module t(a, b, y); input a, b; output y; wire p, q;"
        " assign p = a & q; assign q = b | p; assign y = p ^ q; endmodule",
        False,
        [
            ("negation", 2, 1, "insert"),
            ("negation", 2, 2, "insert"),
            ("operation", 2, 0, "&"),
            ("operation", 1, 0, "&"),
        ],
    ),
}


@pytest.mark.parametrize("name", list(MIXED_SELECTORS))
def test_mixed_selectors_sharing_a_shape_row(name):
    source, levelized, specs = MIXED_SELECTORS[name]
    module = parse_module(source)
    statements = module.statements()
    mutations = [
        Mutation(kind, statements[index].stmt_id, node, "", replacement)
        for kind, index, node, replacement in specs
    ]
    program = compile_target_program(module, _variants(module, mutations))
    assert program.levelized is levelized
    shared = mutations[0].stmt_id
    assert [row[0] for row in program.shapes].count(shared) == 1
    stimuli = ragged(
        generate_testbench_suite(module, 5, TestbenchConfig(n_cycles=10), seed=5)
    )
    assert_lanes_match_mutants(module, mutations, stimuli, "interpreted")


class TestProgramShape:
    def test_selector_slot_is_not_a_signal(self, arbiter):
        mutations = sample_mutations(arbiter, {"negation": 2}, seed=1)
        program = compile_target_program(arbiter, _variants(arbiter, mutations))
        assert program.names[program.selector_slot] == SELECTOR
        assert SELECTOR not in arbiter.decls
        assert program.n_variants == len(mutations)
        assert [name for name, _ in program.output_slots] == arbiter.outputs

    def test_shared_shape_rows_unless_operands_differ(self, arbiter):
        stmt = arbiter.statements()[2]  # gnt1 = req1 & ~req2
        negate = Mutation("negation", stmt.stmt_id, 1, "", "insert")
        misuse = Mutation("misuse", stmt.stmt_id, 1, "", "gnt2")
        program = compile_target_program(
            arbiter, _variants(arbiter, [negate, misuse])
        )
        rows = [shape for shape in program.shapes if shape[0] == stmt.stmt_id]
        # The negation reads the same operands as the golden statement.
        assert len(rows) == 2
        assert {row[2] for row in rows} == {("req1", "req2"), ("gnt2", "req2")}

    def test_unknown_statement_rejected(self, arbiter):
        variant = arbiter.statements()[0].clone()
        variant.stmt_id = 999
        with pytest.raises(ValueError, match="unknown statement"):
            compile_target_program(arbiter, [variant])

    def test_changed_target_rejected(self, arbiter):
        variant = arbiter.statements()[2].clone()
        variant.target.name = "gnt2"
        with pytest.raises(ValueError, match="kind or target"):
            compile_target_program(arbiter, [variant])

    def test_selector_out_of_range(self, arbiter):
        mutations = sample_mutations(arbiter, {"negation": 1}, seed=1)
        simulator = Simulator(arbiter, variants=_variants(arbiter, mutations))
        stimuli = generate_testbench_suite(arbiter, 2, TestbenchConfig(n_cycles=3))
        with pytest.raises(ValueError, match="out of range"):
            simulator.run_suite(stimuli, selectors=[0, 2])
        with pytest.raises(ValueError, match="2 selectors"):
            simulator.run_suite(stimuli[:1], selectors=[0, 1])
        with pytest.raises(ValueError, match="out of range"):
            Simulator(arbiter).run(stimuli[0], selector=1)

    def test_interpreter_has_no_variants(self, arbiter):
        mutations = sample_mutations(arbiter, {"negation": 1}, seed=1)
        simulator = Simulator(
            arbiter, engine="interpreted", variants=_variants(arbiter, mutations)
        )
        assert not simulator.lockstep
        stimuli = generate_testbench_suite(arbiter, 2, TestbenchConfig(n_cycles=3))
        with pytest.raises(ValueError, match="out of range"):
            simulator.run_suite(stimuli, selectors=[0, 1])

    def test_wide_variant_runs_the_module_on_the_interpreter(self):
        module = parse_module(
            "module t(input [7:0] a, output [7:0] y); assign y = a + 8'd1; endmodule"
        )
        (stmt,) = module.statements()
        variant = stmt.clone()
        variant.rhs.right = Number(value=1, width=64, text="64'd1")
        before = engine_stats()["vector"]["scalar_fallbacks"]
        simulator = Simulator(module, variants=[variant])
        # The target program fails the lane audit, the plain design does not.
        assert Simulator(module).lockstep and not simulator.lockstep
        assert engine_stats()["vector"]["scalar_fallbacks"] == before + 1
        stimulus = [{"a": 255}, {"a": 3}]
        assert_trace_byte_equal(
            simulator.run(stimulus),
            Simulator(module, engine="interpreted").run(stimulus),
        )
        with pytest.raises(ValueError, match="out of range"):
            simulator.run(stimulus, selector=1)

    def test_counters(self, arbiter):
        mutations = sample_mutations(arbiter, {"negation": 2}, seed=1)
        before_programs = compile_cache_stats()["target_programs"]
        simulator = Simulator(arbiter, variants=_variants(arbiter, mutations))
        assert compile_cache_stats()["target_programs"] == before_programs + 1
        stimuli = generate_testbench_suite(arbiter, 3, TestbenchConfig(n_cycles=4))
        before = engine_stats()["vector"]
        simulator.run_suite(stimuli, selectors=[0, 1, 2])
        after = engine_stats()["vector"]
        assert after["lanes"] == before["lanes"] + 3
        assert after["variant_lanes"] == before["variant_lanes"] + 2


class TestPathCopyMutants:
    def test_only_the_spine_is_copied(self, arbiter):
        stmt = arbiter.statements()[2]
        mutation = Mutation("negation", stmt.stmt_id, 1, "", "insert")
        mutant = apply_mutation(arbiter, mutation)
        mutated = mutant.statement_by_id(stmt.stmt_id)
        assert mutated is not stmt
        assert statement_source(mutated) == statement_source(
            mutate_statement(stmt, mutation)
        )
        for original, copy in zip(arbiter.statements(), mutant.statements()):
            if original.stmt_id != stmt.stmt_id:
                assert copy is original
        # The clocked block is untouched, so it is shared outright.
        assert mutant.always_blocks[0] is arbiter.always_blocks[0]
        assert mutant.always_blocks[1] is not arbiter.always_blocks[1]
        assert mutated.target is stmt.target  # the lvalue is never rewritten

    def test_matches_deep_copy_mutant(self):
        for name in REGISTRY:
            module = load_design(name)
            golden = format_module(module)
            for mutation in sample_mutations(module, TABLE3_PLAN, seed=5):
                mutant = apply_mutation(module, mutation)
                reference = module.clone()
                stmt = reference.statement_by_id(mutation.stmt_id)
                assert mutant.statement_by_id(mutation.stmt_id) == mutate_statement(
                    stmt, mutation
                )
                assert [s.stmt_id for s in mutant.statements()] == [
                    s.stmt_id for s in module.statements()
                ]
            assert format_module(module) == golden

    def test_unknown_statement_raises_key_error(self, arbiter):
        with pytest.raises(KeyError):
            apply_mutation(arbiter, Mutation("negation", 99, 0, "", "insert"))

    def test_mutate_statement_checks_the_site(self, arbiter):
        stmt = arbiter.statements()[2]
        with pytest.raises(ValueError, match="applied to"):
            mutate_statement(stmt, Mutation("negation", stmt.stmt_id + 1, 1, "", "insert"))


# ----------------------------------------------------------------------
# Campaign simulation: target programs vs the per-mutant reference path
# ----------------------------------------------------------------------


def _per_mutant(module, target, mutations, stimuli, config, n_traces, seed):
    """The reference: one module, one interpreter, one top-up loop per mutant."""
    config = dataclasses.replace(config, engine="interpreted")
    golden = Simulator(module, engine=config.engine)
    golden_traces = golden.run_suite(stimuli, record=False)
    return [
        _simulate_mutant(
            module, target, m, stimuli, golden_traces, config, n_traces, seed, 8, 4
        )
        for m in mutations
    ]


def record_sets(module, target, mutations):
    """Each mutation's program record set: its group's slices of ``target``."""
    size = campaign.MAX_PROGRAM_VARIANTS
    groups = [
        frozenset().union(
            *(mutant_index(module, m).static_slice(target).stmt_ids for m in mutations[at : at + size])
        )
        for at in range(0, len(mutations), size)
    ]
    return [groups[index // size] for index in range(len(mutations))]


def assert_same_simulated(got, want, record_set=None):
    (outcome, failing, correct), (ref, ref_failing, ref_correct) = got, want
    assert outcome == ref
    assert len(failing) == len(ref_failing) and len(correct) == len(ref_correct)
    for trace, expected in zip(failing + correct, ref_failing + ref_correct):
        assert trace.is_failure == expected.is_failure
        assert_trace_byte_equal(trace, expected, record_set)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_target_simulation_matches_per_mutant(name):
    module = load_design(name)
    config = TestbenchConfig(n_cycles=10)
    seed = 11
    for target in design_info(name).targets[:2]:
        cone = compute_static_slice(module, target).stmt_ids
        mutations = sample_mutations(
            module, TABLE3_PLAN, seed=29, restrict_to=cone, min_operands=2
        )
        stimuli = generate_testbench_suite(module, 6, config, seed=seed)
        want = _per_mutant(module, target, mutations, stimuli, config, 6, seed)
        simulation = TargetSimulation(module, target, mutations, config, 6, seed, 8, 4)
        golden_traces = simulation.golden(stimuli)
        indices = list(range(len(mutations)))
        got = simulation.simulate(indices[:1], stimuli, golden_traces)
        got += simulation.simulate(indices[1:], stimuli, golden_traces)
        for pair, record_set in zip(
            zip(got, want), record_sets(module, target, mutations), strict=True
        ):
            assert_same_simulated(*pair, record_set)


def _long_plan(name):
    module = load_design(name)
    target = design_info(name).targets[0]
    cone = compute_static_slice(module, target).stmt_ids
    plan = {"negation": 3, "operation": 3, "misuse": 3}
    mutations = sample_mutations(module, plan, seed=29, restrict_to=cone, min_operands=2)
    return module, target, mutations


def test_long_plan_splits_into_programs(monkeypatch):
    monkeypatch.setattr(campaign, "MAX_PROGRAM_VARIANTS", 3)
    module, target, mutations = _long_plan("usbf_pl")
    assert len(mutations) > 6
    config = TestbenchConfig(n_cycles=8)
    stimuli = generate_testbench_suite(module, 4, config, seed=5)
    want = _per_mutant(module, target, mutations, stimuli, config, 4, 5)
    before = compile_cache_stats()["target_programs"]
    simulation = TargetSimulation(module, target, mutations, config, 4, 5, 8, 4)
    got = simulation.simulate(
        list(range(len(mutations))), stimuli, simulation.golden(stimuli)
    )
    assert compile_cache_stats()["target_programs"] - before == -(-len(mutations) // 3)
    assert len(got) == len(want)
    for pair, record_set in zip(zip(got, want), record_sets(module, target, mutations)):
        assert_same_simulated(*pair, record_set)


def test_later_group_lowers_only_its_program(monkeypatch):
    # A pool worker that only receives a later group's mutants runs
    # goldens and top-ups on that group's program, never group 0's.
    monkeypatch.setattr(campaign, "MAX_PROGRAM_VARIANTS", 3)
    module, target, mutations = _long_plan("usbf_pl")
    config = TestbenchConfig(n_cycles=8)
    stimuli = generate_testbench_suite(module, 4, config, seed=5)
    golden_traces = Simulator(module).run_suite(stimuli, record=False)
    want = _per_mutant(module, target, mutations[3:5], stimuli, config, 4, 5)
    before = compile_cache_stats()["target_programs"]
    simulation = TargetSimulation(module, target, mutations, config, 4, 5, 8, 4)
    got = simulation.simulate([3, 4], stimuli, golden_traces)
    assert compile_cache_stats()["target_programs"] - before == 1
    (record_set,) = set(record_sets(module, target, mutations)[3:5])
    for pair in zip(got, want):
        assert_same_simulated(*pair, record_set)


def test_interpreter_simulates_mutant_by_mutant():
    module, target, mutations = _long_plan("wb_mux_2")
    config = TestbenchConfig(n_cycles=6, engine="interpreted")
    stimuli = generate_testbench_suite(module, 3, config, seed=7)
    want = _per_mutant(module, target, mutations, stimuli, config, 3, 7)
    before = compile_cache_stats()["target_programs"]
    simulation = TargetSimulation(module, target, mutations, config, 3, 7, 8, 4)
    got = simulation.simulate(
        list(range(len(mutations))), stimuli, simulation.golden(stimuli)
    )
    assert compile_cache_stats()["target_programs"] == before
    assert len(got) == len(want)
    for pair in zip(got, want):
        assert_same_simulated(*pair)


def test_oscillating_lane_falls_back_per_mutant():
    module = parse_module(
        "module t(a, b, y); input a, b; output y; wire m, n;"
        " assign m = ~a & b; assign n = m & a; assign y = n | b; endmodule"
    )
    # Misuse a -> n in "m = ~a & b" closes the oscillating loop m -> n -> m.
    bad = Mutation("misuse", 0, 2, "a -> n", "n")
    good = Mutation("negation", 2, 1, "insert ~ before n", "insert")
    config = TestbenchConfig(n_cycles=4)
    stimuli = generate_testbench_suite(module, 4, config, seed=2)
    mutations = [good, bad, good]
    simulation = TargetSimulation(module, "y", mutations, config, 4, 0, 8, 4)
    got = simulation.simulate([0, 1, 2], stimuli, simulation.golden(stimuli))
    want = _per_mutant(module, "y", mutations, stimuli, config, 4, 0)
    assert got[1][0].error and "did not settle" in got[1][0].error
    for pair in zip(got, want):
        assert_same_simulated(*pair)


def test_unappliable_mutation_reports_its_error():
    module = parse_module(
        "module t(a, b, y); input a, b; output y; assign y = a & b; endmodule"
    )
    bad = Mutation("operation", 0, 1, "", "|")  # node 1 is an identifier
    good = Mutation("operation", 0, 0, "", "|")
    config = TestbenchConfig(n_cycles=3)
    stimuli = generate_testbench_suite(module, 2, config)
    simulation = TargetSimulation(module, "y", [bad, good], config, 2, 0, 8, 4)
    got = simulation.simulate([0, 1], stimuli, simulation.golden(stimuli))
    want = _per_mutant(module, "y", [bad, good], stimuli, config, 2, 0)
    assert got[0][0].error == want[0][0].error != ""
    assert_same_simulated(got[1], want[1])


def test_suite_memo_generated_once_per_key(arbiter):
    config = TestbenchConfig(n_cycles=5)
    memo = SuiteMemo()
    runs = []

    def golden():
        runs.append(1)
        return Simulator(arbiter)

    memo.fetch(arbiter, [1004, 1006, 1006], 3, config, golden)
    (first,) = memo.fetch(arbiter, [1006], 3, config, golden)
    assert memo.fetch(arbiter, [1006], 3, config, golden)[0] is first
    assert len(runs) == 1  # both misses shared one golden suite run
    assert memo.stats() == {"hits": 3, "misses": 2, "suites": 2}
    stimuli, goldens = first
    assert len(stimuli) == len(goldens) == 3
    assert stimuli == generate_testbench_suite(arbiter, 3, config, seed=1006)
    for stimulus, golden_trace in zip(stimuli, goldens):
        assert (
            golden_trace.outputs
            == Simulator(arbiter).run(stimulus, record=False).outputs
        )


# ----------------------------------------------------------------------
# Table-III campaigns: the record set and the one-pass settle
# ----------------------------------------------------------------------


def _full_recording(module, engine="vector", variants=(), record_set=None):
    """A campaign ``Simulator`` that ignores the record set."""
    return Simulator(module, engine=engine, variants=variants)


@pytest.fixture(scope="module")
def table3_session():
    """The tracked checkpoint with the Table-III plan seed (29)."""
    import pathlib

    from repro.api import SessionConfig, VeriBugSession

    checkpoint = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"
    return VeriBugSession.from_checkpoint(checkpoint, SessionConfig().with_seed(29))


def _table3_campaign(session, name, target):
    plan = session.campaign(name, target, plan=TABLE3_PLAN)
    handle = session.campaign(name, target, plan.mutations, n_cycles=12, seed=29)
    return [
        (
            update.outcome,
            None
            if update.localization is None
            else (update.localization.ranking, update.localization.heatmap.suspiciousness),
        )
        for update in handle.stream()
    ]


@pytest.mark.parametrize("name", list(REGISTRY))
def test_table3_campaign_records_its_slices_in_one_pass(name, table3_session, monkeypatch):
    session = table3_session
    assert session.runtime is None  # every suite runs in this process
    module = session.resolve_design(name)
    targets = design_info(name).targets
    before = engine_stats()["vector"]
    got = [_table3_campaign(session, name, target) for target in targets]
    after = engine_stats()["vector"]
    batches = after["batches"] - before["batches"]
    assert batches and after["fixpoint_batches"] == before["fixpoint_batches"]
    # Every lane of every suite runs 12 cycles: one comb pass each.
    assert after["comb_passes"] - before["comb_passes"] == 12 * batches

    for target, updates in zip(targets, got):
        mutations = [outcome.mutation for outcome, _ in updates]
        (record_set,) = set(record_sets(module, target, mutations))
        program = TargetSimulation(
            module, target, mutations, TestbenchConfig(), 2, 0, 1, 0
        ).golden_simulator().program
        assert program.levelized
        assert {row[0] for row in program.shapes} == record_set
        assert record_set < {stmt.stmt_id for stmt in module.statements()}

    monkeypatch.setattr(campaign, "Simulator", _full_recording)
    want = [_table3_campaign(session, name, target) for target in targets]
    assert got == want
    assert any(localization for updates in got for _, localization in updates)
