"""Execution dedup against its record-loop oracle.

``Explainer.distinct_samples`` groups a whole trace set's executions
straight off its event logs (one key matrix, one ``np.lexsort``):
every recorded trace's lane in its log, hand-assembled traces in one
log of their records.  Its output — stmt ids, operand values, labels
and counts, in first-seen order — must equal the record-by-record loop
exactly (the
``check_dedup`` fixture), on synthetic logs built to hit every corner
of the key matrix and on real ragged vector-suite lanes.  Training
samples gathered off the same rows must equal the record loop's, in
record order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compute_static_slice, extract_module_contexts
from repro.analysis.contexts import OperandInstance, StatementContext
from repro.core.features import build_samples
from repro.datagen.mutation import apply_mutation, mutate_statement, sample_mutations
from repro.designs import design_info, load_design
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.sim.trace import SuiteLog, Trace, _LazyExecutions

from conftest import record_loop_samples

NAMES = "abcd"
#: Small values collide often; the large one needs all of an int64.
VALUES = [0, 1, 2, 3, 1 << 40]


@st.composite
def statements(draw):
    """Per statement: its recorded shapes and its context (or None).

    Widths run 0–4 with repeated names allowed; a statement may record
    under two shapes (another target or lhs width) and may have no
    context, or a context without operands.
    """
    shapes, contexts = [], {}
    for stmt_id in range(draw(st.integers(1, 5))):
        operands = tuple(draw(st.lists(st.sampled_from(NAMES), max_size=4)))
        targets = draw(st.lists(st.sampled_from("tu"), min_size=1, max_size=2, unique=True))
        shapes.extend((stmt_id, target, operands, 1 + len(target)) for target in targets)
        kind = draw(st.sampled_from(["context", "context", "none", "empty"]))
        if kind == "none":
            continue
        names = draw(st.lists(st.sampled_from(operands), max_size=3)) if operands else []
        if kind == "empty":
            names = []
        contexts[stmt_id] = StatementContext(
            stmt_id=stmt_id,
            target="t",
            assign_type="BlockingAssignment",
            operands=[OperandInstance(name, 0, index) for index, name in enumerate(names)],
        )
    return shapes, contexts


@st.composite
def trace_sets(draw):
    """A trace set over synthetic logs whose tables share, permute and
    omit shapes, with several lanes under random active masks (empty
    lanes and empty logs included); traces are lanes of those logs,
    repeats allowed, some turned into hand-assembled record lists."""
    shapes, contexts = draw(statements())
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        table = tuple(draw(st.permutations(shapes))[: draw(st.integers(0, len(shapes)))])
        n = draw(st.integers(1, 3))
        lane_values = st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)
        slots, lhs, ops, active = [], [], [], []
        if table:
            for _ in range(draw(st.integers(0, 12))):
                slot = draw(st.integers(0, len(table) - 1))
                slots.append(slot)
                lhs.append(draw(lane_values))
                ops.extend(draw(lane_values) for _ in table[slot][2])
                active.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        log = SuiteLog(
            table,
            np.asarray(slots, dtype=np.int64),
            np.arange(len(slots), dtype=np.int64),
            np.asarray(lhs, dtype=np.int64).reshape(-1, n),
            np.asarray(ops, dtype=np.int64).reshape(-1, n),
            np.asarray(active, dtype=bool).reshape(-1, n),
        )
        for lane in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1)):
            executions = _LazyExecutions(log, lane)
            if draw(st.booleans()):
                executions = list(executions)
            traces.append(Trace(design="synthetic", executions=executions))
    restrict_to = draw(
        st.none() | st.sets(st.integers(0, 4)).map(frozenset)
    )
    return contexts, draw(st.permutations(traces)), restrict_to


@given(trace_sets())
@settings(max_examples=300, deadline=None)
def test_synthetic_columns_match_record_loop(check_dedup, case):
    contexts, traces, restrict_to = case
    check_dedup(contexts, traces, restrict_to)


@given(trace_sets())
@settings(max_examples=100, deadline=None)
def test_synthetic_samples_match_record_loop(case):
    """Training samples gathered off the logs come out in record order,
    equal to the record-by-record loop's."""
    contexts, traces, restrict_to = case
    want = [sample for _stmt_id, sample in record_loop_samples(contexts, traces, restrict_to)]
    assert build_samples(contexts, traces, restrict_to=restrict_to) == want


def test_ragged_vector_lanes_match_record_loop(check_dedup):
    """A target program's ragged suite: lanes with non-uniform active
    masks, so each lane executes its own statement table (full, shortened
    and empty lanes execute different statement sets).  Each mutant's
    lanes form one trace set, deduplicated under that mutant's contexts,
    as a campaign localizes it."""
    module = load_design("usbf_pl")
    cone = compute_static_slice(module, design_info("usbf_pl").targets[0]).stmt_ids
    mutations = sample_mutations(
        module, {"negation": 2, "operation": 2, "misuse": 3}, seed=29,
        restrict_to=cone, min_operands=2,
    )
    variants = [mutate_statement(module.statement_by_id(m.stmt_id), m) for m in mutations]
    stimuli = [
        list(stimulus)
        for stimulus in generate_testbench_suite(
            module, 5, TestbenchConfig(n_cycles=12), seed=3
        )
    ]
    stimuli[2] = stimuli[2][:6]
    stimuli[4] = []
    lanes = [stimulus for _ in range(len(mutations) + 1) for stimulus in stimuli]
    selectors = [k for k in range(len(mutations) + 1) for _ in stimuli]
    traces = Simulator(module, variants=variants).run_suite(lanes, selectors=selectors)

    tables = set()
    for trace in traces:
        log, lane = trace.execution_log()
        tables.add(tuple(dict.fromkeys(log.slots[log.active[:, lane]].tolist())))
    assert len(tables) > 2

    modules = [module] + [apply_mutation(module, m) for m in mutations]
    for selector, variant in enumerate(modules):
        trace_set = traces[selector * len(stimuli) : (selector + 1) * len(stimuli)]
        contexts = extract_module_contexts(variant.statements())
        assert check_dedup(contexts, trace_set)
        assert check_dedup(contexts, trace_set, cone)
