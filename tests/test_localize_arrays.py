"""The fast arm on arrays: one grouping per call, interned memo keys,
segment-mean attention maps.

* A ``localize_many`` call groups every request's failing and correct
  sets at once, the set index leading the key.  Mixing a golden request,
  a misuse mutant of it (sharing one target-program log) and a request
  on another design whose statement has the same id and operand names
  must not change any result: gather plans, kept statements and groups
  are per set.
* ``mean_maps`` equals the incremental :meth:`AttentionMap.add` loop.
* The attention-row memo counts what one lookup per distinct
  ``(statement_key, operand values)`` key per call gives.
* ``ValueEncoder.one_hot`` equals the scalar ``encode`` bucket by bucket.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distinct_groups, record_loop_distinct
from repro.analysis import compute_static_slice, design_index
from repro.core import (
    BatchEncoder,
    Explainer,
    LocalizationRequest,
    VeriBugConfig,
    VeriBugModel,
)
from repro.core.explainer import AttentionMap, mean_maps
from repro.core.features import ValueEncoder
from repro.datagen.mutation import Mutation, apply_mutation, mutate_statement
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.verilog import parse_module
from tests.test_fused_rnn import cold_memos

TOL = 1e-9
CHECKPOINT = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"

GOLDEN = """
module t(clk, rst_n, sel, a, b, c, y, z);
    input clk, rst_n, sel, a, b, c;
    output reg y, z;
    always @(*) begin
        if (sel) y = a & b; else y = a | c;
        z = b ^ c;
    end
endmodule
"""

#: Statement 0 reads the same first-use operand names as the golden
#: statement 0, ``(a, b)``, through three operand instances.
OTHER = """
module u(clk, rst_n, a, b, y);
    input clk, rst_n, a, b;
    output reg y;
    always @(*) y = a & (b | a);
endmodule
"""


def misuse_case():
    """Golden and misuse-mutant lanes of one target-program suite.

    The mutant rewrites statement 0 ``y = a & b`` to ``y = a & a``: it
    records the operands ``(a,)`` and its context reads ``a`` twice.
    """
    golden = parse_module(GOLDEN)
    stmt = golden.statement_by_id(0)
    node_index = [
        index
        for index, node in enumerate(stmt.rhs.walk())
        if getattr(node, "name", None) == "b"
    ][0]
    mutation = Mutation("misuse", 0, node_index, "b -> a", "a")
    mutant = apply_mutation(golden, mutation)
    stimuli = [
        list(stimulus)
        for stimulus in generate_testbench_suite(
            golden, 8, TestbenchConfig(n_cycles=10), seed=5
        )
    ]
    simulator = Simulator(golden, variants=[mutate_statement(stmt, mutation)])
    traces = simulator.run_suite(
        stimuli + stimuli, selectors=[0] * len(stimuli) + [1] * len(stimuli)
    )
    return golden, mutant, traces[: len(stimuli)], traces[len(stimuli) :]


def mixed_requests():
    golden, mutant, golden_traces, mutant_traces = misuse_case()
    failing = [
        trace
        for trace, reference in zip(mutant_traces, golden_traces)
        if trace.diverges_from(reference, signals=["y"])
    ]
    correct = [
        trace
        for trace, reference in zip(mutant_traces, golden_traces)
        if not trace.diverges_from(reference, signals=["y"])
    ]
    assert failing and correct
    other = parse_module(OTHER)
    other_traces = Simulator(other).run_suite(
        generate_testbench_suite(other, 6, TestbenchConfig(n_cycles=10), seed=7)
    )
    return [
        LocalizationRequest(golden, "y", golden_traces[:3], golden_traces[3:]),
        LocalizationRequest(mutant, "y", failing, correct),
        LocalizationRequest(other, "y", other_traces[:2], other_traces[2:]),
    ]


def request_sets(request):
    index = design_index(request.module)
    contexts = index.contexts(request.target)
    cone = index.static_slice(request.target).stmt_ids
    return [
        (contexts, request.failing_traces, cone),
        (contexts, request.correct_traces, cone),
    ]


class TestCallWideKey:
    def test_case_collides_on_stmt_id(self):
        """The mix is the one a stmt-id-keyed plan or group gets wrong."""
        golden, mutant, other = (r.module for r in mixed_requests())
        operands = [
            design_index(module).contexts("y")[0].operand_names()
            for module in (golden, mutant, other)
        ]
        assert operands == [("a", "b"), ("a", "a"), ("a", "b", "a")]
        assert 0 in compute_static_slice(other, "y").stmt_ids

    def test_mixed_call_groups_each_set_as_alone(self, vocab):
        explainer = Explainer(
            VeriBugModel(VeriBugConfig(), vocab), BatchEncoder(vocab)
        )
        sets = [s for request in mixed_requests() for s in request_sets(request)]
        assert distinct_groups(explainer, sets) == [
            record_loop_distinct(*trace_set) for trace_set in sets
        ]

    def test_mixed_call_equals_each_request_alone(self, trained_session, localizer):
        requests = mixed_requests()
        model = trained_session.model
        with cold_memos(model):
            mixed = localizer.localize_many(requests)
        for request, result in zip(requests, mixed):
            with cold_memos(model):
                (alone,) = localizer.localize_many([request])
            assert result.ranking == alone.ranking
            scores = result.heatmap.suspiciousness
            assert scores.keys() == alone.heatmap.suspiciousness.keys()
            for stmt_id, score in alone.heatmap.suspiciousness.items():
                assert abs(scores[stmt_id] - score) <= TOL
            for mine, theirs in (
                (result.heatmap.ft, alone.heatmap.ft),
                (result.heatmap.ct, alone.heatmap.ct),
            ):
                assert mine.counts == theirs.counts
                for stmt_id, weights in theirs.weights.items():
                    np.testing.assert_allclose(
                        mine.weights[stmt_id], weights, rtol=0, atol=TOL
                    )


def test_wide_values_match_reference(trained_session):
    """A >63-bit set (``object`` logs) and a narrow set in one fast call:
    each map equals the reference arm's."""
    wide = parse_module(
        "module w(a, b, c, y); input [127:0] a, b; input c; output [127:0] y;"
        " assign y = c ? a & b : a | b; endmodule"
    )
    wide_traces = Simulator(wide).run_suite(
        generate_testbench_suite(wide, 3, TestbenchConfig(n_cycles=6), seed=1)
    )
    assert all(trace.execution_log()[0].wide for trace in wide_traces)
    golden, _mutant, golden_traces, _ = misuse_case()
    sets = [
        (design_index(wide).contexts("y"), wide_traces, None),
        (design_index(golden).contexts("y"), golden_traces, None),
    ]
    model, encoder = trained_session.model, trained_session.encoder
    with cold_memos(model):
        maps = Explainer(model, encoder).attention_maps(sets)
    reference = Explainer(model, encoder, fast_inference=False)
    for amap, trace_set in zip(maps, sets):
        expected = reference.attention_map(*trace_set)
        assert amap.counts == expected.counts
        for stmt_id, weights in expected.weights.items():
            np.testing.assert_allclose(amap.weights[stmt_id], weights, rtol=0, atol=TOL)


@st.composite
def grouped_rows(draw):
    """Groups of several sets, interleaved, over a small stmt-id pool (so
    ids repeat across sets) with per-set widths 1..4 and counts up to
    10^4."""
    n_sets = draw(st.integers(1, 4))
    widths = {
        (set_index, stmt_id): draw(st.sampled_from([1, 1, 2, 3, 4]))
        for set_index in range(n_sets)
        for stmt_id in range(4)
    }
    keys = draw(
        st.lists(st.sampled_from(sorted(widths)), min_size=1, max_size=40)
    )
    counts = draw(
        st.lists(st.integers(1, 10**4), min_size=len(keys), max_size=len(keys))
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return n_sets, widths, keys, counts, seed


@given(grouped_rows())
@settings(max_examples=200, deadline=None)
def test_mean_maps_equal_incremental_add(case):
    n_sets, widths, keys, counts, seed = case
    rng = np.random.default_rng(seed)
    rows = np.zeros((len(keys), 4))
    expected = [AttentionMap() for _ in range(n_sets)]
    for g, (key, count) in enumerate(zip(keys, counts)):
        logits = rng.normal(size=widths[key])
        row = np.exp(logits) / np.exp(logits).sum()
        rows[g, : len(row)] = row
        expected[key[0]].add(key[1], row, count)
    maps = mean_maps(
        n_sets,
        np.array(keys, dtype=np.int64),
        rows,
        np.array([widths[key] for key in keys]),
        np.array(counts, dtype=np.int64),
    )
    for got, want in zip(maps, expected):
        assert got.statements() == want.statements()
        assert got.counts == want.counts
        for stmt_id, weights in want.weights.items():
            assert got.weights[stmt_id].shape == weights.shape
            np.testing.assert_allclose(
                got.weights[stmt_id], weights, rtol=0, atol=1e-12
            )


class TestMemoAccounting:
    def test_campaign_counters_match_one_lookup_per_distinct_key(
        self, trained_session, monkeypatch
    ):
        """Per call, each distinct ``(statement_key, values)`` key is
        looked up once in first-seen order: a key stored by an earlier
        call counts one hit per distinct sample carrying it (a cross-epoch
        hit, since every call is its own epoch), a new key one miss and
        one entry."""
        from repro.api import VeriBugSession

        session = VeriBugSession.from_checkpoint(CHECKPOINT, trained_session.config)
        calls = []
        attention_maps = Explainer.attention_maps

        def recording(self, sets, batch_size=512):
            calls.append(sets)
            return attention_maps(self, sets, batch_size)

        monkeypatch.setattr(Explainer, "attention_maps", recording)
        memo = session.model.attention_memo
        memo.clear()
        memo.reset_stats()
        for seed in (3, 4):
            handle = session.campaign(
                "wb_mux_2",
                "wbs0_we_o",
                plan={"negation": 2, "operation": 2, "misuse": 2},
                n_cycles=8,
                seed=seed,
            )
            list(handle.stream())
        assert len(calls) >= 2

        stored: set = set()
        hits = misses = 0
        for sets in calls:
            uses: dict = {}
            for contexts, traces, restrict_to in sets:
                for stmt_id, values, *_rest in record_loop_distinct(
                    contexts, traces, restrict_to
                ):
                    key = (contexts[stmt_id].statement_key(), values)
                    uses[key] = uses.get(key, 0) + 1
            for key, n in uses.items():
                if key in stored:
                    hits += n
                else:
                    misses += 1
            stored.update(uses)
        stats = memo.stats()
        assert (stats["hits"], stats["misses"]) == (hits, misses)
        assert stats["cross_epoch_hits"] == hits
        assert stats["entries"] == len(stored)
        assert hits > 0


VALUES = st.one_of(
    st.integers(-1, 3),
    st.integers(250, 260),
    st.integers(0, 2**63 - 1),
)


class TestOneHot:
    @staticmethod
    def scalar(values):
        encoder = ValueEncoder()
        out = np.zeros((len(values), ValueEncoder.DEPTH))
        for row, value in enumerate(values):
            out[row, encoder.encode(int(value))] = 1.0
        return out

    @given(st.lists(VALUES, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_int64_equals_scalar_encode(self, values):
        array = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(
            ValueEncoder().one_hot(array), self.scalar(values)
        )

    @pytest.mark.parametrize(
        "values", [[0, 1, 2, 255, 256, 2**63, 2**70], [2**64], [0, 2**100, 1]]
    )
    def test_object_values_equal_scalar_encode(self, values):
        array = np.array(values, dtype=object)
        assert array.dtype == object
        np.testing.assert_array_equal(
            ValueEncoder().one_hot(array), self.scalar(values)
        )

    def test_empty(self):
        assert ValueEncoder().one_hot(np.array([], dtype=np.int64)).shape == (0, 4)
