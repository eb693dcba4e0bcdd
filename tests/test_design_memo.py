"""The per-design campaign memo: parse once, one suite memo per design.

A session parses each registry design once and keeps the stimulus suites
and golden traces of the design it campaigns on in a
:class:`~repro.datagen.campaign.SuiteMemo` shared by the design's
targets.  Campaigns on a warm memo must equal campaigns on a fresh
session per target, the memo must hold one design only, and its key must
cover every field that shapes a suite.
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
import textwrap
import weakref

import pytest

from repro.api import SessionConfig, VeriBugSession
from repro.datagen.campaign import SuiteMemo
from repro.designs import REGISTRY, design_info, design_testbench
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.verilog import format_module

CHECKPOINT = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"
TOL = 1e-9
PLAN = {"negation": 1, "operation": 1, "misuse": 1}
N_CYCLES = 8
SEED = 29

#: A two-output design, so its targets share the memo like a paper design.
PAIR = textwrap.dedent(
    """\
    module pair (clk, rst_n, a, b, x, y);
        input clk, rst_n;
        input [3:0] a, b;
        output reg [3:0] x, y;
        always @(posedge clk or negedge rst_n)
            if (!rst_n) begin
                x <= 4'h0;
                y <= 4'h0;
            end else begin
                x <= (a ^ b) + y;
                y <= (a & b) | x;
            end
    endmodule
    """
)


def _config(engine: str = "vector") -> SessionConfig:
    return (
        SessionConfig()
        .with_engine(engine)
        .with_campaign_defaults(n_traces=6, min_correct_traces=4)
    )


def _session(config: SessionConfig) -> VeriBugSession:
    assert CHECKPOINT.exists()
    return VeriBugSession.from_checkpoint(CHECKPOINT, config)


def _paper_targets():
    return [(name, target) for name in REGISTRY for target in design_info(name).targets]


def _run(session, name, target):
    """``(outcome, heatmap)`` per mutant plus the final snapshot."""
    updates = list(
        session.campaign(name, target, plan=PLAN, n_cycles=N_CYCLES, seed=SEED).stream()
    )
    records = [
        (
            update.outcome,
            None
            if update.localization is None
            else (
                update.localization.ranking,
                update.localization.heatmap.suspiciousness,
            ),
        )
        for update in updates
    ]
    return records, updates[-1].snapshot


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


def _same_scores(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)


def _same_ranking(a, b, scores) -> bool:
    """Rankings equal up to the order of statements with tied scores."""
    return sorted(a) == sorted(b) and all(
        x == y or _close(scores[x], scores[y]) for x, y in zip(a, b)
    )


def assert_same_campaign(got, want):
    (records, snapshot), (ref_records, ref_snapshot) = got, want
    assert len(records) == len(ref_records)
    for (outcome, heatmap), (ref, ref_heatmap) in zip(records, ref_records):
        assert dataclasses.replace(outcome, suspiciousness=None) == dataclasses.replace(
            ref, suspiciousness=None
        )
        assert _close(outcome.suspiciousness, ref.suspiciousness)
        assert (heatmap is None) == (ref_heatmap is None)
        if heatmap is not None:
            assert _same_scores(heatmap[1], ref_heatmap[1])
            assert _same_ranking(heatmap[0], ref_heatmap[0], ref_heatmap[1])
    for field in ("completed", "observable", "localized", "errors", "counts"):
        assert getattr(snapshot, field) == getattr(ref_snapshot, field)
    assert _same_scores(snapshot.suspiciousness, ref_snapshot.suspiciousness)
    assert _same_ranking(
        snapshot.ranking, ref_snapshot.ranking, ref_snapshot.suspiciousness
    )


def no_golden_run():
    raise AssertionError("the suite should be memoized")


@pytest.fixture(scope="module")
def fresh_results(trained_session):
    """Per engine: every paper target on its own fresh session."""
    cache: dict[str, dict] = {}

    def results(engine: str) -> dict:
        if engine not in cache:
            cache[engine] = {}
            for name, target in _paper_targets():
                with _session(_config(engine)) as session:
                    cache[engine][name, target] = _run(session, name, target)
        return cache[engine]

    return results


# ----------------------------------------------------------------------
# Equivalence: a warm memo changes no outcome and no heatmap
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["vector", "interpreted"])
def test_warm_session_matches_fresh_sessions(engine, fresh_results):
    want = fresh_results(engine)
    with _session(_config(engine)) as session:
        for name, target in _paper_targets():
            assert_same_campaign(_run(session, name, target), want[name, target])
        memo = session.runtime_stats()["simulation"]["suite_memo"]
    # Each design's second target reuses at least its main suite.
    assert memo["hits"] >= len(REGISTRY)


def test_session_pool_matches_fresh_sessions(fresh_results):
    want = fresh_results("vector")
    with _session(_config().with_workers(2)) as session:
        for name, target in _paper_targets():
            assert_same_campaign(_run(session, name, target), want[name, target])
        memo = session.runtime_stats()["simulation"]["suite_memo"]
    # The parent memoizes only main suites; top-ups run in the workers.
    assert memo["hits"] == len(REGISTRY)
    assert memo["misses"] == len(REGISTRY)


def test_ingested_design_matches_fresh_sessions(tmp_path, trained_session):
    (tmp_path / "pair.v").write_text(PAIR)
    config = _config().with_corpus(tmp_path)
    targets = ["x", "y"]
    want = {}
    for target in targets:
        with _session(config) as session:
            want[target] = _run(session, "pair", target)
    with _session(config) as session:
        for target in targets:
            assert_same_campaign(_run(session, "pair", target), want[target])
        assert session.runtime_stats()["simulation"]["suite_memo"]["hits"] > 0


def test_memoized_suites_and_module_unchanged_by_campaigns(trained_session):
    name = "usbf_pl"
    config = _config()
    testbench = design_testbench(name, n_cycles=N_CYCLES)
    testbench.engine = config.sim_engine
    with _session(config) as session:
        module = session.resolve_design(name)
        text = format_module(module)
        handles = [
            session.campaign(name, target, plan=PLAN, n_cycles=N_CYCLES, seed=SEED)
            for target in design_info(name).targets
        ]
        for handle in handles:
            assert handle.module is module  # parsed once per session
            handle.run()
        assert session.resolve_design(name) is module
        assert format_module(module) == text

        memo = handles[0].engine.suites
        ((stimuli, goldens),) = memo.fetch(
            module, [SEED], config.n_traces, testbench, no_golden_run
        )
    assert stimuli == generate_testbench_suite(
        module, config.n_traces, testbench, seed=SEED
    )
    reference = Simulator(module).run_suite(stimuli, record=False)
    assert [trace.outputs for trace in goldens] == [
        trace.outputs for trace in reference
    ]


# ----------------------------------------------------------------------
# Memory bound: one design at a time, evicted in place
# ----------------------------------------------------------------------


def test_memo_releases_previous_design_while_its_handle_lives(trained_session):
    config = _config()
    with _session(config) as session:
        handle_a = session.campaign(
            "wb_mux_2", "wbs0_we_o", plan=PLAN, n_cycles=N_CYCLES, seed=SEED
        )
        handle_a.run()
        testbench = design_testbench("wb_mux_2", n_cycles=N_CYCLES)
        testbench.engine = config.sim_engine
        ((_stimuli, goldens),) = handle_a.engine.suites.fetch(
            handle_a.module, [SEED], config.n_traces, testbench, no_golden_run
        )
        refs = [weakref.ref(trace) for trace in goldens]
        del goldens, _stimuli
        gc.collect()
        assert all(ref() is not None for ref in refs)

        session.campaign(
            "usbf_pl", "match_o", plan=PLAN, n_cycles=N_CYCLES, seed=SEED
        ).run()
        gc.collect()
        assert handle_a.engine.suites.module is not handle_a.module
        assert all(ref() is None for ref in refs)


# ----------------------------------------------------------------------
# Key completeness: every TestbenchConfig field and n_traces
# ----------------------------------------------------------------------

#: One changed value per TestbenchConfig field.  A field added later
#: fails the test below until it gets an entry here.
CHANGED = {
    "n_cycles": 6,
    "reset_cycles": 1,
    "hold_probability": 0.25,
    "one_probability": 0.75,
    "forced": {"req1": 1},
    "biases": {"req2": 0.9},
    "engine": "interpreted",
}


def test_every_config_field_and_n_traces_are_keyed(arbiter):
    base = TestbenchConfig(n_cycles=5)
    memo = SuiteMemo()

    def golden():
        return Simulator(arbiter)

    memo.fetch(arbiter, [3], 2, base, golden)
    fields = [f.name for f in dataclasses.fields(TestbenchConfig)]
    assert sorted(CHANGED) == sorted(fields)
    for name in fields:
        changed = dataclasses.replace(base, **{name: CHANGED[name]})
        misses = memo.misses
        memo.fetch(arbiter, [3], 2, changed, golden)
        assert memo.misses == misses + 1, name
    misses = memo.misses
    memo.fetch(arbiter, [3], 3, base, golden)
    assert memo.misses == misses + 1
    hits = memo.hits
    memo.fetch(arbiter, [3], 2, dataclasses.replace(base), golden)
    assert memo.hits == hits + 1


def test_dict_fields_are_keyed_by_content_not_order(arbiter):
    memo = SuiteMemo()

    def golden():
        return Simulator(arbiter)

    first = TestbenchConfig(n_cycles=4, biases={"req1": 0.2, "req2": 0.7})
    second = TestbenchConfig(n_cycles=4, biases={"req2": 0.7, "req1": 0.2})
    (suite,) = memo.fetch(arbiter, [1], 2, first, golden)
    assert memo.fetch(arbiter, [1], 2, second, golden)[0] is suite
    assert memo.stats() == {"hits": 1, "misses": 1, "suites": 1}
