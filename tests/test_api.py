"""The `repro.api` surface: session facade, streaming campaigns, CLI.

Four contracts:

* **Equivalence** — the session facade and the engines it drives
  (`LocalizationEngine`, `CampaignEngine`, the free `generate_corpus`)
  produce identical rankings and suspiciousness (within 1e-9) and
  identical corpora for the same inputs.
* **Streaming** — `CampaignHandle.stream()` yields per-mutant outcomes
  equal to `run()`'s, with incremental `HeatmapSnapshot`s whose final
  state is bit-identical to the batch report's.
* **Config** — `SessionConfig` consolidates the scattered knobs and
  validates them, and building a session leaves a shared model's
  memoized state alone; `CorpusSpec` validates its sizes at
  construction.
* **CLI** — `python -m repro campaign --smoke` (the CI smoke) works
  end-to-end against the committed checkpoint.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api import (
    DEFAULT_PLAN,
    CampaignHandle,
    HeatmapSnapshot,
    SessionConfig,
    VeriBugSession,
    generate_corpus,
)
from repro.core import LocalizationEngine, VeriBugConfig
from repro.datagen import CampaignEngine, sample_mutations
from repro.designs import design_testbench, load_design
from repro.pipeline import CorpusSpec
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.verilog import parse_module

TOL = 1e-9

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKPOINT = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"


@pytest.fixture(scope="module")
def session(trained_session):
    """A session sharing the committed fixture's weights.

    Depends on ``trained_session`` so the checkpoint exists even on a
    cold checkout (the conftest fixture trains and saves it if needed).
    """
    assert CHECKPOINT.exists()
    return VeriBugSession.from_checkpoint(CHECKPOINT)


def planted_bug_case():
    golden = parse_module(
        "module t(clk, rst_n, sel, a, b, y); input clk, rst_n, sel, a, b;"
        " output reg y;"
        " always @(*) if (sel) y = a & b; else y = a | b; endmodule"
    )
    buggy = parse_module(
        "module t(clk, rst_n, sel, a, b, y); input clk, rst_n, sel, a, b;"
        " output reg y;"
        " always @(*) if (sel) y = a & ~b; else y = a | b; endmodule"
    )
    stimuli = generate_testbench_suite(golden, 20, TestbenchConfig(n_cycles=6), seed=3)
    gsim, bsim = Simulator(golden), Simulator(buggy)
    failing, correct = [], []
    for stim in stimuli:
        golden_trace = gsim.run(stim, record=False)
        trace = bsim.run(stim)
        if trace.diverges_from(golden_trace, signals=["y"]):
            failing.append(trace)
        else:
            correct.append(trace)
    assert failing and correct
    return buggy, failing, correct


# ----------------------------------------------------------------------
# SessionConfig
# ----------------------------------------------------------------------


class TestSessionConfig:
    def test_builders_return_new_frozen_configs(self):
        base = SessionConfig()
        tuned = (
            base.with_engine("interpreted")
            .with_workers(2)
            .with_seed(5)
            .with_campaign_defaults(n_traces=3, min_correct_traces=1)
        )
        # The original is untouched (frozen + replace semantics).
        assert base.sim_engine == "vector" and base.n_workers == 0
        assert tuned.sim_engine == "interpreted"
        assert tuned.n_workers == 2
        assert tuned.seed == 5
        assert tuned.n_traces == 3 and tuned.min_correct_traces == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            tuned.seed = 9

    def test_with_model_overrides(self):
        tuned = SessionConfig().with_model(epochs=3, alpha=0.5)
        assert tuned.model.epochs == 3 and tuned.model.alpha == 0.5
        replaced = SessionConfig().with_model(VeriBugConfig(dc=8))
        assert replaced.model.dc == 8
        with pytest.raises(ValueError):
            SessionConfig().with_model(VeriBugConfig(), epochs=3)

    def test_sim_engine_is_one_session_field(self):
        assert SessionConfig().sim_engine == "vector"
        assert not hasattr(VeriBugConfig(), "sim_engine")
        replaced = dataclasses.replace(SessionConfig(), sim_engine="interpreted")
        assert replaced.sim_engine == "interpreted"
        assert replaced.with_engine("vector").sim_engine == "vector"
        for retired in ("auto", "compiled"):
            with pytest.raises(ValueError, match="unknown sim_engine"):
                SessionConfig(sim_engine=retired)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sim_engine": "jit"},
            {"lint_policy": "strict"},
            {"n_workers": -1},
            {"n_traces": 0},
            {"min_correct_traces": -1},
            {"max_extra_batches": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SessionConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_traces_per_design": 0},
            {"n_cycles": 0},
            {"n_designs": -1},
            {"n_designs": 0},
            {"test_fraction": 1.0},
            {"test_fraction": 1.5},
            {"test_fraction": -0.1},
            {"engine": "jit"},
        ],
    )
    def test_corpus_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            CorpusSpec(**kwargs)

    def test_session_leaves_shared_model_cache_alone(self, trained_session):
        """Building a second session over a model leaves its warm
        context cache and attention-row memo as they were."""
        model = trained_session.model
        first = VeriBugSession(model, trained_session.encoder)
        buggy, failing, correct = planted_bug_case()
        first.localize(buggy, "y", failing, correct)
        before = (first.cache_stats(), first.memo_stats())
        assert before[0]["entries"] > 0 and before[1]["entries"] > 0
        second = VeriBugSession(
            model, trained_session.encoder, SessionConfig(fast_inference=False)
        )
        assert (second.cache_stats(), second.memo_stats()) == before
        assert model.context_cache.max_entries == 100_000


# ----------------------------------------------------------------------
# Equivalence: session facade vs the engines it drives
# ----------------------------------------------------------------------


class TestEngineEquivalence:
    def test_localization_engine_matches_session(self, session):
        buggy, failing, correct = planted_bug_case()
        engine = LocalizationEngine(session.model, session.encoder, session.config.model)
        engine_result = engine.localize(buggy, "y", failing, correct)
        session_result = session.localize(buggy, "y", failing, correct)
        assert session_result.ranking == engine_result.ranking
        assert set(session_result.heatmap.suspiciousness) == set(
            engine_result.heatmap.suspiciousness
        )
        for stmt_id, score in engine_result.heatmap.suspiciousness.items():
            assert abs(session_result.heatmap.suspiciousness[stmt_id] - score) < TOL

    @pytest.mark.parametrize("fast_inference", [True, False])
    def test_localize_is_one_request_localize_many(self, session, fast_inference):
        """On both arms ``localize`` equals ``localize_many`` of one
        request: identical rankings, suspiciousness within 1e-9."""
        from repro.core import LocalizationRequest

        arm = VeriBugSession(
            session.model, session.encoder, SessionConfig(fast_inference=fast_inference)
        )
        buggy, failing, correct = planted_bug_case()
        single = arm.localize(buggy, "y", failing, correct)
        (batched,) = arm.localize_many(
            [LocalizationRequest(buggy, "y", failing, correct)]
        )
        assert single.ranking == batched.ranking
        assert single.heatmap.suspiciousness.keys() == batched.heatmap.suspiciousness.keys()
        for stmt_id, score in batched.heatmap.suspiciousness.items():
            assert abs(single.heatmap.suspiciousness[stmt_id] - score) < TOL

    def test_campaign_engine_matches_handle(self, session):
        module = load_design("wb_mux_2")
        target = "wbs0_we_o"
        mutations = sample_mutations(
            module, {"negation": 2, "misuse": 2}, seed=11, min_operands=2
        )
        testbench = design_testbench("wb_mux_2", n_cycles=8)
        engine = CampaignEngine(
            session._localizer, n_traces=8, testbench_config=testbench, seed=3
        )
        engine_result = engine.run(module, target, mutations)

        handle = session.campaign(
            module, target, mutations, testbench=testbench, seed=3, n_traces=8
        )
        report = handle.run()

        assert len(report.outcomes) == len(engine_result.outcomes)
        for new, old in zip(report.outcomes, engine_result.outcomes):
            assert new.observable == old.observable
            assert new.rank == old.rank
            assert new.localized == old.localized
            if old.suspiciousness is None:
                assert new.suspiciousness is None
            else:
                assert abs(new.suspiciousness - old.suspiciousness) < TOL
        assert report.coverage == engine_result.coverage

    def test_session_corpus_matches_free_generate_corpus(self, session):
        spec = CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=6)
        via_session = session.generate_corpus(spec, seed=4)
        free_standing = generate_corpus(spec, seed=4)
        assert len(via_session) == len(free_standing)
        for a, b in zip(via_session, free_standing):
            assert a.operand_values == b.operand_values
            assert a.label == b.label
            assert a.design == b.design


# ----------------------------------------------------------------------
# Streaming campaigns
# ----------------------------------------------------------------------


class TestStreamingCampaign:
    @pytest.fixture(scope="class")
    def handle(self, session):
        return session.campaign(
            "wb_mux_2",
            "wbs0_we_o",
            plan={"negation": 2, "operation": 2, "misuse": 2},
            n_cycles=8,
            seed=3,
        )

    def test_stream_outcomes_equal_run(self, handle):
        updates = list(handle.stream())
        report = handle.run()
        assert len(updates) == len(handle) == len(report.outcomes)
        for update, outcome in zip(updates, report.outcomes):
            streamed = update.outcome
            assert streamed.mutation == outcome.mutation
            assert streamed.observable == outcome.observable
            assert streamed.rank == outcome.rank
            assert streamed.localized == outcome.localized
            assert streamed.suspiciousness == outcome.suspiciousness
            assert streamed.error == outcome.error

    def test_final_snapshot_bit_identical_to_run(self, handle):
        updates = list(handle.stream())
        report = handle.run()
        last = updates[-1].snapshot
        assert report.snapshot.suspiciousness == last.suspiciousness
        assert report.snapshot.ranking == last.ranking
        assert report.snapshot.counts == last.counts
        assert report.snapshot.completed == last.completed == len(handle)
        assert report.snapshot.observable == last.observable
        assert report.snapshot.localized == last.localized

    def test_snapshots_are_incremental_and_monotonic(self, handle):
        completed = 0
        seen_scored = 0
        for update in handle.stream():
            snapshot = update.snapshot
            completed += 1
            assert snapshot.completed == completed
            assert snapshot.total == len(handle)
            assert 0.0 <= snapshot.progress <= 1.0
            # Scored statements only ever accumulate.
            assert sum(snapshot.counts.values()) >= seen_scored
            seen_scored = sum(snapshot.counts.values())
            assert set(snapshot.ranking) == set(snapshot.suspiciousness)
            # Ranking is by decreasing mean suspiciousness, ties by id.
            scores = [snapshot.suspiciousness[s] for s in snapshot.ranking]
            assert scores == sorted(scores, reverse=True)
            if update.outcome.observable:
                assert update.localization is not None
            else:
                assert update.localization is None

    def test_outcomes_match_per_mutant_localization(self, session, handle):
        """Streamed ranks equal one-request-at-a-time localization."""
        for update in handle.stream():
            if update.localization is None:
                continue
            outcome = update.outcome
            assert outcome.rank == update.localization.rank_of(
                outcome.mutation.stmt_id
            )

    def test_chunks_stream_before_campaign_end(self, session, monkeypatch):
        """In process the campaign runs its ``plan_chunks(n, 1)`` chunks one
        after another through ``localize_chunk``, so the first update
        arrives before the second chunk is simulated."""
        from repro.datagen import campaign

        handle = session.campaign(
            "wb_mux_2",
            "wbs0_we_o",
            plan={"negation": 2, "operation": 2, "misuse": 2},
            n_cycles=8,
            seed=3,
        )
        spans = []
        original = campaign.TargetSimulation.localize_chunk

        def spy(simulation, span, *args):
            spans.append(span)
            return original(simulation, span, *args)

        monkeypatch.setattr(campaign.TargetSimulation, "localize_chunk", spy)
        stream = handle.stream()
        first = next(stream)
        assert first.outcome.mutation == handle.mutations[0]
        assert spans == [(0, 1)]  # the second chunk has not run yet
        assert len(list(stream)) == len(handle) - 1
        assert spans == campaign.plan_chunks(len(handle), 1)
        assert len(spans) >= 2

    @staticmethod
    def _two_campaigns(session, handle):
        """Stream the fixture campaign, then one with other mutants: at
        least two localizing calls, the second on other mutants."""
        list(handle.stream())
        list(
            session.campaign(
                "wb_mux_2",
                "wbs0_we_o",
                plan={"negation": 2, "operation": 2, "misuse": 2},
                n_cycles=8,
                seed=4,
            ).stream()
        )

    def test_structural_cache_shares_across_mutants(self, session, handle):
        """The headline: fresh contexts per mutant still hit the cache."""
        cache = session.model.context_cache
        cache.clear()
        cache.reset_stats()
        session.model.attention_memo.clear()
        self._two_campaigns(session, handle)
        stats = cache.stats()
        assert stats["cross_epoch_hits"] > 0
        assert stats["cross_epoch_hit_rate"] > 0.0

    def test_attention_memo_shares_across_mutants(self, session, handle):
        """The memo complement: repeated (structure, values) executions
        across mutants are served whole, without re-encoding."""
        memo = session.model.attention_memo
        memo.clear()
        memo.reset_stats()
        self._two_campaigns(session, handle)
        stats = memo.stats()
        assert stats["hits"] > 0
        assert stats["cross_epoch_hits"] > 0
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_empty_mutation_list(self, session):
        handle = session.campaign("wb_mux_2", "wbs0_we_o", mutations=[])
        assert list(handle.stream()) == []
        report = handle.run()
        assert report.outcomes == []
        assert report.snapshot.completed == 0
        assert isinstance(report.snapshot, HeatmapSnapshot)

    def test_campaign_resolves_source_and_names(self, session):
        source = (
            "module t(a, b, y); input a, b; output y;"
            " assign y = a ^ b; endmodule"
        )
        module = session.resolve_design(source)
        assert module.name == "t"
        assert session.resolve_design("wb_mux_2").name == "wb_mux_2"
        assert session.resolve_design(module) is module
        with pytest.raises(KeyError, match="unknown design"):
            session.resolve_design("no_such_design")


# ----------------------------------------------------------------------
# Checkpoint round-trip
# ----------------------------------------------------------------------


class TestCheckpointRoundTrip:
    def test_save_load_localize_identical(self, session, tmp_path):
        path = tmp_path / "model.npz"
        session.save(path)
        reloaded = VeriBugSession.from_checkpoint(path)
        buggy, failing, correct = planted_bug_case()
        a = session.localize(buggy, "y", failing, correct)
        b = reloaded.localize(buggy, "y", failing, correct)
        assert a.ranking == b.ranking
        for stmt_id, score in a.heatmap.suspiciousness.items():
            assert abs(b.heatmap.suspiciousness[stmt_id] - score) < TOL


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLI:
    def test_campaign_smoke_subprocess(self, tmp_path, trained_session):
        """The CI smoke command end-to-end (needs the committed fixture)."""
        out = tmp_path / "api_smoke.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--smoke",
             "--json", str(out)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "== campaign:" in proc.stdout
        assert "context cache:" in proc.stdout
        assert "0 interpreter fallback(s)" in proc.stdout
        assert "0 fixpoint suite(s)" in proc.stdout
        assert out.exists()

    def test_engine_choices_come_from_engines(self):
        import argparse

        from repro.api.cli import build_parser
        from repro.sim import ENGINES

        parser = build_parser()
        (commands,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        with_engine = [
            name
            for name, command in commands.choices.items()
            for action in command._actions
            if "--engine" in action.option_strings
            and tuple(action.choices) == ENGINES
        ]
        assert {"train", "campaign", "localize"} <= set(with_engine)
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--engine", "compiled"])

    def test_localize_requires_inputs(self):
        from repro.api.cli import main

        with pytest.raises(SystemExit):
            main(["localize", "--target", "y"])

    def test_train_rejects_bad_corpus_sizes_before_simulating(self, tmp_path):
        from repro.api.cli import main

        output = tmp_path / "m.npz"
        with pytest.raises(SystemExit, match="n_traces_per_design"):
            main(["train", "--traces", "0", "--quiet", "--output", str(output)])
        assert not output.exists()

    def test_plan_parsing(self):
        from repro.api.cli import _parse_plan

        assert _parse_plan("negation=2,misuse=1") == {"negation": 2, "misuse": 1}
        with pytest.raises(SystemExit):
            _parse_plan("negation")

    def test_default_plan_is_table_iii_shaped(self):
        assert set(DEFAULT_PLAN) == {"negation", "operation", "misuse"}
