"""Differential tests for the localization inference fast path.

The fast path — deduplicated samples, ``inference_mode`` forward passes,
and shared cross-mutant batches — must be *observably identical* to the
pre-dedup per-execution reference path: same attention maps, same
heatmap rankings, suspiciousness within 1e-9.
"""

import numpy as np

from repro.analysis import compute_static_slice, extract_module_contexts
from repro.core import Explainer, LocalizationEngine, LocalizationRequest
from repro.datagen import (
    CampaignEngine,
    RandomVerilogDesignGenerator,
    RVDGConfig,
    sample_mutations,
)
from repro.designs import REGISTRY, design_testbench, load_design
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.verilog import parse_module

TOL = 1e-9


def fast_and_legacy_explainers(trained_session):
    fast = Explainer(
        trained_session.model,
        trained_session.encoder,
        trained_session.config.model,
        fast_inference=True,
    )
    legacy = Explainer(
        trained_session.model,
        trained_session.encoder,
        trained_session.config.model,
        fast_inference=False,
    )
    return fast, legacy


def assert_maps_equal(fast_map, legacy_map):
    assert fast_map.statements() == legacy_map.statements()
    for stmt_id in fast_map.statements():
        assert fast_map.counts[stmt_id] == legacy_map.counts[stmt_id]
        assert np.allclose(
            fast_map.weights[stmt_id], legacy_map.weights[stmt_id], atol=TOL
        )


def design_traces(module, n_traces=4, n_cycles=8, seed=5):
    stimuli = generate_testbench_suite(
        module, n_traces, TestbenchConfig(n_cycles=n_cycles), seed=seed
    )
    return Simulator(module).run_suite(stimuli)


class TestAttentionMapDifferential:
    def test_paper_designs(self, trained_session):
        """Dedup + no-grad attention maps match the reference on all four
        paper designs."""
        fast, legacy = fast_and_legacy_explainers(trained_session)
        for name in REGISTRY:
            module = load_design(name)
            contexts = extract_module_contexts(module.statements())
            traces = design_traces(module)
            assert_maps_equal(
                fast.attention_map(contexts, traces),
                legacy.attention_map(contexts, traces),
            )

    def test_rvdg_sample(self, trained_session):
        """Same on a generated RVDG design (the training distribution)."""
        fast, legacy = fast_and_legacy_explainers(trained_session)
        generator = RandomVerilogDesignGenerator(RVDGConfig(), seed=7)
        for _name, source in generator.generate_corpus_sources(2):
            module = parse_module(source)
            contexts = extract_module_contexts(module.statements())
            traces = design_traces(module, n_traces=3, n_cycles=10, seed=9)
            assert_maps_equal(
                fast.attention_map(contexts, traces),
                legacy.attention_map(contexts, traces),
            )

    def test_dedup_reduces_inference_rows(self, trained_session, arbiter):
        """The whole point: distinct samples ≪ executions on cyclic traces."""
        fast, _ = fast_and_legacy_explainers(trained_session)
        contexts = extract_module_contexts(arbiter.statements())
        # Constant stimulus -> every cycle re-executes with the same values.
        trace = Simulator(arbiter).run(
            [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0} for _ in range(16)]
        )
        _keyed, _lhs, counts = fast.distinct_samples([(contexts, [trace], None)])
        assert counts.sum() > len(counts)  # real multiplicities folded
        amap = fast.attention_map(contexts, [trace])
        assert sum(amap.counts.values()) == counts.sum()


class TestLocalizeManyDifferential:
    def planted_bug_case(self):
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
        stimuli = generate_testbench_suite(
            golden, 20, TestbenchConfig(n_cycles=6), seed=3
        )
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

    def test_matches_per_request_localize(self, localizer):
        buggy, failing, correct = self.planted_bug_case()
        requests = [
            LocalizationRequest(buggy, "y", failing, correct),
            LocalizationRequest(buggy, "y", failing[:1], correct[:2]),
        ]
        batched = localizer.localize_many(requests)
        for request, from_batch in zip(requests, batched):
            single = localizer.localize(
                request.module,
                request.target,
                request.failing_traces,
                request.correct_traces,
            )
            assert from_batch.ranking == single.ranking
            assert set(from_batch.heatmap.suspiciousness) == set(
                single.heatmap.suspiciousness
            )
            for stmt_id, score in single.heatmap.suspiciousness.items():
                assert abs(from_batch.heatmap.suspiciousness[stmt_id] - score) < TOL

    def test_matches_legacy_reference(self, trained_session, localizer):
        buggy, failing, correct = self.planted_bug_case()
        legacy = LocalizationEngine(
            trained_session.model,
            trained_session.encoder,
            trained_session.config.model,
            fast_inference=False,
        )
        fast_result = localizer.localize_many(
            [LocalizationRequest(buggy, "y", failing, correct)]
        )[0]
        legacy_result = legacy.localize(buggy, "y", failing, correct)
        assert fast_result.ranking == legacy_result.ranking
        for stmt_id, score in legacy_result.heatmap.suspiciousness.items():
            assert abs(fast_result.heatmap.suspiciousness[stmt_id] - score) < TOL

    def test_empty_requests(self, localizer):
        assert localizer.localize_many([]) == []


class TestCampaignDifferential:
    def test_wb_mux_campaign_matches_reference(self, trained_session, localizer):
        """Batched fast-path campaign == per-mutant legacy campaign."""
        module = load_design("wb_mux_2")
        target = "wbs0_we_o"
        cone = compute_static_slice(module, target).stmt_ids
        mutations = sample_mutations(
            module,
            {"negation": 2, "operation": 2, "misuse": 2},
            seed=11,
            restrict_to=cone,
        )
        common = dict(
            n_traces=10,
            testbench_config=design_testbench("wb_mux_2", n_cycles=10),
            seed=3,
        )
        fast_campaign = CampaignEngine(localizer, **common)
        legacy_localizer = LocalizationEngine(
            trained_session.model,
            trained_session.encoder,
            trained_session.config.model,
            fast_inference=False,
        )
        legacy_campaign = CampaignEngine(legacy_localizer, **common)

        fast_result = fast_campaign.run(module, target, mutations)
        legacy_result = legacy_campaign.run(module, target, mutations)
        assert len(fast_result.outcomes) == len(legacy_result.outcomes)
        for fast_o, legacy_o in zip(fast_result.outcomes, legacy_result.outcomes):
            assert fast_o.observable == legacy_o.observable
            assert fast_o.rank == legacy_o.rank
            assert fast_o.localized == legacy_o.localized
            if legacy_o.suspiciousness is None:
                assert fast_o.suspiciousness is None
            else:
                assert abs(fast_o.suspiciousness - legacy_o.suspiciousness) < TOL
        assert fast_result.coverage == legacy_result.coverage
