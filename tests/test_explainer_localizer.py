"""Tests for attention maps, heatmap generation, and end-to-end localization."""

import numpy as np
import pytest

from repro.analysis import extract_module_contexts
from repro.core import (
    FT_ONLY_SUSPICIOUSNESS,
    AttentionMap,
    Explainer,
    normalized_l1_distance,
    render_heatmap,
    score_bin,
    score_glyph,
)
from repro.core.heatmap import format_operand_scores
from repro.sim import Simulator, TestbenchConfig, generate_testbench_suite
from repro.verilog import parse_module


class TestAttentionMap:
    def test_running_mean(self):
        amap = AttentionMap()
        amap.add(0, np.array([1.0, 0.0]))
        amap.add(0, np.array([0.0, 1.0]))
        assert np.allclose(amap.weights[0], [0.5, 0.5])
        assert amap.counts[0] == 2

    def test_statements(self):
        amap = AttentionMap()
        amap.add(3, np.array([1.0]))
        assert amap.statements() == {3}

    def test_weighted_add_equals_repeated_add(self):
        """add(w, count=k) must equal k per-execution adds (exact mean)."""
        a = np.array([0.7, 0.3])
        b = np.array([0.2, 0.8])
        per_exec = AttentionMap()
        for _ in range(3):
            per_exec.add(1, a)
        for _ in range(5):
            per_exec.add(1, b)
        weighted = AttentionMap()
        weighted.add(1, a, count=3)
        weighted.add(1, b, count=5)
        assert weighted.counts[1] == per_exec.counts[1] == 8
        assert np.allclose(weighted.weights[1], per_exec.weights[1], atol=1e-12)
        assert np.allclose(weighted.weights[1], (3 * a + 5 * b) / 8)


class TestNormalizedDistance:
    def test_identical_is_zero(self):
        a = np.array([0.5, 0.5])
        assert normalized_l1_distance(a, a) == 0.0

    def test_disjoint_is_one(self):
        assert normalized_l1_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_intermediate(self):
        d = normalized_l1_distance(np.array([0.8, 0.2]), np.array([0.6, 0.4]))
        assert np.isclose(d, 0.2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            normalized_l1_distance(np.array([1.0]), np.array([0.5, 0.5]))


class TestHeatmapCases:
    """The three presence cases of paper §IV-D."""

    def make_explainer(self, trained_session):
        return Explainer(
            trained_session.model, trained_session.encoder, trained_session.config.model
        )

    def test_ct_only_not_suspicious(self, trained_session):
        explainer = self.make_explainer(trained_session)
        ft, ct = AttentionMap(), AttentionMap()
        ct.add(7, np.array([0.5, 0.5]))
        heatmap = explainer.build_heatmap("t", ft, ct)
        assert 7 not in heatmap.entries
        assert heatmap.suspiciousness[7] == 0.0

    def test_ft_only_is_suspicious(self, trained_session):
        explainer = self.make_explainer(trained_session)
        ft, ct = AttentionMap(), AttentionMap()
        ft.add(7, np.array([0.9, 0.1]))
        heatmap = explainer.build_heatmap("t", ft, ct)
        assert heatmap.entries[7].case == "ft_only"
        assert heatmap.entries[7].suspiciousness == FT_ONLY_SUSPICIOUSNESS
        assert np.allclose(heatmap.entries[7].weights, [0.9, 0.1])

    def test_both_below_threshold_excluded(self, trained_session):
        explainer = self.make_explainer(trained_session)
        ft, ct = AttentionMap(), AttentionMap()
        ft.add(1, np.array([0.52, 0.48]))
        ct.add(1, np.array([0.50, 0.50]))
        heatmap = explainer.build_heatmap("t", ft, ct, threshold=0.10)
        assert 1 not in heatmap.entries
        assert heatmap.suspiciousness[1] == pytest.approx(0.02)

    def test_both_above_threshold_included(self, trained_session):
        explainer = self.make_explainer(trained_session)
        ft, ct = AttentionMap(), AttentionMap()
        ft.add(1, np.array([0.9, 0.1]))
        ct.add(1, np.array([0.5, 0.5]))
        heatmap = explainer.build_heatmap("t", ft, ct, threshold=0.10)
        assert heatmap.entries[1].case == "both"
        assert np.allclose(heatmap.entries[1].weights, [0.9, 0.1])  # Ft copied

    def test_ranking_order(self, trained_session):
        explainer = self.make_explainer(trained_session)
        ft, ct = AttentionMap(), AttentionMap()
        ft.add(1, np.array([0.7, 0.3]))
        ct.add(1, np.array([0.5, 0.5]))
        ft.add(2, np.array([0.95, 0.05]))
        ct.add(2, np.array([0.5, 0.5]))
        heatmap = explainer.build_heatmap("t", ft, ct, threshold=0.10)
        ranked = heatmap.ranked()
        assert [e.stmt_id for e in ranked] == [2, 1]
        assert heatmap.top_statement() == 2

    def test_empty_heatmap(self, trained_session):
        explainer = self.make_explainer(trained_session)
        heatmap = explainer.build_heatmap("t", AttentionMap(), AttentionMap())
        assert heatmap.top_statement() is None


class TestAttentionMapFromTraces:
    def test_counts_match_executions(self, trained_session, arbiter):
        explainer = Explainer(trained_session.model, trained_session.encoder)
        contexts = extract_module_contexts(arbiter.statements())
        sim = Simulator(arbiter)
        trace = sim.run(
            [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0} for _ in range(4)]
        )
        amap = explainer.attention_map(contexts, [trace])
        # stmt 4/5 (else branch) run all 4 cycles when state stays 0... state
        # toggles, so both branches run; every recorded count must be >= 1.
        assert all(c >= 1 for c in amap.counts.values())

    def test_restrict_to(self, trained_session, arbiter):
        explainer = Explainer(trained_session.model, trained_session.encoder)
        contexts = extract_module_contexts(arbiter.statements())
        sim = Simulator(arbiter)
        trace = sim.run(
            [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 1} for _ in range(4)]
        )
        amap = explainer.attention_map(contexts, [trace], restrict_to={4})
        assert amap.statements() <= {4}

    def test_weights_are_distributions(self, trained_session, arbiter):
        explainer = Explainer(trained_session.model, trained_session.encoder)
        contexts = extract_module_contexts(arbiter.statements())
        sim = Simulator(arbiter)
        trace = sim.run(
            [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 1} for _ in range(4)]
        )
        amap = explainer.attention_map(contexts, [trace])
        for weights in amap.weights.values():
            assert np.isclose(weights.sum(), 1.0)


class TestEndToEndLocalization:
    def test_planted_negation_bug_localized(self, localizer):
        """Inject ~ into a mux-like design; the bug stmt must rank highly."""
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
            golden, 30, TestbenchConfig(n_cycles=6), seed=3
        )
        gsim, bsim = Simulator(golden), Simulator(buggy)
        failing, correct = [], []
        for stim in stimuli:
            gt = gsim.run(stim, record=False)
            bt = bsim.run(stim)
            if bt.diverges_from(gt, signals=["y"]):
                failing.append(bt)
            else:
                correct.append(bt)
        assert failing and correct
        result = localizer.localize(buggy, "y", failing, correct)
        bug_stmt = 0  # y = a & ~b
        assert bug_stmt in result.static_slice.stmt_ids
        rank = result.rank_of(bug_stmt)
        assert rank is not None and rank <= 2

    def test_result_api(self, localizer, arbiter):
        sim = Simulator(arbiter)
        stim = [{"clk": 0, "rst_n": 1, "req1": 1, "req2": 0} for _ in range(3)]
        trace = sim.run(stim)
        result = localizer.localize(arbiter, "gnt1", [trace], [trace])
        # identical Ft/Ct -> zero distances -> empty heatmap
        assert result.ranking == []
        assert result.rank_of(0) is None
        assert not result.is_top1(0)


class TestHeatmapRendering:
    def test_score_bins(self):
        assert score_bin(0.0) == 0
        assert score_bin(1.0) == 4
        assert score_bin(0.5) == 2
        assert score_bin(-5.0) == 0
        assert score_bin(7.0) == 4

    def test_score_glyphs_monotone(self):
        glyphs = [score_glyph(s) for s in (0.0, 0.3, 0.9)]
        assert glyphs[0] != glyphs[2]

    def test_format_operand_scores(self):
        text = format_operand_scores(("a", "b"), np.array([0.9, 0.1]))
        assert "a[0.90" in text and "b[0.10" in text

    def test_format_operand_scores_pads_missing_names(self):
        """Weights beyond the name list are rendered, not silently dropped."""
        text = format_operand_scores(("a",), np.array([0.6, 0.3, 0.1]))
        assert "a[0.60" in text
        assert "op1[0.30" in text and "op2[0.10" in text
        assert "mismatch" in text

    def test_format_operand_scores_extra_names_flagged(self):
        text = format_operand_scores(("a", "b", "c"), np.array([0.9, 0.1]))
        assert "a[0.90" in text and "b[0.10" in text
        assert "c[" not in text
        assert "mismatch" in text

    def test_render_heatmap_with_mismatched_weights(self, arbiter):
        """A context/weights length disagreement must not lose weights."""
        from repro.core import Heatmap, HeatmapEntry

        contexts = extract_module_contexts(arbiter.statements())
        heatmap = Heatmap(target="gnt1")
        # stmt 2 has two operands (req1, req2) but pretend the model saw 3.
        heatmap.entries[2] = HeatmapEntry(
            stmt_id=2,
            weights=np.array([0.5, 0.3, 0.2]),
            suspiciousness=0.4,
            case="both",
        )
        text = render_heatmap(arbiter, heatmap, contexts)
        assert "op2[0.20" in text
        assert "mismatch" in text

    def test_render_contains_sources_and_bug_tag(self, trained_session, arbiter):
        from repro.core import Heatmap, HeatmapEntry

        contexts = extract_module_contexts(arbiter.statements())
        heatmap = Heatmap(target="gnt1")
        heatmap.entries[2] = HeatmapEntry(
            stmt_id=2, weights=np.array([0.8, 0.2]), suspiciousness=0.4, case="both"
        )
        heatmap.ct.add(2, np.array([0.5, 0.5]))
        text = render_heatmap(arbiter, heatmap, contexts, bug_stmt_id=2)
        assert "gnt1 = req1 & ~req2;" in text
        assert "<-- lbug" in text
        assert "Ft:" in text and "Ct:" in text

    def test_render_empty(self, trained_session, arbiter):
        from repro.core import Heatmap

        text = render_heatmap(arbiter, Heatmap(target="gnt1"), {})
        assert "no statement" in text

    def test_render_with_color(self, arbiter):
        from repro.core import Heatmap, HeatmapEntry

        contexts = extract_module_contexts(arbiter.statements())
        heatmap = Heatmap(target="gnt1")
        heatmap.entries[2] = HeatmapEntry(
            stmt_id=2, weights=np.array([0.8, 0.2]), suspiciousness=0.4, case="both"
        )
        text = render_heatmap(arbiter, heatmap, contexts, use_color=True)
        assert "\x1b[48;5;" in text

    def test_execution_coverage_counts_columns(self, arbiter):
        from repro.core import execution_coverage

        stimuli = generate_testbench_suite(
            arbiter, 3, TestbenchConfig(n_cycles=10), seed=4
        )
        traces = Simulator(arbiter).run_suite(stimuli)
        coverage = execution_coverage(traces)
        assert coverage
        # The coverage tally must match the per-trace record counts and
        # run straight off the columns (no record materialization).
        oracle: dict[int, int] = {}
        for trace in traces:
            for stmt_id in trace.executed_stmt_ids():
                oracle[stmt_id] = oracle.get(stmt_id, 0) + len(
                    trace.executions_of(stmt_id)
                )
            assert trace.executions._records is None
        assert coverage == oracle

    def test_render_heatmap_with_coverage(self, arbiter):
        from repro.core import Heatmap, HeatmapEntry, execution_coverage

        contexts = extract_module_contexts(arbiter.statements())
        heatmap = Heatmap(target="gnt1")
        heatmap.entries[2] = HeatmapEntry(
            stmt_id=2, weights=np.array([0.8, 0.2]), suspiciousness=0.4, case="both"
        )
        stimuli = generate_testbench_suite(
            arbiter, 1, TestbenchConfig(n_cycles=5), seed=4
        )
        coverage = execution_coverage(Simulator(arbiter).run_suite(stimuli))
        text = render_heatmap(arbiter, heatmap, contexts, coverage=coverage)
        assert f" executed {coverage.get(2, 0)}x" in text
