"""Semantic lint: shared diagnostics, rule families, engine, wiring, CLI."""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

import repro.diagnostics
import repro.ingest
from repro.analysis import compute_static_slice
from repro.api import SessionConfig
from repro.api.cli import main as cli_main
from repro.datagen import (
    creates_combinational_cycle,
    dead_statement_ids,
    sample_mutations,
)
from repro.diagnostics import Diagnostic, sort_diagnostics
from repro.ingest import LINT_POLICIES, CorpusManifest, ingest_directory
from repro.lint import (
    RULE_CATALOG,
    RULE_CLASSES,
    LintEngine,
    LintReport,
    Rule,
    lint_module,
    oscillating_components,
    unconditional_assigns,
    unobservable_statement_ids,
)
from repro.verilog import parse_module

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED_CORPUS = REPO_ROOT / "examples" / "corpus"


def lint(source: str) -> LintReport:
    return lint_module(parse_module(source))


# ----------------------------------------------------------------------
# The hoisted Diagnostic type
# ----------------------------------------------------------------------
class TestDiagnosticHoist:
    def test_ingest_reexport_is_the_shared_type(self):
        assert repro.ingest.Diagnostic is repro.diagnostics.Diagnostic

    def test_positional_construction_matches_ingest_era_order(self):
        # Old call sites built Diagnostic(file, line, col, construct,
        # decision, message) positionally; the canonical field order
        # preserves that meaning.
        d = Diagnostic("a.v", 3, 7, "initial block", "skip", "dropped")
        assert d.rule == "initial block"
        assert d.severity == "skip"

    def test_construct_and_decision_are_read_aliases(self):
        d = Diagnostic("a.v", 1, 1, "width.truncation", "warning", "m")
        assert d.construct == d.rule == "width.truncation"
        assert d.decision == d.severity == "warning"

    def test_to_dict_emits_canonical_keys(self):
        d = Diagnostic("a.v", 1, 2, "cycle.comb", "error", "m")
        data = d.to_dict()
        assert data["rule"] == "cycle.comb"
        assert data["severity"] == "error"
        assert "construct" not in data and "decision" not in data

    def test_from_dict_accepts_canonical_keys(self):
        d = Diagnostic("a.v", 1, 2, "cycle.comb", "error", "m")
        assert Diagnostic.from_dict(d.to_dict()) == d

    def test_from_dict_accepts_ingest_era_keys(self):
        data = {
            "file": "a.v",
            "line": 4,
            "col": 9,
            "construct": "module instantiation",
            "decision": "reject",
            "message": "hierarchy",
        }
        d = Diagnostic.from_dict(data)
        assert d.rule == "module instantiation"
        assert d.severity == "reject"

    def test_from_dict_without_rule_or_severity_raises(self):
        with pytest.raises(KeyError):
            Diagnostic.from_dict(
                {"file": "a.v", "line": 1, "col": 1, "message": "m"}
            )

    def test_render_keeps_ingest_decision_format(self):
        d = Diagnostic("a.v", 2, 5, "initial block", "skip", "dropped")
        assert d.render() == "a.v:2:5: initial block: dropped [skipped]"

    def test_render_lint_severity_format(self):
        d = Diagnostic("a.v", 2, 5, "driver.unused", "warning", "never read")
        assert d.render() == "a.v:2:5: warning: never read [driver.unused]"

    def test_sort_order_is_location_then_severity_then_rule(self):
        def at(line, sev, rule):
            return Diagnostic("a.v", line, 1, rule, sev, "m")

        diags = [
            at(9, "info", "x"),
            at(2, "warning", "b.rule"),
            at(2, "error", "z.rule"),
            at(2, "warning", "a.rule"),
            Diagnostic("0.v", 99, 1, "y", "info", "m"),
        ]
        ordered = sort_diagnostics(diags)
        assert [d.file for d in ordered[:1]] == ["0.v"]
        assert [(d.line, d.severity, d.rule) for d in ordered[1:]] == [
            (2, "error", "z.rule"),
            (2, "warning", "a.rule"),
            (2, "warning", "b.rule"),
            (9, "info", "x"),
        ]

    def test_reject_ranks_with_error_and_skip_with_warning(self):
        reject = Diagnostic("a.v", 1, 1, "c", "reject", "m")
        skip = Diagnostic("a.v", 1, 1, "c", "skip", "m")
        error = Diagnostic("a.v", 1, 1, "c", "error", "m")
        assert reject.severity_rank == error.severity_rank == 0
        assert skip.severity_rank == 1


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_catalog_has_at_least_six_families(self):
        families = {rule_id.split(".", 1)[0] for rule_id in RULE_CATALOG}
        assert {
            "driver", "cycle", "latch", "race", "width", "dead"
        } <= families

    def test_rule_ids_are_unique_and_dotted(self):
        ids = [cls.id for cls in RULE_CLASSES]
        assert len(ids) == len(set(ids))
        assert all("." in rule_id for rule_id in ids)

    def test_duplicate_rule_ids_rejected(self):
        class Dup(Rule):
            id = "driver.unused"

        from repro.lint import UnusedRule

        with pytest.raises(ValueError, match="duplicate"):
            LintEngine([UnusedRule(), Dup()])

    def test_rule_without_id_rejected(self):
        class NoId(Rule):
            pass

        with pytest.raises(ValueError, match="no id"):
            LintEngine([NoId()])

    def test_findings_come_back_sorted(self):
        report = lint(
            "module t(clk, a, y); input clk, a; output reg y; reg d;\n"
            "always @(posedge clk) d = a;\n"
            "always @(*) if (a) y = a;\n"
            "endmodule"
        )
        keys = [d.sort_key() for d in report.findings]
        assert keys == sorted(keys)

    def test_subset_engine_runs_only_its_rules(self):
        from repro.lint import LatchInferenceRule

        report = LintEngine([LatchInferenceRule()]).run(
            parse_module(
                "module t(a, y); input a; output reg y; reg d;\n"
                "always @(*) if (a) y = a;\n"
                "endmodule"
            )
        )
        assert {d.rule for d in report.findings} == {"latch.inferred"}

    def test_report_counts_and_filters(self):
        report = lint(
            "module t(a, y); input a; output y;\n"
            "assign y = a;\nassign y = ~a;\nwire q;\n"
            "endmodule"
        )
        counts = report.counts()
        assert counts["error"] == len(report.errors) >= 1
        assert counts["warning"] == len(report.warnings) >= 1
        assert counts["findings"] == len(report.findings)
        assert report.has_errors
        assert report.at_least("error") == report.errors
        assert set(report.at_least("warning")) == set(
            report.errors + report.warnings
        )

    def test_at_least_unknown_severity_raises(self):
        report = lint("module t(a, y); input a; output y; assign y = a; endmodule")
        with pytest.raises(ValueError, match="unknown severity"):
            report.at_least("fatal")

    def test_lint_is_purely_observational(self, arbiter):
        from repro.verilog.printer import format_module

        before = format_module(arbiter)
        lint_module(arbiter)
        assert format_module(arbiter) == before

    def test_clean_design_has_no_findings(self, arbiter):
        assert lint_module(arbiter).findings == []


# ----------------------------------------------------------------------
# Driver analysis rules
# ----------------------------------------------------------------------
class TestDriverRules:
    def test_multi_driven_is_an_error(self):
        report = lint(
            "module t(a, y); input a; output y;\n"
            "assign y = a;\n"
            "assign y = ~a;\n"
            "endmodule"
        )
        findings = report.by_rule("driver.multi-driven")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "first driver at line 2" in findings[0].message
        assert findings[0].line == 3

    def test_disjoint_bit_writes_are_legal(self):
        report = lint(
            "module t(a, b, y); input a, b; output [1:0] y;\n"
            "assign y[0] = a;\n"
            "assign y[1] = b;\n"
            "endmodule"
        )
        assert report.by_rule("driver.multi-driven") == []

    def test_overlapping_bit_writes_flagged(self):
        report = lint(
            "module t(a, b, y); input a, b; output [3:0] y;\n"
            "assign y[1:0] = {a, b};\n"
            "assign y[2:1] = {b, a};\n"
            "endmodule"
        )
        assert len(report.by_rule("driver.multi-driven")) == 1

    def test_two_writes_in_one_process_not_flagged(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) begin y = 1'b0; if (a) y = 1'b1; end\n"
            "endmodule"
        )
        assert report.by_rule("driver.multi-driven") == []

    def test_undriven_read_signal_flagged(self):
        report = lint(
            "module t(a, y); input a; output y; wire q;\n"
            "assign y = a & q;\n"
            "endmodule"
        )
        findings = report.by_rule("driver.undriven")
        assert len(findings) == 1
        assert "'q'" in findings[0].message

    def test_inputs_are_never_undriven(self):
        report = lint(
            "module t(a, y); input a; output y; assign y = a; endmodule"
        )
        assert report.by_rule("driver.undriven") == []

    def test_unused_variants(self):
        report = lint(
            "module t(a, b, y); input a, b; output y;\n"
            "wire never_used;\n"
            "wire written;\n"
            "assign written = a;\n"
            "assign y = a;\n"
            "endmodule"
        )
        messages = {d.message for d in report.by_rule("driver.unused")}
        assert any("input port 'b' is never read" in m for m in messages)
        assert any(
            "'written' is driven but never read" in m for m in messages
        )
        assert any(
            "'never_used' is declared but never used" in m for m in messages
        )

    def test_outputs_and_read_signals_not_unused(self, arbiter):
        assert lint_module(arbiter).by_rule("driver.unused") == []


# ----------------------------------------------------------------------
# Combinational cycles
# ----------------------------------------------------------------------
class TestCycleRule:
    def test_self_loop_is_an_error(self):
        module = parse_module(
            "module t(y); output y; wire x;\n"
            "assign x = ~x;\nassign y = x;\nendmodule"
        )
        report = lint_module(module)
        findings = report.by_rule("cycle.comb")
        assert len(findings) == 1
        assert findings[0].severity == "error"
        assert "'x'" in findings[0].message or "x" in findings[0].message

    def test_two_signal_loop_reports_both_members(self):
        module = parse_module(
            "module t(y); output y; wire p, q;\n"
            "assign p = ~q;\nassign q = p;\nassign y = p;\nendmodule"
        )
        assert oscillating_components(module) == [["p", "q"]]
        assert len(lint_module(module).by_rule("cycle.comb")) == 1

    def test_clocked_feedback_is_clean(self, arbiter):
        assert lint_module(arbiter).by_rule("cycle.comb") == []
        assert oscillating_components(arbiter) == []

    def test_default_then_override_pattern_is_clean(self):
        # The ordered blocking-assignment idiom: a read of a variable
        # already assigned earlier in the same pass is not cross-pass.
        module = parse_module(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) begin y = 1'b0; if (a) y = ~y; end\n"
            "endmodule"
        )
        assert lint_module(module).by_rule("cycle.comb") == []

    def test_rule_agrees_with_mutation_rejection_check(self):
        sources = [
            "module t(y); output y; wire x; assign x = ~x;"
            " assign y = x; endmodule",
            "module t(a, y); input a; output y; assign y = a; endmodule",
            "module t(a, y); input a; output reg y;"
            " always @(*) begin y = 1'b0; if (a) y = ~y; end endmodule",
        ]
        for source in sources:
            module = parse_module(source)
            assert bool(
                lint_module(module).by_rule("cycle.comb")
            ) == creates_combinational_cycle(module)


# ----------------------------------------------------------------------
# Latch inference
# ----------------------------------------------------------------------
class TestLatchRule:
    def test_if_without_else_infers_latch(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) if (a) y = a;\n"
            "endmodule"
        )
        findings = report.by_rule("latch.inferred")
        assert len(findings) == 1
        assert "latch inferred" in findings[0].message

    def test_full_if_else_is_clean(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) if (a) y = a; else y = 1'b0;\n"
            "endmodule"
        )
        assert report.by_rule("latch.inferred") == []

    def test_default_before_branch_is_clean(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) begin y = 1'b0; if (a) y = a; end\n"
            "endmodule"
        )
        assert report.by_rule("latch.inferred") == []

    def test_case_without_default_infers_latch(self):
        report = lint(
            "module t(s, y); input [1:0] s; output reg y;\n"
            "always @(*) case (s) 2'd0: y = 1'b1; 2'd1: y = 1'b0; endcase\n"
            "endmodule"
        )
        assert len(report.by_rule("latch.inferred")) == 1

    def test_case_with_default_is_clean(self):
        report = lint(
            "module t(s, y); input [1:0] s; output reg y;\n"
            "always @(*) case (s) 2'd0: y = 1'b1; default: y = 1'b0; endcase\n"
            "endmodule"
        )
        assert report.by_rule("latch.inferred") == []

    def test_clocked_blocks_never_infer_latches(self, arbiter):
        assert lint_module(arbiter).by_rule("latch.inferred") == []

    def test_unconditional_assigns_helper(self):
        module = parse_module(
            "module t(a, y, z); input a; output reg y, z;\n"
            "always @(*) begin y = 1'b0; if (a) z = 1'b1; end\n"
            "endmodule"
        )
        assert unconditional_assigns(module.always_blocks[0].body) == {"y"}


# ----------------------------------------------------------------------
# Blocking/nonblocking races
# ----------------------------------------------------------------------
class TestRaceRules:
    def test_nonblocking_in_comb_flagged(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) y <= a;\n"
            "endmodule"
        )
        assert len(report.by_rule("race.nonblocking-in-comb")) == 1

    def test_blocking_in_comb_is_fine(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) y = a;\n"
            "endmodule"
        )
        assert report.by_rule("race.nonblocking-in-comb") == []

    def test_blocking_in_seq_flagged(self):
        report = lint(
            "module t(clk, a, y); input clk, a; output reg y;\n"
            "always @(posedge clk) y = a;\n"
            "endmodule"
        )
        assert len(report.by_rule("race.blocking-in-seq")) == 1

    def test_nonblocking_in_seq_is_fine(self, arbiter):
        assert lint_module(arbiter).by_rule("race.blocking-in-seq") == []

    def test_cross_block_blocking_read_flagged(self):
        report = lint(
            "module t(clk, a, y); input clk, a; output reg y; reg s;\n"
            "always @(posedge clk) s = a;\n"
            "always @(posedge clk) y <= s;\n"
            "endmodule"
        )
        findings = report.by_rule("race.cross-block-blocking")
        assert len(findings) == 1
        assert "evaluation order" in findings[0].message
        # Reported at the write site (line 2), not the read.
        assert findings[0].line == 2

    def test_cross_block_nonblocking_is_fine(self):
        report = lint(
            "module t(clk, a, y); input clk, a; output reg y; reg s;\n"
            "always @(posedge clk) s <= a;\n"
            "always @(posedge clk) y <= s;\n"
            "endmodule"
        )
        assert report.by_rule("race.cross-block-blocking") == []

    def test_same_block_blocking_read_is_fine(self):
        report = lint(
            "module t(clk, a, y); input clk, a; output reg y; reg s;\n"
            "always @(posedge clk) begin s = a; y <= s; end\n"
            "endmodule"
        )
        assert report.by_rule("race.cross-block-blocking") == []


# ----------------------------------------------------------------------
# Width diagnostics
# ----------------------------------------------------------------------
class TestWidthRules:
    def test_truncating_assignment_flagged(self):
        report = lint(
            "module t(a, b, y); input [7:0] a, b; output [3:0] y;\n"
            "assign y = a + b;\n"
            "endmodule"
        )
        findings = report.by_rule("width.truncation")
        assert len(findings) == 1
        assert "8-bit" in findings[0].message
        assert "4 bit(s)" in findings[0].message

    def test_matching_widths_are_clean(self):
        report = lint(
            "module t(a, b, y); input [7:0] a, b; output [7:0] y;\n"
            "assign y = a + b;\n"
            "endmodule"
        )
        assert report.by_rule("width.truncation") == []

    def test_unsized_literal_sized_by_value_not_container(self):
        # y = a + 1 must not be flagged: the unsized literal means
        # "1", not a 32-bit value.
        report = lint(
            "module t(a, y); input [7:0] a; output [7:0] y;\n"
            "assign y = a + 1;\n"
            "endmodule"
        )
        assert report.by_rule("width.truncation") == []

    def test_compare_result_is_one_bit(self):
        report = lint(
            "module t(a, b, y); input [7:0] a, b; output y;\n"
            "assign y = a == b;\n"
            "endmodule"
        )
        assert report.by_rule("width.truncation") == []

    def test_oversized_constant_compare_flagged(self):
        report = lint(
            "module t(a, y); input [1:0] a; output y;\n"
            "assign y = a == 3'd5;\n"
            "endmodule"
        )
        findings = report.by_rule("width.oversized-constant")
        assert len(findings) == 1
        assert "constant 5" in findings[0].message
        assert "2-bit" in findings[0].message

    def test_fitting_constant_compare_is_clean(self):
        report = lint(
            "module t(a, y); input [1:0] a; output y;\n"
            "assign y = a == 2'd3;\n"
            "endmodule"
        )
        assert report.by_rule("width.oversized-constant") == []

    def test_oversized_parameter_compare_flagged(self):
        report = lint(
            "module t(a, y); parameter BIG = 9; input [2:0] a; output y;\n"
            "assign y = a == BIG;\n"
            "endmodule"
        )
        assert len(report.by_rule("width.oversized-constant")) == 1


# ----------------------------------------------------------------------
# Dead code
# ----------------------------------------------------------------------
DEAD_CODE_SOURCE = textwrap.dedent(
    """\
    module t(a, b, y);
      input a, b;
      output y;
      wire dead1, dead2;
      assign dead1 = a & b;
      assign dead2 = dead1 | b;
      assign y = a ^ b;
    endmodule
    """
)


class TestDeadCodeRules:
    def test_unobservable_assignments_flagged(self):
        report = lint(DEAD_CODE_SOURCE)
        findings = report.by_rule("dead.unobservable")
        assert len(findings) == 2
        assert all("cannot influence any output" in d.message for d in findings)

    def test_live_design_is_clean(self, arbiter):
        assert lint_module(arbiter).by_rule("dead.unobservable") == []

    def test_no_output_design_skipped(self):
        module = parse_module(
            "module t(a); input a; wire q; assign q = a; endmodule"
        )
        assert lint_module(module).by_rule("dead.unobservable") == []
        assert unobservable_statement_ids(module) == set()

    def test_constant_if_condition_flagged(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) begin y = a; if (1'b0) y = ~a; end\n"
            "endmodule"
        )
        findings = report.by_rule("dead.constant-branch")
        assert len(findings) == 1
        assert "constantly false" in findings[0].message

    def test_constant_parameter_condition_flagged(self):
        report = lint(
            "module t(a, y); parameter EN = 1; input a; output reg y;\n"
            "always @(*) begin y = 1'b0; if (EN) y = a; end\n"
            "endmodule"
        )
        assert len(report.by_rule("dead.constant-branch")) == 1

    def test_constant_case_subject_flagged(self):
        report = lint(
            "module t(a, y); input a; output reg y;\n"
            "always @(*) case (2'd1) 2'd0: y = a;"
            " default: y = ~a; endcase\n"
            "endmodule"
        )
        findings = report.by_rule("dead.constant-branch")
        assert len(findings) == 1
        assert "subject is constant" in findings[0].message

    def test_variable_condition_is_clean(self, arbiter):
        assert lint_module(arbiter).by_rule("dead.constant-branch") == []


# ----------------------------------------------------------------------
# Mutation-engine wiring
# ----------------------------------------------------------------------
class TestMutationWiring:
    def test_dead_statement_ids_matches_lint_analysis(self):
        module = parse_module(DEAD_CODE_SOURCE)
        assert dead_statement_ids(module) == unobservable_statement_ids(module)
        assert dead_statement_ids(module) == {0, 1}

    def test_exclude_dead_filters_sampling_pool(self):
        module = parse_module(DEAD_CODE_SOURCE)
        plan = {"negation": 50, "operation": 50, "misuse": 50}
        with_dead = sample_mutations(module, plan, seed=3)
        without_dead = sample_mutations(module, plan, seed=3, exclude_dead=True)
        assert {m.stmt_id for m in without_dead} == {2}
        assert len(without_dead) < len(with_dead)

    def test_exclude_dead_is_noop_under_cone_restriction(self):
        # Campaign sampling restricts to the target output's dependency
        # cone; dead statements are disjoint from any output's cone, so
        # adding exclude_dead must be bit-identical (the acceptance
        # guarantee that lint is additive).
        module = parse_module(DEAD_CODE_SOURCE)
        cone = compute_static_slice(module, "y").stmt_ids
        plan = {"negation": 5, "operation": 5, "misuse": 5}
        for seed in (0, 7, 13):
            baseline = sample_mutations(
                module, plan, seed=seed, restrict_to=cone, min_operands=2
            )
            guarded = sample_mutations(
                module,
                plan,
                seed=seed,
                restrict_to=cone,
                min_operands=2,
                exclude_dead=True,
            )
            assert baseline == guarded

    def test_exclude_dead_noop_on_arbiter_cones(self, arbiter):
        plan = {"negation": 4, "operation": 4, "misuse": 4}
        for target in arbiter.outputs:
            cone = compute_static_slice(arbiter, target).stmt_ids
            assert sample_mutations(
                arbiter, plan, seed=1, restrict_to=cone, min_operands=2
            ) == sample_mutations(
                arbiter,
                plan,
                seed=1,
                restrict_to=cone,
                min_operands=2,
                exclude_dead=True,
            )


# ----------------------------------------------------------------------
# Hardened cone lookups
# ----------------------------------------------------------------------
class TestConeErrors:
    def test_dependency_cone_names_target_and_candidates(self, arbiter):
        from repro.analysis import design_index

        with pytest.raises(ValueError) as excinfo:
            design_index(arbiter).cone("ghost")
        message = str(excinfo.value)
        assert "'ghost'" in message
        assert "gnt1" in message and "gnt2" in message


# ----------------------------------------------------------------------
# Ingestion wiring
# ----------------------------------------------------------------------
def _write_corpus(root: pathlib.Path) -> pathlib.Path:
    root.mkdir(exist_ok=True)
    (root / "clean.v").write_text(
        "module clean(a, y); input a; output y; assign y = ~a; endmodule\n"
    )
    (root / "multi.v").write_text(
        "module multi(a, y); input a; output y;\n"
        "assign y = a;\nassign y = ~a;\nendmodule\n"
    )
    (root / "warny.v").write_text(
        "module warny(a, b, y); input a, b; output y;\n"
        "wire unused_wire;\nassign y = a & b;\nendmodule\n"
    )
    return root


class TestIngestWiring:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        return _write_corpus(tmp_path / "corpus")

    def test_record_policy_stores_findings(self, corpus_dir):
        corpus = ingest_directory(corpus_dir)
        by_name = {r.name: r for r in corpus.manifest.designs}
        assert [d.rule for d in by_name["multi"].lint] == [
            "driver.multi-driven"
        ]
        assert [d.rule for d in by_name["warny"].lint] == ["driver.unused"]
        assert by_name["clean"].lint == []
        # record policy never demotes: the erroring design stays usable.
        assert set(corpus.designs) == {"clean", "multi", "warny"}

    def test_reject_errors_policy_demotes(self, corpus_dir):
        corpus = ingest_directory(corpus_dir, lint_policy="reject-errors")
        by_name = {r.name: r for r in corpus.manifest.designs}
        assert by_name["multi"].status == "rejected"
        assert "multi" not in corpus.designs
        # Findings stay on the rejected record for reporting.
        assert [d.rule for d in by_name["multi"].lint] == [
            "driver.multi-driven"
        ]
        assert by_name["multi"].diagnostics[-1].rule == "lint errors"
        # Warnings never reject.
        assert by_name["warny"].status == "supported"
        assert "warny" in corpus.designs

    def test_off_policy_skips_lint(self, corpus_dir):
        corpus = ingest_directory(corpus_dir, lint_policy="off")
        assert all(r.lint == [] for r in corpus.manifest.designs)

    def test_unknown_policy_raises(self, corpus_dir):
        with pytest.raises(ValueError, match="lint_policy"):
            ingest_directory(corpus_dir, lint_policy="bogus")

    def test_lint_findings_round_trip_through_json(self, corpus_dir, tmp_path):
        manifest = ingest_directory(corpus_dir).manifest
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = CorpusManifest.load(path)
        original = {r.name: r.lint for r in manifest.designs}
        restored = {r.name: r.lint for r in loaded.designs}
        assert restored == original
        assert any(restored.values())

    def test_ingest_is_deterministic(self, corpus_dir):
        first = ingest_directory(corpus_dir).manifest
        second = ingest_directory(corpus_dir).manifest
        assert [r.lint for r in first.designs] == [
            r.lint for r in second.designs
        ]

    def test_session_config_lint_policy(self):
        assert SessionConfig().lint_policy == "record"
        assert SessionConfig().with_lint("off").lint_policy == "off"
        with pytest.raises(ValueError, match="lint_policy"):
            SessionConfig(lint_policy="bogus")
        assert set(LINT_POLICIES) == {"record", "reject-errors", "off"}


# ----------------------------------------------------------------------
# The committed corpus: lint-clean, and the findings snapshot is golden
# ----------------------------------------------------------------------
class TestCommittedCorpusLint:
    def test_committed_corpus_is_lint_clean(self):
        corpus = ingest_directory(COMMITTED_CORPUS)
        for record in corpus.manifest.designs:
            assert record.lint == [], (
                f"{record.name} acquired lint findings:"
                f" {[d.render() for d in record.lint]}"
            )

    def test_committed_manifest_carries_lint_field(self):
        data = json.loads((COMMITTED_CORPUS / "manifest.json").read_text())
        assert all("lint" in rec for rec in data["designs"])

    def test_lint_snapshot_matches_fresh_run(self):
        """CI gate: no new findings versus the committed snapshot."""
        snapshot = json.loads((COMMITTED_CORPUS / "lint.json").read_text())
        corpus = ingest_directory(COMMITTED_CORPUS)
        fresh = {
            rec.name: [d.to_dict() for d in rec.lint]
            for rec in corpus.manifest.designs
            if rec.name in corpus.designs
        }
        committed = {
            design["design"]: design["findings"]
            for design in snapshot["designs"]
        }
        assert fresh == committed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
WARNY_FILE = (
    "module lintme(clk, a, b, y);\n"
    "  input clk, a, b;\n"
    "  output reg y;\n"
    "  reg dead;\n"
    "  always @(*) begin\n"
    "    if (a) y = a & b;\n"
    "  end\n"
    "  always @(posedge clk) dead = a;\n"
    "endmodule\n"
)


class TestLintCLI:
    def test_file_mode_reports_warnings_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "lintme.v"
        path.write_text(WARNY_FILE)
        assert cli_main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[latch.inferred]" in out
        assert "[dead.unobservable]" in out
        assert "0 error(s)" in out

    def test_fail_on_warning_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "lintme.v"
        path.write_text(WARNY_FILE)
        assert cli_main(["lint", str(path), "--fail-on", "warning"]) == 1

    def test_errors_exit_nonzero_by_default(self, tmp_path, capsys):
        path = tmp_path / "multi.v"
        path.write_text(
            "module m(a, y); input a; output y;\n"
            "assign y = a;\nassign y = ~a;\nendmodule\n"
        )
        assert cli_main(["lint", str(path)]) == 1
        assert "[driver.multi-driven]" in capsys.readouterr().out

    def test_fail_on_never_always_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "multi.v"
        path.write_text(
            "module m(a, y); input a; output y;\n"
            "assign y = a;\nassign y = ~a;\nendmodule\n"
        )
        assert cli_main(["lint", str(path), "--fail-on", "never"]) == 0

    def test_min_severity_filters_display(self, tmp_path, capsys):
        path = tmp_path / "lintme.v"
        path.write_text(WARNY_FILE)
        cli_main(["lint", str(path), "--min-severity", "error"])
        out = capsys.readouterr().out
        assert "[latch.inferred]" not in out

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        path = tmp_path / "lintme.v"
        path.write_text(WARNY_FILE)
        cli_main(["lint", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["designs"] == 1
        rules = {
            f["rule"]
            for design in payload["designs"]
            for f in design["findings"]
        }
        assert "latch.inferred" in rules

    def test_directory_mode_over_committed_corpus(self, capsys):
        assert cli_main(["lint", str(COMMITTED_CORPUS)]) == 0
        out = capsys.readouterr().out
        assert "design(s) linted" in out
        assert "not linted" in out  # the two parse-rejected designs

    def test_output_writes_snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "lintme.v"
        path.write_text(WARNY_FILE)
        out_path = tmp_path / "lint.json"
        cli_main(["lint", str(path), "--output", str(out_path)])
        payload = json.loads(out_path.read_text())
        assert payload["designs"][0]["design"] == "lintme"

    def test_unlintable_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.v"
        path.write_text("module broken(; endmodule\n")
        assert cli_main(["lint", str(path)]) == 2

    def test_missing_path_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="no such file"):
            cli_main(["lint", str(tmp_path / "nope.v")])

    def test_ingest_lint_policy_flag(self, tmp_path, capsys):
        corpus = _write_corpus(tmp_path / "corpus")
        assert (
            cli_main(
                ["ingest", str(corpus), "--lint-policy", "reject-errors"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "lint errors" in out
