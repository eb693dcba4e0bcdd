"""Design ingestion: walker layouts, subset detection, manifests, CLI."""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

from repro.api import SessionConfig, VeriBugSession
from repro.core import VeriBugConfig
from repro.datagen import derive_testbench
from repro.ingest import (
    CorpusManifest,
    Diagnostic,
    detect_modules,
    discover_designs,
    ingest_directory,
)
from repro.verilog import parse_module

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMITTED_CORPUS = REPO_ROOT / "examples" / "corpus"

COUNTER = textwrap.dedent(
    """\
    module counter (clk, rst_n, en, count);
        input clk, rst_n, en;
        output reg [7:0] count;
        always @(posedge clk or negedge rst_n)
            if (!rst_n) count <= 8'h00;
            else if (en) count <= count + 8'd1;
    endmodule
    """
)


# ----------------------------------------------------------------------
# Walker
# ----------------------------------------------------------------------
class TestWalker:
    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            discover_designs(tmp_path / "nope")

    def test_rtllm_layout_shares_directory_testbench(self, tmp_path):
        d = tmp_path / "adder"
        d.mkdir()
        (d / "adder.v").write_text("module adder; endmodule\n")
        (d / "helper.v").write_text("module helper; endmodule\n")
        (d / "testbench.v").write_text("module tb; endmodule\n")
        found = discover_designs(tmp_path)
        assert [f.rel_path for f in found] == ["adder/adder.v", "adder/helper.v"]
        assert all(f.layout == "rtllm" for f in found)
        assert all(f.testbench_path == d / "testbench.v" for f in found)

    def test_verilogeval_pairs(self, tmp_path):
        (tmp_path / "mux_ref.sv").write_text("module mux; endmodule\n")
        (tmp_path / "mux_test.sv").write_text("module mux_test; endmodule\n")
        found = discover_designs(tmp_path)
        assert len(found) == 1
        assert found[0].layout == "verilogeval"
        assert found[0].testbench_path == tmp_path / "mux_test.sv"

    def test_flat_file_has_no_testbench(self, tmp_path):
        (tmp_path / "alone.v").write_text("module alone; endmodule\n")
        found = discover_designs(tmp_path)
        assert found[0].layout == "flat"
        assert found[0].testbench_path is None

    def test_testbench_files_are_never_designs(self, tmp_path):
        (tmp_path / "a_tb.v").write_text("module a_tb; endmodule\n")
        (tmp_path / "b_test.sv").write_text("module b_test; endmodule\n")
        (tmp_path / "testbench.v").write_text("module tb; endmodule\n")
        assert discover_designs(tmp_path) == []

    def test_non_verilog_files_ignored(self, tmp_path):
        (tmp_path / "README.md").write_text("# nothing\n")
        (tmp_path / "design.v").write_text("module design; endmodule\n")
        assert [f.rel_path for f in discover_designs(tmp_path)] == ["design.v"]


# ----------------------------------------------------------------------
# Detector
# ----------------------------------------------------------------------
class TestDetector:
    def test_clean_module_is_supported(self):
        (result,) = detect_modules(COUNTER, file="counter.v")
        assert result.status == "supported"
        assert result.module is not None
        assert result.module.name == "counter"
        assert result.diagnostics == []

    def test_initial_block_is_skipped_not_fatal(self):
        source = COUNTER.replace(
            "always @(posedge",
            "initial begin count = 8'hFF; end\n    always @(posedge",
        )
        (result,) = detect_modules(source, file="c.v")
        assert result.status == "partial"
        assert result.module is not None
        (diag,) = result.diagnostics
        assert diag.construct == "initial block"
        assert diag.decision == "skip"

    def test_directive_reported_with_location(self):
        (result,) = detect_modules("`timescale 1ns/1ps\n" + COUNTER, file="c.v")
        assert result.status == "partial"
        (diag,) = result.diagnostics
        assert diag.construct == "directive `timescale"
        assert (diag.line, diag.col) == (1, 1)
        assert "c.v:1:1" in diag.render()

    def test_instantiation_rejects(self):
        source = COUNTER.replace(
            "always @(posedge",
            "sub u0 (.clk(clk));\n    always @(posedge",
        )
        (result,) = detect_modules(source)
        assert result.status == "rejected"
        assert result.module is None
        assert any(
            d.construct == "module instantiation" and d.decision == "reject"
            for d in result.diagnostics
        )

    def test_reject_words_reported_once_per_construct(self):
        source = textwrap.dedent(
            """\
            module m (y);
                output y;
                function f; endfunction
                function g; endfunction
            endmodule
            """
        )
        (result,) = detect_modules(source)
        constructs = [d.construct for d in result.diagnostics]
        assert constructs.count("function definition") == 1

    def test_memory_declaration_rejects(self):
        source = textwrap.dedent(
            """\
            module m (y);
                output y;
                reg [7:0] mem [0:255];
                assign y = 1'b0;
            endmodule
            """
        )
        (result,) = detect_modules(source)
        assert result.status == "rejected"
        assert any(d.construct == "memory declaration" for d in result.diagnostics)

    def test_parse_error_becomes_diagnostic_not_exception(self):
        (result,) = detect_modules("module m (y);\n output y;\n assign y = ;")
        assert result.status == "rejected"
        assert any("error" in d.construct for d in result.diagnostics)
        assert all(d.line >= 1 and d.col >= 1 for d in result.diagnostics)

    def test_multiple_modules_detected_independently(self):
        source = COUNTER + "\nmodule bad (y);\n output y;\n initial fork join\nendmodule\n"
        results = detect_modules(source)
        assert [r.name for r in results] == ["counter", "bad"]
        assert results[0].status == "supported"
        assert results[1].status == "rejected"

    def test_no_module_yields_rejected_placeholder(self):
        (result,) = detect_modules("// just a comment\n")
        assert result.status == "rejected"
        assert result.name == "<unknown>"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_json_round_trip(self, tmp_path):
        corpus = _make_corpus(tmp_path)
        ingested = ingest_directory(corpus)
        path = tmp_path / "manifest.json"
        ingested.manifest.save(path)
        loaded = CorpusManifest.load(path)
        assert loaded.counts() == ingested.manifest.counts()
        first = loaded.designs[0]
        assert isinstance(first.diagnostics, list)
        assert all(isinstance(d, Diagnostic) for d in first.diagnostics)

    def test_counts_partition_designs(self, tmp_path):
        ingested = ingest_directory(_make_corpus(tmp_path))
        counts = ingested.manifest.counts()
        assert counts["designs"] == (
            counts["supported"] + counts["partial"] + counts["rejected"]
        )


# ----------------------------------------------------------------------
# Ingestion pipeline
# ----------------------------------------------------------------------
class TestIngestDirectory:
    def test_usable_designs_reparse_from_canonical_source(self, tmp_path):
        ingested = ingest_directory(_make_corpus(tmp_path))
        for design in ingested.designs.values():
            reparsed = parse_module(design.source)
            assert reparsed.name == design.name

    def test_duplicate_module_names_reject_second(self, tmp_path):
        (tmp_path / "one.v").write_text(COUNTER)
        (tmp_path / "two.v").write_text(COUNTER)
        ingested = ingest_directory(tmp_path)
        assert len(ingested) == 1
        rejected = ingested.manifest.rejected
        assert len(rejected) == 1
        assert rejected[0].diagnostics[-1].construct == "duplicate design"

    def test_design_without_outputs_rejected(self, tmp_path):
        (tmp_path / "sink.v").write_text(
            "module sink (a);\n input a;\n wire b;\n assign b = a;\nendmodule\n"
        )
        ingested = ingest_directory(tmp_path)
        assert len(ingested) == 0
        assert ingested.manifest.designs[0].diagnostics[-1].construct == "no outputs"

    def test_ports_and_statement_counts_recorded(self, tmp_path):
        (tmp_path / "counter.v").write_text(COUNTER)
        record = ingest_directory(tmp_path).manifest.record("counter")
        assert record.ports["inputs"] == {"clk": 1, "rst_n": 1, "en": 1}
        assert record.ports["outputs"] == {"count": 8}
        assert record.n_statements == 2


# ----------------------------------------------------------------------
# Derived testbenches
# ----------------------------------------------------------------------
class TestDeriveTestbench:
    def test_wide_compare_biases_input_density(self):
        module = parse_module(
            textwrap.dedent(
                """\
                module m (addr, hit);
                    input [7:0] addr;
                    output hit;
                    assign hit = (addr == 8'hFF);
                endmodule
                """
            )
        )
        config = derive_testbench(module)
        assert config.biases["addr"] == pytest.approx(0.95)

    def test_narrow_inputs_stay_unbiased(self):
        module = parse_module(
            textwrap.dedent(
                """\
                module m (mode, y);
                    input [1:0] mode;
                    output y;
                    assign y = (mode == 2'b11);
                endmodule
                """
            )
        )
        assert derive_testbench(module).biases == {}

    def test_density_clamped_at_floor(self):
        module = parse_module(
            textwrap.dedent(
                """\
                module m (addr, hit);
                    input [7:0] addr;
                    output hit;
                    assign hit = (addr == 8'h00);
                endmodule
                """
            )
        )
        assert derive_testbench(module).biases["addr"] == pytest.approx(0.05)


# ----------------------------------------------------------------------
# The committed corpus
# ----------------------------------------------------------------------
class TestCommittedCorpus:
    def test_meets_acceptance_floor(self):
        ingested = ingest_directory(COMMITTED_CORPUS)
        counts = ingested.manifest.counts()
        assert counts["designs"] >= 24
        assert counts["supported"] / counts["designs"] >= 0.8
        assert len(ingested) >= 24

    def test_committed_manifest_matches_fresh_ingest(self):
        committed = CorpusManifest.load(COMMITTED_CORPUS / "manifest.json")
        fresh = ingest_directory(COMMITTED_CORPUS).manifest
        assert committed.counts() == fresh.counts()
        assert {r.name for r in committed.designs} == {
            r.name for r in fresh.designs
        }
        assert {r.name for r in committed.rejected} == {
            r.name for r in fresh.rejected
        }

    def test_every_layout_present(self):
        layouts = {f.layout for f in discover_designs(COMMITTED_CORPUS)}
        assert layouts == {"rtllm", "verilogeval", "flat"}

    def test_exemplar_diagnostics_rendered(self):
        ingested = ingest_directory(COMMITTED_CORPUS)
        rendered = [
            d.render()
            for rec in ingested.manifest.designs
            for d in rec.diagnostics
        ]
        assert any("module instantiation" in line for line in rendered)
        assert any("function definition" in line for line in rendered)
        assert any("initial block" in line for line in rendered)
        assert any("directive `timescale" in line for line in rendered)


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionOverCorpus:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tmp_path_factory):
        return _make_corpus(tmp_path_factory.mktemp("corpus"))

    @pytest.fixture(scope="class")
    def corpus_session(self, corpus_dir):
        config = (
            SessionConfig(
                model=VeriBugConfig(
                    dc=8, da=12, node_embed_dim=8, predictor_hidden=12, epochs=2
                )
            )
            .with_seed(3)
            .with_corpus(corpus_dir)
        )
        session = VeriBugSession.train(config, evaluate=False, log=False)
        yield session
        session.close()

    def test_training_uses_ingested_designs(self, corpus_session):
        assert set(corpus_session.corpus.names()) == {"counter", "mixer"}

    def test_resolve_design_by_corpus_name(self, corpus_session):
        module = corpus_session.resolve_design("counter")
        assert module.name == "counter"

    def test_unknown_design_error_lists_corpus_names(self, corpus_session):
        with pytest.raises(KeyError, match="mixer"):
            corpus_session.resolve_design("nonexistent")

    def test_campaign_over_ingested_design(self, corpus_session):
        report = corpus_session.campaign(
            "mixer", "y", plan={"negation": 2}, n_cycles=8
        ).run()
        assert report.snapshot.completed == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_ingest_report_and_exit_code(self, tmp_path, capsys):
        from repro.api.cli import main

        _make_corpus(tmp_path)
        assert main(["ingest", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "supported" in out
        assert "counter" in out

    def test_ingest_json_is_machine_readable(self, tmp_path, capsys):
        from repro.api.cli import main

        _make_corpus(tmp_path)
        assert main(["ingest", str(tmp_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["designs"] == len(data["designs"])

    def test_campaign_ingests_corpus_once(
        self, tmp_path, monkeypatch, capsys, trained_session
    ):
        import repro.ingest
        from repro.api.cli import main

        calls = []
        ingest = repro.ingest.ingest_directory

        def counting_ingest(*args, **kwargs):
            calls.append(args)
            return ingest(*args, **kwargs)

        monkeypatch.setattr(repro.ingest, "ingest_directory", counting_ingest)
        _make_corpus(tmp_path)
        args = ["campaign", "--corpus", str(tmp_path), "--design", "mixer",
                "--plan", "negation=1", "--cycles", "6"]
        assert main(args) == 0
        assert "== campaign: mixer / y ==" in capsys.readouterr().out
        assert len(calls) == 1

    def test_ingest_missing_directory_exits_cleanly(self, tmp_path):
        from repro.api.cli import main

        with pytest.raises(SystemExit, match="not a directory"):
            main(["ingest", str(tmp_path / "missing")])

    def test_ingest_nothing_usable_exits_nonzero(self, tmp_path, capsys):
        from repro.api.cli import main

        (tmp_path / "bad.v").write_text(
            "module bad (y);\n output y;\n sub u0 (.y(y));\nendmodule\n"
        )
        assert main(["ingest", str(tmp_path)]) == 1

    def test_localize_parse_error_is_file_line_col(self, tmp_path):
        from repro.api.cli import main

        golden = tmp_path / "golden.v"
        golden.write_text("module m (y);\n output y;\n assign y = 1'b0;\nendmodule\n")
        buggy = tmp_path / "buggy.v"
        buggy.write_text("module m (y);\n output y;\n assign y = ;\nendmodule\n")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "localize",
                    "--golden", str(golden),
                    "--source", str(buggy),
                    "--target", "y",
                ]
            )
        message = str(excinfo.value)
        assert message.startswith(f"{buggy}:3:")
        assert "unexpected token" in message

    def test_localize_missing_file_exits_cleanly(self, tmp_path):
        from repro.api.cli import main

        golden = tmp_path / "golden.v"
        golden.write_text("module m (y);\n output y;\n assign y = 1'b0;\nendmodule\n")
        with pytest.raises(SystemExit, match="cannot read"):
            main(
                [
                    "localize",
                    "--golden", str(tmp_path / "missing.v"),
                    "--source", str(golden),
                    "--target", "y",
                ]
            )


def _make_corpus(root: pathlib.Path) -> pathlib.Path:
    """A small mixed-status corpus: two usable designs, one rejected."""
    (root / "counter.v").write_text(COUNTER)
    (root / "mixer.v").write_text(
        textwrap.dedent(
            """\
            module mixer (clk, rst_n, a, b, y);
                input clk, rst_n;
                input [3:0] a, b;
                output reg [3:0] y;
                always @(posedge clk or negedge rst_n)
                    if (!rst_n) y <= 4'h0;
                    else y <= (a ^ b) + 4'd1;
            endmodule
            """
        )
    )
    (root / "hier.v").write_text(
        "module hier (y);\n output y;\n sub u0 (.y(y));\nendmodule\n"
    )
    return root
