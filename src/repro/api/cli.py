"""``python -m repro`` — the session facade as a command line.

Five subcommands drive :class:`repro.api.VeriBugSession`:

* ``train`` — train on an RVDG synthetic corpus (or, with ``--corpus``,
  on designs ingested from disk) and save a checkpoint::

      python -m repro train --designs 20 --epochs 30 --output model.npz
      python -m repro train --corpus examples/corpus --output model.npz

* ``ingest`` — walk a directory of real Verilog, classify every design
  against the supported subset, and report per-construct diagnostics::

      python -m repro ingest examples/corpus
      python -m repro ingest examples/corpus --json

* ``lint`` — run the semantic lint rules (:mod:`repro.lint`) over one
  Verilog file or a whole corpus directory; exits nonzero when findings
  at or above ``--fail-on`` (default: error) are present::

      python -m repro lint examples/corpus
      python -m repro lint design.v --json --min-severity warning

* ``campaign`` — run a bug-injection campaign, streaming per-mutant
  outcomes and incremental heatmap rankings as they complete::

      python -m repro campaign --design wb_mux_2 --target wbs0_we_o
      python -m repro campaign --smoke          # tiny CI workload

* ``localize`` — inject one sampled bug (or bring your own buggy
  source), collect failing/passing traces, and render the heatmap::

      python -m repro localize --design wb_mux_2 --target wbs0_we_o
      python -m repro localize --golden g.v --source buggy.v --target y

Without ``--model`` the commands look for the committed paper-scale
checkpoint (``tests/.cache/model_e30_d20_s1.npz``) and fall back to
training a fresh model (slow) when it is absent.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from ..sim import ENGINES
from .campaign import DEFAULT_PLAN, CampaignHandle
from .config import SessionConfig
from .session import VeriBugSession

#: Checkpoint used when --model is omitted (the committed test fixture).
DEFAULT_CHECKPOINT = pathlib.Path("tests/.cache/model_e30_d20_s1.npz")


def _repo_default_checkpoint() -> pathlib.Path | None:
    """The committed fixture, from the CWD or the source checkout."""
    candidates = [
        DEFAULT_CHECKPOINT,
        pathlib.Path(__file__).resolve().parents[3] / DEFAULT_CHECKPOINT,
    ]
    for path in candidates:
        if path.exists():
            return path
    return None


def _build_config(args: argparse.Namespace) -> SessionConfig:
    config = SessionConfig().with_seed(args.seed)
    try:
        if getattr(args, "engine", None) is not None:
            config = config.with_engine(args.engine)
        if getattr(args, "workers", None) is not None:
            config = config.with_workers(args.workers)
        if getattr(args, "epochs", None) is not None:
            config = config.with_model(epochs=args.epochs)
        if getattr(args, "corpus", None) is not None:
            config = config.with_corpus(args.corpus)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    return config


def _parse_verilog_file(path_str: str):
    """Parse a Verilog file for the CLI, turning frontend errors into
    ``file:line:col: message`` exits instead of tracebacks."""
    from ..verilog.errors import VerilogError
    from ..verilog.parser import parse_module

    path = pathlib.Path(path_str)
    try:
        source = path.read_text()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from exc
    try:
        return parse_module(source)
    except VerilogError as exc:
        raise SystemExit(
            f"{path}:{exc.line or 1}:{exc.col or 1}: {exc.message}"
        ) from exc


def _load_session(
    args: argparse.Namespace, config: SessionConfig, corpus=None
) -> VeriBugSession:
    """Checkpoint-or-train model resolution shared by campaign/localize.

    ``corpus`` is ``config.corpus_dir`` already ingested by the caller; a
    checkpoint session reuses it instead of ingesting again.
    """
    path = pathlib.Path(args.model) if args.model else _repo_default_checkpoint()
    if path is not None and path.exists():
        print(f"loading model from {path}")
        return VeriBugSession.from_checkpoint(path, config, corpus=corpus)
    if args.model:
        raise SystemExit(f"checkpoint not found: {args.model}")
    print("no checkpoint found; training a fresh model (slow — consider"
          " `python -m repro train --output model.npz` once)")
    return VeriBugSession.train(config, evaluate=False)


#: Mutation classes the campaign engine can inject.
MUTATION_KINDS = ("negation", "operation", "misuse")


def _parse_plan(text: str) -> dict[str, int]:
    """Parse ``negation=2,operation=2,misuse=3`` into a plan dict."""
    plan: dict[str, int] = {}
    for part in text.split(","):
        kind, _, count = part.partition("=")
        kind = kind.strip()
        if kind not in MUTATION_KINDS:
            raise SystemExit(
                f"unknown mutation kind {kind!r} in --plan;"
                f" available: {', '.join(MUTATION_KINDS)}"
            )
        try:
            plan[kind] = int(count)
        except ValueError:
            raise SystemExit(
                f"bad --plan entry {part!r}; expected kind=count"
            ) from None
        if plan[kind] < 0:
            raise SystemExit(
                f"bad --plan entry {part!r}; count must be >= 0"
            )
    return plan


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def cmd_train(args: argparse.Namespace) -> int:
    from ..pipeline import CorpusSpec

    config = _build_config(args)
    if args.designs is None:
        # Corpus mode defaults to every usable ingested design (0 = all).
        n_designs = 0 if args.corpus else 20
    else:
        n_designs = args.designs
    t0 = time.perf_counter()
    try:
        corpus = CorpusSpec(
            n_designs=n_designs,
            n_traces_per_design=args.traces,
            n_cycles=args.cycles,
            engine=config.sim_engine,
            source_dir=args.corpus,
        )
        session = VeriBugSession.train(config, corpus, log=not args.quiet)
    except (NotADirectoryError, ValueError) as exc:
        # Bad corpus sizes or directory / nothing usable ingested: user
        # error, not a traceback.
        raise SystemExit(str(exc)) from exc
    wall = time.perf_counter() - t0
    if session.train_metrics:
        print(f"train accuracy: {session.train_metrics.accuracy:.3f}")
    if session.test_metrics:
        print(f"held-out accuracy: {session.test_metrics.accuracy:.3f}")
    session.save(args.output)
    print(f"trained in {wall:.1f}s; checkpoint written to {args.output}")
    session.close()
    return 0


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def _stream_campaign(handle: CampaignHandle) -> dict:
    """Drive one campaign handle, printing the stream as it arrives."""
    last_snapshot = None
    for update in handle.stream():
        outcome, snapshot = update.outcome, update.snapshot
        last_snapshot = snapshot
        mutation = outcome.mutation
        if outcome.error:
            status = f"error: {outcome.error[:40]}"
        elif not outcome.observable:
            status = "not observable"
        else:
            rank = outcome.rank if outcome.rank is not None else "unranked"
            status = f"rank={rank}"
            if outcome.suspiciousness is not None:
                status += f" d={outcome.suspiciousness:.3f}"
        top = ",".join(str(s) for s in snapshot.ranking[:3]) or "-"
        print(
            f"  [{snapshot.completed}/{snapshot.total}]"
            f" {mutation.kind:<10} stmt {mutation.stmt_id:<3} {status:<24}"
            f" | coverage {snapshot.localized}/{snapshot.observable}"
            f" | top: {top}"
        )
    if last_snapshot is None:
        return {
            "completed": 0,
            "observable": 0,
            "localized": 0,
            "coverage": 0.0,
            "errors": 0,
            "ranking": [],
            "suspiciousness": {},
        }
    return {
        "completed": last_snapshot.completed,
        "observable": last_snapshot.observable,
        "localized": last_snapshot.localized,
        "coverage": round(last_snapshot.coverage, 4),
        "errors": last_snapshot.errors,
        "ranking": list(last_snapshot.ranking),
        "suspiciousness": {
            str(k): round(v, 6) for k, v in last_snapshot.suspiciousness.items()
        },
    }


def cmd_campaign(args: argparse.Namespace) -> int:
    from ..designs import REGISTRY, design_info, load_design

    config = _build_config(args)
    if args.smoke:
        config = config.with_campaign_defaults(n_traces=8)

    # Validate the workload *before* the potentially slow model load; the
    # session reuses this ingest.
    corpus = None
    if args.corpus:
        from ..ingest import ingest_directory

        try:
            corpus = ingest_directory(args.corpus, lint_policy=config.lint_policy)
        except NotADirectoryError as exc:
            raise SystemExit(str(exc)) from exc
        if not corpus.designs:
            raise SystemExit(
                f"no usable designs ingested from {args.corpus!r}"
            )

    def campaign_targets(name: str) -> list[str]:
        """All campaign targets of a design (paper targets or outputs)."""
        if name in REGISTRY:
            return list(design_info(name).targets)
        return list(corpus.module(name).outputs)

    if args.design:
        if args.design in REGISTRY:
            outputs = load_design(args.design).outputs
        elif corpus is not None and args.design in corpus:
            outputs = corpus.module(args.design).outputs
        else:
            available = list(REGISTRY) + (corpus.names() if corpus else [])
            raise SystemExit(
                f"unknown design {args.design!r};"
                f" available: {', '.join(available)}"
            )
        designs = [args.design]
        if args.target and args.target not in outputs:
            raise SystemExit(
                f"design {args.design!r} has no output {args.target!r};"
                f" available targets: {', '.join(campaign_targets(args.design))}"
            )
    else:
        designs = corpus.names() if corpus is not None else list(REGISTRY)
        if args.target:
            # A bare --target only applies to designs that define it.
            designs = [
                name for name in designs
                if args.target in campaign_targets(name)
            ]
            if not designs:
                raise SystemExit(
                    f"no available design has target {args.target!r}"
                )
    if args.smoke:
        designs = designs[:1]
    plan = _parse_plan(args.plan) if args.plan else (
        {"negation": 1, "operation": 1, "misuse": 1} if args.smoke else DEFAULT_PLAN
    )
    session = _load_session(args, config, corpus)

    results = {}
    for name in designs:
        targets = [args.target] if args.target else campaign_targets(name)
        if args.smoke:
            targets = targets[:1]
        for target in targets:
            print(f"== campaign: {name} / {target} ==")
            handle = session.campaign(
                name,
                target,
                plan=plan,
                n_cycles=args.cycles,
                seed=args.seed,
            )
            summary = _stream_campaign(handle)
            results[f"{name}/{target}"] = summary
            print(
                f"  done: observable={summary['observable']}"
                f" localized={summary['localized']}"
                f" coverage={summary['coverage'] * 100:.1f}%"
            )
    stats = session.cache_stats()
    print(
        f"context cache: hit rate {stats['hit_rate']:.1%}"
        f" (cross-mutant {stats['cross_epoch_hit_rate']:.1%},"
        f" {int(stats['entries'])} entries)"
    )
    memo_stats = session.memo_stats()
    print(
        f"attention memo: hit rate {memo_stats['hit_rate']:.1%}"
        f" (cross-mutant {memo_stats['cross_epoch_hit_rate']:.1%},"
        f" {int(memo_stats['entries'])} entries)"
    )
    runtime_stats = session.runtime_stats()
    sim_stats = runtime_stats["simulation"]
    engines = sim_stats["engines"]
    cache_line = sim_stats["compile_cache"]
    suite_memo = sim_stats["suite_memo"]
    print(
        f"simulation: engine={sim_stats['engine']},"
        f" vector {engines['vector']['batches']} suite(s)"
        f" ({engines['vector']['lanes']} lanes,"
        f" {engines['vector']['variant_lanes']} on mutant variants,"
        f" {engines['vector']['cycles']} lane-cycles,"
        f" {engines['vector']['comb_passes']} comb pass(es),"
        f" {engines['vector']['fixpoint_batches']} fixpoint suite(s),"
        f" {engines['vector']['scalar_fallbacks']} interpreter fallback(s)),"
        f" interpreted {engines['interpreted']['runs']} run(s)"
        f" ({engines['interpreted']['cycles']} cycles),"
        f" compile cache {cache_line['hits']} hit(s) /"
        f" {cache_line['misses']} miss(es),"
        f" {cache_line['entries']} live entr(ies),"
        f" {cache_line['target_programs']} target program(s),"
        f" suite memo {suite_memo['hits']} hit(s) /"
        f" {suite_memo['misses']} miss(es),"
        f" {suite_memo['suites']} suite(s) held"
    )
    if "pool_size" in runtime_stats:
        print(
            f"runtime: pool of {runtime_stats['pool_size']}"
            f" ({runtime_stats['start_method']}),"
            f" {runtime_stats['pools_started']} pool start(s) for"
            f" {runtime_stats['campaigns_served']} campaign(s),"
            f" worker cache hit rate"
            f" {runtime_stats['worker_cache']['hit_rate']:.1%},"
            f" worker memo hit rate"
            f" {runtime_stats['worker_memo']['hit_rate']:.1%}"
        )
    if args.json:
        payload = {
            "campaigns": results,
            "cache": stats,
            "memo": memo_stats,
            "runtime": runtime_stats,
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    session.close()
    return 0


# ----------------------------------------------------------------------
# localize
# ----------------------------------------------------------------------
def cmd_localize(args: argparse.Namespace) -> int:
    from ..analysis import design_index
    from ..core import render_heatmap
    from ..datagen.campaign import _classify
    from ..sim import Simulator, TestbenchConfig, generate_testbench_suite
    from ..verilog.printer import statement_source

    config = _build_config(args)

    # Validate inputs before the potentially slow model load.
    if args.source and not args.golden:
        raise SystemExit("--source requires --golden")
    if not args.source and not args.design:
        raise SystemExit("need --design NAME or --golden/--source files")
    if args.design:
        from ..designs import REGISTRY, design_info, golden_module

        if args.design not in REGISTRY:
            raise SystemExit(
                f"unknown design {args.design!r};"
                f" available: {', '.join(REGISTRY)}"
            )
        if args.target not in golden_module(REGISTRY[args.design].source).outputs:
            raise SystemExit(
                f"design {args.design!r} has no output {args.target!r};"
                f" paper targets: {', '.join(design_info(args.design).targets)}"
            )
    session = _load_session(args, config)

    if args.source:
        # Bring-your-own-bug mode: golden + buggy sources, shared stimuli.
        golden = _parse_verilog_file(args.golden)
        buggy = _parse_verilog_file(args.source)
        testbench = TestbenchConfig(n_cycles=args.cycles, engine=config.sim_engine)
        stimuli = generate_testbench_suite(
            golden, args.traces, testbench, seed=args.seed
        )
        golden_traces = Simulator(golden, engine=config.sim_engine).run_suite(
            stimuli, record=False
        )
        traces = Simulator(buggy, engine=config.sim_engine).run_suite(stimuli)
        failing, correct = [], []
        _classify(traces, golden_traces, args.target, golden.outputs, failing, correct)
        if not failing:
            print(f"no failing traces at {args.target}; nothing to localize")
            return 1
        result = session.localize(buggy, args.target, failing, correct)
        print(f"{len(failing)} failing / {len(correct)} correct traces")
        print(f"ranking (stmt ids): {result.ranking}")
        print(render_heatmap(buggy, result.heatmap, result.contexts))
        return 0

    # Demo mode: inject one sampled bug and localize it via the campaign
    # stream (first observable mutant wins).
    handle = session.campaign(
        args.design,
        args.target,
        plan=_parse_plan(args.plan) if args.plan else DEFAULT_PLAN,
        n_cycles=args.cycles,
        seed=args.seed,
    )
    module = handle.module
    for update in handle.stream():
        if update.localization is None:
            continue
        outcome, localization = update.outcome, update.localization
        stmt = design_index(module).statement(outcome.mutation.stmt_id)
        print(f"injected {outcome.mutation.kind} bug into stmt"
              f" {outcome.mutation.stmt_id}: {statement_source(stmt)}")
        print(f"observable with {outcome.n_failing} failing /"
              f" {outcome.n_correct} correct traces")
        print(f"ranking (stmt ids): {localization.ranking}"
              f" — true bug ranked {outcome.rank}")
        print(render_heatmap(
            module,
            localization.heatmap,
            localization.contexts,
            bug_stmt_id=outcome.mutation.stmt_id,
        ))
        return 0
    print("no sampled mutant was observable at the target; try another"
          " --seed or --plan")
    return 1


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
#: Human-readable status column of the ingest report.
_STATUS_LABELS = {
    "supported": "ok",
    "partial": "partial",
    "rejected": "REJECTED",
}


def cmd_ingest(args: argparse.Namespace) -> int:
    from ..ingest import ingest_directory

    try:
        corpus = ingest_directory(args.directory, lint_policy=args.lint_policy)
    except NotADirectoryError as exc:
        raise SystemExit(str(exc)) from exc
    manifest = corpus.manifest

    if args.output:
        manifest.save(args.output)
    if args.json:
        print(json.dumps(manifest.to_dict(), indent=2))
    else:
        n_lint = 0
        for rec in manifest.designs:
            testbench = rec.testbench_path or "derived"
            print(
                f"{rec.name:<28} {_STATUS_LABELS[rec.status]:<9}"
                f" {rec.layout:<12} {rec.source_path}  [tb: {testbench}]"
            )
            for diag in rec.diagnostics:
                print(f"    {diag.render()}")
            for diag in rec.lint:
                print(f"    {diag.render()}")
                n_lint += 1
        counts = manifest.counts()
        lint_note = f", {n_lint} lint finding(s)" if n_lint else ""
        print(
            f"\n{counts['designs']} design(s):"
            f" {counts['supported']} supported,"
            f" {counts['partial']} partial,"
            f" {counts['rejected']} rejected"
            f" ({len(corpus)} usable{lint_note})"
        )
        if args.output:
            print(f"manifest written to {args.output}")
    return 0 if corpus.designs else 1


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------
def _lint_reports(path: pathlib.Path):
    """Lint a file or corpus directory.

    Returns:
        ``(reports, not_linted)`` — one :class:`repro.lint.LintReport`
        per linted design, plus ``(name, diagnostics)`` pairs for
        designs that never reached the lint engine (parse/policy
        rejections).
    """
    from ..lint import LintReport, lint_module

    reports: list = []
    not_linted: list = []
    if path.is_dir():
        from ..ingest import ingest_directory

        corpus = ingest_directory(path, lint_policy="record")
        for rec in corpus.manifest.designs:
            if rec.name in corpus.designs:
                # Ingestion already ran the engine; reuse its findings.
                reports.append(
                    LintReport(
                        design=rec.name,
                        file=rec.source_path,
                        findings=list(rec.lint),
                    )
                )
            else:
                not_linted.append((rec.name, list(rec.diagnostics)))
    elif path.is_file():
        from ..ingest import detect_modules

        try:
            source = path.read_text()
        except OSError as exc:
            raise SystemExit(f"cannot read {path}: {exc}") from exc
        for detected in detect_modules(source, file=str(path)):
            if detected.module is not None:
                report = lint_module(detected.module, file=str(path))
                report.design = detected.name
                reports.append(report)
            else:
                not_linted.append((detected.name, list(detected.diagnostics)))
    else:
        raise SystemExit(f"no such file or directory: {path}")
    return reports, not_linted


def cmd_lint(args: argparse.Namespace) -> int:
    from ..diagnostics import SEVERITIES

    path = pathlib.Path(args.path)
    try:
        reports, not_linted = _lint_reports(path)
    except NotADirectoryError as exc:
        raise SystemExit(str(exc)) from exc

    totals = {severity: 0 for severity in SEVERITIES}
    for report in reports:
        for diag in report.findings:
            totals[diag.severity] = totals.get(diag.severity, 0) + 1

    if args.json:
        payload = {
            "path": str(path),
            "designs": [r.to_dict() for r in reports],
            "not_linted": [
                {"design": name, "diagnostics": [d.to_dict() for d in diags]}
                for name, diags in not_linted
            ],
            "counts": {**totals, "designs": len(reports)},
        }
        text = json.dumps(payload, indent=2)
        if args.output:
            pathlib.Path(args.output).write_text(text + "\n")
        else:
            print(text)
    else:
        for report in reports:
            shown = report.at_least(args.min_severity)
            if not shown:
                continue
            print(f"== {report.design} ({report.file}) ==")
            for diag in shown:
                print(f"  {diag.render()}")
        for name, diags in not_linted:
            print(f"== {name}: not linted (rejected before lint) ==")
            for diag in diags:
                print(f"  {diag.render()}")
        print(
            f"{len(reports)} design(s) linted:"
            f" {totals['error']} error(s),"
            f" {totals['warning']} warning(s),"
            f" {totals['info']} info"
            + (f"; {len(not_linted)} not linted" if not_linted else "")
        )
        if args.output:
            pathlib.Path(args.output).write_text(
                json.dumps(
                    {
                        "path": str(path),
                        "designs": [r.to_dict() for r in reports],
                        "counts": {**totals, "designs": len(reports)},
                    },
                    indent=2,
                )
                + "\n"
            )
            print(f"findings written to {args.output}")

    # A file the user explicitly named but that could not be linted at
    # all is a failure in its own right.
    if path.is_file() and not reports:
        return 2
    if args.fail_on == "never":
        return 0
    cutoff = SEVERITIES.index(args.fail_on)
    failing = sum(
        totals[severity] for severity in SEVERITIES[: cutoff + 1]
    )
    return 1 if failing else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="VeriBug reproduction: train, campaign, localize.",
    )
    from .. import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, cycles: int) -> None:
        p.add_argument("--model", help="checkpoint path (.npz)")
        p.add_argument("--seed", type=int, default=13, help="data seed")
        p.add_argument("--engine", choices=ENGINES)
        p.add_argument("--workers", type=int, help="simulation process pool size")
        p.add_argument("--cycles", type=int, default=cycles,
                       help="cycles per testbench")

    train = sub.add_parser("train", help="train a model, save a checkpoint")
    train.add_argument("--designs", type=int, default=None,
                       help="corpus size (default 20 RVDG designs;"
                            " with --corpus, all usable designs)")
    train.add_argument("--traces", type=int, default=4, help="testbenches per design")
    train.add_argument("--cycles", type=int, default=25)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--seed", type=int, default=1)
    train.add_argument("--engine", choices=ENGINES)
    train.add_argument("--workers", type=int)
    train.add_argument("--corpus",
                       help="train on designs ingested from this directory"
                            " instead of RVDG synthetics")
    train.add_argument("--output", default="model.npz", help="checkpoint path")
    train.add_argument("--quiet", action="store_true", help="no per-epoch losses")
    train.set_defaults(func=cmd_train)

    ingest = sub.add_parser(
        "ingest", help="classify a directory of Verilog against the subset"
    )
    ingest.add_argument("directory", help="corpus root to walk")
    ingest.add_argument("--json", action="store_true",
                        help="print the manifest as JSON instead of a report")
    ingest.add_argument("--output", help="also write the manifest JSON here")
    from ..ingest import LINT_POLICIES

    ingest.add_argument("--lint-policy", dest="lint_policy",
                        choices=LINT_POLICIES, default="record",
                        help="ingest-time lint policy (default: record)")
    ingest.set_defaults(func=cmd_ingest)

    lint = sub.add_parser(
        "lint", help="run the semantic lint rules over a file or corpus"
    )
    lint.add_argument("path", help="Verilog file or corpus directory")
    lint.add_argument("--json", action="store_true",
                      help="print findings as JSON instead of a report")
    lint.add_argument("--output", help="also write the findings JSON here")
    lint.add_argument("--min-severity", dest="min_severity",
                      choices=("error", "warning", "info"), default="info",
                      help="hide findings below this severity (default: info)")
    lint.add_argument("--fail-on", dest="fail_on",
                      choices=("error", "warning", "info", "never"),
                      default="error",
                      help="exit nonzero on findings at or above this"
                           " severity (default: error)")
    lint.set_defaults(func=cmd_lint)

    campaign = sub.add_parser(
        "campaign", help="run bug-injection campaigns with streaming heatmaps"
    )
    campaign.add_argument("--design", help="registered design (default: all)")
    campaign.add_argument("--target", help="target output (default: all)")
    campaign.add_argument("--plan", help="e.g. negation=2,operation=2,misuse=3")
    campaign.add_argument("--smoke", action="store_true",
                          help="tiny CI workload: one design/target, 3 mutants")
    campaign.add_argument("--corpus",
                          help="resolve designs from this ingested directory"
                               " (default designs: all usable in it)")
    campaign.add_argument("--json", help="write a JSON summary here")
    common(campaign, cycles=10)
    campaign.set_defaults(func=cmd_campaign)

    localize = sub.add_parser(
        "localize", help="localize one injected (or provided) bug, render Ht"
    )
    localize.add_argument("--design", help="registered design name")
    localize.add_argument("--target", required=True, help="failing output")
    localize.add_argument("--golden", help="golden Verilog source file")
    localize.add_argument("--source", help="buggy Verilog source file")
    localize.add_argument("--plan", help="mutation sampling plan (demo mode)")
    localize.add_argument("--traces", type=int, default=20,
                          help="testbenches (file mode)")
    common(localize, cycles=10)
    localize.set_defaults(func=cmd_localize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
