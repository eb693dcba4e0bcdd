"""Localization inference throughput: fast and sharded arms vs reference.

Measures the Table-III campaign's *localization* phase — model inference
over every observable mutant's failing/correct trace sets — on three
arms:

* **reference** — ``fast_inference=False``: one autograd model row per
  execution, one model call stream per mutant;
* **fast** — the default path: deduplicated samples in cross-mutant
  shared batches (``LocalizationEngine.localize_many``), the no-grad
  fused forward (``model_forward_fused``), the structural
  context-embedding cache and the attention-row memo.  Cache and memo
  start cold; their overall hit rates and cross-mutant shares — hits on
  entries created while localizing an earlier batch of mutants — are
  reported;
* **sharded_workers** — the fast arm sharded across an
  :class:`repro.runtime.ExecutionRuntime` worker pool at each size in
  ``--workers`` (pool started and warmed before timing, the way a
  session amortizes it; worker-local caches and memos start cold), as
  ``session.runtime.localize_many`` runs it.  The timed region includes
  shipping the traces: each shard pickles its lane views once, with
  each suite log they read.  Scaling is meaningful only with that many
  physical cores — ``cpu_cores`` is recorded next to the results.

Mutant simulation is run once and shared by all arms, so the reported
speedups isolate inference.  The end-to-end campaign latency (simulate +
localize, as ``CampaignEngine.run`` executes it) is also timed for
the reference and full fast arms.  Heatmap rankings and suspiciousness
scores are verified identical (within 1e-9) across every arm; a
divergence is recorded per arm in the JSON (``rankings_identical``),
the results are still written, and the process exits nonzero — so the
``--smoke`` CI run doubles as a differential assertion for the fast and
sharded arms while keeping the artifact inspectable.

Run with::

    python benchmarks/bench_localize.py [--smoke] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.analysis import compute_static_slice  # noqa: E402
from repro.core import (  # noqa: E402
    BatchEncoder,
    LocalizationEngine,
    LocalizationRequest,
    VeriBugConfig,
    VeriBugModel,
    Vocabulary,
)
from repro.datagen import CampaignEngine, sample_mutations  # noqa: E402
from repro.datagen.campaign import _simulate_mutant  # noqa: E402
from repro.datagen.mutation import apply_mutation  # noqa: E402
from repro.designs import REGISTRY, design_info, design_testbench, load_design  # noqa: E402
from repro.nn import load_state  # noqa: E402
from repro.runtime import ExecutionRuntime  # noqa: E402
from repro.sim import Simulator, generate_testbench_suite  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
MODEL_CACHE = REPO_ROOT / "tests" / ".cache" / "model_e30_d20_s1.npz"

#: Injection plan per (design, target) — Table III shape, scaled to keep
#: total runtime in minutes.
PLAN = {"negation": 2, "operation": 2, "misuse": 3}
SMOKE_PLAN = {"negation": 1, "operation": 1, "misuse": 1}

TOL = 1e-9


def arm_metrics(wall: float, total_executions: int) -> dict:
    return {
        "wall_s": round(wall, 4),
        "executions_per_s": round(total_executions / wall),
    }


def best_of(repeats: int, runner, *args, **kwargs):
    """Min-wall outcome of N invocations of a timed arm.

    Every invocation is a full cold start (the arm runners clear their
    caches/memos on entry, so hit-rate stats are identical across
    repeats); the minimum wall is the standard noise-floor estimate for
    sub-second arms on shared/single-core hosts, where one scheduling
    hiccup can swing a single shot by ±20%.
    """
    best = None
    for _ in range(repeats):
        outcome = runner(*args, **kwargs)
        if best is None or outcome[0] < best[0]:
            best = outcome
    return best


def build_localizers() -> tuple[LocalizationEngine, LocalizationEngine]:
    """The shared trained model wrapped in fast and reference localizers."""
    config = VeriBugConfig(epochs=30)
    vocab = Vocabulary()
    model = VeriBugModel(config, vocab)
    if MODEL_CACHE.exists():
        load_state(model, MODEL_CACHE)
    else:  # fresh checkout without the committed fixture: train (slow)
        from repro.api import SessionConfig, VeriBugSession
        from repro.pipeline import CorpusSpec

        session = VeriBugSession.train(
            SessionConfig(model=config).with_seed(1),
            CorpusSpec(n_designs=20, n_traces_per_design=4, n_cycles=25),
            evaluate=False,
        )
        model, vocab = session.model, session.model.vocab
    encoder = BatchEncoder(vocab)
    fast = LocalizationEngine(model, encoder, config, fast_inference=True)
    reference = LocalizationEngine(model, encoder, config, fast_inference=False)
    return fast, reference


def campaign_workload(smoke: bool):
    """(design, target, mutations, testbench_config) tuples of the campaign."""
    plan = SMOKE_PLAN if smoke else PLAN
    names = ["wb_mux_2"] if smoke else list(REGISTRY)
    workload = []
    for name in names:
        module = load_design(name)
        targets = design_info(name).targets[:1] if smoke else design_info(name).targets
        for target in targets:
            cone = compute_static_slice(module, target).stmt_ids
            mutations = sample_mutations(
                module, dict(plan), seed=13, restrict_to=cone, min_operands=2
            )
            workload.append((name, module, target, mutations))
    return workload


def simulate_workload(workload, n_traces: int, n_cycles: int, seed: int):
    """Simulate every mutant once; return observable localization cases."""
    cases = []
    for name, module, target, mutations in workload:
        testbench_config = design_testbench(name, n_cycles=n_cycles)
        stimuli = generate_testbench_suite(
            module, n_traces, testbench_config, seed=seed
        )
        golden = Simulator(module, engine=testbench_config.engine)
        golden_traces = golden.run_suite(stimuli, record=False)
        for mutation in mutations:
            outcome, failing, correct = _simulate_mutant(
                module,
                target,
                mutation,
                stimuli,
                golden_traces,
                testbench_config,
                n_traces,
                seed,
                min_correct_traces=8,
                max_extra_batches=4,
            )
            if outcome.error or not outcome.observable:
                continue
            cases.append(
                {
                    "design": name,
                    "target": target,
                    "mutant": apply_mutation(module, mutation),
                    "failing": failing,
                    "correct": correct,
                    "executions": sum(
                        len(t.executions) for t in failing + correct
                    ),
                }
            )
    return cases


def run_reference(reference: LocalizationEngine, cases) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = [
        reference.localize(c["mutant"], c["target"], c["failing"], c["correct"])
        for c in cases
    ]
    return time.perf_counter() - t0, results


def run_fast(
    fast: LocalizationEngine, cases, localize_batch: int
) -> tuple[float, list, dict, dict]:
    """Time the fast arm in shared batches of ``localize_batch`` mutants.

    The context cache and attention-row memo start cold and their
    hit/miss stats are returned, so the reported hit rates cover exactly
    the timed work.
    """
    model = fast.model
    for memo in (model.context_cache, model.attention_memo):
        memo.clear()
        memo.reset_stats()
    t0 = time.perf_counter()
    results = []
    for start in range(0, len(cases), localize_batch):
        chunk = cases[start : start + localize_batch]
        requests = [
            LocalizationRequest(c["mutant"], c["target"], c["failing"], c["correct"])
            for c in chunk
        ]
        results.extend(fast.localize_many(requests))
    wall = time.perf_counter() - t0
    cache_stats = model.context_cache.stats()
    memo_stats = model.attention_memo.stats()
    model.context_cache.clear()
    model.attention_memo.clear()
    return wall, results, cache_stats, memo_stats


def run_sharded(
    fast: LocalizationEngine, cases, localize_batch: int, n_workers: int
) -> tuple[float, list, dict]:
    """Time the sharded runtime arm at one worker-pool size.

    The pool is started and warmed *before* the timed region — a session
    amortizes pool startup across its lifetime, so steady-state shard
    throughput is the number that matters.  Worker-local context caches
    and attention-row memos start cold (fresh pool), mirroring the
    cold-start of the single-process ``fast`` arm.
    """
    with ExecutionRuntime(n_workers) as runtime:
        runtime.attach_model(fast.model)
        runtime.warm_up()
        t0 = time.perf_counter()
        results = []
        for start in range(0, len(cases), localize_batch):
            chunk = cases[start : start + localize_batch]
            requests = [
                LocalizationRequest(
                    c["mutant"], c["target"], c["failing"], c["correct"]
                )
                for c in chunk
            ]
            results.extend(runtime.localize_many(requests))
        wall = time.perf_counter() - t0
        stats = runtime.stats()
    return wall, results, stats.to_dict()


def verify_identical(reference_results, fast_results) -> None:
    """Assert two arms agree: scores within TOL, rankings equal up to ties.

    Statements whose suspiciousness is mathematically tied can land a few
    ulp apart depending on float summation order, so the arms may order a
    tie group differently; any reordering of statements whose scores
    differ by more than TOL is a real mismatch and raises.
    """
    for ref, got in zip(reference_results, fast_results):
        for stmt_id, score in ref.heatmap.suspiciousness.items():
            if abs(got.heatmap.suspiciousness[stmt_id] - score) > TOL:
                raise AssertionError(
                    f"suspiciousness drift for {ref.target} stmt {stmt_id}"
                )
        if ref.ranking == got.ranking:
            continue
        if sorted(ref.ranking) != sorted(got.ranking):
            raise AssertionError(
                f"ranking mismatch for {ref.target}: {ref.ranking} vs {got.ranking}"
            )
        scores = ref.heatmap.suspiciousness
        for ref_stmt, got_stmt in zip(ref.ranking, got.ranking):
            if ref_stmt != got_stmt and abs(scores[ref_stmt] - scores[got_stmt]) > TOL:
                raise AssertionError(
                    f"ranking mismatch for {ref.target} beyond float-noise "
                    f"ties: {ref.ranking} vs {got.ranking}"
                )


def run_end_to_end(localizer, workload, n_traces, n_cycles, seed):
    """Wall time of the workload's campaigns, simulation included.

    Each campaign localizes one chunk of mutants per ``localize_many``
    call, as a session's campaign does; ``--batch`` does not apply.
    """
    t0 = time.perf_counter()
    for name, module, target, mutations in workload:
        campaign = CampaignEngine(
            localizer,
            n_traces=n_traces,
            testbench_config=design_testbench(name, n_cycles=n_cycles),
            seed=seed,
            min_correct_traces=8,
        )
        campaign.run(module, target, mutations)
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI workload: one design, one target, three mutants",
    )
    parser.add_argument("--traces", type=int, default=None, help="testbenches per mutant")
    parser.add_argument("--cycles", type=int, default=None, help="cycles per testbench")
    parser.add_argument(
        "--batch", type=int, default=8,
        help="mutants per localize_many call in the fast and sharded arms",
    )
    parser.add_argument(
        "--workers",
        default=None,
        help="comma-separated pool sizes for the sharded arm"
        " (default: 1,2,4; smoke: 2; empty string skips the arm)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="cold-start invocations per single-process arm; min wall is"
        " reported (sub-second arms are noise-dominated in single shots)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_localize.json"), help="result path"
    )
    args = parser.parse_args()
    if args.workers is None:
        worker_arms = [2] if args.smoke else [1, 2, 4]
    else:
        worker_arms = [int(w) for w in args.workers.split(",") if w.strip()]
    n_traces = args.traces if args.traces is not None else (8 if args.smoke else 20)
    n_cycles = args.cycles if args.cycles is not None else (8 if args.smoke else 12)
    seed = 29

    fast, reference = build_localizers()
    workload = campaign_workload(args.smoke)
    cases = simulate_workload(workload, n_traces, n_cycles, seed)
    if not cases:
        raise SystemExit("no observable mutants in the workload; nothing to measure")
    total_executions = sum(c["executions"] for c in cases)

    repeats = max(1, args.repeats)
    ref_wall, ref_results = best_of(repeats, run_reference, reference, cases)
    fast_wall, fast_results, cache_stats, memo_stats = best_of(
        repeats, run_fast, fast, cases, args.batch
    )

    # Every arm must be observably identical to the autograd reference.
    # A divergence is recorded (and fails the run at exit) instead of
    # aborting, so the JSON artifact still lands with the evidence.
    divergences: dict[str, str] = {}

    def check_arm(arm: str, arm_results) -> bool:
        try:
            verify_identical(ref_results, arm_results)
            return True
        except AssertionError as err:
            divergences[arm] = str(err)
            return False

    arm_ok = {"fast": check_arm("fast", fast_results)}

    sharded_arms = {}
    for n_workers in worker_arms:
        sharded_wall, sharded_results, runtime_stats = run_sharded(
            fast, cases, args.batch, n_workers
        )
        sharded_arms[str(n_workers)] = {
            **arm_metrics(sharded_wall, total_executions),
            "speedup_vs_single_process": round(fast_wall / sharded_wall, 2),
            "worker_cache_hit_rate": runtime_stats["worker_cache"]["hit_rate"],
            "worker_memo_hit_rate": runtime_stats["worker_memo"]["hit_rate"],
            "shard_sizes_last_call": runtime_stats["last_shard_sizes"],
            "rankings_identical": check_arm(
                f"sharded_workers[{n_workers}]", sharded_results
            ),
        }
    if worker_arms and (os.cpu_count() or 1) < max(worker_arms):
        sharded_arms["note"] = (
            f"host exposes {os.cpu_count()} CPU core(s): worker arms beyond"
            " that measure dispatch overhead only — shard speedup requires"
            " one physical core per worker"
        )

    e2e_ref = run_end_to_end(reference, workload, n_traces, n_cycles, seed)
    e2e_fast = run_end_to_end(fast, workload, n_traces, n_cycles, seed)

    results = {
        "workload": {
            "smoke": args.smoke,
            "designs": sorted({name for name, *_ in workload}),
            "targets": len(workload),
            "observable_mutants": len(cases),
            "traces_per_mutant": n_traces,
            "cycles_per_trace": n_cycles,
            "localize_batch": args.batch,
            "executions_localized": total_executions,
            "cpu_cores": os.cpu_count(),
            "repeats": repeats,
        },
        "localization": {
            "reference": arm_metrics(ref_wall, total_executions),
            "fast": {
                **arm_metrics(fast_wall, total_executions),
                # Cross-mutant rates count hits on entries created by an
                # earlier localize_many call: with structural keys this
                # is the golden/mutant overlap shared *across mutants* (a
                # lower bound — same-batch sharing is not counted).  The
                # memo answers first, so the cache sees only memo misses.
                "cache_hit_rate": round(cache_stats["hit_rate"], 4),
                "cache_cross_mutant_hit_rate": round(
                    cache_stats["cross_epoch_hit_rate"], 4
                ),
                "cache_entries": cache_stats["entries"],
                "memo_hit_rate": round(memo_stats["hit_rate"], 4),
                "memo_cross_mutant_hit_rate": round(
                    memo_stats["cross_epoch_hit_rate"], 4
                ),
                "memo_entries": memo_stats["entries"],
            },
            "speedup": round(ref_wall / fast_wall, 2),
            "arm_rankings_identical": arm_ok,
            "rankings_identical": not divergences,
            "sharded_workers": sharded_arms,
        },
        "end_to_end_campaign": {
            "reference_wall_s": round(e2e_ref, 4),
            "fast_wall_s": round(e2e_fast, 4),
            "speedup": round(e2e_ref / e2e_fast, 2),
        },
    }

    loc = results["localization"]
    fast_arm = loc["fast"]
    print(
        f"localization: reference {ref_wall:.2f}s -> fast {fast_wall:.2f}s"
        f" ({loc['speedup']}x, {fast_arm['executions_per_s']} exec/s)"
    )
    print(
        f"  cache hit rate {fast_arm['cache_hit_rate']:.1%} "
        f"(cross-mutant {fast_arm['cache_cross_mutant_hit_rate']:.1%}), "
        f"memo hit rate {fast_arm['memo_hit_rate']:.1%} (cross-mutant "
        f"{fast_arm['memo_cross_mutant_hit_rate']:.1%}), rankings "
        f"{'identical' if not divergences else 'DIVERGED'} over "
        f"{len(cases)} mutants"
    )
    for n_workers, sharded in sharded_arms.items():
        if not isinstance(sharded, dict):
            continue
        print(
            f"sharded ({n_workers} workers, {os.cpu_count()} cores):"
            f" {sharded['wall_s']:.2f}s"
            f" ({sharded['speedup_vs_single_process']}x vs single-process,"
            f" worker cache hit rate {sharded['worker_cache_hit_rate']:.1%},"
            f" memo {sharded['worker_memo_hit_rate']:.1%})"
        )
    print(
        f"end-to-end campaign: {e2e_ref:.2f}s -> {e2e_fast:.2f}s "
        f"({results['end_to_end_campaign']['speedup']}x)"
    )

    out = pathlib.Path(args.output)
    existing = json.loads(out.read_text()) if out.exists() else {}
    existing.update(results)
    out.write_text(json.dumps(existing, indent=2) + "\n")
    print(f"wrote {out}")

    if divergences:
        for arm, detail in divergences.items():
            print(f"DIVERGENCE in arm {arm}: {detail}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
