"""Repo benchmark: Table-III campaign throughput and latency, end to end and per layer.

Runs one workload (see ``workloads.py``) in a closed loop for a fixed
time, checks every output, and prints the metrics as one JSON object on
the last line of stdout::

    python3 perfbench/run.py --workload table3 --seed 29 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` first runs untraced passes for half the time, then wraps
each layer's public entry points (``spans.py``) for the other half and
reports the per-layer metrics, the span table (total and self time per
span, plus ``unattributed``) and the tracing overhead.  Full results,
host facts and the outcome digest go to ``perfbench/out/``.  Exit code
1 means a correctness check failed (the results are still written).

``python3 perfbench/run.py --write-benchmark-json`` regenerates
``BENCHMARK.json`` from the tables below.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the models are small, and on a 2-core host an OpenBLAS
# thread pool contends with the benchmark process and co-tenants, which made training
# slower and its timings twice as spread.  Set before numpy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 35

#: End-to-end metrics: (name, unit, better, bound, meaning).  ``bound``
#: is the share of the parent's median a metric may worsen by.  Pass
#: timings are gated in units of a reference loop timed around each pass
#: (``reference_s``): on a shared 2-vCPU host the whole machine's speed
#: drifted by 2x within an hour, which no statistic inside a run removes
#: and which would swamp any bound on raw seconds.  The raw seconds are
#: printed next to them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "imports plus the median of 3 setup repetitions (session from the"
     " checkpoint, pool spawn and warm-up when pooled, one warm-up campaign"
     " or tiny train)"),
    ("pass_ref", "ref", "lower", 0.25,
     "median over passes of pass wall / reference-loop time around that"
     " pass; a pass is the whole campaign sweep (each pass draws fresh"
     " stimulus) or one train call"),
    ("first_update_ref", "ref", "lower", 0.25,
     "median over targets of the time from the target's first"
     " session.campaign(...) call to its first CampaignUpdate (on"
     " train-corpus, from train() to the first epoch line), in reference-loop"
     " units of its pass"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "benchmark process high-water RSS after the timed passes"),
)

#: Iterations of the reference loops (each about 40-75 ms on a 2.1 GHz
#: 2-vCPU x86-64 VM).
REFERENCE_ITERATIONS = {"campaign": 300_000, "train": 1_500}


def reference_s(kind: str) -> float:
    """Wall time of a fixed loop resembling the workload: the host's speed.

    Campaigns are interpreter-bound, so their reference is a pure-Python
    dict/int loop; training is small-array numpy, so its reference is a
    small dense forward/backward loop (which tracked training's drift
    better than the pure-Python loop did).
    """
    iterations = REFERENCE_ITERATIONS[kind]
    start = time.perf_counter()
    if kind == "campaign":
        table = dict.fromkeys(range(1024), 0)
        total = 0
        for i in range(iterations):
            table[i & 1023] = i
            total += table[(i * 7) & 1023] ^ i
        return time.perf_counter() - start
    import numpy

    rng = numpy.random.default_rng(0)
    x = rng.standard_normal((64, 36))
    w = rng.standard_normal((36, 32)) * 0.1
    v = rng.standard_normal((32, 36)) * 0.1
    for _ in range(iterations):
        h = numpy.tanh(x @ w)
        x = x - 0.001 * ((h * (1 - h * h)) @ v)
        e = numpy.exp(h.sum(axis=1))
        e /= e.sum()
    return time.perf_counter() - start


#: Per-layer metrics: (name, unit, better, should-move, shows-on).  Each
#: is measured around a public call listed in ``spans.SPANS`` or read
#: from the public stats readers after each traced pass.
PER_LAYER = (
    ("mutation.sample_s", "s", "lower", "pass_ref", "table3"),
    ("mutation.apply_s", "s", "lower", "pass_ref", "table3"),
    ("mutation.apply_calls", "count", "lower", "pass_ref", "table3"),
    ("mutation.apply_per_mutant", "ratio", "lower", "pass_ref", "table3"),
    ("stimulus.generate_s", "s", "lower", "first_update_ref", "table3"),
    ("stimulus.suites", "count", "lower", "pass_ref", "table3"),
    ("sim.compile_s", "s", "lower", "pass_ref", "table3"),
    ("compile_cache.misses", "count", "lower", "pass_ref", "table3"),
    ("compile_cache.hit_rate", "ratio", "higher", "pass_ref", "table3"),
    ("sim.golden_s", "s", "lower", "first_update_ref", "table3"),
    ("sim.recorded_s", "s", "lower", "pass_ref", "table3"),
    ("sim.lane_cycles", "count", "lower", "pass_ref", "table3"),
    ("sim.scalar_fallbacks", "count", "lower", "pass_ref", "table3"),
    ("sim.ns_per_lane_cycle", "ns", "lower", "pass_ref", "table3"),
    ("campaign.classify_s", "s", "lower", "pass_ref", "table3"),
    ("campaign.topup_suites", "count", "lower", "pass_ref", "table3"),
    ("campaign.observable_ratio", "ratio", "higher", "pass_ref", "table3"),
    ("analysis.slice_s", "s", "lower", "pass_ref", "table3"),
    ("analysis.contexts_s", "s", "lower", "pass_ref", "table3"),
    ("explain.dedup_s", "s", "lower", "pass_ref", "table3"),
    ("explain.dedup_ratio", "ratio", "lower", "pass_ref", "table3"),
    ("heatmap.build_s", "s", "lower", "pass_ref", "table3"),
    ("encode_s", "s", "lower", "pass_ref", "train-corpus"),
    ("model.forward_s", "s", "lower", "pass_ref", "train-corpus"),
    ("model.forward_rows", "count", "lower", "pass_ref", "table3"),
    ("memo.hit_rate", "ratio", "higher", "pass_ref", "table3"),
    ("context_cache.hit_rate", "ratio", "higher", "pass_ref", "table3"),
    ("localize.many_s", "s", "lower", "pass_ref", "table3"),
    ("localize.executions_per_s", "1/s", "higher", "pass_ref", "table3"),
    ("train.fit_s", "s", "lower", "pass_ref", "train-corpus"),
    ("train.backward_step_s", "s", "lower", "pass_ref", "train-corpus"),
    ("train.samples_per_s", "1/s", "higher", "pass_ref", "train-corpus"),
    ("train.evaluate_s", "s", "lower", "pass_ref", "train-corpus"),
    ("ingest.directory_s", "s", "lower", "pass_ref", "train-corpus"),
    ("lint.run_s", "s", "lower", "pass_ref", "train-corpus"),
    ("verilog.parse_s", "s", "lower", "pass_ref", "train-corpus"),
    ("runtime.wait_s", "s", "lower", "pass_ref", "table3-pool2"),
    ("runtime.shard_s", "s", "lower", "pass_ref", "table3-pool2"),
    ("runtime.pools_started", "count", "lower", "pass_ref", "table3-pool2"),
    ("worker_memo.hit_rate", "ratio", "higher", "pass_ref", "table3-pool2"),
    ("api.stream_self_s", "s", "lower", "first_update_ref", "table3"),
    ("trace.pass_s", "s", "lower", "pass_ref", "table3"),
    ("trace.overhead_s", "s", "lower", "pass_ref", "table3"),
    ("unattributed_s", "s", "lower", "pass_ref", "table3"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: list, untraced: list, kind: str, targets: int) -> dict:
    """Per-layer values: per-pass means over the traced passes."""
    n = len(traced)

    def total(span):
        return sum(p["total"].get(span, 0.0) for p in traced) / n

    def self_time(span):
        return sum(p["self"].get(span, 0.0) for p in traced) / n

    def calls(span):
        return sum(p["calls"].get(span, 0) for p in traced) / n

    def counter(key):
        return sum(p["counters"].get(key, 0) for p in traced) / n

    def stat(key):
        return sum(p["stats"].get(key, 0) for p in traced) / n

    mutants = sum(p["mutants"] for p in traced) / n
    sim_s = total("sim.golden") + total("sim.recorded")
    suites = calls("stimulus.generate")
    trace_pass = sum(p["wall"] for p in traced) / n
    return {
        "mutation.sample_s": total("mutation.sample"),
        "mutation.apply_s": total("mutation.apply"),
        "mutation.apply_calls": calls("mutation.apply"),
        "mutation.apply_per_mutant": _ratio(calls("mutation.apply"), mutants),
        "stimulus.generate_s": total("stimulus.generate"),
        "stimulus.suites": suites,
        "sim.compile_s": total("sim.compile"),
        "compile_cache.misses": stat("compile_cache.misses"),
        "compile_cache.hit_rate": _ratio(
            stat("compile_cache.hits"),
            stat("compile_cache.hits") + stat("compile_cache.misses"),
        ),
        "sim.golden_s": total("sim.golden"),
        "sim.recorded_s": total("sim.recorded"),
        "sim.lane_cycles": stat("sim.lane_cycles"),
        "sim.scalar_fallbacks": stat("sim.scalar_fallbacks"),
        "sim.ns_per_lane_cycle": 1e9 * _ratio(sim_s, stat("sim.lane_cycles")),
        "campaign.classify_s": total("campaign.classify"),
        # One stimulus suite per target opens each campaign; every other
        # suite drawn in this process is a correct-trace top-up.
        "campaign.topup_suites": suites - targets if kind == "campaign" else 0.0,
        "campaign.observable_ratio": _ratio(
            sum(p["observable"] for p in traced) / n, mutants
        ),
        "analysis.slice_s": total("analysis.slice"),
        "analysis.contexts_s": total("analysis.contexts"),
        "explain.dedup_s": total("explain.dedup"),
        "explain.dedup_ratio": _ratio(
            counter("explain.distinct"), counter("explain.executions")
        ),
        "heatmap.build_s": total("heatmap.build"),
        "encode_s": total("encode"),
        "model.forward_s": total("model.forward"),
        "model.forward_rows": counter("model.forward_rows"),
        "memo.hit_rate": _ratio(
            stat("memo.hits"), stat("memo.hits") + stat("memo.misses")
        ),
        "context_cache.hit_rate": _ratio(
            stat("context_cache.hits"),
            stat("context_cache.hits") + stat("context_cache.misses"),
        ),
        "localize.many_s": total("localize.many"),
        "localize.executions_per_s": _ratio(
            counter("localize.executions"), total("localize.many")
        ),
        "train.fit_s": total("train.fit"),
        "train.backward_step_s": self_time("train.fit"),
        "train.samples_per_s": _ratio(counter("train.samples"), total("train.fit")),
        "train.evaluate_s": total("train.evaluate"),
        "ingest.directory_s": total("ingest.directory"),
        "lint.run_s": total("lint.run"),
        "verilog.parse_s": total("verilog.parse"),
        "runtime.wait_s": total("runtime.wait"),
        "runtime.shard_s": total("runtime.shard"),
        "runtime.pools_started": max(p["stats"].get("runtime.pools_started", 0) for p in traced),
        "worker_memo.hit_rate": _ratio(
            stat("worker_memo.hits"),
            stat("worker_memo.hits") + stat("worker_memo.misses"),
        ),
        "api.stream_self_s": self_time("api.stream"),
        "trace.pass_s": trace_pass,
        # Compared in reference-loop units, then converted back at the
        # run's median reference time: the halves run at different moments
        # and the host's drift between them dwarfs the tracing cost.
        "trace.overhead_s": statistics.median(
            [p["ref"] for p in traced] + [p.ref for p in untraced]
        )
        * (
            statistics.median(p["wall"] / p["ref"] for p in traced)
            - statistics.median(p.wall / p.ref for p in untraced)
        ),
        "unattributed_s": sum(p["unattributed"] for p in traced) / n,
    }


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest percentile of a fixed ladder with >= 10 samples beyond it.

    Returns ``(value, percentile, sample count)``; falls back to the
    median when fewer than 20 samples exist.
    """
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in (99, 95, 90, 75, 50):
        if count * (100 - percentile) / 100 >= 10:
            break
    index = min(count - 1, int(count * percentile / 100))
    return ordered[index], percentile, count


def write_benchmark_json() -> pathlib.Path:
    from workloads import WORKLOADS

    document = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves, _shows in PER_LAYER
        ],
    }
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def _timed_passes(runner, seconds: float, tracer=None) -> list:
    """Closed loop of passes until the next one would overrun ``seconds``.

    Pass ``i`` draws its inputs from pass index ``i`` (see
    ``workloads.stimulus_seed``), so the traced phase replays the
    untraced phase's inputs and the overhead compares like with like.
    """
    passes = []
    start = time.perf_counter()
    while True:
        # Every pass starts from a collected heap, so a pass does not pay
        # for the previous one's garbage and the RSS peak is reproducible.
        gc.collect()
        if tracer is not None:
            tracer.reset()
        kind = runner.workload.kind
        before = reference_s(kind)
        result = runner.run_pass(len(passes))
        result.ref = (before + reference_s(kind)) / 2
        if tracer is not None:
            spans = {
                "wall": result.wall,
                "ref": result.ref,
                "total": dict(tracer.total),
                "self": dict(tracer.self_time),
                "calls": dict(tracer.calls),
                "counters": dict(tracer.counters),
                "stats": result.stats,
                "mutants": len(result.ops) if runner.workload.kind == "campaign" else 0,
                "observable": result.observable,
            }
            spans["unattributed"] = result.wall - sum(spans["self"].values())
            result.spans = spans
        passes.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in passes)
        if elapsed + typical > seconds:
            return passes


def _child_pids() -> list[int]:
    """PIDs whose parent is this process, read from ``/proc``."""
    me = str(os.getpid())
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if stat.rsplit(")", 1)[1].split()[1] == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop and reap every process this run started.

    Closing a pooled session joins its workers, but the spawn context
    also starts multiprocessing's resource tracker, which lives until
    its pipe closes; left to interpreter exit it outlives the benchmark
    as an unreaped child.  Stop it explicitly, then terminate and wait
    for anything else still attached to this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def host_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="regenerate BENCHMARK.json from the metric tables and exit",
    )
    args = parser.parse_args()

    missing = [
        path for path in ("src/repro", "tests/.cache", "examples/corpus")
        if not (ROOT / path).exists()
    ]
    if missing:
        print(f"perfbench: not a repository checkout (missing {missing})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.write_benchmark_json:
        print(f"wrote {write_benchmark_json()}")
        return 0

    from spans import Tracer
    from workloads import WORKLOADS, digest, make_runner

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    runner = make_runner(workload, seed)
    imported = time.perf_counter() - _PROCESS_START

    try:
        setup_walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            runner.setup_once()
            setup_walls.append(time.perf_counter() - t0)
        setup_s = imported + statistics.median(setup_walls)

        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = _timed_passes(runner, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = _timed_passes(runner, budget, tracer)
            finally:
                tracer.uninstall()
        passes = untraced + traced
        checked, failed, messages = runner.verify(passes)
    finally:
        runner.close()
        stop_children()

    failed += sum(p.failed for p in passes)
    messages += [e for p in passes for e in p.errors]
    attempted = runner.ops_per_pass * len(passes) + checked

    pass_s = statistics.median(p.wall for p in untraced)
    end_to_end = {
        "setup_s": setup_s,
        "pass_ref": statistics.median(p.wall / p.ref for p in untraced),
        "first_update_ref": statistics.median(
            f / p.ref for p in untraced for f in p.first_updates
        ),
        "peak_rss_mb": peak_rss_mb,
    }
    reference = passes[0]
    extras = {
        "pass_s": pass_s,
        "ops_per_s": runner.ops_per_pass / pass_s,
        "first_update_ms": 1000 * statistics.median(
            f for p in untraced for f in p.first_updates
        ),
        "reference_ms": 1000 * statistics.median(p.ref for p in untraced),
        "failed_fraction": failed / attempted,
    }
    if workload.kind == "campaign":
        value, percentile, count = tail([w for p in untraced for w in p.unit_walls])
        extras.update(
            {
                "target_tail_s": value,
                "target_tail_percentile": percentile,
                "target_tail_samples": count,
                "top1_coverage": reference.localized / reference.observable
                if reference.observable else 0.0,
                "observable": reference.observable,
                "localized": reference.localized,
            }
        )
    else:
        extras["heldout_accuracy"] = reference.accuracy

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    extra_units = {
        "pass_s": "s", "ops_per_s": "1/s", "first_update_ms": "ms",
        "reference_ms": "ms", "failed_fraction": "ratio", "target_tail_s": "s",
        "top1_coverage": "ratio", "heldout_accuracy": "ratio",
    }
    if args.trace:
        reported = layer_metrics(
            [p.spans for p in traced], untraced, workload.kind, len(getattr(runner, "targets", ()))
        )
    else:
        reported = end_to_end

    record = {
        "workload": workload.name,
        "why": workload.why,
        "shape": workload.shape(),
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "passes": len(passes),
        "pass_walls": [p.wall for p in passes],
        "setup_walls": setup_walls,
        "import_s": imported,
        "end_to_end": end_to_end,
        "extras": extras,
        "digest": digest(reference.ops),
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:50],
    }
    print(f"workload {workload.name} seed {seed}: {len(passes)} passes, digest {record['digest']}")
    for name, value in {**end_to_end, **extras}.items():
        unit = units.get(name) or extra_units.get(name, "")
        print(f"  {name} = {value:.6g} {unit}".rstrip())
    if args.trace:
        record["per_layer"] = reported
        record["spans"] = span_table([p.spans for p in traced])
        print_span_table(record["spans"])
    for message in messages[:10]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )

    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()
                },
            }
        )
    )
    return 0 if correct else 1


def span_table(traced: list) -> dict:
    """Per-pass mean total/self/calls per span, plus unattributed."""
    n = len(traced)
    names = sorted({name for p in traced for name in p["self"]})
    table = {
        name: {
            "calls": sum(p["calls"].get(name, 0) for p in traced) / n,
            "total_s": sum(p["total"].get(name, 0.0) for p in traced) / n,
            "self_s": sum(p["self"].get(name, 0.0) for p in traced) / n,
        }
        for name in names
    }
    table["unattributed"] = {
        "calls": 0,
        "total_s": sum(p["unattributed"] for p in traced) / n,
        "self_s": sum(p["unattributed"] for p in traced) / n,
    }
    return {
        "spans": table,
        "self_sum_s": sum(row["self_s"] for row in table.values()),
        "pass_wall_s": sum(p["wall"] for p in traced) / n,
    }


def print_span_table(table: dict) -> None:
    wall = table["pass_wall_s"]
    print(f"  spans per traced pass (wall {wall:.4f} s):")
    print(f"    {'span':<20} {'calls':>8} {'total_s':>9} {'self_s':>9} {'self%':>6}")
    rows = sorted(table["spans"].items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        print(
            f"    {name:<20} {row['calls']:>8.0f} {row['total_s']:>9.4f}"
            f" {row['self_s']:>9.4f} {100 * row['self_s'] / wall:>5.1f}%"
        )
    print(f"    {'self sum':<20} {'':>8} {'':>9} {table['self_sum_s']:>9.4f}")


if __name__ == "__main__":
    sys.exit(main())
