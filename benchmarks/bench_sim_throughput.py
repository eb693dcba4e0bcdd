"""Simulation-engine throughput: interpreted vs vector.

Measures cycles/sec, ns per lane-cycle and statements/sec on the four
paper designs for both execution engines and writes the results to ``BENCH_sim.json`` at
the repo root so the performance trajectory is tracked across PRs.
The vector engine runs the whole testbench suite per design in lockstep
(``run_suite``), so its wall time is per-suite rather than per-trace;
``speedup_*`` reports it against the interpreter over the same suite.
Every arm is timed in :data:`REPEATS` samples, each repeating the run
until at least :data:`MIN_SAMPLE_S` of wall time has passed and counting
its mean run time, and reports the median of those per-run times
(``wall_s``, from which the rates derive) and the ``spread``, slowest
sample over fastest.  A fixed pure-Python reference loop (the one
``perfbench/run.py`` times around each campaign pass) is timed before
and after each arm; ``reference_s`` is their mean and
``uref_per_lane_cycle`` the arm's ``ns_per_lane_cycle`` in millionths of
that reference time.  Host speed drifts between whole runs on a shared
machine, so compare runs of different commits by ``uref_per_lane_cycle``;
the raw nanoseconds stay beside it.
The ``vector_single`` column runs the same traces one at a time
(``Simulator.run``, a one-lane suite each) — the cost of a caller that
simulates a single trace — and ``single_speedup_*`` reports it against
the interpreter.
The vector arms also report whether the design's program is
``levelized`` (one comb pass per cycle instead of the fixpoint loop) and
the lane ``field_bits`` it packs at (8, 16, 32 or 64; 0 on a scalar
fallback).

The ``--record`` arm selects the workload: ``on`` (trace-learning
workload, execution recording active), ``off`` (golden-trace workload,
the same passes with no event sink), or ``both`` (default), which
additionally reports the **recording overhead** per engine — recorded
wall time over unrecorded wall time, the cost of execution recording
itself.
The recorded arm's timed region ends when the suite returns: lanes are
views of the suite's event log, so nothing per lane remains to build.

Unless ``--no-verify`` is given, the run first differential-tests the
vector engine against the interpreter on every design: the
interpreter's native event log must match, event for event, the log
built from its materialized record objects, and every lane of a ragged
lockstep suite (also after a pickle round trip), plus every one-lane
run, must be identical — outputs and recorded events (shape row, cycle,
lhs and operand values, dtypes included) — to the interpreter's trace
of the same stimulus; an unrecorded suite must match its outputs and
carry no log.  Any divergence makes the
process exit nonzero, so CI bench smoke doubles as an engine integrity
gate.

Run with::

    python benchmarks/bench_sim_throughput.py [--traces N] [--cycles N]
        [--record {both,on,off}] [--no-verify]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import pickle
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.designs import REGISTRY, load_design  # noqa: E402
from repro.sim import (  # noqa: E402
    Simulator,
    SuiteLog,
    TestbenchConfig,
    clear_compile_cache,
    generate_testbench_suite,
)
from repro.sim.vector import field_bits  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

def _events_diverge(ours: tuple[SuiteLog, int], oracle: tuple[SuiteLog, int]) -> str | None:
    """The first field where a lane's events differ from ``oracle``'s.

    Each ``(log, lane)`` is read as its one-lane slice; events compare
    by the shape row their slot names (the two shape tables may differ),
    then by cycle, lhs and operand values, dtypes included.
    """
    left, right = (log.lane_slice(lane) for log, lane in (ours, oracle))
    if [left.shapes[slot] for slot in left.slots.tolist()] != [
        right.shapes[slot] for slot in right.slots.tolist()
    ]:
        return "shape rows"
    for name in ("cycles", "lhs", "ops"):
        a, b = getattr(left, name), getattr(right, name)
        if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
            return name
    return None


def verify_design(name: str, n_cycles: int, seed: int = 3) -> list[str]:
    """Vector-vs-interpreter differential check for one design.

    Returns a list of human-readable divergence descriptions (empty when
    the engines agree): the interpreter's native event log vs the log of
    its materialized records, every vector lane (a ragged suite, its
    lanes pickled in one payload and one-lane runs) vs the interpreter's
    trace, and the ragged suite run unrecorded: same outputs, a log with
    no events.
    """
    module = load_design(name)
    stimuli = generate_testbench_suite(
        module, 2, TestbenchConfig(n_cycles=n_cycles), seed=seed
    )
    # Ragged on purpose: a truncated lane exercises per-lane liveness.
    suite = [list(s) for s in stimuli]
    suite[1] = suite[1][: max(1, len(suite[1]) // 2)]
    interpreted = Simulator(module, engine="interpreted")
    vector = Simulator(module, engine="vector")
    problems: list[str] = []
    expected = [interpreted.run(stimulus) for stimulus in suite]
    for index, trace in enumerate(expected):
        records = (SuiteLog.from_records(list(trace.executions)), 0)
        field = _events_diverge(trace.execution_log(), records)
        if field is not None:
            problems.append(f"{name}[{index}]: recorder {field} != its records")
    lanes = vector.run_suite(suite)
    runs = {
        "lane": lanes,
        "pickled lane": pickle.loads(pickle.dumps(lanes)),
        "one-lane run": [vector.run(stimulus) for stimulus in suite],
    }
    for kind, traces in runs.items():
        for index, (actual, oracle) in enumerate(zip(traces, expected, strict=True)):
            tag = f"{name}[{kind} {index}]"
            if actual.outputs != oracle.outputs:
                problems.append(f"{tag}: vector outputs diverge from interpreter")
                continue
            field = _events_diverge(actual.execution_log(), oracle.execution_log())
            if field is not None:
                problems.append(f"{tag}: vector {field} diverges from interpreter")
    # Unrecorded runs share the recording passes, with no event sink.
    for index, actual in enumerate(vector.run_suite(suite, record=False)):
        tag = f"{name}[unrecorded lane {index}]"
        if actual.outputs != expected[index].outputs:
            problems.append(f"{tag}: vector outputs diverge from interpreter")
        if len(actual.execution_log()[0].slots):
            problems.append(f"{tag}: carries recorded events")
    return problems


#: Timed samples per arm: samples of one arm spread on a shared host,
#: so each arm reports the median per-run wall time of these samples
#: and their spread (slowest over fastest).
REPEATS = 5

#: Shortest wall time of one timed sample.  A vector suite of the
#: default 8 traces x 50 cycles runs in about 4 ms, too short to time
#: once; a sample repeats the run until this much time has passed.
MIN_SAMPLE_S = 0.2

#: Iterations of the reference loop (about 40-75 ms on a 2.1 GHz 2-vCPU
#: x86-64 VM), as in ``perfbench/run.py``'s campaign reference.
REFERENCE_ITERATIONS = 300_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python dict/int loop: the host's speed now.

    The simulator's passes are interpreter-bound generated Python, so a
    pure-Python loop drifts with them.
    """
    start = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = i
        total += table[(i * 7) & 1023] ^ i
    return time.perf_counter() - start


def _timed(run, stimuli, record: bool, total_cycles: int) -> tuple[dict, list]:
    """:data:`REPEATS` samples of ``run(stimuli, record)`` between two
    reference loops: median per-run time, spread and the median in
    reference units.  A sample repeats the run for at least
    :data:`MIN_SAMPLE_S` and counts its mean run time."""
    before = reference_s()
    walls = []
    for _ in range(REPEATS):
        runs = 0
        t0 = time.perf_counter()
        while True:
            traces = run(stimuli, record)
            runs += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_SAMPLE_S:
                break
        walls.append(elapsed / runs)
    reference = (before + reference_s()) / 2
    wall_s = statistics.median(walls)
    stats = {
        "wall_s": round(wall_s, 6),
        "spread": round(max(walls) / min(walls), 2),
        "cycles_per_s": round(total_cycles / wall_s),
        "ns_per_lane_cycle": round(wall_s / total_cycles * 1e9),
        "reference_s": round(reference, 6),
        "uref_per_lane_cycle": round(wall_s / reference / total_cycles * 1e6, 2),
    }
    return stats, traces


def _time_runs(run, stimuli, arms: tuple[str, ...], total_cycles: int) -> dict:
    """Median wall time of ``run(stimuli, record)`` per recording arm."""
    stats: dict = {}
    if "record" in arms:
        stats["record"], traces = _timed(run, stimuli, True, total_cycles)
        n_statements = sum(len(t.executions) for t in traces)
        stats["record"]["statements_per_s"] = round(
            n_statements / stats["record"]["wall_s"]
        )
    if "norecord" in arms:
        stats["norecord"], _traces = _timed(run, stimuli, False, total_cycles)
    if "record" in arms and "norecord" in arms:
        # The recording-overhead arm: cost of execution recording
        # relative to the same passes run without an event sink.
        stats["record_overhead"] = round(
            stats["record"]["wall_s"] / stats["norecord"]["wall_s"], 2
        )
    return stats


def bench_design(
    name: str, n_traces: int, n_cycles: int, arms: tuple[str, ...], seed: int = 3
) -> dict:
    module = load_design(name)
    stimuli = generate_testbench_suite(
        module, n_traces, TestbenchConfig(n_cycles=n_cycles), seed=seed
    )
    total_cycles = n_traces * n_cycles
    row: dict = {"n_traces": n_traces, "n_cycles": n_cycles}

    for engine in ("interpreted", "vector"):
        t0 = time.perf_counter()
        simulator = Simulator(module, engine=engine)
        stats: dict = {"setup_s": round(time.perf_counter() - t0, 6)}
        if engine == "vector":
            # A design too wide for 63-bit lanes runs on the interpreter;
            # flag it so the arm is not mistaken for a lockstep number.
            stats["scalar_fallback"] = not simulator.lockstep
            # One comb pass per cycle instead of the fixpoint loop.
            stats["levelized"] = simulator.lockstep and simulator.program.levelized
            stats["field_bits"] = field_bits(simulator.program)
            # Warm the per-stream codegen caches with one-lane suites so
            # the timed runs measure steady-state throughput; the
            # one-time code generation cost is reported separately.
            t0 = time.perf_counter()
            for record in (True, False):
                simulator.run_suite(stimuli[:1], record=record)
            stats["codegen_s"] = round(time.perf_counter() - t0, 6)
        stats.update(
            _time_runs(
                lambda suite, record: simulator.run_suite(suite, record=record),
                stimuli,
                arms,
                total_cycles,
            )
        )
        row[engine] = stats
        if engine == "vector":
            row["vector_single"] = {
                "field_bits": stats["field_bits"],
                **_time_runs(
                    lambda suite, record: [simulator.run(s, record=record) for s in suite],
                    list(stimuli),
                    arms,
                    total_cycles,
                ),
            }

    for arm in arms:
        interpreted_s = row["interpreted"][arm]["wall_s"]
        row[f"speedup_{arm}"] = round(interpreted_s / row["vector"][arm]["wall_s"], 2)
        row[f"single_speedup_{arm}"] = round(
            interpreted_s / row["vector_single"][arm]["wall_s"], 2
        )
    return row


def _geomean(values: list[float]) -> float:
    return round(math.prod(values) ** (1 / len(values)), 2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=8, help="testbenches per design")
    parser.add_argument("--cycles", type=int, default=50, help="cycles per testbench")
    parser.add_argument(
        "--record",
        choices=("both", "on", "off"),
        default="both",
        help="recording arm: on (recorded workload), off (golden-trace "
        "workload), or both (default; also reports recording overhead)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the vector-vs-interpreter differential check",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_sim.json"), help="result path"
    )
    args = parser.parse_args()
    arms = {"both": ("record", "norecord"), "on": ("record",), "off": ("norecord",)}[
        args.record
    ]

    clear_compile_cache()
    divergences: list[str] = []
    if not args.no_verify:
        for name in REGISTRY:
            divergences.extend(verify_design(name, args.cycles))
        for problem in divergences:
            print(f"DIVERGENCE: {problem}", file=sys.stderr)

    results = {
        "workload": {
            "traces_per_design": args.traces,
            "cycles_per_trace": args.cycles,
            "record_arm": args.record,
            "cpu_cores": os.cpu_count(),
        },
        "recorder_verified": not args.no_verify and not divergences,
        "designs": {},
    }
    for name in REGISTRY:
        row = bench_design(name, args.traces, args.cycles, arms)
        results["designs"][name] = row
        parts = [f"{name:18s}"]
        for arm in arms:
            parts.append(f"{arm} vector {row[f'speedup_{arm}']:>5.2f}x")
            parts.append(f"single {row[f'single_speedup_{arm}']:>5.2f}x")
        if "record_overhead" in row["vector"]:
            parts.append(f"overhead {row['vector']['record_overhead']:>4.2f}x")
        if "record" in arms:
            parts.append(
                f"({row['vector']['record']['statements_per_s']} stmt/s vector)"
            )
        print(" ".join(parts))

    designs = results["designs"].values()
    for arm in arms:
        results[f"geomean_speedup_{arm}"] = _geomean(
            [r[f"speedup_{arm}"] for r in designs]
        )
        results[f"geomean_single_speedup_{arm}"] = _geomean(
            [r[f"single_speedup_{arm}"] for r in designs]
        )
    if len(arms) == 2:
        results["geomean_record_overhead"] = _geomean(
            [r["vector"]["record_overhead"] for r in designs]
        )

    existing = {}
    out = pathlib.Path(args.output)
    if out.exists():
        existing = json.loads(out.read_text())
    existing.update(results)
    out.write_text(json.dumps(existing, indent=2) + "\n")
    if "record" in arms:
        print(
            "geomean record-mode speedup over the interpreter:"
            f" vector {results['geomean_speedup_record']}x,"
            f" one-lane runs {results['geomean_single_speedup_record']}x"
        )
    if "geomean_record_overhead" in results:
        print(f"geomean recording overhead: {results['geomean_record_overhead']}x")
    print(f"wrote {out}")
    if divergences:
        print(
            f"FAIL: {len(divergences)} vector-vs-interpreter divergence(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
