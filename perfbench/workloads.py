"""The benchmark's workloads: closed-loop passes over the public session API.

Every workload is one caller driving ``VeriBugSession`` from a single
process, each campaign or ``train`` call waiting for the previous one.
A *pass* is one whole campaign sweep (every target of every paper
design) or one ``VeriBugSession.train`` call.  Runners return a
:class:`PassResult` holding the pass wall, the per-operation outcomes
the correctness gate compares, and the public stats counters read after
the pass.  Oracle probes run outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import SessionConfig, VeriBugSession, generate_corpus
from repro.designs import REGISTRY, design_info
from repro.ingest import ingest_directory
from repro.nn import inference_mode, load_state
from repro.pipeline import CorpusSpec
from repro.sim.compiler import clear_compile_cache
from repro.sim.simulator import reset_engine_stats

CHECKPOINT = "tests/.cache/model_e30_d20_s1.npz"
CORPUS = "examples/corpus"
TABLE3_PLAN = {"negation": 2, "operation": 2, "misuse": 3}
SMALL_PLAN = {"negation": 1, "operation": 1, "misuse": 1}

#: Suspiciousness tolerance between runs and against the autograd
#: reference (the float-tie rule of ``benchmarks/bench_localize.py``).
TOL = 1e-9

#: Design whose targets the oracle probe re-runs on the reference
#: engines.  Probe shape: few traces, so the interpreter and the autograd
#: model finish in about a second even at 64 cycles.
PROBE_DESIGN = "usbf_pl"
PROBE_MUTANTS_PER_TARGET = 2
PROBE_TRACES = 4
PROBE_CORPUS_DESIGNS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``plan``/``n_traces``/``n_cycles``/``min_correct_traces``/
    ``n_workers`` shape a campaign sweep; ``epochs`` and the per-design
    corpus shape apply to ``train-corpus``.  ``fixed_seed`` seeds the
    part of the inputs every run shares (the mutation plan, or the
    corpus and its split); the run seed (default ``default_seed``)
    drives the rest.
    """

    name: str
    why: str
    kind: str  # "campaign" or "train"
    default_seed: int
    fixed_seed: int
    plan: dict = field(default_factory=dict)
    n_traces: int = 20
    n_cycles: int = 12
    min_correct_traces: int = 8
    n_workers: int = 0
    epochs: int = 3

    def shape(self) -> dict:
        if self.kind == "train":
            return {
                "corpus": CORPUS,
                "data_seed": self.fixed_seed,
                "traces_per_design": self.n_traces,
                "cycles_per_trace": self.n_cycles,
                "epochs": self.epochs,
                "evaluate": True,
                "lint_policy": "record",
            }
        return {
            "plan_seed": self.fixed_seed,
            "designs": list(REGISTRY),
            "targets": sum(len(design_info(name).targets) for name in REGISTRY),
            "plan": dict(self.plan),
            "traces": self.n_traces,
            "cycles": self.n_cycles,
            "min_correct_traces": self.min_correct_traces,
            "n_workers": self.n_workers,
            "checkpoint": CHECKPOINT,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "table3",
            "Table-III sweep, 56 mutants at 12 cycles: per-mutant fixed costs"
            " (mutate, compile, codegen, stimulus, top-up) dominate",
            "campaign",
            29,
            29,
            plan=TABLE3_PLAN,
        ),
        Workload(
            "train-corpus",
            "train on the 27-design ingested corpus: ingest, lint, cold"
            " compile per design, encoder and autograd training; no mutants",
            "train",
            0,
            1,
            n_traces=4,
            n_cycles=25,
        ),
        Workload(
            "table3-pool2",
            "table3 on a persistent 2-worker session pool: the only workload"
            " that runs repro.runtime dispatch and sharded localization",
            "campaign",
            29,
            29,
            plan=TABLE3_PLAN,
            n_workers=2,
        ),
    )
}


@dataclass
class PassResult:
    """What one timed pass produced.

    ``ops`` are per-operation comparison records (one per mutant, or one
    per corpus design plus the fit); ``maps`` the per-mutant heatmap
    ``(ranking, suspiciousness)`` pairs; ``stats`` the public counters.
    """

    wall: float
    seed: int
    ops: list = field(default_factory=list)
    maps: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    first_updates: list = field(default_factory=list)
    unit_walls: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    observable: int = 0
    localized: int = 0
    accuracy: float | None = None
    probe_mutations: dict = field(default_factory=dict)
    ref: float = 0.0  # reference-loop time around the pass
    spans: dict | None = None  # traced passes only


def _mutation_key(mutation) -> tuple:
    return (mutation.kind, mutation.stmt_id, mutation.node_index, mutation.replacement)


def _outcome_record(design: str, target: str, outcome) -> tuple:
    return (
        design,
        target,
        _mutation_key(outcome.mutation),
        outcome.observable,
        outcome.localized,
        outcome.rank,
        outcome.n_failing,
        outcome.n_correct,
        bool(outcome.error),
        outcome.suspiciousness,
    )


def _heatmap_record(localization) -> tuple | None:
    if localization is None:
        return None
    return (
        tuple(localization.ranking),
        dict(localization.heatmap.suspiciousness),
    )


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


def same_op(a: tuple, b: tuple) -> bool:
    """Two outcome records agree: exact fields, suspiciousness within TOL."""
    return a[:-1] == b[:-1] and _close(a[-1], b[-1])


def same_heatmap(a, b) -> bool:
    """Heatmaps agree: scores within TOL, rankings equal up to float ties."""
    if a is None or b is None:
        return a is b
    (rank_a, scores_a), (rank_b, scores_b) = a, b
    if scores_a.keys() != scores_b.keys():
        return False
    if any(abs(scores_a[k] - scores_b[k]) > TOL for k in scores_a):
        return False
    if rank_a == rank_b:
        return True
    if sorted(rank_a) != sorted(rank_b):
        return False
    return all(
        x == y or abs(scores_a[x] - scores_a[y]) <= TOL
        for x, y in zip(rank_a, rank_b)
    )


def digest(records) -> str:
    """Order-sensitive sha256 of outcome records (floats at 1e-9)."""
    h = hashlib.sha256()
    for record in records:
        h.update(
            repr(
                tuple(
                    round(value, 9) if isinstance(value, float) else value
                    for value in record
                )
            ).encode()
        )
    return h.hexdigest()[:16]


def _public_stats(session: VeriBugSession) -> dict:
    """Counters from the session's public stats readers."""
    runtime = session.runtime_stats()
    engines = runtime["simulation"]["engines"]
    cache = session.cache_stats()
    memo = session.memo_stats()
    stats = {
        "compile_cache.hits": runtime["simulation"]["compile_cache"]["hits"],
        "compile_cache.misses": runtime["simulation"]["compile_cache"]["misses"],
        "sim.lane_cycles": sum(counters["cycles"] for counters in engines.values()),
        "sim.scalar_fallbacks": engines["vector"]["scalar_fallbacks"],
        "context_cache.hits": cache["hits"],
        "context_cache.misses": cache["misses"],
        "memo.hits": memo["hits"],
        "memo.misses": memo["misses"],
        "runtime.pools_started": 0,
        "worker_memo.hits": 0,
        "worker_memo.misses": 0,
    }
    if "pools_started" in runtime:
        stats["runtime.pools_started"] = runtime["pools_started"]
        stats["worker_memo.hits"] = runtime["worker_memo"]["hits"]
        stats["worker_memo.misses"] = runtime["worker_memo"]["misses"]
    return stats


def _reset_process_counters() -> None:
    # The compile cache is keyed by module identity and every pass parses
    # fresh modules, so clearing it drops only dead entries and counters.
    clear_compile_cache()
    reset_engine_stats()


def stimulus_seed(seed: int, index: int) -> int:
    """Stimulus seed of pass ``index``: the run seed first, then derived.

    A campaign's cost depends strongly on its stimulus (observability,
    correct-trace top-ups), so one seed per run would make a run's
    median a draw from that spread.  Each pass draws fresh stimulus
    instead, and a run's median covers several draws.
    """
    return seed if index == 0 else (seed * 1_000_003 + index) % 2**31


class CampaignRunner:
    """Campaign sweeps over every target of the four paper designs.

    The mutation plan of each target is sampled inside every pass with
    the workload's fixed plan seed (the Table-III mutants); the run seed
    drives the testbench stimulus.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.config = (
            SessionConfig()
            .with_seed(workload.fixed_seed)
            .with_campaign_defaults(
                n_traces=workload.n_traces,
                min_correct_traces=workload.min_correct_traces,
            )
            .with_workers(workload.n_workers)
        )
        self.targets = [
            (name, target) for name in REGISTRY for target in design_info(name).targets
        ]
        self.ops_per_pass = 0
        self.session: VeriBugSession | None = None  # the pooled session

    # -- setup -------------------------------------------------------------
    def setup_once(self) -> None:
        """One setup repetition: session, pool warm-up, first-call warm-up.

        Independent of the run seed, so set-up time varies only with the
        host.
        """
        if self.session is not None:
            self.session.close()
            self.session = None
        session = VeriBugSession.from_checkpoint(CHECKPOINT, self.config)
        if session.runtime is not None:
            session.runtime.warm_up()
        name, target = self.targets[0]
        for _ in session.campaign(
            name, target, plan=SMALL_PLAN, n_cycles=self.workload.n_cycles
        ).stream():
            pass
        if session.runtime is not None:
            self.session = session
        else:
            session.close()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    # -- timed pass --------------------------------------------------------
    def run_pass(self, index: int) -> PassResult:
        _reset_process_counters()
        seed = stimulus_seed(self.seed, index)
        pooled = self.session
        if pooled is not None:
            pooled.model.context_cache.reset_stats()
            pooled.model.attention_memo.reset_stats()
            before = _public_stats(pooled)
        updates = []
        unit = []
        failures = []
        start = time.perf_counter()
        if pooled is not None:
            # Reloading the checkpoint clears the in-process caches and
            # pushes fresh weights to the workers, whose caches restart
            # cold: the pooled equivalent of a fresh session.
            load_state(pooled.model, CHECKPOINT)
            session = pooled
        else:
            session = VeriBugSession.from_checkpoint(CHECKPOINT, self.config)
        for name, target in self.targets:
            t0 = time.perf_counter()
            first = None
            handle = None
            received = 0
            try:
                plan = session.campaign(name, target, plan=self.workload.plan)
                handle = session.campaign(
                    name,
                    target,
                    plan.mutations,
                    n_cycles=self.workload.n_cycles,
                    seed=seed,
                )
                for update in handle.stream():
                    if first is None:
                        first = time.perf_counter() - t0
                    updates.append((name, target, update.outcome, update.localization))
                    received += 1
            except Exception as exc:  # a failing call is a failed operation
                planned = len(handle) if handle is not None else 1
                failures.append((name, target, max(planned - received, 1), repr(exc)))
            unit.append((name, target, first, time.perf_counter() - t0, handle))
        wall = time.perf_counter() - start

        result = PassResult(wall=wall, seed=seed)
        for name, target, outcome, localization in updates:
            result.ops.append(_outcome_record(name, target, outcome))
            result.maps.append(_heatmap_record(localization))
            result.observable += outcome.observable
            result.localized += outcome.localized
        for name, target, count, message in failures:
            result.failed += count
            result.errors.append(f"{name}/{target}: {message}")
        for name, target, first, unit_wall, handle in unit:
            if first is not None:
                result.first_updates.append(first)
            result.unit_walls.append(unit_wall)
            if name == PROBE_DESIGN and handle is not None:
                result.probe_mutations[target] = list(handle.mutations)
        stats = _public_stats(session)
        if pooled is not None:
            # Worker memo counters are cumulative over the session.
            for key in ("worker_memo.hits", "worker_memo.misses"):
                stats[key] -= before[key]
        else:
            session.close()
        result.stats = stats
        if not self.ops_per_pass:
            self.ops_per_pass = len(result.ops) + result.failed
        return result

    # -- checks (untimed) ------------------------------------------------------
    def verify(self, passes: list[PassResult]) -> tuple[int, int, list[str]]:
        """Replay and oracle checks on one design's targets.

        *Replay*: a fresh sequential session re-runs every
        :data:`PROBE_DESIGN` campaign of the first pass (same mutants,
        same stimulus seed); outcomes and heatmaps must match the pass
        exactly, which pins determinism and, on the pooled workload, the
        runtime against the sequential path.

        *Oracle*: the first mutants of those targets run at the
        workload's cycle count with few traces on the default engines and
        again on the interpreted simulator with the autograd localizer
        (``fast_inference=False``); outcomes must agree, heatmaps up to
        float ties.  Returns ``(attempted, failed, messages)``.
        """
        reference = passes[0]
        n_cycles = self.workload.n_cycles
        attempted = failed = 0
        messages: list[str] = []

        def compare(label, got, want):
            nonlocal attempted, failed
            if len(got) != len(want):
                failed += max(len(got), len(want))
                messages.append(f"{label}: {len(got)} outcomes vs {len(want)}")
                return
            for (op_a, map_a), (op_b, map_b) in zip(got, want):
                attempted += 1
                if not (same_op(op_a, op_b) and same_heatmap(map_a, map_b)):
                    failed += 1
                    messages.append(f"{label}: {op_a} vs {op_b}")

        sequential = dataclasses.replace(self.config, n_workers=0)
        replay = VeriBugSession.from_checkpoint(CHECKPOINT, sequential)
        probe_config = dataclasses.replace(
            sequential,
            n_traces=PROBE_TRACES,
            min_correct_traces=PROBE_TRACES // 2,
            max_extra_batches=1,
        )
        fast = VeriBugSession.from_checkpoint(CHECKPOINT, probe_config)
        oracle = VeriBugSession.from_checkpoint(
            CHECKPOINT,
            dataclasses.replace(
                probe_config, sim_engine="interpreted", fast_inference=False
            ),
        )
        for target, mutations in sorted(reference.probe_mutations.items()):
            in_pass = [
                (op, heat)
                for op, heat in zip(reference.ops, reference.maps)
                if op[0] == PROBE_DESIGN and op[1] == target
            ]
            compare(
                f"replay {target}",
                _drain(replay, target, mutations, n_cycles, reference.seed),
                in_pass,
            )
            subset = mutations[:PROBE_MUTANTS_PER_TARGET]
            compare(
                f"oracle {target}",
                _drain(fast, target, subset, n_cycles, reference.seed),
                _drain(oracle, target, subset, n_cycles, reference.seed),
            )
        return attempted, failed, messages


def _drain(session, target, mutations, n_cycles, seed) -> list:
    return [
        (
            _outcome_record(PROBE_DESIGN, target, update.outcome),
            _heatmap_record(update.localization),
        )
        for update in session.campaign(
            PROBE_DESIGN, target, mutations, n_cycles=n_cycles, seed=seed
        ).stream()
    ]


class _FirstWrite:
    """stdout sink that timestamps the first progress line it receives."""

    def __init__(self):
        self.first: float | None = None
        self.text: list[str] = []

    def write(self, text: str) -> int:
        if self.first is None and text.strip():
            self.first = time.perf_counter()
        self.text.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _weights_digest(model) -> str:
    h = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()[:16]


class TrainRunner:
    """``VeriBugSession.train`` over the ingested example corpus.

    The corpus and its design-level split use the workload's fixed data
    seed (1); the run seed initializes the model and orders its
    minibatches.  Cost then does not depend on the seed (a different
    split changes how many samples train), while the trained weights,
    loss history and held-out accuracy do.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.config = (
            SessionConfig()
            .with_seed(workload.fixed_seed)
            .with_corpus(CORPUS)
            .with_model(epochs=workload.epochs, seed=seed)
        )
        self.spec = CorpusSpec(
            n_designs=0,
            n_traces_per_design=workload.n_traces,
            n_cycles=workload.n_cycles,
            source_dir=CORPUS,
        )
        # One operation per corpus design plus the fit.
        self.ops_per_pass = len(ingest_directory(CORPUS).names()) + 1
        self.session: VeriBugSession | None = None

    def setup_once(self) -> None:
        """One setup repetition: a tiny synthetic train (first-call warm-up)."""
        VeriBugSession.train(
            SessionConfig().with_model(epochs=1),
            CorpusSpec(n_designs=2, n_traces_per_design=2, n_cycles=8),
        ).close()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def run_pass(self, index: int) -> PassResult:
        _reset_process_counters()
        sink = _FirstWrite()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                session = VeriBugSession.train(
                    self.config, self.spec, evaluate=True, log=True
                )
        except Exception as exc:  # a failing train call fails every operation
            return PassResult(
                wall=time.perf_counter() - start,
                seed=self.seed,
                failed=self.ops_per_pass,
                errors=[repr(exc)],
            )
        wall = time.perf_counter() - start
        accuracy = session.test_metrics.accuracy if session.test_metrics else None
        record = (
            "train",
            _weights_digest(session.model),
            "".join(sink.text),
            accuracy,
        )
        result = PassResult(
            wall=wall,
            seed=self.seed,
            ops=[record],
            first_updates=[sink.first - start] if sink.first is not None else [],
            stats=_public_stats(session),
            accuracy=accuracy,
        )
        self.close()
        self.session = session
        return result

    def verify(self, passes: list[PassResult]) -> tuple[int, int, list[str]]:
        """Identical passes; simulation and inference against the oracles.

        Every pass must reproduce the first pass's weights, loss history
        and held-out accuracy.  The first corpus designs are simulated on
        the default engine and on the interpreter (samples must be
        identical); the last trained model then scores those samples on
        the fused no-grad path and on the autograd reference (logits and
        attention within TOL).
        """
        messages: list[str] = []
        failed = 0
        for index, result in enumerate(passes[1:], start=1):
            if result.ops and result.ops != passes[0].ops:
                failed += self.ops_per_pass
                messages.append(f"pass {index}: train outcome differs from pass 0")

        spec = dataclasses.replace(self.spec, n_designs=PROBE_CORPUS_DESIGNS)
        data_seed = self.workload.fixed_seed
        fast = generate_corpus(spec, seed=data_seed)
        oracle = generate_corpus(
            dataclasses.replace(spec, engine="interpreted"), seed=data_seed
        )

        def key(sample):
            return (
                sample.design,
                sample.context.stmt_id,
                sample.operand_values,
                sample.label,
            )

        if [key(s) for s in fast] != [key(s) for s in oracle]:
            failed += 1
            messages.append("corpus samples differ from the interpreted simulator")
        if self.session is not None and fast:
            model = self.session.model
            batch = self.session.encoder.encode(fast)
            with inference_mode():
                quick = model(batch)
            reference = model(batch)
            for field_name in ("logits", "attention"):
                a = np.asarray(getattr(quick, field_name).data)
                b = np.asarray(getattr(reference, field_name).data)
                if a.shape != b.shape or np.max(np.abs(a - b)) > TOL:
                    failed += 1
                    messages.append(f"fused {field_name} differ from autograd")
        return 2, failed, messages


def make_runner(workload: Workload, seed: int):
    if workload.kind == "train":
        return TrainRunner(workload, seed)
    return CampaignRunner(workload, seed)
