"""Bug-injection campaign driver (reproduces paper Table III).

For each sampled mutation the campaign:

1. simulates the golden design and the mutant under the same random
   testbenches,
2. classifies each trace: *failing* when the mutant diverges from the
   golden design at the target output, *correct* when it diverges
   nowhere (traces diverging only at non-target outputs are dropped, as
   the failure did not symptomatize at ``t``),
3. declares the bug *observable* when at least one failing trace exists,
4. runs the localizer and scores *top-1 localization*: the mutated
   statement must hold the single highest suspiciousness in ``Ht``.

A target's mutants are simulated as *selector lanes of one program*
(:class:`TargetSimulation`): the golden design is lowered once with
every mutated statement as a selector-dispatched variant, so the golden
runs and all mutants share one compile and one vector codegen, and the
mutants run as one lockstep suite per round instead of one suite each.
The interpreter (the reference oracle) keeps the per-mutant path.
Stimulus suites and their golden traces do not depend on the target, so
a :class:`SuiteMemo` generates and golden-simulates each one once and
serves it to every target of the design.

A campaign is a list of *chunks* (:func:`plan_chunks`: contiguous
mutation spans inside one program group, mutant 0 alone first), and
one function runs a chunk: :meth:`TargetSimulation.localize_chunk`
simulates and classifies its mutants, localizes the observable ones in
one :meth:`LocalizationEngine.localize_many` call and scores them.
Without a live :class:`~repro.runtime.ExecutionRuntime` the chunks run
in process, one per program group after mutant 0.  Given one (the
owning session's persistent pool, reused by consecutive campaigns),
each program group splits into up to ``n_workers`` chunks and each pool
task runs one chunk on its worker, so trace sets never leave the worker
that recorded them; only scored outcomes and localizations come back.
Pooled campaigns are bit-identical to sequential ones because every
mutant derives its extra testbench seeds from its own ``node_index``
(:func:`repro.runtime.seeding.mutant_topup_seed`), never from the
worker that happens to simulate it, and the chunk a mutant is localized
with cannot change any attention weight.

Localization runs on the inference fast path:
:meth:`LocalizationEngine.localize_many` deduplicates a chunk's
executions and encodes them into shared no-grad forward passes; under
that no-grad scope the model runs the fused PathRNN kernel and serves
repeated statement contexts from its context-embedding cache.  A
mutant's slice and contexts come from its golden design's frozen
:class:`~repro.analysis.DesignIndex` patched with the one mutated
statement, so the contexts of every untouched statement are the golden
design's own objects.  Rankings are identical to per-mutant
localization.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from ..core.localizer import (
    LocalizationEngine,
    LocalizationRequest,
    LocalizationResult,
)
from ..runtime import mutant_topup_seed, plan_shards
from ..sim.simulator import SimulationError, Simulator
from ..sim.testbench import StimulusSuite, TestbenchConfig, generate_testbench_suite
from ..sim.trace import Trace, _LaneOutputs
from ..verilog.ast_nodes import Module
from .mutation import Mutation, apply_mutation, mutant_index


@dataclass
class MutantOutcome:
    """Result of injecting and localizing one bug.

    Attributes:
        mutation: The injected mutation.
        observable: True when the bug symptomatized at the target output.
        localized: True when the mutated statement ranked top-1.
        rank: 1-based heatmap rank of the buggy statement (None if absent).
        suspiciousness: Suspiciousness score of the buggy statement.
        n_failing / n_correct: Trace-set sizes used for localization.
        error: Non-empty when simulation failed (e.g. oscillation).
    """

    mutation: Mutation
    observable: bool = False
    localized: bool = False
    rank: int | None = None
    suspiciousness: float | None = None
    n_failing: int = 0
    n_correct: int = 0
    error: str = ""


@dataclass
class CampaignResult:
    """Aggregated outcome of a campaign on one (design, target) pair."""

    design: str
    target: str
    outcomes: list[MutantOutcome] = field(default_factory=list)

    @property
    def injected(self) -> int:
        """Number of mutants simulated (excluding erroring mutants)."""
        return sum(1 for o in self.outcomes if not o.error)

    @property
    def observable(self) -> int:
        """Mutants whose bug symptomatized at the target output."""
        return sum(1 for o in self.outcomes if o.observable)

    @property
    def localized(self) -> int:
        """Observable mutants localized at top-1."""
        return sum(1 for o in self.outcomes if o.localized)

    @property
    def coverage(self) -> float:
        """Top-1 bug coverage = localized / observable (0 when none)."""
        return self.localized / self.observable if self.observable else 0.0

    def count_by_kind(self, kind: str) -> int:
        """Injected mutants of one mutation kind."""
        return sum(1 for o in self.outcomes if o.mutation.kind == kind and not o.error)


Simulated = tuple[MutantOutcome, list[Trace], list[Trace]]

#: Most mutants compiled into one target program; larger plans split
#: into several programs.  A program's mutants hold their trace sets
#: together until localized, so the cap bounds memory; it costs no time.
#: Measured on the four paper designs' 8 targets with the plan
#: ``{negation: 20, operation: 20, misuse: 40}`` (25-80 mutants per
#: target, 444 in all; 20 traces x 12 cycles; simulation and
#: classification only, 2-vCPU x86 host): median wall 9.7 / 9.3 / 9.8 /
#: 10.5 s for 8 / 16 / 32 / unlimited mutants per program (3 interleaved
#: runs each; 8 vs 16 over 6 more: 8.29 vs 8.26 s), 15.1 s for one
#: program per mutant; peak RSS 79 / 91 / 116 / 192 MB.  The default
#: Table-III plan (7 mutants per target) fits in one program.
MAX_PROGRAM_VARIANTS = 8


def plan_chunks(n_mutations: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, end)`` mutation spans: a campaign's chunks.

    Mutant 0 runs alone first, so the first update streams early; the
    rest of each program group (:data:`MAX_PROGRAM_VARIANTS` mutants)
    splits into at most ``n_workers`` balanced spans that share selector
    lanes and top-up rounds (one span in process, ``n_workers=1``).
    Spans cover every index once, in order.
    """
    chunks = [(0, 1)] if n_mutations > 0 else []
    for low in range(0, n_mutations, MAX_PROGRAM_VARIANTS):
        start = max(low, 1)
        size = min(low + MAX_PROGRAM_VARIANTS, n_mutations) - start
        chunks.extend(
            (start + a, start + b) for a, b in plan_shards(size, n_workers)
        )
    return chunks


def _classify(
    traces: list[Trace],
    goldens: list[Trace],
    target: str,
    outputs: list[str],
    failing: list[Trace],
    correct: list[Trace],
) -> None:
    """Sort mutant traces into failing / correct against the golden ones.

    A trace is failing when it diverges from its golden trace at
    ``target``, correct when it diverges at none of ``outputs``; traces
    failing only at non-target outputs are dropped.  Lane-view traces
    are compared in one numpy ``!=`` (:func:`_lane_verdicts`); the rest
    take :meth:`Trace.diverges_from`, the same rule trace by trace.
    """
    verdicts = _lane_verdicts(traces, goldens, target, outputs)
    for trace, golden_trace, verdict in zip(traces, goldens, verdicts):
        if verdict is None:
            fails = trace.diverges_from(golden_trace, signals=[target])
            clean = not fails and not trace.diverges_from(
                golden_trace, signals=outputs
            )
        else:
            fails, clean = verdict
        if fails:
            trace.is_failure = True
            failing.append(trace)
        elif clean:
            correct.append(trace)


def _lane_verdicts(
    traces: list[Trace], goldens: list[Trace], target: str, outputs: list[str]
) -> list[tuple[bool, bool] | None]:
    """``(diverges at target, matches at every output)`` per lane pair.

    Pairs whose outputs are both lane views over the same output names
    and of equal length are compared together: one ``!=`` over
    ``[cycles, outputs, lanes]``, reduced per lane over the target
    column and over all ``outputs``.  Other pairs get None.
    """
    verdicts: list[tuple[bool, bool] | None] = [None] * len(traces)
    views = [(trace.outputs, golden.outputs) for trace, golden in zip(traces, goldens)]
    first = next((mine for mine, _ in views if isinstance(mine, _LaneOutputs)), None)
    if first is None or not first.names:
        return verdicts
    names, length = first.names, first.length
    pairs = [
        index
        for index, (mine, theirs) in enumerate(views)
        if isinstance(mine, _LaneOutputs)
        and isinstance(theirs, _LaneOutputs)
        and mine.names == names
        and theirs.names == names
        and mine.length == length
        and theirs.length == length
    ]
    if not pairs:
        return verdicts
    mutants = np.stack([views[index][0].column() for index in pairs], axis=1)
    golden = np.stack([views[index][1].column() for index in pairs], axis=1)
    diff = (mutants != golden).reshape(length, len(names), len(pairs))
    fails = (
        diff[:, names.index(target)].any(axis=0)
        if target in names
        else np.zeros(len(pairs), dtype=bool)
    )
    watched = [names.index(name) for name in outputs if name in names]
    dirty = diff[:, watched].any(axis=(0, 1))
    for index, fail, dirt in zip(pairs, fails.tolist(), dirty.tolist()):
        verdicts[index] = (fail, not dirt)
    return verdicts


Suite = tuple[StimulusSuite, list[Trace]]


def _config_key(config: TestbenchConfig) -> tuple:
    """Every :class:`TestbenchConfig` field, hashable (dict items sorted)."""
    return tuple(
        tuple(sorted(value.items())) if isinstance(value, dict) else value
        for value in (getattr(config, f.name) for f in dataclasses.fields(config))
    )


class SuiteMemo:
    """Stimulus suites of one design and their golden traces, memoized.

    A random testbench suite is a pure function of the design's inputs,
    the suite seed, ``n_traces`` and the :class:`TestbenchConfig` (whose
    ``engine`` field also fixes the golden traces), never of the campaign
    target.  The memo maps those to ``(stimuli, golden traces)``, so every
    target of a design shares its main suite (the entry for the campaign
    seed) and its correct-trace top-up suites (seeds from
    :func:`~repro.runtime.seeding.mutant_topup_seed`, which repeat across
    mutants and targets with the same ``node_index``).

    The memo holds one design at a time, identified by module object: a
    lookup for another module clears it *in place*, so a caller still
    holding an engine or handle bound to this memo cannot pin an earlier
    design's suites.  Stimulus frames and traces are shared, so callers
    must not mutate them.
    """

    def __init__(self):
        self.module: Module | None = None
        self._suites: dict[tuple, Suite] = {}
        self.hits = 0
        self.misses = 0

    def fetch(
        self,
        module: Module,
        seeds: Iterable[int],
        n_traces: int,
        config: TestbenchConfig,
        golden: Callable[[], Simulator],
    ) -> list[Suite]:
        """``(stimuli, golden traces)`` per seed, in order.

        Missing suites are generated and their goldens run as one suite
        on ``golden()`` (called only on a miss).  Golden traces are
        simulator-independent: a target program's selector 0 and the
        plain design produce the same ones.
        """
        if module is not self.module:
            self._suites.clear()
            self.module = module
        config_key = _config_key(config)
        keys = [(seed, n_traces, config_key) for seed in seeds]
        missing = list(dict.fromkeys(key for key in keys if key not in self._suites))
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        if missing:
            suites = [
                generate_testbench_suite(module, n_traces, config, seed=key[0])
                for key in missing
            ]
            goldens = golden().run_suite(StimulusSuite.concat(suites), record=False)
            start = 0
            for key, suite in zip(missing, suites):
                self._suites[key] = (suite, goldens[start : start + len(suite)])
                start += len(suite)
        return [self._suites[key] for key in keys]

    def stats(self) -> dict[str, int]:
        """Lookups served (``hits``), suites generated (``misses``), held."""
        return {"hits": self.hits, "misses": self.misses, "suites": len(self._suites)}


def _simulate_mutant(
    module: Module,
    target: str,
    mutation: Mutation,
    stimuli: StimulusSuite,
    golden_traces: list[Trace],
    testbench_config: TestbenchConfig,
    n_traces: int,
    seed: int,
    min_correct_traces: int,
    max_extra_batches: int,
    suites: SuiteMemo | None = None,
) -> Simulated:
    """Simulate and classify one mutant (no localization).

    Pure function of its arguments so it can run either inline or inside a
    worker process; returns the outcome shell plus the failing/correct
    trace sets the localizer needs.  Recorded mutant runs stay in the
    one execution format end to end: each trace is a lane of the
    simulator's :class:`~repro.sim.trace.SuiteLog`, failure
    classification only reads outputs, and the localizer dedups straight
    off the log — no per-execution record objects exist anywhere on this
    path, in-process or across the worker boundary.

    This is the per-mutant path: :class:`TargetSimulation` takes it when
    its simulator runs on the interpreter (the reference oracle, or a
    program too wide for the lane audit) and falls back to it when a
    shared suite fails.  ``suites`` shares top-up suites across the
    mutants of one campaign (and the targets of one design).
    """
    engine = testbench_config.engine
    outcome = MutantOutcome(mutation=mutation)
    failing: list[Trace] = []
    correct: list[Trace] = []
    try:
        mutant = apply_mutation(module, mutation)
        simulator = Simulator(mutant, engine=engine)
    except (ValueError, SimulationError) as exc:
        outcome.error = str(exc)
        return outcome, failing, correct

    outputs = module.outputs

    def classify(stims, goldens) -> bool:
        try:
            traces = simulator.run_suite(stims)
        except SimulationError:
            # A single oscillating stimulus fails the whole batch (the
            # vector engine runs the suite in lockstep).  Rerun trace by
            # trace so classification stops exactly at the offending
            # stimulus, preserving the partial trace sets the interpreter
            # produces.
            for stim, golden_trace in zip(stims, goldens):
                try:
                    trace = simulator.run(stim)
                except SimulationError as exc:
                    outcome.error = str(exc)
                    return False
                _classify([trace], [golden_trace], target, outputs, failing, correct)
            return True
        _classify(traces, goldens, target, outputs, failing, correct)
        return True

    if not classify(stimuli, golden_traces):
        return outcome, failing, correct

    golden = functools.cache(lambda: Simulator(module, engine=engine))
    # A verification environment has no shortage of passing runs:
    # top up the correct set so Ft/Ct comparison is well-conditioned.
    extra_batch = 0
    while (
        failing
        and len(correct) < min_correct_traces
        and extra_batch < max_extra_batches
    ):
        if suites is None:
            suites = SuiteMemo()
        extra_batch += 1
        ((extra_stimuli, extra_golden),) = suites.fetch(
            module,
            [mutant_topup_seed(seed, extra_batch, mutation.node_index)],
            n_traces,
            testbench_config,
            golden,
        )
        if not classify(extra_stimuli, extra_golden):
            return outcome, failing, correct

    outcome.n_failing = len(failing)
    outcome.n_correct = len(correct)
    outcome.observable = bool(failing)
    return outcome, failing, correct


class TargetSimulation:
    """Simulates one campaign target's mutants as lanes of one program.

    Every mutation is a local edit of one statement, so the target's
    mutants differ from the golden design only in those statements.
    :func:`~repro.sim.compiler.compile_target_program` lowers the golden
    design once with each mutated statement as a selector-dispatched
    variant; the golden design is selector 0 and mutant ``k`` selector
    ``k``.  One lowering and one vector codegen then serve the golden
    runs and every mutant, and mutants simulated together form a single
    suite whose lanes are (mutant, stimulus) pairs: one dispatch per
    cycle for all of them.  Correct-trace top-up rounds run the same
    way.  The main and top-up suites and their goldens come from a
    :class:`SuiteMemo` (the caller's, shared across targets of one
    design, or a private one).  Plans longer than :data:`MAX_PROGRAM_VARIANTS`
    get one program per that many mutants, each lowered on first use.

    A program records only its *record set*, the union of its mutants'
    static slices of the target: the localizer reads nothing else of a
    mutant's traces (paper §IV-B).  Outcomes and trace sets are
    identical to :func:`_simulate_mutant` per mutant, each trace's
    events being the per-mutant run's events of the record set.  A
    suite that raises :class:`SimulationError` (an
    oscillating lane stops the whole lockstep suite) is rerun mutant by
    mutant on that reference path, which reports the error exactly
    where it did before.  Lowering errors (``SimulationError``,
    ``VerilogError``) propagate, as building the golden simulator would
    raise them too.  A simulator that is not
    :attr:`~repro.sim.Simulator.lockstep` — ``engine="interpreted"`` (the
    reference oracle), or a target program that fails the 63-bit lane
    audit — runs no variants, so its mutants take that per-mutant path,
    each as its own module.
    """

    def __init__(
        self,
        module: Module,
        target: str,
        mutations: list[Mutation],
        testbench_config: TestbenchConfig,
        n_traces: int,
        seed: int,
        min_correct_traces: int,
        max_extra_batches: int,
        suites: SuiteMemo | None = None,
    ):
        self.module = module
        self.target = target
        self.mutations = list(mutations)
        self.testbench_config = testbench_config
        self.n_traces = n_traces
        self.seed = seed
        self.min_correct_traces = min_correct_traces
        self.max_extra_batches = max_extra_batches
        #: mutation index -> its selector in its group's program, or the
        #: error that kept the mutation out of the program.
        self.selectors: dict[int, int] = {}
        self.errors: dict[int, str] = {}
        self._programs: dict[int, Simulator] = {}
        self._golden: Simulator | None = None
        self.suites = SuiteMemo() if suites is None else suites

    def fetch(self, seeds: Iterable[int]) -> list[Suite]:
        """The suites drawn with ``seeds``, from the memo.

        Misses run their goldens on :meth:`golden_simulator`.
        """
        return self.suites.fetch(
            self.module,
            seeds,
            self.n_traces,
            self.testbench_config,
            self.golden_simulator,
        )

    def golden_simulator(self) -> Simulator:
        """A simulator of the golden design.

        Selector 0 of every program is the golden design, so the first
        program lowered serves (a pool worker that only sees a later
        group's mutants never lowers group 0).  On the interpreter,
        selector 0 is all a program's simulator runs.
        """
        if self._golden is None:
            self._simulator(0)
        assert self._golden is not None
        return self._golden

    def _simulator(self, group: int) -> Simulator:
        """The program of mutation group ``group``, lowered on first use."""
        simulator = self._programs.get(group)
        if simulator is not None:
            return simulator
        start = group * MAX_PROGRAM_VARIANTS
        variants = []
        record_set: set[int] = set()
        for index in range(start, min(start + MAX_PROGRAM_VARIANTS, len(self.mutations))):
            mutation = self.mutations[index]
            try:
                patched = mutant_index(self.module, mutation)
            except ValueError as exc:
                self.errors[index] = str(exc)
                continue
            variants.append(patched.statement(mutation.stmt_id))
            record_set |= patched.static_slice(self.target).stmt_ids
            self.selectors[index] = len(variants)
        simulator = self._programs[group] = Simulator(
            self.module,
            engine=self.testbench_config.engine,
            variants=variants,
            record_set=frozenset(record_set),
        )
        if self._golden is None:
            self._golden = simulator
        return simulator

    def golden(self, stimuli: StimulusSuite) -> list[Trace]:
        """Unrecorded golden traces."""
        return self.golden_simulator().run_suite(stimuli, record=False)

    def _simulate_alone(
        self,
        index: int,
        stimuli: StimulusSuite,
        golden_traces: list[Trace],
    ) -> Simulated:
        """The mutation at ``index`` on the per-mutant reference path."""
        return _simulate_mutant(
            self.module,
            self.target,
            self.mutations[index],
            stimuli,
            golden_traces,
            self.testbench_config,
            self.n_traces,
            self.seed,
            self.min_correct_traces,
            self.max_extra_batches,
            self.suites,
        )

    def simulate(
        self,
        indices: list[int],
        stimuli: StimulusSuite,
        golden_traces: list[Trace],
    ) -> list[Simulated]:
        """Simulate and classify the mutations at ``indices``.

        Mutations of one program share each round's suite.  Returns one
        ``(outcome, failing, correct)`` triple per index, in order.
        """
        groups: dict[int, list[int]] = {}
        for index in indices:
            groups.setdefault(index // MAX_PROGRAM_VARIANTS, []).append(index)
        results: dict[int, Simulated] = {}
        for group, members in groups.items():
            simulator = self._simulator(group)
            if not simulator.lockstep:
                # No variant lanes: every mutant runs as its own module.
                for index in members:
                    results[index] = self._simulate_alone(
                        index, stimuli, golden_traces
                    )
                continue
            live = []
            for index in members:
                outcome = MutantOutcome(mutation=self.mutations[index])
                if index in self.errors:
                    outcome.error = self.errors[index]
                else:
                    live.append(index)
                results[index] = (outcome, [], [])
            try:
                self._run_rounds(simulator, live, results, stimuli, golden_traces)
            except SimulationError:
                for index in live:
                    results[index] = self._simulate_alone(
                        index, stimuli, golden_traces
                    )
        for outcome, failing, correct in results.values():
            if not outcome.error:
                outcome.n_failing = len(failing)
                outcome.n_correct = len(correct)
                outcome.observable = bool(failing)
        return [results[index] for index in indices]

    def localize_chunk(
        self,
        span: tuple[int, int],
        stimuli: StimulusSuite,
        golden_traces: list[Trace],
        localizer: LocalizationEngine,
    ) -> list[tuple[MutantOutcome, LocalizationResult | None]]:
        """Simulate, localize and score the mutations of one chunk.

        ``span`` is a :func:`plan_chunks` chunk.  Its mutations are
        simulated together (:meth:`simulate`) and every observable one is
        localized in one :meth:`LocalizationEngine.localize_many` call;
        attention is segment-local, so that batch cannot change a score.
        Returns ``(outcome, localization)`` pairs in mutation order,
        ``localization`` None for erroring or unobservable mutants.  The
        in-process campaign and the pool's chunk task both run this.
        """
        simulated = self.simulate(list(range(*span)), stimuli, golden_traces)
        requests = [
            LocalizationRequest(
                module=apply_mutation(self.module, outcome.mutation),
                target=self.target,
                failing_traces=failing,
                correct_traces=correct,
            )
            for outcome, failing, correct in simulated
            if outcome.observable
        ]
        found = iter(localizer.localize_many(requests) if requests else [])
        pairs: list[tuple[MutantOutcome, LocalizationResult | None]] = []
        for outcome, _failing, _correct in simulated:
            localization = next(found) if outcome.observable else None
            if localization is not None:
                stmt_id = outcome.mutation.stmt_id
                outcome.rank = localization.rank_of(stmt_id)
                outcome.suspiciousness = localization.heatmap.suspiciousness.get(stmt_id)
                outcome.localized = localization.is_top1(stmt_id)
            pairs.append((outcome, localization))
        return pairs

    def _run_rounds(self, simulator, live, results, stimuli, golden_traces) -> None:
        """The initial suite plus top-up rounds, one shared suite each."""
        outputs = self.module.outputs
        suites = {index: (stimuli, golden_traces) for index in live}
        batch = 0
        while suites:
            lanes = StimulusSuite.concat([stims for stims, _ in suites.values()])
            selectors = [
                self.selectors[index]
                for index, (stims, _) in suites.items()
                for _ in stims
            ]
            traces = simulator.run_suite(lanes, selectors=selectors)
            start = 0
            for index, (stims, goldens) in suites.items():
                _outcome, failing, correct = results[index]
                _classify(
                    traces[start : start + len(stims)],
                    goldens,
                    self.target,
                    outputs,
                    failing,
                    correct,
                )
                start += len(stims)
            # A verification environment has no shortage of passing runs:
            # top up each correct set so Ft/Ct comparison is
            # well-conditioned (the per-mutant loop's policy, in rounds).
            batch += 1
            if batch > self.max_extra_batches:
                break
            needing = [
                index
                for index in suites
                if results[index][1]
                and len(results[index][2]) < self.min_correct_traces
            ]
            topups = self.fetch(
                mutant_topup_seed(self.seed, batch, self.mutations[index].node_index)
                for index in needing
            )
            suites = dict(zip(needing, topups))


class CampaignEngine:
    """Runs mutation campaigns against a trained localizer.

    This is the *engine* layer driven by
    :meth:`repro.api.VeriBugSession.campaign`, whose handle adds
    streaming heatmap snapshots on top of :meth:`iter_localized`.

    Args:
        localizer: Trained localizer scored against each observable bug.
        n_traces: Testbenches per batch.
        testbench_config: Stimulus knobs; its ``engine`` field selects the
            simulation engine for golden and mutant runs.
        seed: Base seed for the testbench suite.
        min_correct_traces / max_extra_batches: Correct-trace top-up policy.
        runtime: Optional :class:`~repro.runtime.ExecutionRuntime` whose
            workers simulate and localize campaign chunks while it is
            open.  Workers localize with the weights the runtime mirrors
            (:meth:`~repro.runtime.ExecutionRuntime.attach_model`); a
            session passes its persistent pool, bound to the localizer's
            model, so consecutive campaigns reuse one set of workers.
            Without a live runtime the campaign runs in process.
        suites: The :class:`SuiteMemo` serving the main and top-up
            suites.  A session passes its own, shared by every campaign
            it runs; by default the engine keeps a private one, shared
            by the campaigns this engine runs.
    """

    def __init__(
        self,
        localizer: LocalizationEngine,
        n_traces: int = 12,
        testbench_config: TestbenchConfig | None = None,
        seed: int = 0,
        min_correct_traces: int = 4,
        max_extra_batches: int = 4,
        runtime=None,
        suites: SuiteMemo | None = None,
    ):
        self.localizer = localizer
        self.n_traces = n_traces
        self.testbench_config = testbench_config or TestbenchConfig()
        self.seed = seed
        self.min_correct_traces = min_correct_traces
        self.max_extra_batches = max_extra_batches
        self.runtime = runtime
        self.suites = SuiteMemo() if suites is None else suites

    def run(
        self,
        module: Module,
        target: str,
        mutations: list[Mutation],
    ) -> CampaignResult:
        """Execute a campaign for one design/target pair.

        Drains :meth:`iter_localized`, so batch and streaming semantics
        are one implementation: per-mutant outcomes are identical however
        they are consumed.

        Args:
            module: The golden design.
            target: Output where failures must symptomatize.
            mutations: The bug-injection plan.

        Returns:
            Per-mutant outcomes and aggregate coverage.
        """
        result = CampaignResult(design=module.name, target=target)
        for outcome, _localization in self.iter_localized(module, target, mutations):
            result.outcomes.append(outcome)
        return result

    def iter_localized(
        self,
        module: Module,
        target: str,
        mutations: list[Mutation],
    ) -> Iterator[tuple[MutantOutcome, LocalizationResult | None]]:
        """Stream fully-scored outcomes as the campaign progresses.

        Yields ``(outcome, localization)`` pairs in mutation order, one
        :func:`plan_chunks` chunk at a time, each chunk as soon as
        :meth:`TargetSimulation.localize_chunk` has simulated, localized
        and scored it; ``localization`` is None for erroring or
        unobservable mutants.  In process the chunks run one after
        another (mutant 0 alone, then the rest of each program group),
        so at most one program's mutants hold trace sets at once; on a
        live runtime each chunk is one pool task and each program group
        splits into at most ``n_workers`` chunks.  Chunking cannot change
        any outcome (attention is segment-local; see
        :meth:`LocalizationEngine.localize_many`), so both ways — and
        :meth:`run`, which drains this iterator — agree.
        """
        simulation = (
            module,
            target,
            list(mutations),
            self.testbench_config,
            self.n_traces,
            self.seed,
            self.min_correct_traces,
            self.max_extra_batches,
        )
        runtime = self.runtime
        if runtime is not None and not runtime.closed and len(mutations) > 1:
            ((stimuli, golden_traces),) = self.suites.fetch(
                module,
                [self.seed],
                self.n_traces,
                self.testbench_config,
                lambda: Simulator(module, engine=self.testbench_config.engine),
            )
            yield from runtime.simulate_mutants(
                (simulation, stimuli, golden_traces),
                plan_chunks(len(mutations), runtime.n_workers),
            )
            return
        target_simulation = TargetSimulation(*simulation, self.suites)
        ((stimuli, golden_traces),) = target_simulation.fetch([self.seed])
        for span in plan_chunks(len(mutations), 1):
            yield from target_simulation.localize_chunk(
                span, stimuli, golden_traces, self.localizer
            )
