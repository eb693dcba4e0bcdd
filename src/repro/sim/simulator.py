"""Cycle-based two-state simulator with statement-level instrumentation.

The simulator models one clock domain.  Each simulated trace executes
the following schedule per cycle:

1. apply the cycle's input stimulus,
2. settle all combinational logic (level-sensitive always blocks and
   continuous assigns) to a fixpoint,
3. sample the design outputs,
4. fire every edge-sensitive always block once (the cycle *is* the active
   clock edge) collecting non-blocking updates, then commit them
   simultaneously.

Asynchronous resets are handled naturally: the reset input is part of the
stimulus and the clocked block's ``if (!rst_n)`` branch performs the reset
on the next cycle boundary, which is indistinguishable from a true async
reset at cycle granularity.

Every executed assignment is recorded into an event log: both engines
append (slot, cycle, lhs value, operand values) straight into a recorder
against a statement-shape table resolved before the first cycle, and
finish as a :class:`~repro.sim.trace.SuiteLog` — no
:class:`~repro.sim.trace.StatementExecution` objects are constructed
during the run; the trace's record list is a lazy view of its lane.
Combinational statements keep only the record of the final (settled)
evaluation pass of the cycle.

Two execution engines implement this schedule:

* ``"vector"`` (default) — the module is lowered once by
  :mod:`repro.sim.compiler` (module-identity compile cache) and every
  suite runs in lockstep on :mod:`repro.sim.vector`; a single
  :meth:`Simulator.run` is a one-lane suite.  A levelized program
  (comb logic with a settle order) reaches the fixpoint in one comb
  pass per cycle.  A program that fails the
  63-bit lane audit runs on the interpreter instead, decided once per
  simulator and counted in ``engine_stats()["vector"]["scalar_fallbacks"]``.
* ``"interpreted"`` — the recursive tree walk over the AST, kept as the
  reference oracle; every vector lane is byte-identical to it (enforced
  by differential tests).
"""

from __future__ import annotations

import numpy as np

from ..verilog.ast_nodes import (
    AlwaysBlock,
    Assignment,
    Block,
    Case,
    ContinuousAssign,
    If,
    Module,
    Statement,
)
from .compiler import (
    MAX_SETTLE_PASSES,
    CompiledProgram,
    compile_module,
    compile_target_program,
)
from .evaluator import Evaluator
from .recorder import ExecutionRecorder, _PassBuffer
from .testbench import StimulusSuite
from .trace import Trace, _LazyExecutions
from .values import truncate
from .vector import run_vector_suite, vectorizable


class SimulationError(Exception):
    """Raised when the design cannot be simulated (e.g. comb oscillation)."""


#: Engines accepted by :class:`Simulator`.
ENGINES = ("vector", "interpreted")

#: Cumulative per-engine execution counters (process-wide).  The
#: interpreter counts trace ``runs`` and their ``cycles``; the vector
#: engine counts suite ``batches``, total ``lanes`` across them
#: (``variant_lanes`` of them ran a target program's mutant variant),
#: total lane ``cycles``, ``comb_passes`` (comb passes run, each over a
#: whole suite), ``fixpoint_batches`` (suites of a program that is not
#: levelized, settled by the fixpoint loop), and ``scalar_fallbacks``
#: (simulators whose program failed the 63-bit lane audit and run on
#: the interpreter).
_ENGINE_STATS: dict[str, dict[str, int]] = {
    "interpreted": {"runs": 0, "cycles": 0},
    "vector": {
        "batches": 0,
        "lanes": 0,
        "variant_lanes": 0,
        "cycles": 0,
        "comb_passes": 0,
        "fixpoint_batches": 0,
        "scalar_fallbacks": 0,
    },
}


def engine_stats() -> dict[str, dict[str, int]]:
    """Snapshot of the cumulative per-engine execution counters."""
    return {name: dict(counters) for name, counters in _ENGINE_STATS.items()}


def reset_engine_stats() -> None:
    """Zero the per-engine counters (mainly for tests and benchmarks)."""
    for counters in _ENGINE_STATS.values():
        for key in counters:
            counters[key] = 0


class Simulator:
    """Instrumented simulator for one parsed module.

    Args:
        module: The design to simulate.  The module must not be mutated
            in place afterwards (the compile cache is keyed by object
            identity); derive modified designs via ``clone()``.
        engine: ``"vector"`` (default) or ``"interpreted"``.
        variants: Replacement statements (e.g. one per campaign mutant)
            compiled with the module into one target program
            (:func:`repro.sim.compiler.compile_target_program`); a trace
            run with ``selector=k`` simulates the module with
            ``variants[k - 1]`` swapped in.  Only a :attr:`lockstep`
            simulator runs variants: on the interpreter the simulator
            runs the module itself (selector 0), and callers simulate
            each variant as its own module.
        record_set: Statement ids a target program records (None: all);
            other statements emit no records on the vector engine.  The
            interpreter, and a simulator without variants, record every
            statement.

    Example:
        >>> from repro.verilog import parse_module
        >>> m = parse_module("module t(input a, output y); assign y = ~a; endmodule")
        >>> trace = Simulator(m).run([{"a": 0}, {"a": 1}])
        >>> trace.output_series("y")
        [1, 0]
    """

    def __init__(
        self,
        module: Module,
        engine: str = "vector",
        variants: "list[Statement] | tuple[Statement, ...]" = (),
        record_set: "frozenset[int] | None" = None,
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.module = module
        self.engine = engine
        self.program: CompiledProgram | None = None
        if engine == "vector":
            program = (
                compile_target_program(module, variants, record_set)
                if variants
                else compile_module(module)
            )
            if vectorizable(program):
                self.program = program
                return
            _ENGINE_STATS["vector"]["scalar_fallbacks"] += 1
        self.evaluator = Evaluator(module)
        self.comb_blocks: list[AlwaysBlock] = [
            blk for blk in module.always_blocks if not blk.is_clocked
        ]
        self.seq_blocks: list[AlwaysBlock] = [
            blk for blk in module.always_blocks if blk.is_clocked
        ]
        # Resolve the statement-shape table (operand names, target,
        # static lvalue width) once; the record path appends a slot into
        # it instead of re-deriving any of this per execution.
        shapes: list[tuple[int, str, tuple[str, ...], int]] = []
        self._slot_of_stmt: dict[int, int] = {}
        self._operands: dict[int, tuple[str, ...]] = {}
        self._lhs_widths: dict[int, int] = {}
        for stmt in module.statements():
            shape = self.evaluator.statement_shape(stmt)
            self._slot_of_stmt[stmt.stmt_id] = len(shapes)
            self._operands[stmt.stmt_id] = shape[2]
            self._lhs_widths[stmt.stmt_id] = shape[3]
            shapes.append(shape)
        self._shapes = tuple(shapes)

    @property
    def lockstep(self) -> bool:
        """True when suites run on the vector engine (and variants can).

        False on the interpreter: chosen with ``engine="interpreted"``,
        or forced by a program that fails the 63-bit lane audit.
        """
        return self.program is not None

    def run(
        self,
        stimulus: list[dict[str, int]],
        record: bool = True,
        selector: int = 0,
    ) -> Trace:
        """Simulate the design under per-cycle input assignments.

        A one-lane :meth:`run_suite`.

        Args:
            stimulus: One dict per cycle mapping input names to values.
                Missing inputs hold their previous value.
            record: When False, skip execution recording (faster; used when
                only output waveforms are needed).
            selector: Variant to run on a target program (0 = the module
                itself); see ``variants``.

        Returns:
            The completed :class:`Trace`.
        """
        return self.run_suite([stimulus], record=record, selectors=[selector])[0]

    def run_suite(
        self,
        stimuli: "StimulusSuite | list[list[dict[str, int]]]",
        record: bool = True,
        selectors: list[int] | None = None,
    ) -> list[Trace]:
        """Simulate a batch of independent stimuli on one design.

        ``stimuli`` is a :class:`~repro.sim.testbench.StimulusSuite` or a
        list of per-trace frame lists (converted once with
        :meth:`StimulusSuite.from_frames`).  A :attr:`lockstep` simulator
        runs the whole suite at once on :mod:`repro.sim.vector` with the
        program compiled exactly once (one cache entry); the interpreter
        runs it trace by trace.  Mixed-module suites are rejected up
        front.  Traces are returned in stimulus order.

        On a target program, ``selectors`` gives each stimulus its
        variant (default: all 0), so one suite can mix any of the
        program's variants lane by lane.
        """
        suite = StimulusSuite.from_frames(stimuli)
        if not len(suite):
            return []
        self._check_suite_inputs(suite)
        if selectors is None:
            selectors = [0] * len(suite)
        elif len(selectors) != len(suite):
            raise ValueError(
                f"{len(selectors)} selectors for a suite of {len(suite)} stimuli"
            )
        for selector in set(selectors):
            self._check_selector(selector)
        if self.program is None:
            # The interpreter walks the caller's frames when it passed frames.
            lanes = suite if stimuli is suite else stimuli
            return [self._run_interpreted(stimulus, record) for stimulus in lanes]
        # Re-resolving through the cache must hand back the identical
        # program object, or the module was mutated/evicted after this
        # simulator was built and the suite would silently recompile.
        # Target programs are held, not cached.
        program = self.program
        if not program.n_variants and compile_module(self.module) is not program:
            raise SimulationError(
                f"module {self.module.name!r} was recompiled mid-suite; "
                "modules must not be mutated or evicted from the compile "
                "cache after a Simulator is built (derive changed designs "
                "via clone())"
            )
        return run_vector_suite(
            self.module,
            program,
            suite,
            record=record,
            selectors=selectors if program.n_variants else None,
        )

    def _check_selector(self, selector: int) -> None:
        n_variants = self.program.n_variants if self.program is not None else 0
        if not 0 <= selector <= n_variants:
            raise ValueError(
                f"selector {selector} out of range: this program has"
                f" {n_variants} variant(s)"
            )

    def _check_suite_inputs(self, suite: StimulusSuite) -> None:
        """Reject suites whose stimuli drive signals not in this module.

        A suite is a batch of traces of *one* design; a stimulus written
        for a different module fails here with the offending trace named
        instead of erroring (or worse, recompiling) partway through.
        The check reads the suite's input names once, not its frames.
        """
        known = self.module.decls
        for column, name in enumerate(suite.inputs):
            if name in known:
                continue
            driving = np.arange(suite.values.shape[1]) < suite.lengths[:, None]
            if suite.driven is not None:
                driving = driving & suite.driven[:, :, column]
            lanes = np.flatnonzero(driving.any(axis=1))
            index = int(lanes[0]) if lanes.size else 0
            raise SimulationError(
                f"stimulus drives unknown input {name!r} "
                f"(suite trace {index} does not belong to design "
                f"{self.module.name!r}; mixed-module suites are "
                "not supported)"
            )

    # ------------------------------------------------------------------
    # Interpreted engine (reference oracle)
    # ------------------------------------------------------------------
    def _run_interpreted(
        self,
        stimulus: list[dict[str, int]],
        record: bool,
    ) -> Trace:
        env = {name: 0 for name in self.module.decls}
        trace_outputs: list[dict[str, int]] = []
        widths = {n: d.width for n, d in self.module.decls.items()}
        outputs = self.module.outputs
        recorder = ExecutionRecorder(self._shapes) if record else None
        stats = _ENGINE_STATS["interpreted"]
        stats["runs"] += 1
        stats["cycles"] += len(stimulus)

        for cycle, frame in enumerate(stimulus):
            for name, value in frame.items():
                env[name] = truncate(value, widths[name])

            self._settle(env, cycle, recorder)
            trace_outputs.append({name: env[name] for name in outputs})
            self._clock_edge(env, cycle, recorder)

        return Trace(
            design=self.module.name,
            stimulus=[dict(s) for s in stimulus],
            outputs=trace_outputs,
            executions=[] if recorder is None else _LazyExecutions(recorder.finish()),
        )

    # ------------------------------------------------------------------
    # Scheduling phases
    # ------------------------------------------------------------------
    def _settle(
        self, env: dict[str, int], cycle: int, recorder: ExecutionRecorder | None
    ) -> None:
        """Run combinational logic to a fixpoint, then record one pass."""
        for _iteration in range(MAX_SETTLE_PASSES):
            before = dict(env)
            self._comb_pass(env, cycle, sink=None)
            if env == before:
                break
        else:
            raise SimulationError(
                f"combinational logic did not settle in design {self.module.name!r}"
            )
        if recorder is None:
            return
        # One instrumented pass over the settled state, staged so only
        # the last record per statement survives (ordered by stmt_id).
        self._comb_pass(env, cycle, sink=recorder.begin_pass())
        recorder.commit_pass(cycle)

    def _comb_pass(
        self,
        env: dict[str, int],
        cycle: int,
        sink: "ExecutionRecorder | _PassBuffer | None",
    ) -> None:
        """One in-order evaluation pass over all combinational logic."""
        nba_updates: list[tuple[Assignment, int]] = []
        for assign in self.module.assigns:
            self._exec_assign(assign, env, cycle, sink, nba_updates)
        for blk in self.comb_blocks:
            self._exec_stmt(blk.body, env, cycle, sink, nba_updates)
        for stmt, value in nba_updates:
            env[stmt.target.name] = self.evaluator.write_lvalue(stmt.target, value, env)

    def _clock_edge(
        self, env: dict[str, int], cycle: int, recorder: ExecutionRecorder | None
    ) -> None:
        """Fire all clocked blocks and commit non-blocking updates.

        Clock-edge records append to the recorder directly in execution
        order (no settle-pass dedup applies here); the recorder's
        :meth:`~repro.sim.recorder.ExecutionRecorder.finish` turns them
        into the run's one-lane :class:`~repro.sim.trace.SuiteLog`.
        """
        nba_updates: list[tuple[Assignment, int]] = []
        for blk in self.seq_blocks:
            self._exec_stmt(blk.body, env, cycle, recorder, nba_updates)
        for stmt, value in nba_updates:
            env[stmt.target.name] = self.evaluator.write_lvalue(stmt.target, value, env)

    # ------------------------------------------------------------------
    # Statement interpreter
    # ------------------------------------------------------------------
    def _exec_stmt(
        self,
        stmt: Statement,
        env: dict[str, int],
        cycle: int,
        sink: "ExecutionRecorder | _PassBuffer | None",
        nba_updates: list[tuple[Assignment, int]],
    ) -> None:
        if isinstance(stmt, Block):
            for child in stmt.statements:
                self._exec_stmt(child, env, cycle, sink, nba_updates)
        elif isinstance(stmt, If):
            if self.evaluator.eval(stmt.cond, env):
                self._exec_stmt(stmt.then_stmt, env, cycle, sink, nba_updates)
            elif stmt.else_stmt is not None:
                self._exec_stmt(stmt.else_stmt, env, cycle, sink, nba_updates)
        elif isinstance(stmt, Case):
            self._exec_case(stmt, env, cycle, sink, nba_updates)
        elif isinstance(stmt, Assignment):
            self._exec_assign(stmt, env, cycle, sink, nba_updates)
        else:
            raise SimulationError(f"cannot execute statement {type(stmt).__name__}")

    def _exec_case(
        self,
        stmt: Case,
        env: dict[str, int],
        cycle: int,
        sink: "ExecutionRecorder | _PassBuffer | None",
        nba_updates: list[tuple[Assignment, int]],
    ) -> None:
        subject = self.evaluator.eval(stmt.subject, env)
        default_body = None
        for item in stmt.items:
            if not item.labels:
                default_body = item.body
                continue
            for label in item.labels:
                if self.evaluator.eval(label, env) == subject:
                    self._exec_stmt(item.body, env, cycle, sink, nba_updates)
                    return
        if default_body is not None:
            self._exec_stmt(default_body, env, cycle, sink, nba_updates)

    def _exec_assign(
        self,
        stmt: "Assignment | ContinuousAssign",
        env: dict[str, int],
        cycle: int,
        sink: "ExecutionRecorder | _PassBuffer | None",
        nba_updates: list[tuple[Assignment, int]],
    ) -> None:
        if sink is not None:
            # Operand values are recorded *pre-store*: a self-referencing
            # blocking assign must see the value its operand held before
            # the write below.
            eval_identifier = self.evaluator.eval_identifier_value
            flat = sink.flat_values
            for name in self._operands[stmt.stmt_id]:
                flat.append(eval_identifier(name, env))
        value = self.evaluator.eval(stmt.rhs, env)
        value = truncate(value, self._lhs_widths[stmt.stmt_id])
        blocking = not isinstance(stmt, Assignment) or stmt.blocking
        if blocking:
            env[stmt.target.name] = self.evaluator.write_lvalue(stmt.target, value, env)
        else:
            nba_updates.append((stmt, value))
        if sink is not None:
            sink.stmt_slots.append(self._slot_of_stmt[stmt.stmt_id])
            sink.cycles.append(cycle)
            sink.lhs_values.append(value)
