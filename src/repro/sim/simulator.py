"""Cycle-based two-state simulator with statement-level instrumentation.

The simulator models one clock domain.  Each call to :meth:`Simulator.run`
executes the following schedule per cycle:

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

Every executed assignment is recorded **columnar**: both engines append
(slot, cycle, lhs value, operand values) straight into an
:class:`repro.sim.recorder.ExecutionRecorder` against a statement-shape
table resolved before the first cycle — no
:class:`~repro.sim.trace.StatementExecution` objects are constructed
during the run; the trace's record list is a lazy view over the columns.
Combinational statements keep only the record of the final (settled)
evaluation pass of the cycle.

Three execution engines implement this schedule:

* ``"compiled"`` (default) — the module is lowered once by
  :mod:`repro.sim.compiler` into a flat instruction stream executed by a
  tight dispatch loop over an integer slot table, with a module-identity
  compile cache shared across simulator instances.
* ``"interpreted"`` — the original recursive tree walk over the AST,
  kept as the reference oracle; the compiled engine is trace-identical
  to it (enforced by differential tests).
* ``"vector"`` — the lockstep suite engine (:mod:`repro.sim.vector`):
  :meth:`Simulator.run_suite` executes all traces of a suite at once
  over numpy lane vectors; single :meth:`Simulator.run` calls use the
  compiled scalar path.  Designs with >63-bit signals fall back
  per-design to the compiled scalar engine.

``"auto"`` picks per call: vector for multi-trace suites when the
design fits 63-bit lanes, compiled scalar otherwise.
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
    CompiledEvaluator,
    CompiledProgram,
    compile_module,
    compile_target_program,
)
from .evaluator import Evaluator
from .recorder import ExecutionRecorder, _PassBuffer
from .testbench import StimulusSuite
from .trace import Trace, _LazyExecutions
from .values import truncate


class SimulationError(Exception):
    """Raised when the design cannot be simulated (e.g. comb oscillation)."""


#: Engines accepted by :class:`Simulator`.
ENGINES = ("compiled", "interpreted", "vector", "auto")

#: Cumulative per-engine execution counters (process-wide).  ``runs`` /
#: ``cycles`` count scalar trace executions; the vector engine counts
#: suite ``batches``, total ``lanes`` across them (``variant_lanes`` of
#: them ran a target program's mutant variant), total lane ``cycles``,
#: and ``scalar_fallbacks`` (suites refused by the 63-bit lane audit).
_ENGINE_STATS: dict[str, dict[str, int]] = {
    "compiled": {"runs": 0, "cycles": 0},
    "interpreted": {"runs": 0, "cycles": 0},
    "vector": {
        "batches": 0,
        "lanes": 0,
        "variant_lanes": 0,
        "cycles": 0,
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
        module: The design to simulate.  With the compiled engine the
            module must not be mutated in place afterwards (the compile
            cache is keyed by object identity); derive modified designs
            via ``clone()``.
        engine: ``"compiled"`` (default), ``"interpreted"``, ``"vector"``,
            or ``"auto"`` (vector for multi-trace suites when the design
            fits 63-bit lanes, compiled scalar otherwise).
        variants: Replacement statements (e.g. one per campaign mutant)
            compiled with the module into one target program
            (:func:`repro.sim.compiler.compile_target_program`); a trace
            run with ``selector=k`` simulates the module with
            ``variants[k - 1]`` swapped in.  Compiled engines only.

    Example:
        >>> from repro.verilog import parse_module
        >>> m = parse_module("module t(input a, output y); assign y = ~a; endmodule")
        >>> trace = Simulator(m).run([{"a": 0}, {"a": 1}])
        >>> trace.output_series("y")
        [1, 0]
    """

    #: Maximum settling passes before declaring combinational oscillation.
    MAX_SETTLE_ITERS = 64

    def __init__(
        self,
        module: Module,
        engine: str = "compiled",
        variants: "list[Statement] | tuple[Statement, ...]" = (),
    ):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.module = module
        self.engine = engine
        self.program: CompiledProgram | None = None
        self.compiled: CompiledEvaluator | None = None
        if variants and engine == "interpreted":
            raise ValueError(
                "statement variants need a compiled engine; the interpreter"
                " simulates each mutant as its own module"
            )
        if engine != "interpreted":
            # The compiled program carries widths, operands, and lvalue
            # metadata itself; none of the interpreter state is needed.
            # The vector/auto engines share it: single runs stay scalar
            # and run_suite batches onto repro.sim.vector when it fits.
            self.program = (
                compile_target_program(module, variants)
                if variants
                else compile_module(module)
            )
            self.compiled = CompiledEvaluator(self.program)
            return
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

    def initial_env(self) -> dict[str, int]:
        """Fresh environment with every declared signal at 0."""
        return {name: 0 for name in self.module.decls}

    def run(
        self,
        stimulus: list[dict[str, int]],
        record: bool = True,
        env: dict[str, int] | None = None,
        selector: int = 0,
    ) -> Trace:
        """Simulate the design under per-cycle input assignments.

        Args:
            stimulus: One dict per cycle mapping input names to values.
                Missing inputs hold their previous value.
            record: When False, skip execution recording (faster; used when
                only output waveforms are needed).
            env: Optional pre-initialized environment (resumes state).
            selector: Variant to run on a target program (0 = the module
                itself); see ``variants``.

        Returns:
            The completed :class:`Trace`.
        """
        self._check_selector(selector)
        if self.engine != "interpreted":
            return self._run_compiled(stimulus, record, env, selector)
        return self._run_interpreted(stimulus, record, env)

    def run_suite(
        self,
        stimuli: "StimulusSuite | list[list[dict[str, int]]]",
        record: bool = True,
        selectors: list[int] | None = None,
    ) -> list[Trace]:
        """Simulate a batch of independent stimuli on one design.

        ``stimuli`` is a :class:`~repro.sim.testbench.StimulusSuite` or a
        list of per-trace frame lists (converted once with
        :meth:`StimulusSuite.from_frames`).  The compiled program, its
        register file, and per-run buffers are shared across the whole
        suite — the program is compiled exactly once (one cache entry,
        reused by every trace) and mixed-module suites are rejected up
        front.  Traces are returned in stimulus order.

        With ``engine="vector"`` (always) or ``engine="auto"`` (for
        multi-trace suites), the whole suite executes in lockstep on
        :mod:`repro.sim.vector`; designs with >63-bit signals fall back
        to the compiled scalar loop.

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
        if self.engine in ("vector", "auto"):
            # One compile for the whole suite: re-resolving through the
            # cache must hand back the identical program object, or the
            # module was mutated/evicted mid-suite and every trace would
            # silently recompile.  Target programs are held, not cached.
            program = (
                self.program
                if self.program.n_variants
                else compile_module(self.module)
            )
            if program is not self.program:
                raise SimulationError(
                    f"module {self.module.name!r} was recompiled mid-suite; "
                    "modules must not be mutated or evicted from the compile "
                    "cache after a Simulator is built (derive changed designs "
                    "via clone())"
                )
            if self.engine == "vector" or len(suite) > 1:
                from .vector import run_vector_suite, vectorizable

                if vectorizable(program):
                    return run_vector_suite(
                        self.module,
                        program,
                        suite,
                        record=record,
                        max_settle=self.MAX_SETTLE_ITERS,
                        selectors=selectors if program.n_variants else None,
                    )
                _ENGINE_STATS["vector"]["scalar_fallbacks"] += 1
        # Scalar engines walk the caller's frames when it passed frames.
        lanes = suite if stimuli is suite else stimuli
        return [
            self.run(stimulus, record=record, selector=selector)
            for stimulus, selector in zip(lanes, selectors)
        ]

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
    # Compiled engine
    # ------------------------------------------------------------------
    def _run_compiled(
        self,
        stimulus: list[dict[str, int]],
        record: bool,
        env: dict[str, int] | None,
        selector: int,
    ) -> Trace:
        program = self.program
        engine = self.compiled
        slot_of = program.slot_of
        masks = program.masks
        slots = program.initial_slots()
        if env is not None:
            for name, value in env.items():
                slot = slot_of.get(name)
                if slot is not None:
                    slots[slot] = value
        if program.n_variants:
            slots[program.selector_slot] = selector

        trace = Trace(design=self.module.name, stimulus=[dict(s) for s in stimulus])
        outputs = program.output_slots
        pending: list[tuple[int, int]] = []
        recorder = ExecutionRecorder(program.shapes) if record else None
        stats = _ENGINE_STATS["compiled"]
        stats["runs"] += 1
        stats["cycles"] += len(stimulus)

        for cycle, frame in enumerate(stimulus):
            for name, value in frame.items():
                slot = slot_of.get(name)
                if slot is None:
                    raise SimulationError(f"stimulus drives unknown input {name!r}")
                slots[slot] = value & masks[slot]

            self._settle_compiled(engine, slots, cycle, recorder, pending)
            trace.outputs.append({name: slots[slot] for name, slot in outputs})

            if recorder is not None:
                engine.execute(program.seq_rec, slots, cycle, recorder, pending)
            else:
                engine.execute(program.seq_fast, slots, cycle, None, pending)
            engine.commit(pending, slots)

        if recorder is not None:
            trace.executions = _LazyExecutions(recorder.finish())
        if env is not None:
            for name in self.module.decls:
                env[name] = slots[slot_of[name]]
        return trace

    def _settle_compiled(
        self,
        engine: CompiledEvaluator,
        slots: list[int],
        cycle: int,
        recorder: ExecutionRecorder | None,
        pending: list[tuple[int, int]],
    ) -> None:
        program = self.program
        comb_fast = program.comb_fast
        for _iteration in range(self.MAX_SETTLE_ITERS):
            before = slots[:]
            engine.execute(comb_fast, slots, cycle, None, pending)
            engine.commit(pending, slots)
            if slots == before:
                break
        else:
            raise SimulationError(
                f"combinational logic did not settle in design {self.module.name!r}"
            )
        if recorder is None:
            return
        # One instrumented pass over the settled state, staged so only
        # the last record per statement survives (ordered by stmt_id).
        engine.execute(program.comb_rec, slots, cycle, recorder.begin_pass(), pending)
        engine.commit(pending, slots)
        recorder.commit_pass(cycle)

    # ------------------------------------------------------------------
    # Interpreted engine (reference oracle)
    # ------------------------------------------------------------------
    def _run_interpreted(
        self,
        stimulus: list[dict[str, int]],
        record: bool,
        env: dict[str, int] | None,
    ) -> Trace:
        env = env if env is not None else self.initial_env()
        trace = Trace(design=self.module.name, stimulus=[dict(s) for s in stimulus])
        widths = {n: d.width for n, d in self.module.decls.items()}
        outputs = self.module.outputs
        recorder = ExecutionRecorder(self._shapes) if record else None
        stats = _ENGINE_STATS["interpreted"]
        stats["runs"] += 1
        stats["cycles"] += len(stimulus)

        for cycle, frame in enumerate(stimulus):
            for name, value in frame.items():
                if name not in env:
                    raise SimulationError(f"stimulus drives unknown input {name!r}")
                env[name] = truncate(value, widths[name])

            self._settle(env, cycle, recorder)
            trace.outputs.append({name: env[name] for name in outputs})
            self._clock_edge(env, cycle, recorder)

        if recorder is not None:
            trace.executions = _LazyExecutions(recorder.finish())
        return trace

    # ------------------------------------------------------------------
    # Scheduling phases
    # ------------------------------------------------------------------
    def _settle(
        self, env: dict[str, int], cycle: int, recorder: ExecutionRecorder | None
    ) -> None:
        """Run combinational logic to a fixpoint, then record one pass."""
        for _iteration in range(self.MAX_SETTLE_ITERS):
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

        Clock-edge records append to the recorder's main columns directly
        in execution order (no settle-pass dedup applies here).
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
