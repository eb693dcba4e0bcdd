"""Simulation substrate: values, evaluator, compiler, simulator, traces.

Replaces the commercial/open simulator the paper relies on, with the
statement-level instrumentation VeriBug needs built in.  Two engines
are provided: the default lockstep vector engine (a module lowered once
to instruction streams, translated to SWAR functions that run a whole
testbench suite at once over packed lanes; a single trace is a one-lane
suite) and the tree-walking interpreter, kept as the reference oracle
and run for designs wider than a 63-bit lane.  Both record executions
in one format, the event-major :class:`SuiteLog` (a lane per trace: a
vector suite's log has one per suite trace, an interpreter run's one);
a recorded :class:`Trace` is a view of its lane.
"""

from .compiler import (
    CompiledProgram,
    clear_compile_cache,
    compile_cache_stats,
    compile_module,
)
from .evaluator import Evaluator
from .recorder import ExecutionRecorder
from .simulator import (
    ENGINES,
    SimulationError,
    Simulator,
    engine_stats,
    reset_engine_stats,
)
from .testbench import (
    StimulusSuite,
    TestbenchConfig,
    generate_stimulus,
    generate_testbench_suite,
    identify_clock,
    identify_reset,
)
from .trace import StatementExecution, SuiteLog, Trace

__all__ = [
    "ENGINES",
    "CompiledProgram",
    "Evaluator",
    "ExecutionRecorder",
    "SimulationError",
    "Simulator",
    "StatementExecution",
    "StimulusSuite",
    "SuiteLog",
    "TestbenchConfig",
    "Trace",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_module",
    "engine_stats",
    "generate_stimulus",
    "generate_testbench_suite",
    "identify_clock",
    "identify_reset",
    "reset_engine_stats",
]
