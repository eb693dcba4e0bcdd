"""Simulation substrate: values, evaluator, compiler, simulator, traces.

Replaces the commercial/open simulator the paper relies on, with the
statement-level instrumentation VeriBug needs built in.  Three engines
are provided: the default compiled engine (AST lowered once to an
instruction stream, executed by a tight dispatch loop), the lockstep
vector engine (whole testbench suites executed at once over numpy lane
vectors), and the original tree-walking interpreter, kept as the
reference oracle.
"""

from .compiler import (
    CompiledEvaluator,
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
from .trace import ExecutionColumns, StatementExecution, Trace
from .vector import VectorEvaluator, VectorRecorder, run_vector_suite, vectorizable

__all__ = [
    "ENGINES",
    "CompiledEvaluator",
    "CompiledProgram",
    "Evaluator",
    "ExecutionColumns",
    "ExecutionRecorder",
    "SimulationError",
    "Simulator",
    "StatementExecution",
    "StimulusSuite",
    "TestbenchConfig",
    "Trace",
    "VectorEvaluator",
    "VectorRecorder",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_module",
    "engine_stats",
    "generate_stimulus",
    "generate_testbench_suite",
    "identify_clock",
    "identify_reset",
    "reset_engine_stats",
    "run_vector_suite",
    "vectorizable",
]
