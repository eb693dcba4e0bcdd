"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:data:`SPANS` is the one table that maps each span to the public callable
it wraps.  :class:`Tracer` replaces every binding of those callables in
the loaded ``repro`` modules with a timing wrapper and restores the
originals afterwards, so the program itself carries no tracing code.  A
renamed entry point is a one-line edit to the table.

Spans nest on one stack (the benchmark is a single-threaded closed
loop).  A span's *self* time is its duration minus the time of the spans
it caused; a span's *total* counts only the outermost activation of its
name, so recursion through one name is not counted twice.  Generator
entry points (``CampaignHandle.stream``, ``ExecutionRuntime.
simulate_mutants``) get one activation per ``next()``, so time the
consumer spends between items is not charged to them.  Work done inside
pool worker processes is invisible here; the runtime spans measure what
the benchmark process waits for.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict


def _record_flag(args, kwargs) -> bool:
    """``record`` argument of ``Simulator.run``/``run_suite`` (default True)."""
    if "record" in kwargs:
        return bool(kwargs["record"])
    return bool(args[2]) if len(args) > 2 else True


def _sim_span(args, kwargs) -> str:
    return "sim.recorded" if _record_flag(args, kwargs) else "sim.golden"


def _count_dedup(args, kwargs, result) -> dict:
    _samples, _stmt_ids, counts = result
    return {"explain.distinct": len(counts), "explain.executions": sum(counts)}


def _count_forward_rows(args, kwargs, result) -> dict:
    return {"model.forward_rows": int(args[1].n_statements)}


def _count_localized_executions(args, kwargs, result) -> dict:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    executions = 0
    for request in requests:
        for trace in (*request.failing_traces, *request.correct_traces):
            executions += len(trace.executions)
    return {"localize.executions": executions}


def _count_train_samples(args, kwargs, result) -> dict:
    trainer, samples = args[0], args[1] if len(args) > 1 else kwargs["samples"]
    epochs = kwargs.get("epochs", args[2] if len(args) > 2 else None)
    if epochs is None:
        epochs = trainer.config.epochs
    return {"train.samples": len(samples) * epochs}


#: (span name, defining module, public attribute, optional meter).  The
#: name may be a callable of the call's ``(args, kwargs)``; the meter maps
#: ``(args, kwargs, result)`` to counter increments.
SPANS = (
    ("mutation.sample", "repro.datagen.mutation", "sample_mutations", None),
    ("mutation.apply", "repro.datagen.mutation", "apply_mutation", None),
    ("stimulus.generate", "repro.sim.testbench", "generate_testbench_suite", None),
    ("sim.compile", "repro.sim.simulator", "Simulator.__init__", None),
    (_sim_span, "repro.sim.simulator", "Simulator.run_suite", None),
    (_sim_span, "repro.sim.simulator", "Simulator.run", None),
    ("campaign.classify", "repro.sim.trace", "Trace.diverges_from", None),
    ("analysis.slice", "repro.analysis.slicing", "compute_static_slice", None),
    ("analysis.contexts", "repro.analysis.contexts", "extract_module_contexts", None),
    ("explain.dedup", "repro.core.explainer", "Explainer.distinct_samples", _count_dedup),
    ("encode", "repro.core.features", "BatchEncoder.encode", None),
    ("model.forward", "repro.core.model", "VeriBugModel.forward", _count_forward_rows),
    ("heatmap.build", "repro.core.explainer", "Explainer.build_heatmap", None),
    (
        "localize.many",
        "repro.core.localizer",
        "LocalizationEngine.localize_many",
        _count_localized_executions,
    ),
    ("train.fit", "repro.core.trainer", "Trainer.train", _count_train_samples),
    ("train.evaluate", "repro.core.trainer", "Trainer.evaluate", None),
    ("ingest.directory", "repro.ingest.corpus", "ingest_directory", None),
    ("lint.run", "repro.lint.engine", "LintEngine.run", None),
    ("verilog.parse", "repro.verilog.parser", "parse_module", None),
    ("runtime.wait", "repro.runtime.runtime", "ExecutionRuntime.simulate_mutants", None),
    ("runtime.shard", "repro.runtime.runtime", "ExecutionRuntime.localize_many", None),
    ("api.stream", "repro.api.campaign", "CampaignHandle.stream", None),
)


class Tracer:
    """Span stack plus per-name totals, self times, calls and counters."""

    def __init__(self):
        self._stack: list[list] = []  # [name, start, child_time]
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the accumulated spans and counters (between passes)."""
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    # -- span bookkeeping ------------------------------------------------
    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self.calls[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, name, meter):
        tracer = self
        resolve = name if callable(name) else (lambda _a, _k: name)

        if inspect.isgeneratorfunction(fn):

            def traced_generator(*args, **kwargs):
                span = resolve(args, kwargs)
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        tracer._enter(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit()
                        yield item
                finally:
                    inner.close()

            return traced_generator

        def traced(*args, **kwargs):
            tracer._enter(resolve(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if meter is not None:
                for key, value in meter(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of every :data:`SPANS` callable."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, attribute, meter in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                self._patch(owner, member, original, self._wrap(original, name, meter))
                continue
            original = getattr(module, member)
            wrapper = self._wrap(original, name, meter)
            # Functions are also bound by ``from x import f`` elsewhere:
            # rebind every module-level alias, not just the definition.
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, alias, original, wrapper)

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
