"""Execution runtime: session-scoped persistent worker pools.

One subsystem owns every process pool in the system.  The
:class:`ExecutionRuntime` is a lazily-started, spawn-safe, persistent
pool that serves campaign chunks (simulated and localized on the
worker), corpus generation, and explicit sharded localization.  Every
task that localizes carries its weight epoch and a read-only snapshot of
that epoch's weights; see :mod:`repro.runtime.runtime` for the full
design and ``docs/architecture.md`` ("Execution runtime") for the
lifecycle diagram.

Typical use is indirect — :class:`repro.api.VeriBugSession` owns a
runtime whenever ``SessionConfig.n_workers > 0`` — but the layer is
public for callers that want pool control without a session (sessions
localize in process; sharding a request batch is this explicit call)::

    from repro.runtime import ExecutionRuntime

    with ExecutionRuntime(4) as runtime:
        runtime.attach_model(model)
        results = runtime.localize_many(requests)
"""

from .runtime import ExecutionRuntime, RuntimeStats, plan_shards
from .seeding import corpus_design_seed, derive_seed, mutant_topup_seed

__all__ = [
    "ExecutionRuntime",
    "RuntimeStats",
    "corpus_design_seed",
    "derive_seed",
    "mutant_topup_seed",
    "plan_shards",
]
