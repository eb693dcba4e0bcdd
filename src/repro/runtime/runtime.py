"""The session-scoped execution runtime: one pool, every parallel workload.

:class:`ExecutionRuntime` is one session-owned, lazily-started,
persistent worker pool serving campaign chunks, corpus generation and
sharded localization:

* **Spawn-safe by construction.**  Pools always use the ``spawn``
  multiprocessing context, never ``fork``: forked children would
  inherit the parent's RNG streams, cache contents, and lock states
  mid-flight.  Determinism comes from task identity instead: every random
  stream is derived from *what* is computed (design index, mutation
  node, shard), never from *where* (see :mod:`repro.runtime.seeding`).
* **Every task carries its weights.**  Each localization shard and
  campaign chunk is submitted with the runtime's *weight epoch* and a
  pickled snapshot of that epoch's ``state_dict`` plus the session's
  inference arm (``fast_inference``), memoized once per epoch.  A worker
  rebuilds its read-only model from the snapshot when its cached engine
  is of another epoch, without any autograd state, and on the fast arm
  localizes on the no-grad fused path.  When the owning session
  retrains or reloads weights, the model's ``_on_state_loaded`` hook
  bumps the epoch; tasks dispatched before that keep the snapshot they
  were given.  No pool restart, no broadcast, no retry: a task tagged
  epoch ``e`` is computed with epoch-``e`` weights by construction, on
  any worker.
* **Sharded localization.**  :meth:`localize_many` is the explicit
  sharded path (sessions localize in process): it partitions a request
  batch into contiguous, balanced shards (one per worker at most) and
  merges results in shard order, so the output ordering — and, because
  attention is segment-local and the fused kernel padding-invariant,
  every ranking and suspiciousness score — is bit-identical to the
  single-process fast path.  Execution dedup, the structural
  context-embedding cache and the attention-row memo stay worker-local;
  workers report cache and memo hit deltas that the runtime aggregates
  into fleet-wide stats (:class:`RuntimeStats`).
* **Worker-resident campaign chunks.**  :meth:`simulate_mutants` runs a
  campaign as one task per chunk (a contiguous mutation span of one
  program group): the worker runs the chunk through
  :meth:`~repro.datagen.campaign.TargetSimulation.localize_chunk`, the
  function an in-process campaign runs per chunk, on its weight mirror
  and returns scored ``(outcome, localization)`` pairs.  Every chunk
  task carries the campaign context as one pickled blob (a target has
  only a handful of chunks), deserialized at most once per worker per
  campaign.  Campaign traces never cross the pool; traces travel only
  in explicit :meth:`localize_many` shard requests.
* **A dead worker costs one call.**  A worker that dies breaks its
  ``ProcessPoolExecutor`` for good; the dispatch that sees the
  ``BrokenProcessPool`` discards the pool and re-raises, and the next
  dispatch spawns a fresh one.  Nothing is retried; since a task is a
  pure function of its arguments, a retry would be a plain resubmit.

Lifecycle: the runtime is cheap to construct (no processes until the
first parallel dispatch), reusable across campaigns/corpora, and closed
by :meth:`close` (or ``with`` scope).  :class:`repro.api.VeriBugSession`
owns one when ``SessionConfig.n_workers > 0``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .worker import (
    ModelPayload,
    _task_campaign_chunk,
    _task_corpus_design,
    _task_localize_shard,
    _task_warmup,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.localizer import LocalizationRequest, LocalizationResult
    from ..core.model import VeriBugModel
    from ..datagen.campaign import MutantOutcome


def plan_shards(n_items: int, n_shards: int) -> list[tuple[int, int]]:
    """Partition ``n_items`` into ≤ ``n_shards`` contiguous balanced spans.

    Spans cover the items in order and differ in size by at most one, so
    concatenating per-shard results in span order reproduces the input
    order exactly — the deterministic merge the sharded localization
    path relies on.
    """
    if n_items <= 0:
        return []
    n_shards = max(1, min(n_shards, n_items))
    base, extra = divmod(n_items, n_shards)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


@dataclass
class _Counters:
    """The cumulative counters of one runtime.

    ``worker_cache_*`` / ``worker_memo_*`` aggregate the cache deltas
    workers report per localization shard and per campaign chunk (the
    worker names its delta keys after these fields) — the fleet-wide
    equivalents of the in-process ``ContextEmbeddingCache.stats()`` and
    ``AttentionRowMemo.stats()``.  They make the sharded hit-rate drop
    (worker-local caches see only their own tasks' structural overlap)
    visible without the bench script.
    """

    pools_started: int = 0
    campaigns_served: int = 0
    corpus_runs: int = 0
    localize_calls: int = 0
    tasks_dispatched: int = 0
    last_shard_sizes: tuple[int, ...] = ()
    worker_cache_hits: int = 0
    worker_cache_misses: int = 0
    worker_cache_cross_epoch_hits: int = 0
    worker_memo_hits: int = 0
    worker_memo_misses: int = 0
    worker_memo_cross_epoch_hits: int = 0


@dataclass(kw_only=True)
class RuntimeStats(_Counters):
    """A point-in-time snapshot of one runtime: pool state plus a copy
    of every :class:`_Counters` field."""

    n_workers: int
    start_method: str
    started: bool
    closed: bool
    weight_epoch: int

    @property
    def worker_cache_hit_rate(self) -> float:
        total = self.worker_cache_hits + self.worker_cache_misses
        return self.worker_cache_hits / total if total else 0.0

    @property
    def worker_memo_hit_rate(self) -> float:
        total = self.worker_memo_hits + self.worker_memo_misses
        return self.worker_memo_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly view (used by ``campaign --json``)."""
        return {
            "pool_size": self.n_workers,
            "start_method": self.start_method,
            "started": self.started,
            "closed": self.closed,
            "pools_started": self.pools_started,
            "campaigns_served": self.campaigns_served,
            "corpus_runs": self.corpus_runs,
            "localize_calls": self.localize_calls,
            "tasks_dispatched": self.tasks_dispatched,
            "weight_epoch": self.weight_epoch,
            "last_shard_sizes": list(self.last_shard_sizes),
            "worker_cache": {
                "hits": self.worker_cache_hits,
                "misses": self.worker_cache_misses,
                "hit_rate": round(self.worker_cache_hit_rate, 4),
                "cross_epoch_hits": self.worker_cache_cross_epoch_hits,
            },
            "worker_memo": {
                "hits": self.worker_memo_hits,
                "misses": self.worker_memo_misses,
                "hit_rate": round(self.worker_memo_hit_rate, 4),
                "cross_epoch_hits": self.worker_memo_cross_epoch_hits,
            },
        }


class ExecutionRuntime:
    """A persistent, spawn-safe worker pool serving a whole session.

    Args:
        n_workers: Pool size; must be >= 1 (callers gate the ``0`` =
            sequential case before constructing a runtime).

    The pool itself starts on the first parallel dispatch, so merely
    owning a runtime costs nothing.  Construction is cheap; `close()`
    is idempotent and the object refuses new work afterwards.
    """

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self._mp_context = multiprocessing.get_context("spawn")
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._counters = _Counters()
        # Weight-snapshot plumbing (populated by attach_model).
        self._model: "VeriBugModel | None" = None
        self._fast_inference = True
        self._weight_epoch = 0
        self._snapshot_cache: bytes | None = None
        self._next_ctx_id = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True once the process pool has been created."""
        return self._pool is not None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def start_method(self) -> str:
        return self._mp_context.get_start_method()

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and join every worker.  Idempotent.

        Also detaches from the model so closed runtimes (and their
        memoized weight snapshots) are not pinned alive by the model's
        listener list.
        """
        self._closed = True
        if self._model is not None:
            self._model.remove_weight_listener(self._on_weights_changed)
            self._model = None
        self._snapshot_cache = None
        self._discard_pool()

    @contextlib.contextmanager
    def _dispatching(self) -> Iterator[None]:
        """Discard a broken pool (a worker died) and re-raise.

        Every dispatch runs its ``submit`` and ``result`` calls inside
        this scope, so the call that meets a ``BrokenProcessPool`` fails
        and the next one starts a fresh pool.
        """
        try:
            yield
        except BrokenProcessPool:
            self._discard_pool()
            raise

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ExecutionRuntime is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=self._mp_context
            )
            self._counters.pools_started += 1
        return self._pool

    def warm_up(self) -> list[int]:
        """Force every worker process to exist now.

        Submitting ``n_workers`` tasks makes the executor spawn its full
        complement; benchmarks call this so pool startup is excluded
        from timed regions the way a long-lived service would amortize
        it.  Returns the worker PIDs that answered.
        """
        pool = self._ensure_pool()
        with self._dispatching():
            futures = [
                pool.submit(_task_warmup, 0.05) for _ in range(self.n_workers)
            ]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def attach_model(
        self, model: "VeriBugModel", *, fast_inference: bool = True
    ) -> None:
        """Bind the session's model so workers can mirror it read-only.

        Registers a weight listener on the model: ``Trainer.train`` and
        ``load_state_dict`` both fire ``_on_state_loaded``, which bumps
        this runtime's weight epoch and drops the memoized snapshot.
        Tasks dispatched from then on carry the new epoch's snapshot.
        """
        self._model = model
        self._fast_inference = fast_inference
        model.add_weight_listener(self._on_weights_changed)

    def _on_weights_changed(self) -> None:
        self._weight_epoch += 1
        self._snapshot_cache = None

    @property
    def weight_epoch(self) -> int:
        return self._weight_epoch

    def _snapshot_blob(self) -> bytes:
        """The current weights as a pickled :class:`ModelPayload` (memoized)."""
        if self._model is None:
            raise RuntimeError("no model attached to this runtime")
        if self._snapshot_cache is None:
            payload = ModelPayload(
                config=self._model.config,
                state=self._model.state_dict(),
                fast_inference=self._fast_inference,
            )
            self._snapshot_cache = pickle.dumps(
                payload, protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._snapshot_cache

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def localize_many(
        self, requests: list["LocalizationRequest"], batch_size: int = 512
    ) -> list["LocalizationResult"]:
        """Shard a request batch across workers; merge deterministically.

        Results are returned in request order (shards are contiguous
        spans concatenated in span order) and are bit-identical to
        :meth:`LocalizationEngine.localize_many`'s single-process fast
        path — batch composition cannot change any attention weight.
        """
        if not requests:
            return []
        pool = self._ensure_pool()
        epoch, weights = self._weight_epoch, self._snapshot_blob()
        shards = plan_shards(len(requests), self.n_workers)
        with self._dispatching():
            futures = [
                pool.submit(
                    _task_localize_shard,
                    epoch,
                    weights,
                    requests[start:end],
                    batch_size,
                )
                for start, end in shards
            ]
            results: list["LocalizationResult"] = []
            counters = self._counters
            counters.localize_calls += 1
            counters.tasks_dispatched += len(futures)
            counters.last_shard_sizes = tuple(end - start for start, end in shards)
            try:
                for future in futures:
                    shard_results, delta = future.result()
                    results.extend(shard_results)
                    self._fold_delta(delta)
            finally:
                # A failed shard fails the call: drop the shards no worker
                # has started.
                for future in futures:
                    future.cancel()
        return results

    def _fold_delta(self, delta: dict[str, int]) -> None:
        """Add one task's worker cache/memo counter delta to the totals."""
        for name, value in delta.items():
            setattr(self._counters, name, getattr(self._counters, name) + value)

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def simulate_mutants(
        self,
        context: tuple,
        chunks: list[tuple[int, int]],
    ) -> Iterator[tuple["MutantOutcome", "LocalizationResult | None"]]:
        """Run one campaign on the pool, one task per mutation chunk.

        ``context`` is ``(TargetSimulation arguments, stimuli,
        golden_traces)``, pickled once and carried by every chunk task.
        ``chunks`` are contiguous ``(start, end)`` mutation spans in
        order (:func:`~repro.datagen.campaign.plan_chunks`); each task
        runs :meth:`~repro.datagen.campaign.TargetSimulation.localize_chunk`
        on its span with the weights current at this call: every chunk
        carries their epoch and snapshot, so a weight change while the
        stream is consumed does not reach it.
        Yields scored ``(outcome, localization)`` pairs in mutation
        order and folds each chunk's cache/memo delta into
        :meth:`stats`; closing the generator early cancels the chunks no
        worker has started.
        """
        pool = self._ensure_pool()
        ctx_id = self._next_ctx_id
        self._next_ctx_id += 1
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        epoch, weights = self._weight_epoch, self._snapshot_blob()
        with self._dispatching():
            futures = [
                pool.submit(_task_campaign_chunk, ctx_id, blob, epoch, weights, span)
                for span in chunks
            ]
            self._counters.campaigns_served += 1
            self._counters.tasks_dispatched += len(futures)
            try:
                for future in futures:
                    pairs, delta = future.result()
                    self._fold_delta(delta)
                    yield from pairs
            finally:
                for future in futures:
                    future.cancel()

    # ------------------------------------------------------------------
    # Corpus generation
    # ------------------------------------------------------------------
    def map_corpus(self, sources: list[str], spec, seed: int) -> list:
        """Simulate corpus designs in parallel; one task per design.

        Each design's testbench seed derives from its index (see
        :func:`~repro.runtime.seeding.corpus_design_seed`), so results
        are in design order and bit-identical to the sequential path.
        """
        pool = self._ensure_pool()
        with self._dispatching():
            futures = [
                pool.submit(_task_corpus_design, index, source, spec, seed)
                for index, source in enumerate(sources)
            ]
            self._counters.corpus_runs += 1
            self._counters.tasks_dispatched += len(futures)
            try:
                return [future.result() for future in futures]
            finally:
                for future in futures:
                    future.cancel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        """Snapshot of the runtime's counters (see :class:`RuntimeStats`)."""
        return RuntimeStats(
            n_workers=self.n_workers,
            start_method=self.start_method,
            started=self.started,
            closed=self.closed,
            weight_epoch=self._weight_epoch,
            **dataclasses.asdict(self._counters),
        )
