"""Worker-process side of the execution runtime.

Each pool worker is a plain Python process (spawned, never forked — see
:class:`~repro.runtime.ExecutionRuntime`) whose entire mutable state
lives in the module-level :data:`_STATE` dict:

* ``engine`` — a worker-local :class:`LocalizationEngine` built from the
  weight snapshot shipped at pool init (``initargs``), tagged with the
  weight epoch it was built from.  The model carries no autograd state:
  localization runs entirely on the no-grad fast path, so the snapshot
  is read-only by construction.  When the parent retrains or reloads
  weights it bumps the epoch and attaches a refreshed snapshot to the
  next shard task; the worker rebuilds only when the tags disagree.
* ``contexts`` — a small LRU of campaign contexts (golden design,
  stimuli, golden traces, trace policy, mutation plan).  Simulation
  tasks carry their context as a pre-pickled blob that is deserialized
  once per worker per campaign and served from this store afterwards.
* ``simulations`` — the campaign's
  :class:`~repro.datagen.campaign.TargetSimulation` per live context:
  the target program is lowered once per worker, not once per mutant.

Task functions return plain picklable values; localization shards also
return the worker cache's hit/miss delta so the parent runtime can
aggregate a fleet-wide hit rate.  Traces move in both directions in
their columnar form (the simulator records struct-of-arrays natively
and ``Trace`` serializes the same arrays), so neither the worker nor
the parent ever materializes per-execution record objects for transport
— the explainer dedups straight off the columns on arrival.
"""

from __future__ import annotations

import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - worker-side imports are lazy
    from ..core.config import VeriBugConfig
    from ..core.localizer import LocalizationResult

#: Campaign contexts retained per worker; one campaign rarely overlaps
#: more than one other, so a handful bounds memory without thrashing.
MAX_CONTEXTS = 4


@dataclass
class ModelPayload:
    """Everything a worker needs to rebuild the session's model read-only.

    Attributes:
        config: Model hyper-parameters (architecture must match ``state``).
        state: A ``state_dict`` snapshot of the trained weights.
        epoch: The weight epoch the snapshot was taken at.
        cache_enabled / cache_max_entries: Session cache policy, applied
            to the worker-local :class:`ContextEmbeddingCache`.
        memo_enabled / memo_max_entries: Session attention-row memo
            policy, applied to the worker-local :class:`AttentionRowMemo`.
        fast_inference: Mirror of the session's inference-arm switch.
    """

    config: "VeriBugConfig"
    state: dict[str, np.ndarray]
    epoch: int
    cache_enabled: bool = True
    cache_max_entries: int = 100_000
    memo_enabled: bool = True
    memo_max_entries: int = 100_000
    fast_inference: bool = True


class StaleWorkerWeights(RuntimeError):
    """A shard arrived for a weight epoch this worker cannot satisfy.

    Happens when this worker missed the best-effort refresh broadcast a
    weight change triggers (it was busy, or spawned later with the pool's
    original init snapshot).  The parent catches this and resubmits the
    shard with the refresh snapshot attached.
    """


class MissingWorkerContext(RuntimeError):
    """A simulation task referenced a campaign context this worker lacks.

    Context blobs ride along only on a campaign's first few tasks (enough
    to cover every worker in the common case); a worker that received
    none of those raises this, and the parent resubmits the task with the
    blob attached.
    """


#: Worker-process state (one dict per process; set by the initializer).
_STATE: dict[str, Any] = {
    "model_init": None,  # ModelPayload | None shipped via initargs
    "engine": None,  # (epoch, LocalizationEngine)
    "contexts": OrderedDict(),  # ctx_id -> campaign context tuple
    "simulations": {},  # ctx_id -> TargetSimulation of that campaign
}


def _init_worker(model_init_blob: bytes | None) -> None:
    """Pool initializer: stash the (pickled) weight snapshot.

    The blob is pickled once in the parent and handed to every worker the
    pool ever spawns; the model itself is built lazily on the first
    localization shard so simulation-only pools never pay for it.
    """
    _STATE["model_init"] = (
        pickle.loads(model_init_blob) if model_init_blob is not None else None
    )
    _STATE["engine"] = None
    _STATE["contexts"] = OrderedDict()
    _STATE["simulations"] = {}


def _build_engine(payload: ModelPayload):
    """Construct a worker-local localization engine from a snapshot."""
    # Imports are deferred so pool startup only pays for them when a
    # localization shard actually arrives.
    from ..core import BatchEncoder, Vocabulary
    from ..core.localizer import LocalizationEngine
    from ..core.model import VeriBugModel

    vocab = Vocabulary()
    model = VeriBugModel(payload.config, vocab)
    model.load_state_dict(payload.state)
    model.context_cache.configure(
        enabled=payload.cache_enabled, max_entries=payload.cache_max_entries
    )
    model.attention_memo.configure(
        enabled=payload.memo_enabled, max_entries=payload.memo_max_entries
    )
    engine = LocalizationEngine(
        model,
        BatchEncoder(vocab),
        payload.config,
        fast_inference=payload.fast_inference,
    )
    _STATE["engine"] = (payload.epoch, engine)
    return engine


def _ensure_engine(epoch: int, refresh_blob: bytes | None):
    """The worker engine for ``epoch``, rebuilding from a refresh if stale."""
    cached = _STATE["engine"]
    if cached is not None and cached[0] == epoch:
        return cached[1]
    if refresh_blob is not None:
        payload = pickle.loads(refresh_blob)
        if payload.epoch == epoch:
            return _build_engine(payload)
    init = _STATE["model_init"]
    if init is not None and init.epoch == epoch:
        return _build_engine(init)
    raise StaleWorkerWeights(
        f"worker has no weights for epoch {epoch}"
        f" (init epoch: {init.epoch if init else None})"
    )


def _task_localize_shard(
    epoch: int,
    requests: list,
    batch_size: int,
    refresh_blob: bytes | None = None,
) -> tuple[list["LocalizationResult"], dict[str, int]]:
    """Localize one shard of requests on the worker-local engine.

    Execution dedup and the structural context-embedding cache are both
    worker-local: results are bit-identical to the parent's serial fast
    path (attention is segment-local and the fused kernel is
    padding-invariant), only *which process computes them* changes.

    Returns the shard's results plus the cache-counter delta incurred by
    this shard, for fleet-wide aggregation in the parent.
    """
    engine = _ensure_engine(epoch, refresh_blob)
    cache = engine.model.context_cache
    memo = engine.model.attention_memo
    before = (cache.hits, cache.misses, cache.cross_epoch_hits)
    memo_before = (memo.hits, memo.misses, memo.cross_epoch_hits)
    results = engine.localize_many(requests, batch_size=batch_size)
    return results, {
        "hits": cache.hits - before[0],
        "misses": cache.misses - before[1],
        "cross_epoch_hits": cache.cross_epoch_hits - before[2],
        "entries": len(cache),
        "memo_hits": memo.hits - memo_before[0],
        "memo_misses": memo.misses - memo_before[1],
        "memo_cross_epoch_hits": memo.cross_epoch_hits - memo_before[2],
        "memo_entries": len(memo),
    }


def _install_context(ctx_id: int, context_blob: bytes | None) -> tuple:
    """Deserialize and LRU-store a campaign context, once per worker."""
    contexts: OrderedDict = _STATE["contexts"]
    cached = contexts.get(ctx_id)
    if cached is not None:
        contexts.move_to_end(ctx_id)
        return cached
    if context_blob is None:
        raise MissingWorkerContext(f"worker has no campaign context {ctx_id}")
    context = pickle.loads(context_blob)
    while len(contexts) >= MAX_CONTEXTS:
        evicted, _ = contexts.popitem(last=False)
        _STATE["simulations"].pop(evicted, None)
    contexts[ctx_id] = context
    return context


def _task_refresh_weights(refresh_blob: bytes, delay: float = 0.0) -> int:
    """Eagerly install a weight snapshot (broadcast after a weight change).

    The small ``delay`` keeps each broadcast task occupying its worker
    briefly so the batch spreads across the pool instead of one idle
    worker draining them all; coverage is still best-effort — a worker
    that missed every broadcast raises :class:`StaleWorkerWeights` on
    its next shard and is refreshed by the parent's retry.
    """
    payload = pickle.loads(refresh_blob)
    _build_engine(payload)
    if delay:
        time.sleep(delay)
    import os

    return os.getpid()


def _task_simulate_mutant(ctx_id: int, context_blob: bytes | None, mutation):
    """Simulate and classify one campaign mutant (no localization).

    ``context_blob`` is the campaign context pickled once in the parent
    and attached only to a campaign's first few tasks; a worker that
    already installed ``ctx_id`` skips deserialization, and one that
    never saw a blob raises :class:`MissingWorkerContext` for the parent
    to retry with the blob attached.

    The context carries the campaign's whole mutation list, so each
    worker lowers each target program it needs once (a
    :class:`~repro.datagen.campaign.TargetSimulation` kept with the
    context) and runs every mutant it receives as selector lanes of it,
    sharing top-up suites across them.
    """
    from ..datagen.campaign import TargetSimulation

    (
        module,
        target,
        stimuli,
        golden_traces,
        testbench_config,
        n_traces,
        seed,
        min_correct_traces,
        max_extra_batches,
        mutations,
    ) = _install_context(ctx_id, context_blob)
    simulations = _STATE["simulations"]
    simulation = simulations.get(ctx_id)
    if simulation is None:
        simulation = simulations[ctx_id] = TargetSimulation(
            module,
            target,
            mutations,
            testbench_config,
            n_traces,
            seed,
            min_correct_traces,
            max_extra_batches,
        )
    index = mutations.index(mutation)
    return simulation.simulate([index], stimuli, golden_traces)[0]


def _task_corpus_design(index: int, source: str, spec, seed: int):
    """Simulate one corpus design into training samples (self-contained)."""
    from ..pipeline import _design_samples

    return _design_samples(index, source, spec, seed)


def _task_warmup(delay: float = 0.0) -> int:
    """No-op task used to force worker spawn before a timed benchmark."""
    if delay:
        time.sleep(delay)
    import os

    return os.getpid()
