"""Worker-process side of the execution runtime.

Each pool worker is a plain Python process (spawned, never forked — see
:class:`~repro.runtime.ExecutionRuntime`) whose entire mutable state
lives in the module-level :data:`_STATE` dict:

* ``engine`` — a worker-local :class:`LocalizationEngine` built from the
  weight snapshot shipped at pool init (``initargs``), tagged with the
  weight epoch it was built from, on the session's inference arm.  The
  worker never trains, so the snapshot is read-only by construction
  (even the reference arm's autograd graphs are only ever read
  forward).  When the parent retrains or reloads
  weights it bumps the epoch and attaches a refreshed snapshot to the
  next shard or chunk task; the worker rebuilds only when the tags
  disagree.
* ``campaigns`` — a small LRU of campaign chunk contexts: the
  campaign's :class:`~repro.datagen.campaign.TargetSimulation` plus its
  main stimulus suite and golden traces.  Every chunk task carries the
  context as a pre-pickled blob; a worker deserializes it once per
  campaign and keeps the simulation, so each target program is lowered
  once per worker however many chunks of the campaign it runs.

Task functions return plain picklable values.  A campaign chunk
simulates, classifies and localizes its mutants on the worker and
returns only scored outcomes and localization results, so campaign
traces never cross the pool.  Traces travel only inside explicit
sharded ``localize_many`` requests, each as a one-lane slice of its
event log (the simulator records :class:`~repro.sim.trace.SuiteLog`
lanes natively and ``Trace`` pickles its lane's slice), which the
worker dedups as-is, so it never materializes per-execution record
objects for transport.  Localization tasks also return the
worker cache and memo hit/miss deltas, which the parent runtime
aggregates into fleet-wide hit rates.
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
        fast_inference: Mirror of the session's inference-arm switch.
    """

    config: "VeriBugConfig"
    state: dict[str, np.ndarray]
    epoch: int
    fast_inference: bool = True


class StaleWorkerWeights(RuntimeError):
    """A shard or chunk arrived for a weight epoch this worker lacks.

    Happens when this worker missed the best-effort refresh broadcast a
    weight change triggers (it was busy, or spawned later with the pool's
    original init snapshot).  The parent catches this and resubmits the
    task with the refresh snapshot attached.
    """


#: Worker-process state (one dict per process; set by the initializer).
_STATE: dict[str, Any] = {
    "model_init": None,  # ModelPayload | None shipped via initargs
    "engine": None,  # (epoch, LocalizationEngine)
    "campaigns": OrderedDict(),  # ctx_id -> (TargetSimulation, stimuli, goldens)
}


def _init_worker(model_init_blob: bytes | None) -> None:
    """Pool initializer: stash the (pickled) weight snapshot.

    The blob is pickled once in the parent and handed to every worker the
    pool ever spawns; the model itself is built lazily on the first
    localization shard or campaign chunk, so corpus-only pools never pay
    for it.
    """
    _STATE["model_init"] = (
        pickle.loads(model_init_blob) if model_init_blob is not None else None
    )
    _STATE["engine"] = None
    _STATE["campaigns"] = OrderedDict()


def _build_engine(payload: ModelPayload):
    """Construct a worker-local localization engine from a snapshot."""
    # Imports are deferred so pool startup only pays for them when a
    # task actually localizes.
    from ..core import BatchEncoder, Vocabulary
    from ..core.localizer import LocalizationEngine
    from ..core.model import VeriBugModel

    vocab = Vocabulary()
    model = VeriBugModel(payload.config, vocab)
    model.load_state_dict(payload.state)
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


def _cache_counters(engine) -> dict[str, int]:
    """The worker cache and memo counters, named as the parent folds them."""
    cache, memo = engine.model.context_cache, engine.model.attention_memo
    return {
        "worker_cache_hits": cache.hits,
        "worker_cache_misses": cache.misses,
        "worker_cache_cross_epoch_hits": cache.cross_epoch_hits,
        "worker_memo_hits": memo.hits,
        "worker_memo_misses": memo.misses,
        "worker_memo_cross_epoch_hits": memo.cross_epoch_hits,
    }


def _counter_delta(engine, before: dict[str, int]) -> dict[str, int]:
    return {name: value - before[name] for name, value in _cache_counters(engine).items()}


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
    before = _cache_counters(engine)
    results = engine.localize_many(requests, batch_size=batch_size)
    return results, _counter_delta(engine, before)


def _campaign(ctx_id: int, context_blob: bytes) -> tuple:
    """A campaign's simulation and main suite, deserialized once per worker."""
    campaigns: OrderedDict = _STATE["campaigns"]
    cached = campaigns.get(ctx_id)
    if cached is not None:
        campaigns.move_to_end(ctx_id)
        return cached
    from ..datagen.campaign import TargetSimulation

    simulation, stimuli, golden_traces = pickle.loads(context_blob)
    while len(campaigns) >= MAX_CONTEXTS:
        campaigns.popitem(last=False)
    cached = campaigns[ctx_id] = (TargetSimulation(*simulation), stimuli, golden_traces)
    return cached


def _task_refresh_weights(refresh_blob: bytes, delay: float = 0.0) -> int:
    """Eagerly install a weight snapshot (broadcast after a weight change).

    The small ``delay`` keeps each broadcast task occupying its worker
    briefly so the batch spreads across the pool instead of one idle
    worker draining them all; coverage is still best-effort — a worker
    that missed every broadcast raises :class:`StaleWorkerWeights` on
    its next task and is refreshed by the parent's retry.
    """
    payload = pickle.loads(refresh_blob)
    _build_engine(payload)
    if delay:
        time.sleep(delay)
    import os

    return os.getpid()


def _task_campaign_chunk(
    ctx_id: int,
    context_blob: bytes,
    epoch: int,
    refresh_blob: bytes | None,
    span: tuple[int, int],
    localize_batch: int,
) -> tuple[list[tuple], dict[str, int]]:
    """Simulate, classify and localize one chunk of a campaign's mutants.

    The chunk is the contiguous mutation span ``span`` of one program
    group, simulated as selector lanes of that program (shared suites
    and top-up rounds).  Its observable mutants are then localized on
    the worker engine for ``epoch``, in batches of at most
    ``localize_batch``, and scored by the same helper as the in-process
    campaign.  Returns ``(outcome, localization)`` pairs in mutation
    order plus the cache/memo delta; the trace sets stay here.  The
    weights are checked before any simulation, so a stale worker raises
    :class:`StaleWorkerWeights` without wasted work.
    """
    from ..datagen.campaign import localize_simulated

    engine = _ensure_engine(epoch, refresh_blob)
    simulation, stimuli, golden_traces = _campaign(ctx_id, context_blob)
    simulated = simulation.simulate(list(range(*span)), stimuli, golden_traces)
    observable = [item for item in simulated if item[0].observable]
    before = _cache_counters(engine)
    localizations = {}
    for start in range(0, len(observable), localize_batch):
        batch = observable[start : start + localize_batch]
        found = localize_simulated(engine, simulation.module, simulation.target, batch)
        localizations.update((id(item[0]), result) for item, result in zip(batch, found))
    pairs = [(outcome, localizations.get(id(outcome))) for outcome, _, _ in simulated]
    return pairs, _counter_delta(engine, before)


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
