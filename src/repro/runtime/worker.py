"""Worker-process side of the execution runtime.

Each pool worker is a plain Python process (spawned, never forked — see
:class:`~repro.runtime.ExecutionRuntime`) whose entire mutable state
lives in the module-level :data:`_STATE` dict:

* ``engine`` — a worker-local :class:`LocalizationEngine`, tagged with
  the weight epoch it was built from, on the session's inference arm.
  Every localization shard and campaign chunk carries its epoch and the
  pickled weight snapshot of that epoch; the worker rebuilds the engine
  from the snapshot only when the tags disagree, so a task is a pure
  function of its arguments whichever worker runs it.  The worker never
  trains, so the snapshot is read-only by construction (even the
  reference arm's autograd graphs are only ever read forward).
* ``campaigns`` — a small LRU of campaign chunk contexts: the
  campaign's :class:`~repro.datagen.campaign.TargetSimulation` plus its
  main stimulus suite and golden traces.  Every chunk task carries the
  context as a pre-pickled blob; a worker deserializes it once per
  campaign and keeps the simulation, so each target program is lowered
  once per worker however many chunks of the campaign it runs.

Task functions return plain picklable values.  A campaign chunk runs
:meth:`~repro.datagen.campaign.TargetSimulation.localize_chunk`, the
same function an in-process campaign runs per chunk, and returns only
scored outcomes and localization results, so campaign traces never
cross the pool.  Traces travel only inside explicit
:meth:`~repro.runtime.ExecutionRuntime.localize_many` shard requests,
as plain pickled lane views: a shard ships each
:class:`~repro.sim.trace.SuiteLog` its traces read once, and the worker
dedups straight off it without materializing record objects.  Localization
tasks also return the worker cache and memo hit/miss deltas, which the
parent runtime aggregates into fleet-wide hit rates.
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

    The runtime pickles one per weight epoch and ships it, next to that
    epoch, with every localization shard and campaign chunk.

    Attributes:
        config: Model hyper-parameters (architecture must match ``state``).
        state: A ``state_dict`` snapshot of the trained weights.
        fast_inference: Mirror of the session's inference-arm switch.
    """

    config: "VeriBugConfig"
    state: dict[str, np.ndarray]
    fast_inference: bool = True


#: Worker-process state (one dict per process).
_STATE: dict[str, Any] = {
    "engine": None,  # (epoch, LocalizationEngine)
    "campaigns": OrderedDict(),  # ctx_id -> (TargetSimulation, stimuli, goldens)
}


def _ensure_engine(epoch: int, weights_blob: bytes):
    """The worker engine for ``epoch``, rebuilt from ``weights_blob`` if stale.

    ``weights_blob`` is the pickled :class:`ModelPayload` of ``epoch``.
    """
    cached = _STATE["engine"]
    if cached is not None and cached[0] == epoch:
        return cached[1]
    # Imports are deferred so pool startup only pays for them when a
    # task actually localizes.
    from ..core import BatchEncoder, Vocabulary
    from ..core.localizer import LocalizationEngine
    from ..core.model import VeriBugModel

    payload: ModelPayload = pickle.loads(weights_blob)
    vocab = Vocabulary()
    model = VeriBugModel(payload.config, vocab)
    model.load_state_dict(payload.state)
    engine = LocalizationEngine(
        model,
        BatchEncoder(vocab),
        payload.config,
        fast_inference=payload.fast_inference,
    )
    _STATE["engine"] = (epoch, engine)
    return engine


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
    weights_blob: bytes,
    requests: list,
    batch_size: int,
) -> tuple[list["LocalizationResult"], dict[str, int]]:
    """Localize one shard of requests with the weights of ``epoch``.

    Execution dedup and the structural context-embedding cache are both
    worker-local: results are bit-identical to the parent's serial fast
    path (attention is segment-local and the fused kernel is
    padding-invariant), only *which process computes them* changes.

    Returns the shard's results plus the cache-counter delta incurred by
    this shard, for fleet-wide aggregation in the parent.
    """
    engine = _ensure_engine(epoch, weights_blob)
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


def _task_campaign_chunk(
    ctx_id: int,
    context_blob: bytes,
    epoch: int,
    weights_blob: bytes,
    span: tuple[int, int],
) -> tuple[list[tuple], dict[str, int]]:
    """Simulate, classify and localize one chunk of a campaign's mutants.

    The chunk is the contiguous mutation span ``span`` of one program
    group, run by
    :meth:`~repro.datagen.campaign.TargetSimulation.localize_chunk` (the
    function an in-process campaign runs per chunk) on the worker engine
    for ``epoch``, rebuilt from ``weights_blob`` when this worker last
    localized at another epoch.  Returns ``(outcome, localization)``
    pairs in mutation order plus the cache/memo delta; the trace sets
    stay here.
    """
    engine = _ensure_engine(epoch, weights_blob)
    simulation, stimuli, golden_traces = _campaign(ctx_id, context_blob)
    before = _cache_counters(engine)
    pairs = simulation.localize_chunk(span, stimuli, golden_traces, engine)
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
