"""Campaign handles: streaming mutation campaigns with live heatmaps.

:meth:`repro.api.VeriBugSession.campaign` returns a
:class:`CampaignHandle` — a lazy description of one (design, target)
campaign.  Consuming it two ways shares one engine implementation
(:meth:`repro.datagen.campaign.CampaignEngine.iter_localized`), so the
semantics are identical however you drive it:

* :meth:`CampaignHandle.stream` yields a :class:`CampaignUpdate` per
  mutant *as its localization completes* — the scored
  :class:`~repro.datagen.campaign.MutantOutcome`, the per-mutant
  :class:`~repro.core.localizer.LocalizationResult`, and an incremental
  :class:`HeatmapSnapshot` of the whole campaign so far.  Long-running
  campaigns report partial rankings instead of going dark until the end.
* :meth:`CampaignHandle.run` drains the same stream and returns the
  batch-style :class:`CampaignReport`; its final snapshot is
  bit-identical to the last one ``stream()`` yields.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

from ..core.localizer import LocalizationResult
from ..datagen.campaign import CampaignEngine, CampaignResult, MutantOutcome
from ..datagen.mutation import Mutation
from ..verilog.ast_nodes import Module

#: Injection plan used when a campaign is requested without an explicit
#: mutation list or plan (Table-III shape, scaled for minutes not hours).
DEFAULT_PLAN = {"negation": 2, "operation": 2, "misuse": 3}


@dataclass(frozen=True)
class HeatmapSnapshot:
    """Campaign-level suspiciousness state after ``completed`` mutants.

    Aggregates the per-mutant heatmaps of every observable mutant
    localized so far: ``suspiciousness[stmt_id]`` is the running mean of
    that statement's suspiciousness across the mutants whose heatmap
    scored it (``counts[stmt_id]`` of them), and ``ranking`` orders
    statements by decreasing mean score (ties by stmt_id, mirroring
    :meth:`Heatmap.ranked`).  Emitted incrementally by
    :meth:`CampaignHandle.stream`; the final snapshot equals the one
    :meth:`CampaignHandle.run` reports.
    """

    design: str
    target: str
    completed: int
    total: int
    observable: int
    localized: int
    errors: int
    suspiciousness: dict[int, float] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)
    ranking: tuple[int, ...] = ()

    @property
    def progress(self) -> float:
        """Fraction of the injection plan processed (0.0–1.0)."""
        return self.completed / self.total if self.total else 1.0

    @property
    def coverage(self) -> float:
        """Top-1 bug coverage over the mutants processed so far."""
        return self.localized / self.observable if self.observable else 0.0


@dataclass(frozen=True)
class CampaignUpdate:
    """One streamed campaign event: a scored mutant plus the new state.

    Attributes:
        outcome: The mutant's fully-scored outcome (rank, suspiciousness,
            observability — final, not provisional).
        localization: The mutant's localization result, or None when the
            mutant errored or never symptomatized at the target.
        snapshot: Campaign heatmap state including this mutant.
    """

    outcome: MutantOutcome
    localization: LocalizationResult | None
    snapshot: HeatmapSnapshot


@dataclass(frozen=True)
class CampaignReport:
    """Batch result of a campaign: legacy totals plus the final heatmap.

    Attributes:
        result: The per-mutant outcomes and aggregate counters
            (:class:`CampaignResult`, the pre-session result type).
        snapshot: Final campaign heatmap state — bit-identical to the
            last :class:`CampaignUpdate` of :meth:`CampaignHandle.stream`.
    """

    result: CampaignResult
    snapshot: HeatmapSnapshot

    @property
    def outcomes(self) -> list[MutantOutcome]:
        return self.result.outcomes

    @property
    def coverage(self) -> float:
        return self.result.coverage


class CampaignHandle:
    """A prepared (design, target, mutations) campaign, ready to execute.

    Handles are reusable: every :meth:`stream`/:meth:`run` call starts a
    fresh execution over the same plan (deterministic seeds make repeat
    runs identical).

    Args:
        engine: The configured campaign engine (owned by the session).
        module: The golden design.
        target: Output where failures must symptomatize.
        mutations: The injection plan.
    """

    def __init__(
        self,
        engine: CampaignEngine,
        module: Module,
        target: str,
        mutations: list[Mutation],
    ):
        self.engine = engine
        self.module = module
        self.target = target
        self.mutations = list(mutations)

    def __len__(self) -> int:
        return len(self.mutations)

    def stream(self) -> Iterator[CampaignUpdate]:
        """Yield scored mutants and incremental heatmaps as they complete.

        Outcomes arrive in mutation order, one campaign chunk
        (:func:`~repro.datagen.campaign.plan_chunks`) at a time: mutant 0
        alone first, then the rest of each program group, split across
        the workers on a session pool.  A chunk's observable mutants
        share one set of model forward passes, in process or on the
        worker that simulated them.  Abandoning the iterator
        mid-campaign closes the engine stream, which cancels the chunks
        no worker has started; the session pool itself stays up.
        """
        sums: dict[int, float] = {}
        counts: dict[int, int] = {}
        completed = observable = localized = errors = 0
        pairs = self.engine.iter_localized(self.module, self.target, self.mutations)
        with contextlib.closing(pairs):
            for outcome, localization in pairs:
                completed += 1
                if outcome.error:
                    errors += 1
                if outcome.observable:
                    observable += 1
                if outcome.localized:
                    localized += 1
                if localization is not None:
                    for stmt_id, score in localization.heatmap.suspiciousness.items():
                        sums[stmt_id] = sums.get(stmt_id, 0.0) + score
                        counts[stmt_id] = counts.get(stmt_id, 0) + 1
                mean = {stmt_id: sums[stmt_id] / counts[stmt_id] for stmt_id in sums}
                snapshot = HeatmapSnapshot(
                    design=self.module.name,
                    target=self.target,
                    completed=completed,
                    total=len(self.mutations),
                    observable=observable,
                    localized=localized,
                    errors=errors,
                    suspiciousness=mean,
                    counts=dict(counts),
                    ranking=tuple(
                        sorted(mean, key=lambda stmt_id: (-mean[stmt_id], stmt_id))
                    ),
                )
                yield CampaignUpdate(
                    outcome=outcome, localization=localization, snapshot=snapshot
                )

    def run(self) -> CampaignReport:
        """Execute the whole campaign and return the batch report.

        Implemented by draining :meth:`stream`, so the final snapshot is
        the stream's last snapshot — not a recomputation.
        """
        result = CampaignResult(design=self.module.name, target=self.target)
        snapshot = HeatmapSnapshot(
            design=self.module.name,
            target=self.target,
            completed=0,
            total=len(self.mutations),
            observable=0,
            localized=0,
            errors=0,
        )
        for update in self.stream():
            result.outcomes.append(update.outcome)
            snapshot = update.snapshot
        return CampaignReport(result=result, snapshot=snapshot)
