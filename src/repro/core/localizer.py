"""End-to-end bug localization pipeline (paper §III workflow).

Given a design, a target output, and two trace sets (failing / correct),
the localizer:

1. slices the design statically for the target (``Dep_t``),
2. extracts operand contexts for the slice statements (both read off
   the design's frozen :class:`~repro.analysis.DesignIndex`, so a
   mutant shares everything but its mutated statement's context with
   its golden design),
3. runs model inference on every executed slice statement,
4. aggregates attention into ``Ft`` and ``Ct``,
5. emits the heatmap ``Ht`` and a suspiciousness ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.contexts import StatementContext
from ..analysis.index import StaticSlice, design_index
from ..sim.trace import Trace
from ..verilog.ast_nodes import Module
from .config import VeriBugConfig
from .explainer import Explainer, Heatmap
from .features import BatchEncoder
from .model import VeriBugModel


@dataclass
class LocalizationResult:
    """Outcome of one localization run.

    Attributes:
        target: The failing output that was localized.
        heatmap: The final heatmap ``Ht``.
        static_slice: The dependency slice used (frozensets, shared).
        contexts: Contexts of the slice statements (this result's own
            dict; the contexts in it are shared and read-only).
        ranking: stmt_ids of heatmap entries by decreasing suspiciousness.
    """

    target: str
    heatmap: Heatmap
    static_slice: StaticSlice
    contexts: dict[int, StatementContext] = field(default_factory=dict)
    ranking: list[int] = field(default_factory=list)

    def is_top1(self, stmt_id: int) -> bool:
        """True when ``stmt_id`` has the single highest suspiciousness."""
        return bool(self.ranking) and self.ranking[0] == stmt_id

    def rank_of(self, stmt_id: int) -> int | None:
        """1-based rank of a statement in the heatmap, or None."""
        try:
            return self.ranking.index(stmt_id) + 1
        except ValueError:
            return None


@dataclass
class LocalizationRequest:
    """One pending localization, for the batched cross-mutant path.

    Attributes:
        module: The (buggy) design under debug.
        target: Output where the failure symptomatizes.
        failing_traces / correct_traces: The two trace sets.
        threshold: Optional suspiciousness threshold override.
    """

    module: Module
    target: str
    failing_traces: list[Trace]
    correct_traces: list[Trace]
    threshold: float | None = None


class LocalizationEngine:
    """Ties the slicer, model, and explainer into one callable pipeline.

    This is the *engine* layer: it owns no session state beyond the model
    handed to it and is driven by :class:`repro.api.VeriBugSession` (the
    facade).  Every localization runs through :meth:`localize_many`
    (:meth:`localize` is its one-request form): read the slice and
    contexts off each request's design index, build ``Ft``/``Ct``, then
    the heatmap and ranking.  Only the ``Ft``/``Ct`` step depends on the
    arm.

    Args:
        model / encoder / config: The trained model and its codec.
        fast_inference: Build ``Ft``/``Ct`` on the fast arm — every
            request's deduplicated samples in shared no-grad batches,
            with the fused head, context cache and attention-row memo
            (see :class:`Explainer`).  False runs the per-execution
            autograd reference arm; results agree within 1e-9.
    """

    def __init__(
        self,
        model: VeriBugModel,
        encoder: BatchEncoder,
        config: VeriBugConfig | None = None,
        fast_inference: bool = True,
    ):
        self.model = model
        self.encoder = encoder
        self.config = config or model.config
        self.explainer = Explainer(
            model, encoder, self.config, fast_inference=fast_inference
        )

    def localize(
        self,
        module: Module,
        target: str,
        failing_traces: list[Trace],
        correct_traces: list[Trace],
        threshold: float | None = None,
    ) -> LocalizationResult:
        """Localize a failure observed at ``target``.

        The one-request form of :meth:`localize_many`.

        Args:
            module: The (buggy) design under debug.
            target: Output where the failure symptomatizes.
            failing_traces: Traces where the failure was observed.
            correct_traces: Traces with correct behavior.
            threshold: Suspiciousness threshold override.

        Returns:
            The :class:`LocalizationResult` with heatmap and ranking.
        """
        request = LocalizationRequest(
            module, target, failing_traces, correct_traces, threshold
        )
        return self.localize_many([request])[0]

    def localize_many(
        self,
        requests: list[LocalizationRequest],
        batch_size: int = 512,
    ) -> list[LocalizationResult]:
        """Localize several failures with shared forward passes.

        Every request's ``Ft`` and ``Ct`` come from one
        :meth:`Explainer.attention_maps` call: on the fast arm one
        grouping covers every request's sets, and each distinct
        ``(structure, operand values)`` key of the call — the
        golden/mutant overlap included — is scored once, in
        ``batch_size``-row model calls shared across mutants.  Attention
        weights are segment-local, so a sample's weights do not depend on
        which batch it lands in, and each result equals localizing its
        request alone.

        Args:
            requests: The pending localizations, in result order.
            batch_size: Shared inference batch size.

        Returns:
            One :class:`LocalizationResult` per request, same order.
        """
        # One call = one cache/memo epoch: hits on entries created in an
        # earlier epoch are cross-request (cross-mutant) sharing.
        self.model.context_cache.begin_epoch()
        self.model.attention_memo.begin_epoch()
        prepared: list[tuple[StaticSlice, dict[int, StatementContext]]] = []
        for request in requests:
            index = design_index(request.module)
            prepared.append(
                (index.static_slice(request.target), index.contexts(request.target))
            )
        sets = [
            (contexts, traces, static_slice.stmt_ids)
            for request, (static_slice, contexts) in zip(requests, prepared)
            for traces in (request.failing_traces, request.correct_traces)
        ]
        maps = self.explainer.attention_maps(sets, batch_size)

        results: list[LocalizationResult] = []
        for request, (static_slice, contexts), ft, ct in zip(
            requests, prepared, maps[0::2], maps[1::2]
        ):
            heatmap = self.explainer.build_heatmap(
                request.target, ft, ct, request.threshold
            )
            ranking = [entry.stmt_id for entry in heatmap.ranked()]
            results.append(
                LocalizationResult(
                    target=request.target,
                    heatmap=heatmap,
                    static_slice=static_slice,
                    contexts=contexts,
                    ranking=ranking,
                )
            )
        return results

