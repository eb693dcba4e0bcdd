"""The VeriBug session facade: one stateful owner of the whole stack.

A :class:`VeriBugSession` owns the trained model (with its context
cache and attention-row memo) and its codec, and the configuration every engine
below it consumes (simulation engine selection, worker-pool sizing,
localization batching).  Everything the paper's evaluation does is one
method away:

    >>> from repro.api import SessionConfig, VeriBugSession
    >>> session = VeriBugSession.train(SessionConfig().with_seed(1))
    >>> result = session.localize(buggy_module, "y", failing, correct)
    >>> for update in session.campaign("wb_mux_2", "wbs0_we_o").stream():
    ...     print(update.snapshot.ranking)

Layering (see ``docs/architecture.md``, "API layering"): the session
*facade* resolves configuration and owns state; campaign *handles*
translate streaming demands onto the *engines*
(:class:`~repro.core.localizer.LocalizationEngine`,
:class:`~repro.datagen.campaign.CampaignEngine`); the engines drive the
substrates (simulator, model, analysis).  Parallel work runs on the
session's live :class:`~repro.runtime.ExecutionRuntime` when it has one,
and in process otherwise.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable

from ..analysis import compute_static_slice
from ..core import (
    BatchEncoder,
    EvalMetrics,
    LocalizationEngine,
    LocalizationRequest,
    LocalizationResult,
    Sample,
    Trainer,
    VeriBugModel,
    Vocabulary,
    train_test_split,
)
from ..datagen import CampaignEngine, Mutation, sample_mutations
from ..datagen.campaign import SuiteMemo
from ..designs import REGISTRY, design_testbench, golden_module
from ..nn import load_state, save_state
from ..runtime import ExecutionRuntime
from ..sim.testbench import TestbenchConfig
from ..sim.trace import Trace
from ..verilog.ast_nodes import Module
from .campaign import DEFAULT_PLAN, CampaignHandle
from .config import SessionConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline -> api)
    from ..ingest import IngestedCorpus
    from ..pipeline import CorpusSpec


def generate_corpus(
    spec: "CorpusSpec | None" = None, seed: int = 0
) -> list[Sample]:
    """Simulate a corpus into training samples in process, no session needed.

    For callers without a trained session (:meth:`VeriBugSession.generate_corpus`
    inherits the session's engine, worker pool and seed defaults instead).
    """
    from ..pipeline import CorpusSpec, _simulate_corpus

    return _simulate_corpus(spec or CorpusSpec(), seed=seed)


def _default_corpus_spec(config: SessionConfig) -> "CorpusSpec":
    """The corpus a session trains on when no explicit spec is given.

    Inherits the session's engine; with ``corpus_dir`` set, sources every
    usable ingested design (``n_designs=0`` = all) instead of RVDG
    synthetics.
    """
    from ..pipeline import CorpusSpec

    if config.corpus_dir is not None:
        return CorpusSpec(
            n_designs=0, engine=config.sim_engine, source_dir=config.corpus_dir
        )
    return CorpusSpec(engine=config.sim_engine)


class VeriBugSession:
    """Facade over training, localization, and campaigns.

    Construct via :meth:`train` (fresh model), :meth:`from_checkpoint`
    (saved weights), or directly from components.  Every engine it
    builds inherits the config's engine/worker/batching knobs.

    With ``config.n_workers > 0`` the session also owns a persistent
    :class:`~repro.runtime.ExecutionRuntime` — one lazily-started worker
    pool serving campaign chunks (each simulated and localized on a
    worker) and corpus generation.  :meth:`localize` and
    :meth:`localize_many` run in process either way; the explicit
    sharded path is ``session.runtime.localize_many``.  Call
    :meth:`close` (or use the session as a context manager) to release
    the pool; sequential sessions have nothing to release.  Without a
    live runtime — sequential, or after :meth:`close` — all work runs in
    process.

    Campaigns share one per-design memo: registry designs are parsed once
    per process (:meth:`resolve_design`), and a :class:`SuiteMemo` keeps
    the stimulus suites and golden traces of the design most recently
    campaigned, so its targets generate and golden-simulate each suite
    once.  Its counters appear in :meth:`runtime_stats`.

    Attributes:
        config: The immutable session configuration.
        model / encoder: The owned model and its batch codec.
        train_metrics / test_metrics: Corpus-split predictor metrics when
            trained with ``evaluate=True`` (None otherwise).
    """

    def __init__(
        self,
        model: VeriBugModel,
        encoder: BatchEncoder | None = None,
        config: SessionConfig | None = None,
        *,
        train_metrics: EvalMetrics | None = None,
        test_metrics: EvalMetrics | None = None,
        corpus: "IngestedCorpus | None" = None,
    ):
        self.config = config or SessionConfig(model=model.config)
        self.model = model
        self.encoder = encoder or BatchEncoder(model.vocab)
        self.train_metrics = train_metrics
        self.test_metrics = test_metrics
        # The session owns the execution runtime: one lazily
        # started persistent worker pool serving campaign chunks and
        # corpus generation until close().
        self._runtime: ExecutionRuntime | None = None
        if self.config.n_workers > 0:
            self._runtime = ExecutionRuntime(self.config.n_workers)
            self._runtime.attach_model(
                model, fast_inference=self.config.fast_inference
            )
        self._localizer = LocalizationEngine(
            model,
            self.encoder,
            self.config.model,
            fast_inference=self.config.fast_inference,
        )
        self._trainer: Trainer | None = None
        self._corpus = corpus
        self._suites = SuiteMemo()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        config: SessionConfig | None = None,
        corpus: "CorpusSpec | None" = None,
        *,
        evaluate: bool = True,
        log: bool = False,
    ) -> "VeriBugSession":
        """Train a fresh model on a corpus (RVDG synthetic or ingested).

        Args:
            config: Session configuration (model hyper-parameters, data
                seed, engine/worker knobs).  With ``corpus_dir`` set the
                default corpus is the designs ingested from that
                directory rather than RVDG synthetics.
            corpus: Corpus size spec; defaults to a spec inheriting the
                session's engine and corpus-directory settings.  It is
                simulated on the session's worker pool either way.
            evaluate: Compute train/test metrics on the design-level
                corpus split.
            log: Print per-epoch training losses.
        """
        config = config or SessionConfig()
        corpus = corpus or _default_corpus_spec(config)
        vocab = Vocabulary()
        model = VeriBugModel(config.model, vocab)
        encoder = BatchEncoder(vocab)
        # Construct the session first so corpus generation (and every
        # later campaign) runs on the session's own worker pool instead
        # of a throwaway one.
        session = cls(model, encoder, config)
        samples = session.generate_corpus(corpus)

        # Design-level split: statements re-execute with identical operand
        # values thousands of times, so a sample-level split would leak
        # near-duplicates of every test sample into training.
        train_samples, test_samples = train_test_split(
            samples, corpus.test_fraction, seed=config.seed, split_by_design=True
        )
        trainer = session._ensure_trainer()
        trainer.train(train_samples, log=log)

        if evaluate:
            session.train_metrics = trainer.evaluate(train_samples)
            if test_samples:
                session.test_metrics = trainer.evaluate(test_samples)
        return session

    @classmethod
    def from_checkpoint(
        cls,
        path,
        config: SessionConfig | None = None,
        *,
        corpus: "IngestedCorpus | None" = None,
    ) -> "VeriBugSession":
        """Load a session from weights saved with :meth:`save`.

        The model is built from ``config.model`` (which must match the
        checkpoint's architecture) and the fixed node-type vocabulary,
        then the weights are restored.  ``corpus`` is ``config.corpus_dir``
        already ingested by the caller, so the session does not ingest
        it again (see :attr:`corpus`).
        """
        config = config or SessionConfig()
        vocab = Vocabulary()
        model = VeriBugModel(config.model, vocab)
        load_state(model, path)
        return cls(model, BatchEncoder(vocab), config, corpus=corpus)

    def save(self, path) -> None:
        """Serialize the model weights (reload with :meth:`from_checkpoint`)."""
        save_state(self.model, path)

    # ------------------------------------------------------------------
    # Localization
    # ------------------------------------------------------------------
    def localize(
        self,
        design: Module | str,
        target: str,
        failing_traces: list[Trace],
        correct_traces: list[Trace],
        threshold: float | None = None,
    ) -> LocalizationResult:
        """Localize a failure observed at ``target`` (see the engine docs).

        ``design`` may be a parsed module, a registered design name, or
        raw Verilog source (:meth:`resolve_design`).
        """
        return self._localizer.localize(
            self.resolve_design(design),
            target,
            failing_traces,
            correct_traces,
            threshold,
        )

    def localize_many(
        self, requests: list[LocalizationRequest], batch_size: int = 512
    ) -> list[LocalizationResult]:
        """Localize several failures with shared forward passes."""
        return self._localizer.localize_many(requests, batch_size=batch_size)

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def campaign(
        self,
        design: Module | str,
        target: str,
        mutations: Iterable[Mutation] | None = None,
        *,
        plan: dict[str, int] | None = None,
        testbench: TestbenchConfig | None = None,
        n_cycles: int = 10,
        seed: int | None = None,
        n_traces: int | None = None,
    ) -> CampaignHandle:
        """Prepare a bug-injection campaign (execute via the handle).

        Args:
            design: Parsed module, registered design name, or source.
            target: Output where failures must symptomatize.
            mutations: Explicit injection plan; when omitted one is
                sampled from ``plan`` (default :data:`DEFAULT_PLAN`)
                inside the target's dependency cone.
            plan: Mutation kind -> count for sampling (ignored when
                ``mutations`` is given).
            testbench: Stimulus knobs; defaults to the design's
                registered testbench (registry names) or a generic one,
                both pinned to the session's simulation engine.
            n_cycles: Cycles per testbench when building the default.
            seed / n_traces: Per-campaign overrides of the session
                defaults.

        Mutants are simulated and localized on the session's worker pool
        while it is open; a handle executed after :meth:`close` runs in
        process.

        Returns:
            A :class:`CampaignHandle`; call ``.run()`` for the batch
            report or ``.stream()`` for incremental outcomes/heatmaps.
        """
        module = self.resolve_design(design)
        seed = self.config.seed if seed is None else seed
        if testbench is None:
            if isinstance(design, str) and design in REGISTRY:
                testbench = design_testbench(design, n_cycles=n_cycles)
                testbench.engine = self.config.sim_engine
            elif (
                isinstance(design, str)
                and self.corpus is not None
                and design in self.corpus
            ):
                # Ingested designs get stimulus derived from their own
                # text (bit-density biases for wide compares) — the same
                # treatment the hand-ported registry designs receive.
                testbench = self.corpus.design(design).testbench(n_cycles)
                testbench.engine = self.config.sim_engine
            else:
                testbench = TestbenchConfig(
                    n_cycles=n_cycles, engine=self.config.sim_engine
                )
        if mutations is None:
            cone = compute_static_slice(module, target).stmt_ids
            # exclude_dead is provably redundant here (dead statements
            # are disjoint from any output's cone) but keeps campaign
            # sampling honest if the cone restriction ever loosens.
            mutations = sample_mutations(
                module,
                dict(plan or DEFAULT_PLAN),
                seed=seed,
                restrict_to=cone,
                min_operands=2,
                exclude_dead=True,
            )
        engine = CampaignEngine(
            self._localizer,
            n_traces=self.config.n_traces if n_traces is None else n_traces,
            testbench_config=testbench,
            seed=seed,
            min_correct_traces=self.config.min_correct_traces,
            max_extra_batches=self.config.max_extra_batches,
            runtime=self._runtime,
            suites=self._suites,
        )
        return CampaignHandle(engine, module, target, list(mutations))

    # ------------------------------------------------------------------
    # Corpus / evaluation
    # ------------------------------------------------------------------
    def generate_corpus(
        self, spec: "CorpusSpec | None" = None, seed: int | None = None
    ) -> list[Sample]:
        """Simulate a corpus into training samples.

        Defaults inherit the session's engine, seed, and — when
        ``config.corpus_dir`` is set — the ingested corpus directory (all
        usable designs) in place of RVDG synthetics.  Designs are
        simulated on the session's worker pool while it is open, in
        process otherwise.
        """
        from ..pipeline import _simulate_corpus

        return _simulate_corpus(
            spec or _default_corpus_spec(self.config),
            seed=self.config.seed if seed is None else seed,
            runtime=self._runtime,
        )

    def evaluate(self, samples: list[Sample]) -> EvalMetrics:
        """Predictor accuracy / per-class precision-recall on samples."""
        return self._ensure_trainer().evaluate(samples)

    def fit(
        self,
        samples: list[Sample],
        epochs: int | None = None,
        log: bool = False,
    ):
        """Continue training the owned model on explicit samples."""
        return self._ensure_trainer().train(samples, epochs=epochs, log=log)

    def _ensure_trainer(self) -> Trainer:
        if self._trainer is None:
            self._trainer = Trainer(self.model, self.encoder, self.config.model)
        return self._trainer

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def runtime(self) -> ExecutionRuntime | None:
        """The session-owned execution runtime (None when sequential).

        Present when ``config.n_workers > 0``; its process pool starts
        lazily on the first parallel dispatch and persists across
        campaigns until :meth:`close`.
        """
        return self._runtime

    def close(self) -> None:
        """Shut down the session's worker pool (idempotent).

        The session remains usable afterwards, running everything in
        process, including campaign handles created before the close.
        Sessions used as context managers close on exit::

            with VeriBugSession.from_checkpoint(path, config) as session:
                session.campaign("wb_mux_2", "wbs0_we_o").run()
        """
        if self._runtime is not None:
            self._runtime.close()
            self._runtime = None

    def __enter__(self) -> "VeriBugSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection / interop
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> "IngestedCorpus | None":
        """The session's ingested corpus (None without ``corpus_dir``).

        Ingestion runs lazily on first access (unless the constructor
        was handed the ingested corpus) and is cached for the session's
        lifetime; re-ingest explicitly with
        :func:`repro.ingest.ingest_directory` if the directory changes.
        """
        if self._corpus is None and self.config.corpus_dir is not None:
            from ..ingest import ingest_directory

            self._corpus = ingest_directory(
                self.config.corpus_dir, lint_policy=self.config.lint_policy
            )
        return self._corpus

    def resolve_design(self, design: Module | str) -> Module:
        """Normalize a design reference into a parsed module.

        Accepts a parsed :class:`Module` (returned as-is), the name of a
        registered evaluation design, the name of a usable design in the
        session's ingested corpus, or raw Verilog source text.

        Registry names and raw source resolve to the process-wide
        :func:`~repro.designs.golden_module` of their source text: parsed
        once per process and shared by every session, so its design index
        and slices are built once too.  Corpus names return
        :meth:`IngestedCorpus.module`.  Shared modules are immutable by
        contract (:func:`~repro.datagen.apply_mutation` returns path
        copies); callers that need to edit one should ``clone()`` it or
        use :func:`~repro.designs.load_design`.
        """
        if isinstance(design, Module):
            return design
        if design in REGISTRY:
            return golden_module(REGISTRY[design].source)
        corpus = self.corpus
        if corpus is not None and design in corpus:
            return corpus.module(design)
        # Verilog source opens a line with the `module` keyword (possibly
        # after comments/blank lines); a mistyped registry name merely
        # *containing* the substring must not hit the parser.
        if re.search(r"(?m)^\s*module\b", design):
            return golden_module(design)
        available = list(REGISTRY)
        if corpus is not None:
            available += corpus.names()
        raise KeyError(
            f"unknown design {design!r}: not a registered or ingested design"
            f" name (available: {', '.join(available)}) and not Verilog"
            " source"
        )

    def cache_stats(self) -> dict[str, float]:
        """Context-embedding cache counters (structural sharing evidence)."""
        return self.model.context_cache.stats()

    def memo_stats(self) -> dict[str, float]:
        """Attention-row memo counters (whole-row sharing evidence)."""
        return self.model.attention_memo.stats()

    def runtime_stats(self) -> dict:
        """Execution and simulation counters for this process.

        Always contains a ``"simulation"`` block — the session's resolved
        engine selection, the process-wide per-engine execution counters
        (:func:`repro.sim.engine_stats`: scalar runs/cycles, vector suite
        batches/lanes/cycles, comb passes, fixpoint-settled suites and
        scalar fallbacks), and the compile-cache
        hit/miss/entry counts — so a bench regression names the engine
        that regressed — plus the session's campaign suite memo
        (``"suite_memo"``: suite lookups served from it, suites generated,
        suites held; see :class:`~repro.datagen.campaign.SuiteMemo`).  The
        counters are process-local: mutants simulated inside pool workers
        accrue on the workers, not here.

        For sessions with a live worker runtime the dict additionally
        includes pool size/reuse counts, the last localization shard
        sizes, the weight epoch, and the aggregated worker-side
        context-cache and attention-memo hit rates (see
        :class:`repro.runtime.RuntimeStats`) — the numbers that show the
        per-worker caches losing cross-chunk sharing as chunk counts
        grow.
        """
        from ..sim.compiler import compile_cache_stats
        from ..sim.simulator import engine_stats

        stats: dict = {}
        if self._runtime is not None:
            stats.update(self._runtime.stats().to_dict())
        stats["simulation"] = {
            "engine": self.config.sim_engine,
            "engines": engine_stats(),
            "compile_cache": compile_cache_stats(),
            "suite_memo": self._suites.stats(),
        }
        return stats
