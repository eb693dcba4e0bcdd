"""Session configuration: every scale knob of the system in one place.

Before the session facade, execution knobs were scattered across
``TestbenchConfig.engine``, ``CorpusSpec(engine=)``, and constructor
kwargs of the campaign/localizer classes.  :class:`SessionConfig`
consolidates them behind a frozen dataclass with builder-style
``with_*`` methods, and :class:`repro.api.VeriBugSession` is the single
consumer that fans the values back out to the engines.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..core.config import VeriBugConfig
from ..ingest.corpus import LINT_POLICIES
from ..sim.simulator import ENGINES

@dataclass(frozen=True)
class SessionConfig:
    """Every tunable of a :class:`~repro.api.VeriBugSession`.

    Frozen: derive variants with the ``with_*`` builders (each returns a
    new config) or :func:`dataclasses.replace`.

    Attributes:
        model: Model/training hyper-parameters (:class:`VeriBugConfig`).
        sim_engine: Simulation engine for every simulator the session
            builds: "vector" (default; the lockstep engine) or
            "interpreted" (the reference oracle).
        n_workers: Size of the session's worker pool for campaigns
            (each chunk of mutants simulated and localized on a worker)
            and corpus generation; 0 runs sequentially (results are
            bit-identical either way).  The session owns one persistent
            :class:`~repro.runtime.ExecutionRuntime`, lazily started on
            the first parallel dispatch and reused by every
            campaign/corpus run until
            :meth:`~repro.api.VeriBugSession.close`.
        fast_inference: Localize on the fast arm (execution dedup,
            no-grad fused head, context cache and attention-row memo);
            False pins the per-execution autograd reference arm.
        seed: Data seed — corpus generation, testbench suites, and
            mutation sampling (model-init seeding lives in
            ``model.seed``).
        n_traces: Testbenches per campaign batch.
        min_correct_traces / max_extra_batches: Correct-trace top-up
            policy for campaigns.
        corpus_dir: Directory of an on-disk Verilog corpus (see
            :mod:`repro.ingest`).  When set, the session lazily ingests
            it: training defaults to the ingested designs instead of
            RVDG synthetics, and design references resolve against the
            corpus by name (after the built-in registry).
        lint_policy: Ingest-time lint policy (:mod:`repro.lint`) —
            "record" lints every usable design into its manifest record,
            "reject-errors" also demotes designs with lint errors
            (multi-driven nets, combinational cycles), "off" skips lint.
    """

    model: VeriBugConfig = field(default_factory=VeriBugConfig)
    sim_engine: str = "vector"
    n_workers: int = 0
    fast_inference: bool = True
    seed: int = 0
    n_traces: int = 12
    min_correct_traces: int = 4
    max_extra_batches: int = 4
    corpus_dir: str | None = None
    lint_policy: str = "record"

    def __post_init__(self):
        if self.sim_engine not in ENGINES:
            raise ValueError(
                f"unknown sim_engine {self.sim_engine!r};"
                f" available: {', '.join(ENGINES)}"
            )
        if self.lint_policy not in LINT_POLICIES:
            raise ValueError(
                f"unknown lint_policy {self.lint_policy!r};"
                f" available: {', '.join(LINT_POLICIES)}"
            )
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if self.n_traces < 1:
            raise ValueError("n_traces must be >= 1")
        if self.min_correct_traces < 0:
            raise ValueError("min_correct_traces must be >= 0")
        if self.max_extra_batches < 0:
            raise ValueError("max_extra_batches must be >= 0")

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def with_model(self, model: VeriBugConfig | None = None, **overrides) -> SessionConfig:
        """Replace the model config, or tweak fields of the current one."""
        if model is not None and overrides:
            raise ValueError("pass either a VeriBugConfig or field overrides")
        if model is None:
            model = dataclasses.replace(self.model, **overrides)
        return dataclasses.replace(self, model=model)

    def with_engine(self, sim_engine: str) -> SessionConfig:
        """Select the simulation engine ("vector" or "interpreted")."""
        return dataclasses.replace(self, sim_engine=sim_engine)

    def with_workers(self, n_workers: int) -> SessionConfig:
        """Size the session's persistent worker pool (0 = sequential)."""
        return dataclasses.replace(self, n_workers=n_workers)

    def with_seed(self, seed: int) -> SessionConfig:
        """Set the data seed (corpus, testbenches, mutation sampling)."""
        return dataclasses.replace(self, seed=seed)

    def with_corpus(self, corpus_dir) -> SessionConfig:
        """Bind the session to an on-disk Verilog corpus directory.

        Training defaults to the ingested designs, and design names
        resolve against the corpus (see :mod:`repro.ingest`).
        """
        return dataclasses.replace(
            self, corpus_dir=None if corpus_dir is None else str(corpus_dir)
        )

    def with_lint(self, lint_policy: str) -> SessionConfig:
        """Select the ingest-time lint policy.

        "record" (default) stores per-design lint findings in the
        ingested manifest; "reject-errors" additionally demotes designs
        with lint errors; "off" disables ingest-time lint.
        """
        return dataclasses.replace(self, lint_policy=lint_policy)

    def with_campaign_defaults(
        self,
        n_traces: int | None = None,
        min_correct_traces: int | None = None,
        max_extra_batches: int | None = None,
    ) -> SessionConfig:
        """Set the campaign trace-collection policy."""
        updates: dict = {}
        if n_traces is not None:
            updates["n_traces"] = n_traces
        if min_correct_traces is not None:
            updates["min_correct_traces"] = min_correct_traces
        if max_extra_batches is not None:
            updates["max_extra_batches"] = max_extra_batches
        return dataclasses.replace(self, **updates)
