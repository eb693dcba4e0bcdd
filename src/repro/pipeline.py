"""Training corpora: which designs to simulate, and how to simulate them.

This module wires the substrates together the way the paper's evaluation
does: a :class:`CorpusSpec` names an RVDG synthetic corpus (free
supervision from simulation traces) or an ingested Verilog directory,
and :func:`_simulate_corpus` simulates it into training samples.
:meth:`repro.api.VeriBugSession.train` /
:meth:`~repro.api.VeriBugSession.generate_corpus` and the sessionless
:func:`repro.api.generate_corpus` are the public entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import extract_module_contexts
from .core import Sample, build_samples
from .datagen import RandomVerilogDesignGenerator, RVDGConfig
from .designs import golden_module
from .runtime.seeding import corpus_design_seed
from .sim import ENGINES, Simulator, TestbenchConfig, generate_testbench_suite


@dataclass
class CorpusSpec:
    """What training data to generate (synthetic or ingested).

    Attributes:
        n_designs: RVDG designs in the corpus.  With ``source_dir`` set,
            the number of ingested designs to train on (0 = all usable).
        n_traces_per_design: Random testbenches per design.
        n_cycles: Cycles per testbench.
        test_fraction: Held-out fraction for Table-II-style evaluation.
        rvdg: Generator shape knobs (unused with ``source_dir``).
        engine: Simulation engine ("vector" or "interpreted").  The
            default "vector" runs each design's testbench suite in
            lockstep.
        source_dir: When set, train on the Verilog corpus ingested from
            this directory (see :mod:`repro.ingest`) instead of RVDG
            synthetics.  Usable designs ship to workers as canonical
            printed sources, so parallel runs match sequential ones.
    """

    n_designs: int = 16
    n_traces_per_design: int = 4
    n_cycles: int = 25
    test_fraction: float = 0.2
    rvdg: RVDGConfig = field(default_factory=RVDGConfig)
    engine: str = "vector"
    source_dir: str | None = None

    def __post_init__(self):
        if self.n_designs < 0:
            raise ValueError("n_designs must be >= 0")
        if self.n_designs == 0 and self.source_dir is None:
            raise ValueError("n_designs=0 (all designs) needs a source_dir")
        if self.n_traces_per_design < 1:
            raise ValueError("n_traces_per_design must be >= 1")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if not 0 <= self.test_fraction < 1:
            raise ValueError("test_fraction must be in [0, 1)")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r};"
                f" available: {', '.join(ENGINES)}"
            )


def _design_samples(
    index: int,
    source: str,
    spec: CorpusSpec,
    seed: int,
) -> list[Sample]:
    """Simulate one corpus design and build its training samples.

    Module-level so the parallel corpus layer can dispatch it to worker
    processes; the sequential path calls it inline with identical results.
    The source parses once per process (:func:`golden_module`), so
    later training passes reuse the module and its compiled program.
    """
    module = golden_module(source)
    simulator = Simulator(module, engine=spec.engine)
    stimuli = generate_testbench_suite(
        module,
        spec.n_traces_per_design,
        TestbenchConfig(n_cycles=spec.n_cycles),
        seed=corpus_design_seed(seed, index),
    )
    traces = simulator.run_suite(stimuli)
    contexts = extract_module_contexts(module.statements())
    return build_samples(contexts, traces, design=module.name)


def _corpus_design_sources(spec: CorpusSpec, seed: int) -> list[str]:
    """The corpus design sources: RVDG synthetics or an ingested directory."""
    if spec.source_dir is not None:
        from .ingest import ingest_directory

        corpus = ingest_directory(spec.source_dir)
        sources = [source for _name, source in corpus.design_sources()]
        if not sources:
            raise ValueError(
                f"no usable designs ingested from {spec.source_dir!r}"
            )
        if spec.n_designs > 0:
            sources = sources[: spec.n_designs]
        return sources
    generator = RandomVerilogDesignGenerator(spec.rvdg, seed=seed)
    return [
        source
        for _name, source in generator.generate_corpus_sources(spec.n_designs)
    ]


def _simulate_corpus(
    spec: CorpusSpec, seed: int = 0, runtime=None
) -> list[Sample]:
    """Simulate a corpus and convert traces to training samples.

    Design sources come from :func:`_corpus_design_sources` (RVDG
    synthetics, or an ingested directory when ``spec.source_dir`` is
    set), then each design is simulated and featurized — fanned out
    across ``runtime``'s worker pool when it is a live
    :class:`~repro.runtime.ExecutionRuntime` (the owning session's), in
    process otherwise.  Both paths yield samples in design order, so the
    execution strategy never changes the corpus.
    """
    design_sources = _corpus_design_sources(spec, seed)
    if runtime is not None and not runtime.closed and len(design_sources) > 1:
        results = runtime.map_corpus(design_sources, spec, seed)
    else:
        results = [
            _design_samples(index, source, spec, seed)
            for index, source in enumerate(design_sources)
        ]
    samples: list[Sample] = []
    for design_samples in results:
        samples.extend(design_samples)
    return samples
