"""Shared benchmark fixtures.

The paper-scale trained model is expensive (~70 s); it is trained once
and cached on disk so the benchmark suite stays re-runnable.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.api import SessionConfig, VeriBugSession
from repro.core import VeriBugConfig
from repro.pipeline import CorpusSpec

CACHE_DIR = pathlib.Path(__file__).parent / ".cache"

#: The paper's evaluation model configuration (§V).
PAPER_CONFIG = VeriBugConfig(epochs=30)
# 20 designs so ~16 remain on the training side after the grouped
# design-level holdout (see docs/architecture.md "Train/test split").
PAPER_CORPUS = CorpusSpec(n_designs=20, n_traces_per_design=4, n_cycles=25)


def load_or_train_session(n_workers: int = 0) -> VeriBugSession:
    """The shared evaluation model (cached across benchmark runs)."""
    CACHE_DIR.mkdir(exist_ok=True)
    cache = CACHE_DIR / "paper_model.npz"
    config = SessionConfig(model=PAPER_CONFIG).with_workers(n_workers)
    if cache.exists():
        return VeriBugSession.from_checkpoint(cache, config)
    session = VeriBugSession.train(
        config.with_seed(1), PAPER_CORPUS, evaluate=False
    )
    session.save(cache)
    return session


@pytest.fixture(scope="session")
def paper_serial_session() -> VeriBugSession:
    """A sequential session over the shared evaluation model."""
    return load_or_train_session()


@pytest.fixture(scope="session")
def paper_session() -> VeriBugSession:
    """A worker-pool session over the shared model: one persistent pool
    (spawned lazily) serves every benchmark that requests this fixture."""
    session = load_or_train_session(n_workers=2)
    yield session
    session.close()
