"""Unified public API: the session facade, campaign handles, and CLI.

This package is the recommended entry surface for the whole
reproduction::

    from repro.api import SessionConfig, VeriBugSession

    session = VeriBugSession.train(SessionConfig().with_seed(1))
    report = session.campaign("wb_mux_2", "wbs0_we_o").run()

Layer map (top to bottom; see ``docs/architecture.md``):

* **Session** — :class:`VeriBugSession` owns the model, caches, and the
  consolidated :class:`SessionConfig` knobs.
* **Campaign** — :class:`CampaignHandle` executes injection campaigns,
  streaming (:meth:`~CampaignHandle.stream`) or batch
  (:meth:`~CampaignHandle.run`), with incremental
  :class:`HeatmapSnapshot` state.
* **Engines** — :class:`repro.core.localizer.LocalizationEngine` and
  :class:`repro.datagen.campaign.CampaignEngine` drive the substrates.

``python -m repro`` exposes the same surface as a command line
(:mod:`repro.api.cli`).  The design registry helpers are re-exported so
API users need a single import root.
"""

from ..designs import design_info, design_names, design_testbench, load_design
from .campaign import (
    DEFAULT_PLAN,
    CampaignHandle,
    CampaignReport,
    CampaignUpdate,
    HeatmapSnapshot,
)
from .config import LINT_POLICIES, SessionConfig
from .session import VeriBugSession, generate_corpus

__all__ = [
    "DEFAULT_PLAN",
    "LINT_POLICIES",
    "CampaignHandle",
    "CampaignReport",
    "CampaignUpdate",
    "HeatmapSnapshot",
    "SessionConfig",
    "VeriBugSession",
    "design_info",
    "design_names",
    "design_testbench",
    "generate_corpus",
    "load_design",
]
