"""Evaluation-design registry (paper Table I).

Re-implementations of the four open-source designs used in the paper's
localization test set, written in the supported Verilog subset with the
same module names and the exact target outputs of Table III.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..sim.testbench import TestbenchConfig
from ..verilog.ast_nodes import Module
from ..verilog.parser import parse_module
from . import ibex_controller, usbf_idma, usbf_pl, wb_mux


@dataclass(frozen=True)
class DesignInfo:
    """Metadata for one evaluation design.

    Attributes:
        name: Module name (as in paper Table I).
        source: Verilog source text.
        targets: Target outputs used in the paper's campaign (Table III).
        description: Short description (Table I column).
        paper_loc: Line count reported in paper Table I (the original
            full-featured design; ours are simplified re-implementations).
        forced: Constant input overrides for meaningful stimulus (e.g.
            the configured device address of the USB protocol layer).
        biases: Per-input bit-density overrides making rare events
            (address matches, error strobes) reachable by random tests.
    """

    name: str
    source: str
    targets: tuple[str, ...]
    description: str
    paper_loc: int
    forced: dict[str, int] = field(default_factory=dict)
    biases: dict[str, float] = field(default_factory=dict)

    @property
    def loc(self) -> int:
        """Line count of our re-implementation."""
        return len([ln for ln in self.source.strip().splitlines() if ln.strip()])


REGISTRY: dict[str, DesignInfo] = {
    "wb_mux_2": DesignInfo(
        name="wb_mux_2",
        source=wb_mux.SOURCE,
        targets=wb_mux.TARGETS,
        description=wb_mux.DESCRIPTION,
        paper_loc=65,
    ),
    "usbf_pl": DesignInfo(
        name="usbf_pl",
        source=usbf_pl.SOURCE,
        targets=usbf_pl.TARGETS,
        description=usbf_pl.DESCRIPTION,
        paper_loc=287,
        forced={"fa_out": 0},
        biases={"token_fadr": 0.04, "crc5_err": 0.15, "rx_err": 0.15},
    ),
    "usbf_idma": DesignInfo(
        name="usbf_idma",
        source=usbf_idma.SOURCE,
        targets=usbf_idma.TARGETS,
        description=usbf_idma.DESCRIPTION,
        paper_loc=627,
        biases={"abort": 0.05, "flush": 0.2},
    ),
    "ibex_controller": DesignInfo(
        name="ibex_controller",
        source=ibex_controller.SOURCE,
        targets=ibex_controller.TARGETS,
        description=ibex_controller.DESCRIPTION,
        paper_loc=459,
    ),
}


def design_names() -> list[str]:
    """Names of all registered evaluation designs, Table-I order."""
    return list(REGISTRY)


def load_design(name: str) -> Module:
    """Parse a registered design into a fresh, editable module.

    Every call parses anew, and the module never enters the process-wide
    golden cache.  :class:`~repro.api.VeriBugSession` resolves registry
    names to the shared :func:`golden_module` of their source instead:
    call this function (or ``clone()`` that module) to get a copy you
    may edit.

    Raises:
        KeyError: For unknown design names.
    """
    if name not in REGISTRY:
        raise KeyError(
            f"unknown design {name!r}; available: {', '.join(REGISTRY)}"
        )
    return parse_module(REGISTRY[name].source)


@functools.lru_cache(maxsize=64)
def golden_module(source: str) -> Module:
    """The process-wide golden module of a Verilog source text.

    Parsed once per distinct source text and shared by every session in
    the process (like the vector engine's ``compile()`` cache), so the
    module's design index and compiled program are built once too.  The
    module is immutable by contract: mutants are path copies
    (:func:`~repro.datagen.apply_mutation`), and callers that need to
    edit a design use :func:`load_design` or ``clone()``.
    """
    return parse_module(source)


def design_info(name: str) -> DesignInfo:
    """Metadata for a registered design."""
    return REGISTRY[name]


def design_testbench(name: str, n_cycles: int = 30) -> TestbenchConfig:
    """Recommended random-testbench configuration for a design.

    Applies the design's forced inputs and bit-density biases so that
    rare control events (address matches, DMA completion) actually occur
    under random stimulus.
    """
    info = REGISTRY[name]
    return TestbenchConfig(
        n_cycles=n_cycles, forced=dict(info.forced), biases=dict(info.biases)
    )


__all__ = [
    "DesignInfo",
    "REGISTRY",
    "design_info",
    "design_names",
    "design_testbench",
    "golden_module",
    "load_design",
]
