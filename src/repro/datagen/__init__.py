"""Data generation: synthetic designs (RVDG), mutations, campaigns."""

from .campaign import (
    CampaignEngine,
    CampaignResult,
    MutantOutcome,
)
from .mutation import (
    SUBSTITUTION_GROUPS,
    Mutation,
    apply_mutation,
    creates_combinational_cycle,
    dead_statement_ids,
    enumerate_mutations,
    mutant_index,
    sample_mutations,
)
from .rvdg import RandomVerilogDesignGenerator, RVDGConfig, derive_testbench

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "Mutation",
    "MutantOutcome",
    "RVDGConfig",
    "RandomVerilogDesignGenerator",
    "SUBSTITUTION_GROUPS",
    "apply_mutation",
    "creates_combinational_cycle",
    "dead_statement_ids",
    "derive_testbench",
    "enumerate_mutations",
    "mutant_index",
    "sample_mutations",
]
