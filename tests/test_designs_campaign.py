"""Tests for the evaluation-design registry and campaign driver."""

import pytest

from repro.analysis import compute_static_slice, design_index
from repro.datagen import (
    CampaignEngine,
    Mutation,
    sample_mutations,
)
from repro.datagen.mutation import creates_combinational_cycle
from repro.designs import (
    REGISTRY,
    design_info,
    design_names,
    design_testbench,
    load_design,
)
from repro.sim import Simulator, TestbenchConfig, generate_stimulus
from repro.verilog import parse_module


class TestRegistry:
    def test_four_designs(self):
        assert design_names() == [
            "wb_mux_2",
            "usbf_pl",
            "usbf_idma",
            "ibex_controller",
        ]

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_design_parses(self, name):
        module = load_design(name)
        assert module.name == name

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_targets_are_outputs(self, name):
        module = load_design(name)
        for target in design_info(name).targets:
            assert target in module.outputs

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_design_simulates(self, name):
        module = load_design(name)
        stim = generate_stimulus(module, TestbenchConfig(n_cycles=15), seed=2)
        trace = Simulator(module).run(stim)
        assert trace.n_cycles == 15

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_no_combinational_cycle(self, name):
        assert not creates_combinational_cycle(load_design(name))

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_targets_have_nontrivial_cones(self, name):
        index = design_index(load_design(name))
        for target in design_info(name).targets:
            cone = index.cone(target)
            assert len(cone) >= 3, f"{name}:{target} cone too small"

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_targets_toggle_under_random_stimulus(self, name):
        module = load_design(name)
        config = design_testbench(name, n_cycles=40)
        seen: dict[str, set] = {t: set() for t in design_info(name).targets}
        for seed in range(8):
            stim = generate_stimulus(module, config, seed=seed)
            trace = Simulator(module).run(stim, record=False)
            for target in seen:
                seen[target].update(trace.output_series(target))
        for target, values in seen.items():
            assert values == {0, 1}, f"{name}:{target} stuck at {values}"

    def test_unknown_design_raises(self):
        with pytest.raises(KeyError):
            load_design("cpu9000")

    def test_loc_counts_positive(self):
        for name in REGISTRY:
            assert design_info(name).loc > 30


class TestCampaign:
    def test_mini_campaign_on_arbiter(self, localizer, arbiter):
        cone = compute_static_slice(arbiter, "gnt1").stmt_ids
        mutations = sample_mutations(
            arbiter, {"negation": 2, "operation": 2}, seed=1, restrict_to=cone
        )
        campaign = CampaignEngine(
            localizer,
            n_traces=8,
            testbench_config=TestbenchConfig(n_cycles=8),
            seed=3,
        )
        result = campaign.run(arbiter, "gnt1", mutations)
        assert result.injected == len(mutations)
        assert 0 <= result.localized <= result.observable <= result.injected

    def test_campaign_counts_by_kind(self, localizer, arbiter):
        mutations = sample_mutations(arbiter, {"negation": 2}, seed=1)
        campaign = CampaignEngine(
            localizer,
            n_traces=4,
            testbench_config=TestbenchConfig(n_cycles=6),
        )
        result = campaign.run(arbiter, "gnt1", mutations)
        assert result.count_by_kind("negation") == len(mutations)
        assert result.count_by_kind("misuse") == 0

    def test_coverage_zero_when_nothing_observable(self, localizer, arbiter):
        # Mutate gnt2 logic while localizing at gnt1: never observable there.
        gnt2_stmts = {
            s.stmt_id for s in arbiter.statements() if s.target.name == "gnt2"
        }
        mutations = sample_mutations(
            arbiter, {"negation": 2}, seed=0, restrict_to=gnt2_stmts
        )
        campaign = CampaignEngine(
            localizer,
            n_traces=4,
            testbench_config=TestbenchConfig(n_cycles=6),
        )
        result = campaign.run(arbiter, "gnt1", mutations)
        assert result.observable == 0
        assert result.coverage == 0.0

    def test_erroring_mutant_recorded(self, localizer):
        module = parse_module(
            "module t(a, y); input a; output y; wire m, n;"
            " assign m = ~a; assign n = m & a; assign y = n; endmodule"
        )
        # Misuse a -> n in "m = ~a" closes an oscillating loop m -> n -> m.
        bad = Mutation(
            kind="misuse", stmt_id=0, node_index=1, detail="a -> n", replacement="n"
        )
        campaign = CampaignEngine(
            localizer,
            n_traces=2,
            testbench_config=TestbenchConfig(n_cycles=4),
        )
        result = campaign.run(module, "y", [bad])
        assert result.outcomes[0].error
        assert result.injected == 0

    def test_observability_matches_divergence(self, localizer):
        """A mutant that provably flips the output must be observable."""
        module = parse_module(
            "module t(a, b, y); input a, b; output y; assign y = a & b; endmodule"
        )
        mutation = Mutation(
            kind="negation",
            stmt_id=0,
            node_index=1,
            detail="insert ~ before a",
            replacement="insert",
        )
        campaign = CampaignEngine(
            localizer,
            n_traces=6,
            testbench_config=TestbenchConfig(n_cycles=6),
        )
        result = campaign.run(module, "y", [mutation])
        assert result.observable == 1
