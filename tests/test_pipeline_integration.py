"""Integration tests: the full train -> inject -> localize story."""

import numpy as np

from repro.analysis import compute_static_slice
from repro.api import SessionConfig, VeriBugSession, generate_corpus
from repro.core import render_heatmap
from repro.datagen import CampaignEngine, sample_mutations
from repro.designs import design_testbench, load_design
from repro.pipeline import CorpusSpec


class TestPipeline:
    def test_corpus_generation_yields_both_labels(self, tiny_samples):
        labels = {s.label for s in tiny_samples}
        assert labels == {0, 1}

    def test_corpus_deterministic(self, tiny_config):
        spec = CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=8)
        a = generate_corpus(spec, seed=3)
        b = generate_corpus(spec, seed=3)
        assert len(a) == len(b)
        assert [s.label for s in a] == [s.label for s in b]

    def test_session_train_metrics(self, tiny_config):
        session = VeriBugSession.train(
            SessionConfig(model=tiny_config).with_seed(2),
            CorpusSpec(n_designs=2, n_traces_per_design=1, n_cycles=8),
        )
        assert session.train_metrics is not None
        assert 0.0 <= session.train_metrics.accuracy <= 1.0
        assert session.test_metrics is not None

    def test_trained_model_beats_chance(self, trained_session, tiny_samples):
        from repro.core import Trainer

        trainer = Trainer(
            trained_session.model, trained_session.encoder, trained_session.config.model
        )
        metrics = trainer.evaluate(tiny_samples)
        assert metrics.accuracy > 0.75


class TestEndToEndCampaign:
    def test_wb_mux_campaign_localizes_something(self, localizer):
        module = load_design("wb_mux_2")
        target = "wbs0_we_o"
        cone = compute_static_slice(module, target).stmt_ids
        mutations = sample_mutations(
            module,
            {"negation": 2, "operation": 2, "misuse": 2},
            seed=11,
            restrict_to=cone,
        )
        campaign = CampaignEngine(
            localizer,
            n_traces=10,
            testbench_config=design_testbench("wb_mux_2", n_cycles=10),
            seed=3,
            min_correct_traces=5,
        )
        result = campaign.run(module, target, mutations)
        assert result.observable >= 1
        assert result.localized >= 1

    def test_heatmap_renders_for_real_bug(self, localizer):
        module = load_design("wb_mux_2")
        target = "wbs0_stb_o"
        cone = compute_static_slice(module, target).stmt_ids
        mutations = sample_mutations(
            module, {"misuse": 3}, seed=1, restrict_to=cone
        )
        campaign = CampaignEngine(
            localizer,
            n_traces=10,
            testbench_config=design_testbench("wb_mux_2", n_cycles=10),
            seed=5,
        )
        result = campaign.run(module, target, mutations)
        observable = [o for o in result.outcomes if o.observable]
        assert observable
        # Re-run localization for one observable mutant to get a heatmap.
        from repro.datagen import apply_mutation
        from repro.sim import Simulator, generate_testbench_suite

        outcome = observable[0]
        mutant = apply_mutation(module, outcome.mutation)
        stimuli = generate_testbench_suite(
            module, 10, design_testbench("wb_mux_2", n_cycles=10), seed=5
        )
        golden_sim, mutant_sim = Simulator(module), Simulator(mutant)
        failing, correct = [], []
        for stim in stimuli:
            golden_trace = golden_sim.run(stim, record=False)
            trace = mutant_sim.run(stim)
            if trace.diverges_from(golden_trace, signals=[target]):
                failing.append(trace)
            elif not trace.diverges_from(golden_trace, signals=module.outputs):
                correct.append(trace)
        if failing:
            result = localizer.localize(
                mutant, target, failing, correct
            )
            text = render_heatmap(
                mutant,
                result.heatmap,
                result.contexts,
                bug_stmt_id=outcome.mutation.stmt_id,
            )
            assert "Heatmap Ht" in text

    def test_transferability_same_model_multiple_designs(self, trained_session):
        """Paper §VI-A: one synthetic-trained model works on all designs."""
        for name in ("wb_mux_2", "ibex_controller"):
            module = load_design(name)
            target = list(module.outputs)[0]
            from repro.analysis import extract_module_contexts
            from repro.core import build_samples
            from repro.sim import Simulator, generate_stimulus

            stim = generate_stimulus(module, design_testbench(name, 10), seed=0)
            trace = Simulator(module).run(stim)
            contexts = extract_module_contexts(module.statements())
            samples = build_samples(contexts, [trace], design=name)
            assert samples
            batch = trained_session.encoder.encode(samples)
            output = trained_session.model(batch)
            sums = np.zeros(batch.n_statements)
            np.add.at(sums, batch.operand_stmt, output.attention.data)
            assert np.allclose(sums, 1.0)
