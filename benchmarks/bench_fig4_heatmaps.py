"""Figure 4 — qualitative heatmaps on the realistic designs.

For each evaluation design, injects one observable bug, localizes it,
and renders the VeriBug heatmap: ``Ft`` operand importances (red scale /
glyphs) against ``Ct`` (blue scale), with the suspiciousness score of
the root-cause statement — the same artifact the paper's Figure 4 shows.
"""

from repro.analysis import compute_static_slice
from repro.core import render_heatmap
from repro.datagen import apply_mutation, sample_mutations
from repro.designs import REGISTRY, design_info, design_testbench, load_design
from repro.sim import Simulator, generate_testbench_suite


def localize_first_observable(session, name: str, target: str, seed: int = 17):
    """Find the first observable mutant for a target and localize it."""
    module = load_design(name)
    cone = compute_static_slice(module, target).stmt_ids
    mutations = sample_mutations(
        module, {"negation": 4, "operation": 4, "misuse": 4}, seed=seed,
        restrict_to=cone,
    )
    config = design_testbench(name, n_cycles=10)
    stimuli = generate_testbench_suite(module, 14, config, seed=seed)
    golden_sim = Simulator(module)
    golden = [golden_sim.run(s, record=False) for s in stimuli]

    for mutation in mutations:
        try:
            mutant = apply_mutation(module, mutation)
            sim = Simulator(mutant)
        except Exception:
            continue
        failing, correct = [], []
        try:
            for stim, golden_trace in zip(stimuli, golden):
                trace = sim.run(stim)
                if trace.diverges_from(golden_trace, signals=[target]):
                    failing.append(trace)
                elif not trace.diverges_from(golden_trace, signals=module.outputs):
                    correct.append(trace)
        except Exception:
            continue
        if failing and correct:
            result = session.localize(mutant, target, failing, correct)
            return mutant, mutation, result
    return None, None, None


def test_fig4_heatmaps(benchmark, paper_serial_session):
    rendered = {}

    def build_all():
        for name in REGISTRY:
            target = design_info(name).targets[0]
            mutant, mutation, result = localize_first_observable(
                paper_serial_session, name, target
            )
            if result is None:
                rendered[name] = "(no observable mutant found with this seed)"
                continue
            suspiciousness = result.heatmap.suspiciousness.get(mutation.stmt_id)
            text = render_heatmap(
                mutant, result.heatmap, result.contexts, bug_stmt_id=mutation.stmt_id
            )
            rendered[name] = (
                f"injected: {mutation.kind} @ stmt {mutation.stmt_id}"
                f" ({mutation.detail})\n"
                f"d(Ft(lbug), Ct(lbug)) = "
                f"{suspiciousness if suspiciousness is not None else 'n/a'}\n"
                + text
            )
        return rendered

    benchmark.pedantic(build_all, rounds=1, iterations=1)
    print()
    print("FIGURE 4: VeriBug qualitative heatmaps on realistic designs")
    for name, text in rendered.items():
        print("=" * 72)
        print(f"Module: {name}")
        print(text)
    assert rendered
