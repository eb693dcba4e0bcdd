#!/usr/bin/env python3
"""Bug-injection campaign on a realistic design (paper Table III workflow).

Runs the full mutation campaign against the Wishbone multiplexer through
the session API: `session.campaign(...)` prepares the campaign and its
`stream()` yields each mutant's scored outcome *plus an incremental
campaign heatmap* the moment its localization completes — the long-form
equivalent of `python -m repro campaign --design wb_mux_2`.

With `with_workers(2)` the session owns one persistent worker pool
(started lazily, reused by corpus generation and both targets' campaigns,
released by the `with` block) instead of churning a process pool per
run; each worker simulates and localizes its chunk of mutants.

Run:  python examples/bug_injection_campaign.py
"""

from repro.api import SessionConfig, VeriBugSession, design_info
from repro.pipeline import CorpusSpec

DESIGN = "wb_mux_2"


def main() -> None:
    print("== training the localization model (once, reused per target) ==")
    config = (
        SessionConfig()
        .with_seed(1)
        .with_workers(2)
        .with_campaign_defaults(n_traces=12, min_correct_traces=6)
    )
    with VeriBugSession.train(
        config,
        # 20 RVDG designs: the design-level test split holds out whole
        # designs, so ~16 remain for training (the paper-scale corpus).
        CorpusSpec(n_designs=20, n_traces_per_design=4, n_cycles=25),
        evaluate=False,
    ) as session:
        _run_campaigns(session)


def _run_campaigns(session: VeriBugSession) -> None:
    meta = design_info(DESIGN)
    print(f"design: {DESIGN} ({meta.description}, {meta.loc} lines)")
    # The session owns every knob the campaign will use.
    print(f"engine={session.config.sim_engine}"
          f" fast_inference={session.config.fast_inference}")

    for target in meta.targets:
        handle = session.campaign(
            DESIGN,
            target,
            plan={"negation": 3, "operation": 3, "misuse": 4},
            n_cycles=10,
            seed=29,
        )
        print(f"\ntarget {target}: streaming {len(handle)} mutants")
        final = None
        for update in handle.stream():
            outcome, snapshot = update.outcome, update.snapshot
            final = snapshot
            if outcome.error:
                status = f"error: {outcome.error[:40]}"
            elif not outcome.observable:
                status = "not observable at target"
            elif outcome.suspiciousness is not None:
                status = f"rank={outcome.rank} d={outcome.suspiciousness:.3f}"
            else:
                status = f"rank={outcome.rank}"
            top = ",".join(str(s) for s in snapshot.ranking[:3]) or "-"
            print(f"  {outcome.mutation.kind:<10} stmt"
                  f" {outcome.mutation.stmt_id:<3} {status:<28}"
                  f" heatmap-so-far: {top}")
        if final is not None:
            print(f"  injected={final.completed - final.errors}"
                  f" observable={final.observable} localized={final.localized}"
                  f" top-1 coverage={final.coverage * 100:.1f}%")

    stats = session.cache_stats()
    print(f"\ncontext-embedding cache: {stats['hit_rate']:.1%} hit rate"
          f" ({stats['cross_epoch_hit_rate']:.1%} cross-mutant,"
          f" {int(stats['entries'])} entries)")
    runtime = session.runtime_stats()
    if runtime is not None:
        print(f"runtime: one pool of {runtime['pool_size']}"
              f" ({runtime['start_method']}) started"
              f" {runtime['pools_started']}x for"
              f" {runtime['campaigns_served']} campaigns +"
              f" {runtime['corpus_runs']} corpus run(s);"
              f" worker cache hit rate"
              f" {runtime['worker_cache']['hit_rate']:.1%}")


if __name__ == "__main__":
    main()
