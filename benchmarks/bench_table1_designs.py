"""Table I — details of the localization test-set modules.

Prints our re-implementation's statistics side by side with the line
counts the paper reports for the original full-featured designs, and
benchmarks the frontend+analysis cost per design.
"""

from repro.analysis import design_index
from repro.designs import REGISTRY, design_info, load_design
from repro.verilog import parse_module


def build_table() -> list[tuple[str, int, int, str]]:
    rows = []
    for name in REGISTRY:
        info = design_info(name)
        module = load_design(name)
        rows.append((name, info.loc, info.paper_loc, info.description))
        assert module.name == name
    return rows


def test_table1_design_details(benchmark):
    rows = benchmark(build_table)
    print()
    print("TABLE I: Details of modules in our localization test set")
    print(f"{'Module Name':<18} {'LoC(ours)':>9} {'LoC(paper)':>10}  Description")
    print("-" * 72)
    for name, ours, paper, description in rows:
        print(f"{name:<18} {ours:>9} {paper:>10}  {description}")


def test_table1_frontend_throughput(benchmark):
    """Parse, index and slice every design, as a campaign does per golden."""
    designs = [(design_info(name).source, load_design(name).outputs) for name in REGISTRY]

    def frontend():
        total_stmts = 0
        for source, outputs in designs:
            module = parse_module(source)
            index = design_index(module)
            for output in outputs:
                index.static_slice(output)
            total_stmts += len(index.statements)
        return total_stmts

    total = benchmark(frontend)
    print(f"\nfrontend+analysis over {len(designs)} designs: {total} statements")
