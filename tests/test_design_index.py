"""The frozen design index against the AST-walking analyses it replaced.

The oracles below are the module-walking bodies of the static slice
(VDG construction and cone), the slice contexts, the comb-feedback cycle
check, the dead-code analysis and mutation sampling as they stood before
the index: each walks the AST of the module it is handed, and the
mutants they see are independent path copies that no index knows.  The
index must agree with them on every RVDG design and every enumerated
mutant, on all Table-III cone mutants (the few misuse mutants that close
a combinational cycle included), on comb read graphs that stress the
iterative Tarjan (a ring and a chain deeper than the recursion limit, a
self-loop, disjoint rings), and on the sampled campaign plans.
"""

from __future__ import annotations

import copy
import gc
import pathlib
import random
import weakref

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compute_static_slice, design_index, extract_statement_context
from repro.api import SessionConfig, VeriBugSession
from repro.datagen import (
    RandomVerilogDesignGenerator,
    RVDGConfig,
    apply_mutation,
    creates_combinational_cycle,
    dead_statement_ids,
    enumerate_mutations,
    sample_mutations,
)
from repro.datagen.mutation import (
    _GROUP_OF,
    Mutation,
    _negation_mutations,
    _path_copy,
    _rhs_nodes,
    _similar_names,
    mutate_statement,
)
from repro.designs import REGISTRY, design_info, golden_module, load_design
from repro.lint import oscillating_components
from repro.verilog import format_module, parse_module
from repro.verilog.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    Case,
    Identifier,
    If,
    collect_identifiers,
)
from repro.verilog.printer import statement_source

CHECKPOINT = pathlib.Path(__file__).parent / ".cache" / "model_e30_d20_s1.npz"
TABLE3_PLAN = {"negation": 2, "operation": 2, "misuse": 3}


# ----------------------------------------------------------------------
# Oracles: the AST-walking analyses
# ----------------------------------------------------------------------


def oracle_vdg(module) -> nx.DiGraph:
    graph = nx.DiGraph()
    for name in module.decls:
        graph.add_node(name)

    def edge(src, dst):
        if src in graph and dst in graph:
            graph.add_edge(src, dst)

    def deps(stmt, control):
        for src in collect_identifiers(stmt.rhs):
            edge(src, stmt.target.name)
        for sub in (stmt.target.index, stmt.target.msb, stmt.target.lsb):
            if sub is not None:
                for src in collect_identifiers(sub):
                    edge(src, stmt.target.name)
        for src in control:
            edge(src, stmt.target.name)

    def walk(stmt, control):
        if isinstance(stmt, Block):
            for child in stmt.statements:
                walk(child, control)
        elif isinstance(stmt, If):
            inner = control + collect_identifiers(stmt.cond)
            walk(stmt.then_stmt, inner)
            if stmt.else_stmt is not None:
                walk(stmt.else_stmt, inner)
        elif isinstance(stmt, Case):
            subject = collect_identifiers(stmt.subject)
            for item in stmt.items:
                labels = []
                for label in item.labels:
                    labels.extend(collect_identifiers(label))
                walk(item.body, control + subject + labels)
        elif isinstance(stmt, Assignment):
            deps(stmt, control)

    for assign in module.assigns:
        deps(assign, [])
    for block in module.always_blocks:
        walk(block.body, [])
    return graph


def oracle_cone(vdg, target):
    """Every variable ``target`` reaches against the VDG edges, target included."""
    return {target} | nx.ancestors(vdg, target)


def oracle_slice(module, target):
    dep_vars = oracle_cone(oracle_vdg(module), target)
    stmt_ids = {s.stmt_id for s in module.statements() if s.target.name in dep_vars}
    return dep_vars, stmt_ids


def oracle_contexts(module, target):
    _, stmt_ids = oracle_slice(module, target)
    return {
        s.stmt_id: extract_statement_context(s)
        for s in module.statements()
        if s.stmt_id in stmt_ids
    }


def oracle_comb_feedback(module):
    comb_driven = {a.target.name for a in module.assigns}
    for blk in module.always_blocks:
        if not blk.is_clocked:
            for node in blk.body.walk():
                if isinstance(node, Assignment):
                    comb_driven.add(node.target.name)
    graph = nx.DiGraph()
    cross_edges = set()

    def read_edges(names, targets, assigned):
        for src in names:
            if src not in comb_driven:
                continue
            for dst in targets:
                graph.add_edge(src, dst)
                if src not in assigned:
                    cross_edges.add((src, dst))

    def targets_of(stmt):
        return {n.target.name for n in stmt.walk() if isinstance(n, Assignment)}

    def walk(stmt, assigned):
        if isinstance(stmt, Block):
            newly = set()
            for child in stmt.statements:
                newly |= walk(child, assigned | newly)
            return newly
        if isinstance(stmt, If):
            read_edges(collect_identifiers(stmt.cond), targets_of(stmt), assigned)
            then_assigned = walk(stmt.then_stmt, set(assigned))
            if stmt.else_stmt is not None:
                return then_assigned & walk(stmt.else_stmt, set(assigned))
            return set()
        if isinstance(stmt, Case):
            names = collect_identifiers(stmt.subject)
            for item in stmt.items:
                for label in item.labels:
                    names.extend(collect_identifiers(label))
            read_edges(names, targets_of(stmt), assigned)
            branch_sets = [walk(item.body, set(assigned)) for item in stmt.items]
            if branch_sets and any(not item.labels for item in stmt.items):
                return set.intersection(*branch_sets)
            return set()
        if isinstance(stmt, Assignment):
            read_edges(collect_identifiers(stmt.rhs), {stmt.target.name}, assigned)
            return {stmt.target.name}
        return set()

    for assign in module.assigns:
        read_edges(collect_identifiers(assign.rhs), {assign.target.name}, set())
    for blk in module.always_blocks:
        if not blk.is_clocked:
            walk(blk.body, set())
    return graph, cross_edges


def oracle_components(module):
    graph, cross_edges = oracle_comb_feedback(module)
    component_of, components = {}, []
    for index, component in enumerate(nx.strongly_connected_components(graph)):
        components.append(set(component))
        for node in component:
            component_of[node] = index
    guilty = {
        component_of[src]
        for src, dst in cross_edges
        if component_of.get(src) == component_of.get(dst)
    }
    return sorted(sorted(components[i]) for i in guilty)


def oracle_cycle(module) -> bool:
    return bool(oracle_components(module))


def oracle_dead(module):
    if not module.outputs:
        return set()
    vdg = oracle_vdg(module)
    observable = set()
    for output in module.outputs:
        observable |= oracle_cone(vdg, output)
    return {s.stmt_id for s in module.statements() if s.target.name not in observable}


def oracle_mutant(module, mutation):
    """A path copy of ``module`` with ``mutation`` applied, bound to no index."""
    original = next(s for s in module.statements() if s.stmt_id == mutation.stmt_id)
    statement = mutate_statement(original, mutation)
    mutant = copy.copy(module)
    mutant.assigns = [
        statement if a.stmt_id == statement.stmt_id else a for a in module.assigns
    ]
    mutant.always_blocks = []
    for block in module.always_blocks:
        body = _path_copy(block.body, statement)
        if body is not None:
            block = copy.copy(block)
            block.body = body
        mutant.always_blocks.append(block)
    return mutant


def oracle_enumerate(module, kinds, per_site=2, min_operands=0):
    mutations = []
    for stmt in module.statements():
        nodes = _rhs_nodes(stmt)
        if sum(isinstance(n, Identifier) for n in nodes) < min_operands:
            continue
        source = statement_source(stmt)
        for index, node in enumerate(nodes):
            if "negation" in kinds:
                mutations.extend(_negation_mutations(stmt, index, node, source))
            if "operation" in kinds and isinstance(node, BinaryOp):
                for new_op in _GROUP_OF.get(node.op, ()):
                    if new_op != node.op:
                        mutations.append(
                            Mutation(
                                "operation",
                                stmt.stmt_id,
                                index,
                                f"{source}: {node.op!r} -> {new_op!r}",
                                new_op,
                            )
                        )
            if "misuse" in kinds and isinstance(node, Identifier):
                if node.name not in module.decls:
                    continue
                width = module.decls[node.name].width
                candidates = [
                    c
                    for c in module.decls
                    if c != node.name
                    and c != stmt.target.name
                    and module.decls[c].width == width
                ]
                for candidate in _similar_names(node.name, candidates, per_site):
                    mutations.append(
                        Mutation(
                            "misuse",
                            stmt.stmt_id,
                            index,
                            f"{source}: {node.name} -> {candidate}",
                            candidate,
                        )
                    )
    return mutations


def oracle_sample(module, counts, seed, restrict_to=None, min_operands=0, exclude_dead=False):
    rng = random.Random(seed)
    plan = []
    candidates = oracle_enumerate(module, tuple(counts), min_operands=min_operands)
    if restrict_to is not None:
        candidates = [m for m in candidates if m.stmt_id in restrict_to]
    if exclude_dead:
        dead = oracle_dead(module)
        candidates = [m for m in candidates if m.stmt_id not in dead]
    for kind, count in counts.items():
        pool = [m for m in candidates if m.kind == kind]
        rng.shuffle(pool)
        taken = 0
        for mutation in pool:
            if taken >= count:
                break
            try:
                mutant = oracle_mutant(module, mutation)
            except ValueError:
                continue
            if oracle_cycle(mutant):
                continue
            plan.append(mutation)
            taken += 1
    return plan


# ----------------------------------------------------------------------
# Differential checks
# ----------------------------------------------------------------------


def assert_agrees(indexed, oracle_module, targets) -> None:
    """``indexed`` (index-served) equals the oracles run on ``oracle_module``."""
    index = design_index(indexed)
    for target in targets:
        dep_vars, stmt_ids = oracle_slice(oracle_module, target)
        found = compute_static_slice(indexed, target)
        assert found.dep_vars == dep_vars, target
        assert found.stmt_ids == stmt_ids, target
        want = oracle_contexts(oracle_module, target)
        got = index.contexts(target)
        assert list(got) == list(want), target
        assert got == want, target
    assert creates_combinational_cycle(indexed) == oracle_cycle(oracle_module)
    assert oscillating_components(indexed) == oracle_components(oracle_module)
    assert dead_statement_ids(indexed) == oracle_dead(oracle_module)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_rvdg_designs_and_every_mutant_match_the_oracles(seed):
    golden = RandomVerilogDesignGenerator(
        RVDGConfig(n_inputs=4, n_state=3, n_outputs=2, n_branches=3), seed=seed
    ).generate("d")
    targets = list(golden.decls)
    assert_agrees(golden, golden, targets)
    mutations = enumerate_mutations(golden)
    assert mutations == oracle_enumerate(golden, ("negation", "operation", "misuse"))
    for mutation in mutations:
        assert_agrees(
            apply_mutation(golden, mutation), oracle_mutant(golden, mutation), golden.outputs
        )


#: Signal case labels, signal select indices on both sides, a guard over
#: a partly assigned variable and a continuous assign into the comb block.
PROBE = """
module probe(clk, a, b, s, k, y, z);
    input clk;
    input [1:0] a, b, s, k;
    output reg [1:0] y;
    output z;
    reg [1:0] n, q;
    wire w;
    assign w = n[0] ^ a[1];
    assign z = w & q[s[0]];
    always @(*) begin
        n = a;
        case (s)
            k: y = n | b;
            2'd1: begin y = b; n = q; end
            default: if (w) y = ~n; else y = q & k;
        endcase
    end
    always @(posedge clk) q[k[0]] <= y ^ b;
endmodule
"""


def _corpus_modules():
    from repro.ingest import ingest_directory

    corpus = ingest_directory(pathlib.Path(__file__).parents[1] / "examples" / "corpus")
    return [corpus.module(name) for name in sorted(corpus.names())]


def test_probe_and_corpus_designs_match_the_oracles():
    probe = parse_module(PROBE)
    for golden in [probe, *_corpus_modules()]:
        assert_agrees(golden, golden, list(golden.decls))
    for mutation in enumerate_mutations(probe):
        assert_agrees(
            apply_mutation(probe, mutation), oracle_mutant(probe, mutation), probe.decls
        )


def comb_chain(prefix, length, ring):
    """``length`` chained continuous assigns, closed into a ring if asked."""
    first = f"{prefix}{length - 1} ^ b" if ring else "b"
    lines = [f"    wire {', '.join(f'{prefix}{i}' for i in range(length))};"]
    lines.append(f"    assign {prefix}0 = {first};")
    lines.extend(f"    assign {prefix}{i} = {prefix}{i - 1};" for i in range(1, length))
    return "\n".join(lines)


def comb_design(body, outputs):
    return (
        f"module g(b, {', '.join(outputs)});\n    input b;\n"
        f"    output {', '.join(outputs)};\n{body}\nendmodule\n"
    )


#: Comb read graphs for the iterative Tarjan: ``(source, components)``.
COMB_GRAPHS = {
    # Deeper than the default recursion limit: a recursive walk would fail.
    "ring_3000": (
        comb_design(comb_chain("w", 3000, ring=True) + "\n    assign y = w2999;", ["y"]),
        1,
    ),
    "self_loop": (comb_design("    assign a = a ^ b;", ["a"]), 1),
    "two_rings": (
        comb_design(
            comb_chain("p", 3, ring=True) + "\n" + comb_chain("q", 4, ring=True)
            + "\n    assign y = p2;\n    assign z = q3;",
            ["y", "z"],
        ),
        2,
    ),
    "acyclic_3000": (
        comb_design(comb_chain("w", 3000, ring=False) + "\n    assign y = w2999;", ["y"]),
        0,
    ),
}


@pytest.mark.parametrize("name", list(COMB_GRAPHS))
def test_comb_graph_edge_cases_match_the_oracles(name):
    source, n_components = COMB_GRAPHS[name]
    module = parse_module(source)
    assert_agrees(module, module, module.outputs)
    assert len(design_index(module).comb_components()) == n_components


def _cone_mutants():
    """Every cone mutant of the Table-III targets, with its golden and target."""
    cases = []
    for name in REGISTRY:
        golden = load_design(name)
        for target in design_info(name).targets:
            _, cone = oracle_slice(golden, target)
            for mutation in oracle_enumerate(
                golden, ("negation", "operation", "misuse"), min_operands=2
            ):
                if mutation.stmt_id in cone:
                    cases.append((golden, target, mutation))
    return cases


def test_table3_cone_mutants_match_the_oracles():
    cases = _cone_mutants()
    kinds = [mutation.kind for _, _, mutation in cases]
    assert len(cases) == 503
    assert kinds.count("misuse") == 203
    cycles = 0
    for golden, target, mutation in cases:
        mutant = oracle_mutant(golden, mutation)
        assert_agrees(apply_mutation(golden, mutation), mutant, [target])
        cycles += oracle_cycle(mutant)
    # The misuse mutants that close a combinational loop are in the set.
    assert cycles == 4


def test_patches_share_the_golden_facts_unless_reads_change():
    golden = load_design("usbf_pl")
    index = design_index(golden)
    target = design_info("usbf_pl").targets[0]
    golden_slice = index.static_slice(target)
    golden_contexts = index.contexts(target)
    for golden_, target_, mutation in _cone_mutants():
        if golden_.name != "usbf_pl" or target_ != target:
            continue
        patched = design_index(apply_mutation(golden, mutation))
        contexts = patched.contexts(target)
        for stmt_id, context in contexts.items():
            if stmt_id != mutation.stmt_id and stmt_id in golden_contexts:
                assert context is golden_contexts[stmt_id]
        if mutation.kind != "misuse":
            assert patched.static_slice(target) is golden_slice


@pytest.mark.parametrize("plan_seed", [13, 29, 101])
def test_sample_mutations_plans_match_the_oracle(plan_seed):
    for name in REGISTRY:
        golden = load_design(name)
        for target in design_info(name).targets:
            _, cone = oracle_slice(golden, target)
            want = oracle_sample(
                golden, TABLE3_PLAN, plan_seed, cone, min_operands=2, exclude_dead=True
            )
            for _ in range(2):  # cold, then memoized
                got = sample_mutations(
                    golden,
                    dict(TABLE3_PLAN),
                    seed=plan_seed,
                    restrict_to=cone,
                    min_operands=2,
                    exclude_dead=True,
                )
                assert got == want, (name, target)


def test_indexes_and_patches_die_with_their_modules():
    from repro.analysis import index as index_module

    golden = parse_module(PROBE)
    plan = sample_mutations(golden, {"negation": 2, "operation": 2, "misuse": 2}, seed=1)
    mutants = [apply_mutation(golden, mutation) for mutation in plan]
    for mutant in mutants:
        design_index(mutant).contexts("y")
    refs = [weakref.ref(design_index(golden)), *(weakref.ref(m) for m in mutants)]
    entries = len(index_module._INDEXES)
    del golden, mutant, mutants
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(index_module._INDEXES) <= entries - len(refs)


# ----------------------------------------------------------------------
# The shared golden stays immutable
# ----------------------------------------------------------------------


def _statement_ids(module) -> list[int]:
    return [id(stmt) for stmt in module.statements()]


def test_shared_golden_is_unchanged_by_campaigns_and_localization():
    name = "wb_mux_2"
    target = design_info(name).targets[0]
    golden = golden_module(REGISTRY[name].source)
    text, ids = format_module(golden), _statement_ids(golden)
    plan = {"negation": 1, "operation": 1, "misuse": 2}
    config = SessionConfig().with_campaign_defaults(n_traces=6, min_correct_traces=4)
    localizations = []
    for workers in (0, 2):
        with VeriBugSession.from_checkpoint(CHECKPOINT, config.with_workers(workers)) as session:
            assert session.resolve_design(name) is golden
            handle = session.campaign(name, target, plan=plan, n_cycles=8, seed=29)
            for update in handle.stream():
                if update.localization is not None:
                    localizations.append((session, update))
            if workers == 0:
                # Localize one observable mutant again through the session.
                update = localizations[0][1]
                first = update.localization
                mutant = apply_mutation(golden, update.outcome.mutation)
                static_slice = first.static_slice
                with pytest.raises(AttributeError):
                    static_slice.stmt_ids.add(-1)
                first.contexts.clear()
                simulated = session.localize(mutant, target, [], [])
                assert simulated.static_slice == static_slice
                assert list(simulated.contexts) == sorted(static_slice.stmt_ids)
    assert localizations
    assert format_module(golden) == text
    assert _statement_ids(golden) == ids


def test_load_design_never_enters_the_golden_cache():
    name = "wb_mux_2"
    golden = golden_module(REGISTRY[name].source)
    text = format_module(golden)
    editable = load_design(name)
    assert editable is not golden
    assert load_design(name) is not editable
    editable.statements()[0].rhs = Identifier(name="rst")
    assert format_module(golden) == text
    assert golden_module(REGISTRY[name].source) is golden
    assert VeriBugSession.from_checkpoint(CHECKPOINT).resolve_design(name) is golden
