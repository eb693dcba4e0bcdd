"""Bug-injection mutation engine (paper §V "Bug injection").

Implements the paper's three data-centric mutation classes:

* **Negation** — insert a wrong ``~`` in front of an operand, or remove
  an existing one;
* **Variable misuse** — replace an operand identifier with another
  declared signal, preferring syntactically similar names (replicating
  copy-paste errors);
* **Operation substitution** — replace a Boolean/arithmetic operator
  with a different one from the same arity group (e.g. ``|`` -> ``&``).

One bug per mutated design (no masking interplay).  Mutants that would
create a combinational cycle (possible with variable misuse) are rejected
at enumeration time via a conservative static cycle check.

Every question asked of a design here — its statements, dead code, cycle
verdict — is answered by its frozen :class:`~repro.analysis.DesignIndex`.
A mutant's index is the golden one patched with the mutated statement
(:func:`mutant_index`, memoized per golden index and mutation), so a
mutated statement is built once however often its mutant is sampled,
lowered into a target program or localized.
"""

from __future__ import annotations

import copy
import difflib
import functools
from dataclasses import dataclass

from ..analysis.index import DesignIndex, bind_index, design_index
from ..verilog.ast_nodes import (
    Assignment,
    BinaryOp,
    Block,
    Case,
    Identifier,
    If,
    Module,
    Node,
    Statement,
    UnaryOp,
)
from ..verilog.printer import statement_source

#: Operator substitution groups: any operator may be replaced by another
#: member of its group.
SUBSTITUTION_GROUPS: tuple[tuple[str, ...], ...] = (
    ("&", "|", "^"),
    ("&&", "||"),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("<<", ">>"),
)

_GROUP_OF: dict[str, tuple[str, ...]] = {
    op: group for group in SUBSTITUTION_GROUPS for op in group
}


@dataclass(frozen=True)
class Mutation:
    """A single planned mutation.

    Attributes:
        kind: "negation", "misuse", or "operation".
        stmt_id: Statement the mutation applies to.
        node_index: Index of the mutated node in the statement RHS
            pre-order walk (stable across clones).
        detail: Human-readable description of the change.
        replacement: For misuse: the new identifier name.  For operation:
            the new operator.  For negation: "insert" or "remove".
    """

    kind: str
    stmt_id: int
    node_index: int
    detail: str
    replacement: str


def _rhs_nodes(stmt: Statement) -> list[Node]:
    """Pre-order nodes of a statement's RHS (index space for mutations)."""
    return list(stmt.rhs.walk())


@functools.lru_cache(maxsize=8192)
def _name_ratio(name: str, candidate: str) -> float:
    """difflib similarity of two identifiers (pure, so memoized)."""
    return difflib.SequenceMatcher(None, name, candidate).ratio()


def _similar_names(name: str, candidates: list[str], limit: int = 5) -> list[str]:
    """Candidates ordered by syntactic similarity to ``name``."""
    scored = sorted(
        candidates,
        key=lambda c: _name_ratio(name, c),
        reverse=True,
    )
    return scored[:limit]


def enumerate_mutations(
    module: Module,
    kinds: tuple[str, ...] = ("negation", "operation", "misuse"),
    misuse_candidates_per_site: int = 2,
    min_operands: int = 0,
) -> list[Mutation]:
    """Enumerate every applicable mutation site in a design.

    Args:
        module: The golden design.
        kinds: Which mutation classes to enumerate.
        misuse_candidates_per_site: How many similar-name replacements to
            emit per identifier site.
        min_operands: Only mutate statements whose RHS references at
            least this many operand instances.  The paper's campaign
            targets *data-centric* bugs; single-operand statements have
            a degenerate attention vector ([1.0]) that carries no
            localization signal, so data-flow campaigns use
            ``min_operands=2``.

    Returns:
        All mutations, statement order then node order (memoized per
        design index and arguments; a fresh list per call).
    """
    index = design_index(module)
    key = ("mutations", frozenset(kinds), misuse_candidates_per_site, min_operands)
    found = index.memo.get(key)
    if found is None:
        found = index.memo[key] = tuple(
            _enumerate(module, index, kinds, misuse_candidates_per_site, min_operands)
        )
    return list(found)


def _enumerate(
    module: Module,
    index: DesignIndex,
    kinds: tuple[str, ...],
    misuse_candidates_per_site: int,
    min_operands: int,
) -> list[Mutation]:
    mutations: list[Mutation] = []
    signal_names = list(module.decls)
    for stmt in index.statements:
        nodes = _rhs_nodes(stmt)
        n_operands = sum(1 for n in nodes if isinstance(n, Identifier))
        if n_operands < min_operands:
            continue
        source = statement_source(stmt)
        for index, node in enumerate(nodes):
            if "negation" in kinds:
                mutations.extend(_negation_mutations(stmt, index, node, source))
            if "operation" in kinds and isinstance(node, BinaryOp):
                group = _GROUP_OF.get(node.op, ())
                for new_op in group:
                    if new_op != node.op:
                        mutations.append(
                            Mutation(
                                kind="operation",
                                stmt_id=stmt.stmt_id,
                                node_index=index,
                                detail=f"{source}: {node.op!r} -> {new_op!r}",
                                replacement=new_op,
                            )
                        )
            if "misuse" in kinds and isinstance(node, Identifier):
                if node.name not in module.decls:
                    continue  # parameters are not misuse targets
                width = module.decls[node.name].width
                candidates = [
                    c
                    for c in signal_names
                    if c != node.name
                    and c != stmt.target.name
                    and module.decls[c].width == width
                ]
                for candidate in _similar_names(
                    node.name, candidates, misuse_candidates_per_site
                ):
                    mutations.append(
                        Mutation(
                            kind="misuse",
                            stmt_id=stmt.stmt_id,
                            node_index=index,
                            detail=f"{source}: {node.name} -> {candidate}",
                            replacement=candidate,
                        )
                    )
    return mutations


def _negation_mutations(
    stmt: Statement, index: int, node: Node, source: str
) -> list[Mutation]:
    out: list[Mutation] = []
    if isinstance(node, UnaryOp) and node.op == "~":
        out.append(
            Mutation(
                kind="negation",
                stmt_id=stmt.stmt_id,
                node_index=index,
                detail=f"{source}: remove ~ before {type(node.operand).__name__}",
                replacement="remove",
            )
        )
    elif isinstance(node, Identifier):
        out.append(
            Mutation(
                kind="negation",
                stmt_id=stmt.stmt_id,
                node_index=index,
                detail=f"{source}: insert ~ before {node.name}",
                replacement="insert",
            )
        )
    return out


def mutant_index(module: Module, mutation: Mutation) -> DesignIndex:
    """The design index of ``module`` with ``mutation`` applied.

    The golden index patched with the mutated statement
    (:meth:`~repro.analysis.DesignIndex.patched`), memoized per golden
    index and mutation; ``mutant_index(...).statement(mutation.stmt_id)``
    is the one mutated statement of that mutant.

    Raises:
        KeyError: If no statement has the mutation's ``stmt_id``.
        ValueError: If the mutation cannot be applied at its site.
    """
    index = design_index(module)
    found = index.memo.get(mutation)
    if found is None:
        statement = mutate_statement(index.statement(mutation.stmt_id), mutation)
        found = index.memo[mutation] = index.patched(statement)
    return found


def apply_mutation(module: Module, mutation: Mutation) -> Module:
    """Apply a mutation to a path copy of the design.

    The mutated statement comes from :func:`mutant_index`; the copy
    shares every other subtree with ``module``: only the module, its
    statement lists, the enclosing always block and the control
    statements on the way to the mutation site are copied, shallowly.
    The mutant is bound to its patched index, so slicing or localizing
    it never re-analyses the design.  Like any compiled module, a design
    and its mutants must be treated as immutable.

    Returns:
        The mutated module (the input module is never modified).

    Raises:
        KeyError: If no statement has the mutation's ``stmt_id``.
        ValueError: If the mutation cannot be applied at its site.
    """
    patched = mutant_index(module, mutation)
    statement = patched.statement(mutation.stmt_id)
    mutant = copy.copy(module)
    mutant.assigns = list(module.assigns)
    for index, assign in enumerate(module.assigns):
        if assign.stmt_id == mutation.stmt_id:
            mutant.assigns[index] = statement
            bind_index(mutant, patched)
            return mutant
    mutant.always_blocks = list(module.always_blocks)
    for index, block in enumerate(module.always_blocks):
        body = _path_copy(block.body, statement)
        if body is not None:
            block = mutant.always_blocks[index] = copy.copy(block)
            block.body = body
            bind_index(mutant, patched)
            return mutant
    raise KeyError(f"no statement with id {mutation.stmt_id}")


def _path_copy(stmt: Statement, statement: Statement) -> Statement | None:
    """``stmt`` with ``statement`` replacing the one of its id, or None.

    Copies only the control statements between ``stmt`` and the
    replaced statement; their other children stay shared.
    """
    if isinstance(stmt, Assignment):
        return statement if stmt.stmt_id == statement.stmt_id else None
    if isinstance(stmt, Block):
        for index, child in enumerate(stmt.statements):
            found = _path_copy(child, statement)
            if found is not None:
                spine = copy.copy(stmt)
                spine.statements = list(stmt.statements)
                spine.statements[index] = found
                return spine
        return None
    if isinstance(stmt, If):
        for attr in ("then_stmt", "else_stmt"):
            child = getattr(stmt, attr)
            found = None if child is None else _path_copy(child, statement)
            if found is not None:
                spine = copy.copy(stmt)
                setattr(spine, attr, found)
                return spine
        return None
    if isinstance(stmt, Case):
        for index, item in enumerate(stmt.items):
            found = _path_copy(item.body, statement)
            if found is not None:
                item = copy.copy(item)
                item.body = found
                spine = copy.copy(stmt)
                spine.items = list(stmt.items)
                spine.items[index] = item
                return spine
        return None
    return None


def mutate_statement(stmt: Statement, mutation: Mutation) -> Statement:
    """A copy of ``stmt`` with ``mutation`` applied (``stmt`` is untouched).

    This is the whole edit a mutant makes to its design: campaigns hand
    these statements to :func:`repro.sim.compiler.compile_target_program`
    so all of a target's mutants share one compiled program.

    Raises:
        ValueError: If the mutation names another statement or cannot be
            applied at its site.
    """
    if stmt.stmt_id != mutation.stmt_id:
        raise ValueError(
            f"mutation of statement {mutation.stmt_id} applied to {stmt.stmt_id}"
        )
    # Mutations only rewrite the right-hand side: the lvalue is shared.
    stmt = copy.copy(stmt)
    stmt.rhs = stmt.rhs.clone()  # type: ignore[attr-defined]
    nodes = _rhs_nodes(stmt)
    if mutation.node_index >= len(nodes):
        raise ValueError(f"node index {mutation.node_index} out of range")
    target_node = nodes[mutation.node_index]

    if mutation.kind == "negation":
        _apply_negation(stmt, target_node, mutation)
    elif mutation.kind == "operation":
        if not isinstance(target_node, BinaryOp):
            raise ValueError("operation mutation site is not a binary operator")
        target_node.op = mutation.replacement
    elif mutation.kind == "misuse":
        if not isinstance(target_node, Identifier):
            raise ValueError("misuse mutation site is not an identifier")
        target_node.name = mutation.replacement
    else:
        raise ValueError(f"unknown mutation kind {mutation.kind!r}")
    return stmt


def _apply_negation(stmt: Statement, node: Node, mutation: Mutation) -> None:
    if mutation.replacement == "remove":
        if not (isinstance(node, UnaryOp) and node.op == "~"):
            raise ValueError("negation-remove site is not a ~ operator")
        _replace_child(stmt, node, node.operand)
    else:
        if not isinstance(node, Identifier):
            raise ValueError("negation-insert site is not an identifier")
        wrapper = UnaryOp(op="~", operand=node, line=node.line, col=node.col)
        _replace_child(stmt, node, wrapper)


def _replace_child(stmt: Statement, old: Node, new: Node) -> None:
    """Replace ``old`` with ``new`` anywhere in the statement RHS."""
    if stmt.rhs is old:
        stmt.rhs = new
        return
    for parent in stmt.rhs.walk():
        for attr, value in vars(parent).items():
            if value is old:
                setattr(parent, attr, new)
                return
            if isinstance(value, list):
                for i, element in enumerate(value):
                    if element is old:
                        value[i] = new
                        return
    raise ValueError("mutation site not found in statement")


def creates_combinational_cycle(module: Module) -> bool:
    """Check whether a design's combinational logic could oscillate.

    The simulator evaluates combinational processes in order and iterates
    to a fixpoint, so a read is only a *cross-pass* dependence when the
    variable is combinationally driven and has not yet been assigned
    unconditionally earlier in the same pass of the same process (ordered
    blocking-assignment semantics).  A cycle among cross-pass dependences
    means the fixpoint may not exist; we reject such mutants, matching
    real simulators rejecting oscillating netlists.

    The verdict is the design index's
    (:attr:`~repro.analysis.DesignIndex.has_comb_cycle`), over the same
    read sites as the ``cycle.comb`` lint rule: both share one analysis
    by construction.
    """
    return design_index(module).has_comb_cycle


def dead_statement_ids(module: Module) -> frozenset[int]:
    """Statement ids whose target is outside every output's cone.

    The design index's dead-code analysis, which the lint rule
    ``dead.unobservable`` also reads
    (:func:`repro.lint.unobservable_statement_ids`).  A bug injected into
    such a statement can never symptomatize at any output, so campaigns
    skip those sites (``sample_mutations(..., exclude_dead=True)``).
    Empty for designs without outputs.
    """
    return design_index(module).dead_statement_ids


def sample_mutations(
    module: Module,
    counts: dict[str, int],
    seed: int = 0,
    restrict_to: set[int] | None = None,
    min_operands: int = 0,
    exclude_dead: bool = False,
) -> list[Mutation]:
    """Sample a bug-injection campaign plan.

    Args:
        module: The golden design.
        counts: Mutation kind -> number of mutants to draw.
        seed: Sampling seed.
        restrict_to: Optional stmt_id filter; when localizing failures at
            a target output, restricting injection to the target's
            dependency cone mirrors the paper's per-target campaigns.
        min_operands: Forwarded to :func:`enumerate_mutations`; use 2
            for data-centric campaigns (see there).
        exclude_dead: Skip statements outside every output's dependency
            cone (:func:`dead_statement_ids`) — bugs there are
            unobservable.  A no-op when ``restrict_to`` is an output's
            cone, since dead statements are disjoint from it; sampling
            order (and thus the drawn plan) is unchanged in that case.

    Returns:
        The sampled mutations (cycle-inducing misuse mutants excluded).
    """
    import random

    rng = random.Random(seed)
    plan: list[Mutation] = []
    all_mutations = enumerate_mutations(
        module, kinds=tuple(counts), min_operands=min_operands
    )
    if restrict_to is not None:
        all_mutations = [m for m in all_mutations if m.stmt_id in restrict_to]
    if exclude_dead:
        dead = dead_statement_ids(module)
        if dead:
            all_mutations = [m for m in all_mutations if m.stmt_id not in dead]
    golden_cycle = design_index(module).has_comb_cycle
    for kind, count in counts.items():
        pool = [m for m in all_mutations if m.kind == kind]
        rng.shuffle(pool)
        taken = 0
        for mutation in pool:
            if taken >= count:
                break
            if mutation.kind == "misuse":
                # A misuse swaps one read: recheck over the patched reads.
                try:
                    cycle = mutant_index(module, mutation).has_comb_cycle
                except ValueError:
                    continue
            else:
                # Negation and operation mutants read what the golden
                # statement reads, so the golden verdict holds.
                cycle = golden_cycle
            if cycle:
                continue
            plan.append(mutation)
            taken += 1
    return plan
