"""The frozen design index: every static fact of one design, derived once.

A campaign asks the same questions of a golden design for every target
and every mutant: the dependency cone and static slice of a target
(paper §IV-B), the operand contexts of the slice statements, whether the
combinational logic can oscillate, which statements are dead.
:class:`DesignIndex` answers them from one walk of the module: the
statements and their reads, the VDG as plain adjacency (each target's
cone is a BFS over it), the combinational read sites shared by the
``cycle.comb`` lint rule and the mutant cycle rejection, and per-target
memos of cones, slices and contexts.

A mutant differs from its golden design in exactly one statement, so
its index is the golden one patched with that statement
(:meth:`DesignIndex.patched`): a patch that reads what the statement
read (negation and operation mutants) shares every read-derived fact,
and one that does not (variable misuse) recomputes them over the patched
reads, never walking the AST again.  Contexts of untouched statements
are shared either way.

Like a compiled module, an indexed module must not be edited in place.
Slices are frozensets and :meth:`DesignIndex.contexts` returns a fresh
dict, so mutating a result cannot change the next one.  See "Design
index" in ``docs/architecture.md``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from ..verilog.ast_nodes import (
    Assignment,
    Block,
    Case,
    If,
    Module,
    Statement,
    collect_identifiers,
)
from .contexts import StatementContext, extract_module_contexts, extract_statement_context


@dataclass(frozen=True)
class StaticSlice:
    """The statements relevant to one target variable.

    Attributes:
        target: The target (output) variable name.
        dep_vars: ``Dep_t`` — every variable the target depends on.
        stmt_ids: Ids of statements whose LHS is in ``dep_vars``.
    """

    target: str
    dep_vars: frozenset[str]
    stmt_ids: frozenset[int]


@dataclass(frozen=True)
class StatementReads:
    """What one assignment statement reads and writes.

    Attributes:
        target: The assigned variable.
        data: Identifiers of the right-hand side, first-use order.
        select: Identifiers of the lvalue's bit/part-select indices.
        control: Identifiers of every enclosing ``if`` guard, ``case``
            subject and the labels of the statement's own case arm,
            outermost first (duplicates kept).
    """

    target: str
    data: tuple[str, ...]
    select: tuple[str, ...]
    control: tuple[str, ...]


#: A combinational read site: ``(stmt_id, names, targets, assigned)``.
#: ``names`` feed every variable in ``targets``; a name is read across
#: settle passes unless it is in ``assigned`` (written unconditionally
#: earlier in the same pass).  ``stmt_id`` is the assignment whose RHS
#: the names are, or None for an ``if``/``case`` guard.
_Site = tuple["int | None", tuple[str, ...], frozenset[str], frozenset[str]]


class _Dependences:
    """The read-derived facts: VDG adjacency, cones, slices, feedback.

    Shared by reference between an index and every patch that keeps the
    patched statement's reads.
    """

    def __init__(self, reads, writers, decls, outputs, sites, comb_driven):
        self.reads: dict[int, StatementReads] = reads
        self.writers: dict[str, tuple[int, ...]] = writers
        self.decls: frozenset[str] = decls
        self.outputs: tuple[str, ...] = outputs
        self.sites: tuple[_Site, ...] = sites
        self.comb_driven: frozenset[str] = comb_driven
        self._readers: dict[str, frozenset[str]] | None = None
        self._cones: dict[str, frozenset[str]] = {}
        self._slices: dict[str, StaticSlice] = {}
        self._observable: frozenset[str] | None = None
        self._dead: frozenset[int] | None = None
        self._components: list[list[str]] | None = None

    def _readers_of(self, target: str) -> frozenset[str]:
        """Declared variables ``target`` reads, over all its writers."""
        found: set[str] = set()
        for stmt_id in self.writers.get(target, ()):
            reads = self.reads[stmt_id]
            found.update(reads.data, reads.select, reads.control)
        return frozenset(found & self.decls)

    @property
    def readers(self) -> dict[str, frozenset[str]]:
        """The VDG as adjacency: variable -> the variables it depends on."""
        if self._readers is None:
            self._readers = {
                name: self._readers_of(name) for name in self.writers if name in self.decls
            }
        return self._readers

    def patched(self, stmt_id: int, reads: StatementReads) -> "_Dependences":
        """These facts with one statement's reads replaced."""
        all_reads = dict(self.reads)
        all_reads[stmt_id] = reads
        sites = tuple(
            (site_id, reads.data if site_id == stmt_id else names, targets, assigned)
            for site_id, names, targets, assigned in self.sites
        )
        patched = _Dependences(
            all_reads, self.writers, self.decls, self.outputs, sites, self.comb_driven
        )
        if self._readers is not None and reads.target in self.decls:
            patched._readers = dict(self._readers)
            patched._readers[reads.target] = patched._readers_of(reads.target)
        return patched

    def cone(self, target: str) -> frozenset[str]:
        cone = self._cones.get(target)
        if cone is None:
            if target not in self.decls:
                available = ", ".join(sorted(self.decls)) or "(none)"
                raise ValueError(
                    f"unknown dependency-cone target {target!r}: not a design"
                    f" variable of this VDG (available: {available})"
                )
            readers = self.readers
            seen = {target}
            stack = [target]
            while stack:
                for source in readers.get(stack.pop(), ()):
                    if source not in seen:
                        seen.add(source)
                        stack.append(source)
            cone = self._cones[target] = frozenset(seen)
        return cone

    def static_slice(self, target: str) -> StaticSlice:
        found = self._slices.get(target)
        if found is None:
            cone = self.cone(target)
            stmt_ids = frozenset(
                stmt_id for name in cone for stmt_id in self.writers.get(name, ())
            )
            found = self._slices[target] = StaticSlice(target, cone, stmt_ids)
        return found

    @property
    def observable(self) -> frozenset[str]:
        if self._observable is None:
            observable: set[str] = set()
            for output in self.outputs:
                observable |= self.cone(output)
            self._observable = frozenset(observable)
        return self._observable

    @property
    def dead_statement_ids(self) -> frozenset[int]:
        if self._dead is None:
            observable = self.observable
            self._dead = frozenset(
                stmt_id
                for name, stmt_ids in self.writers.items()
                if self.outputs and name not in observable
                for stmt_id in stmt_ids
            )
        return self._dead

    def components(self) -> list[list[str]]:
        if self._components is None:
            graph: dict[str, dict[str, None]] = {}
            cross_edges: set[tuple[str, str]] = set()
            for _stmt_id, names, targets, assigned in self.sites:
                for source in names:
                    if source not in self.comb_driven:
                        continue
                    successors = graph.setdefault(source, {})
                    for target in targets:
                        successors[target] = None
                        if source not in assigned:
                            cross_edges.add((source, target))
            members = _strongly_connected(graph)
            component_of = {node: number for number, group in enumerate(members) for node in group}
            guilty = {
                component_of[source]
                for source, target in cross_edges
                if component_of[source] == component_of[target]
            }
            self._components = sorted(sorted(members[i]) for i in guilty)
        return self._components


def _strongly_connected(graph: dict[str, dict[str, None]]) -> list[list[str]]:
    """Tarjan's strongly connected components of ``graph`` (node -> successors).

    Iterative, so a combinational chain of any length stays within the
    recursion limit.  Every node reached appears in exactly one component.
    """
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in graph:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in order:
                    order[successor] = low[successor] = len(order)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.get(successor, ()))))
                    break
                if successor in on_stack:
                    low[node] = min(low[node], order[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


class DesignIndex:
    """Immutable static facts of one design; see the module docstring.

    Build with :func:`design_index` (one per module object) or derive a
    mutant's with :meth:`patched`; do not construct directly.

    Attributes:
        name: The module name.
        statements: The assignment statements in ``stmt_id`` order.
        memo: Facts other layers derive from this index, under their own
            keys (the mutation engine's enumerations and mutant
            patches); they live and die with the index.
    """

    def __init__(self, module: Module):
        statements, reads, sites, comb_driven = _walk_module(module)
        writers: dict[str, list[int]] = {}
        for stmt in statements:
            writers.setdefault(stmt.target.name, []).append(stmt.stmt_id)
        self.name = module.name
        self.statements: tuple[Statement, ...] = tuple(statements)
        self._by_id = {stmt.stmt_id: stmt for stmt in statements}
        self._deps = _Dependences(
            reads,
            {name: tuple(ids) for name, ids in writers.items()},
            frozenset(module.decls),
            tuple(module.outputs),
            tuple(sites),
            frozenset(comb_driven),
        )
        self._base: DesignIndex | None = None
        self._patch: Statement | None = None
        self._contexts: dict[int, StatementContext] = {}
        self._target_contexts: dict[str, dict[int, StatementContext]] = {}
        self.memo: dict = {}

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def statement(self, stmt_id: int) -> Statement:
        """The assignment statement with ``stmt_id``."""
        try:
            return self._by_id[stmt_id]
        except KeyError:
            raise KeyError(f"no statement with id {stmt_id}") from None

    def reads(self, stmt_id: int) -> StatementReads:
        """What the statement with ``stmt_id`` reads and writes."""
        self.statement(stmt_id)
        return self._deps.reads[stmt_id]

    # ------------------------------------------------------------------
    # Dependences
    # ------------------------------------------------------------------
    def cone(self, target: str) -> frozenset[str]:
        """``Dep_t``: every variable ``target`` depends on, target included.

        A BFS over the VDG adjacency, memoized.  Raises ValueError for
        undeclared targets, naming the available variables.
        """
        return self._deps.cone(target)

    def static_slice(self, target: str) -> StaticSlice:
        """The target's static slice (memoized; frozensets).

        ``dep_vars`` is ``Dep_t``, the target's cone (a BFS over the VDG
        adjacency), target included.  Raises ValueError for undeclared
        targets, naming the available variables.
        """
        return self._deps.static_slice(target)

    @property
    def dead_statement_ids(self) -> frozenset[int]:
        """Statements whose target is outside every output's cone.

        Empty for designs without outputs.
        """
        return self._deps.dead_statement_ids

    @property
    def observable(self) -> frozenset[str]:
        """Union of every output's cone (empty without outputs)."""
        return self._deps.observable

    def comb_components(self) -> list[list[str]]:
        """Signal groups forming oscillation-capable combinational cycles.

        Each group is the sorted signal set of one strongly connected
        component of the combinational read graph that contains a
        cross-pass read (a self-loop included); see
        :mod:`repro.lint.cycles` for the semantics.
        """
        return [list(group) for group in self._deps.components()]

    @property
    def has_comb_cycle(self) -> bool:
        """True when the combinational logic could oscillate."""
        return bool(self._deps.components())

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------
    def contexts(self, target: str) -> dict[int, StatementContext]:
        """Contexts of the target's slice statements, ``stmt_id`` order.

        A fresh dict per call over memoized, shared contexts.
        """
        found = self._target_contexts.get(target)
        if found is None:
            stmt_ids = sorted(self.static_slice(target).stmt_ids)
            found = self._statement_contexts(stmt_ids)
            found = self._target_contexts[target] = {i: found[i] for i in stmt_ids}
        return dict(found)

    def _statement_contexts(self, stmt_ids: list[int]) -> dict[int, StatementContext]:
        """Contexts of ``stmt_ids`` (memoized per statement; any order)."""
        if self._base is not None and self._patch is not None:
            patched = self._patch.stmt_id
            found = self._base._statement_contexts([i for i in stmt_ids if i != patched])
            if patched in stmt_ids:
                context = self._contexts.get(patched)
                if context is None:
                    context = self._contexts[patched] = extract_statement_context(
                        self._patch
                    )
                found[patched] = context
            return found
        missing = [i for i in stmt_ids if i not in self._contexts]
        if missing:
            self._contexts.update(extract_module_contexts([self._by_id[i] for i in missing]))
        return {i: self._contexts[i] for i in stmt_ids}

    # ------------------------------------------------------------------
    # Patches
    # ------------------------------------------------------------------
    def patched(self, statement: Statement) -> "DesignIndex":
        """This design with ``statement`` replacing the one of its id.

        The replacement must keep the statement's target (a mutation
        rewrites only the right-hand side).  Reads, cones, slices and the
        cycle verdict are shared with this index when the replacement
        reads the same identifiers; otherwise they are recomputed over
        the patched reads.  Contexts of untouched statements are shared
        either way.

        Raises:
            KeyError: If no statement has ``statement.stmt_id``.
            ValueError: If the replacement changes the target.
        """
        stmt_id = statement.stmt_id
        original = self.statement(stmt_id)
        if statement.target.name != original.target.name:
            raise ValueError(f"patch of statement {stmt_id} changes its target")
        before = self._deps.reads[stmt_id]
        reads = StatementReads(
            before.target,
            tuple(collect_identifiers(statement.rhs)),
            _select_reads(statement),
            before.control,
        )
        patch = object.__new__(DesignIndex)
        patch.name = self.name
        patch.statements = tuple(
            statement if stmt.stmt_id == stmt_id else stmt for stmt in self.statements
        )
        patch._by_id = {**self._by_id, stmt_id: statement}
        patch._deps = self._deps if reads == before else self._deps.patched(stmt_id, reads)
        patch._base = self
        patch._patch = statement
        patch._contexts = {}
        patch._target_contexts = {}
        patch.memo = {}
        return patch


def _select_reads(stmt: Statement) -> tuple[str, ...]:
    names: list[str] = []
    for sub in (stmt.target.index, stmt.target.msb, stmt.target.lsb):
        if sub is not None:
            names.extend(n for n in collect_identifiers(sub) if n not in names)
    return tuple(names)


def _walk_module(module: Module):
    """One walk: statements, their reads, comb read sites, comb drivers.

    The read sites follow the simulator's settle semantics: a combinational
    process evaluates in order, so a read of a variable already assigned
    unconditionally earlier in the same pass is not a cross-pass read.
    """
    entries: list[tuple[Statement, tuple[str, ...]]] = []
    sites: list[_Site] = []
    comb_driven: set[str] = {assign.target.name for assign in module.assigns}

    def site(stmt_id, names, targets, assigned) -> None:
        sites.append((stmt_id, tuple(names), frozenset(targets), frozenset(assigned)))

    def walk(stmt, control, assigned, comb):
        """Return (variables unconditionally assigned, all targets) below stmt."""
        if isinstance(stmt, Block):
            newly: set[str] = set()
            targets: set[str] = set()
            for child in stmt.statements:
                child_assigned, child_targets = walk(child, control, assigned | newly, comb)
                newly |= child_assigned
                targets |= child_targets
            return newly, targets
        if isinstance(stmt, If):
            guard = collect_identifiers(stmt.cond)
            inner = control + tuple(guard)
            then_assigned, targets = walk(stmt.then_stmt, inner, assigned, comb)
            newly = set()
            if stmt.else_stmt is not None:
                else_assigned, else_targets = walk(stmt.else_stmt, inner, assigned, comb)
                targets = targets | else_targets
                newly = then_assigned & else_assigned
            if comb:
                site(None, guard, targets, assigned)
            return newly, targets
        if isinstance(stmt, Case):
            subject = tuple(collect_identifiers(stmt.subject))
            names = list(subject)
            branches: list[set[str]] = []
            targets = set()
            for item in stmt.items:
                labels: list[str] = []
                for label in item.labels:
                    labels.extend(collect_identifiers(label))
                names.extend(labels)
                item_assigned, item_targets = walk(
                    item.body, control + subject + tuple(labels), assigned, comb
                )
                branches.append(item_assigned)
                targets |= item_targets
            if comb:
                site(None, names, targets, assigned)
            if branches and any(not item.labels for item in stmt.items):
                return set.intersection(*branches), targets
            return set(), targets
        if isinstance(stmt, Assignment):
            entries.append((stmt, control))
            target = stmt.target.name
            if comb:
                comb_driven.add(target)
                site(stmt.stmt_id, collect_identifiers(stmt.rhs), {target}, assigned)
            return {target}, {target}
        return set(), set()

    for assign in module.assigns:
        entries.append((assign, ()))
        site(assign.stmt_id, collect_identifiers(assign.rhs), {assign.target.name}, ())
    for block in module.always_blocks:
        walk(block.body, (), frozenset(), not block.is_clocked)

    entries.sort(key=lambda entry: entry[0].stmt_id)
    reads = {
        stmt.stmt_id: StatementReads(
            stmt.target.name,
            tuple(collect_identifiers(stmt.rhs)),
            _select_reads(stmt),
            control,
        )
        for stmt, control in entries
    }
    return [stmt for stmt, _ in entries], reads, sites, comb_driven


_INDEXES: dict[int, tuple[weakref.ref, DesignIndex]] = {}


def design_index(module: Module) -> DesignIndex:
    """The module's index, built on first use and kept while it lives.

    Keyed by module identity with a weak-reference guard, like the
    compile cache.  A mutant from
    :func:`~repro.datagen.mutation.apply_mutation` is bound to its patched
    golden index (:func:`bind_index`) and never indexed from scratch.
    """
    entry = _INDEXES.get(id(module))
    if entry is not None and entry[0]() is module:
        return entry[1]
    index = DesignIndex(module)
    bind_index(module, index)
    return index


def bind_index(module: Module, index: DesignIndex) -> None:
    """Make ``index`` the index of ``module`` (a mutant's patched index)."""
    key = id(module)
    ref = weakref.ref(module, lambda _ref, _key=key: _INDEXES.pop(_key, None))
    _INDEXES[key] = (ref, index)
