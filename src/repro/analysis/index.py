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

The same read sites give the combinational *settle order*
(:meth:`DesignIndex.settle_schedule`): the comb processes (continuous
assigns and ``always @*`` blocks) in dependency order, ties kept in
source order, so one pass in that order leaves every comb signal at the
value the simulator's source-order fixpoint loop reaches.  Designs where
one pass cannot reproduce that loop have no settle order: comb
feedback, a signal with two comb drivers, a non-blocking assignment in
a comb block, a comb block reading a signal it assigns later or only
conditionally, a process cycle, or a process that keeps state across
passes (a target not wholly assigned on every path) and could see an
unsettled input in the loop's first pass.

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

import heapq
import weakref
from collections.abc import Sequence
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


@dataclass(frozen=True)
class SettleSchedule:
    """A one-pass combinational schedule (:meth:`DesignIndex.settle_schedule`).

    Attributes:
        order: Comb process numbers in dependency order.  Process ``p``
            is ``module.assigns[p]`` for ``p < len(module.assigns)``,
            else the ``p - len(module.assigns)``-th unclocked always
            block.
        passes: The most passes the source-order fixpoint loop can take
            before nothing changes (it confirms with one more).
    """

    order: tuple[int, ...]
    passes: int


#: A combinational read site: ``(stmt_id, names, targets, assigned,
#: process, settled)``.  ``names`` feed every variable in ``targets``; a
#: name is read across settle passes unless it is in ``assigned``
#: (written unconditionally earlier in the same pass), and reads its
#: in-pass value whole only if it is in ``settled`` (assigned whole,
#: without a bit or part select, unconditionally earlier).  ``stmt_id``
#: is the assignment whose RHS the names are, or None for an
#: ``if``/``case`` guard; ``process`` is the comb process number.
_Site = tuple[
    "int | None", tuple[str, ...], frozenset[str], frozenset[str], int, frozenset[str]
]

#: A comb process: ``(targets, whole, nonblocking)`` -- every variable it
#: writes, those it assigns whole on every path, and whether it makes a
#: non-blocking assignment.
_Process = tuple[frozenset[str], frozenset[str], bool]


#: A memo slot not filled yet (None is a verdict).
_UNSET = object()


class _Dependences:
    """The read-derived facts: VDG adjacency, cones, slices, feedback.

    Shared by reference between an index and every patch that keeps the
    patched statement's reads.
    """

    def __init__(self, reads, writers, decls, outputs, sites, comb_driven, processes):
        self.reads: dict[int, StatementReads] = reads
        self.writers: dict[str, tuple[int, ...]] = writers
        self.decls: frozenset[str] = decls
        self.outputs: tuple[str, ...] = outputs
        self.sites: tuple[_Site, ...] = sites
        self.comb_driven: frozenset[str] = comb_driven
        self.processes: tuple[_Process, ...] = processes
        self._preds: object = _UNSET
        self._settle: object = _UNSET
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
            (site_id, reads.data if site_id == stmt_id else names, *rest)
            for site_id, names, *rest in self.sites
        )
        patched = _Dependences(
            all_reads,
            self.writers,
            self.decls,
            self.outputs,
            sites,
            self.comb_driven,
            self.processes,
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
            for _stmt_id, names, targets, assigned, *_ in self.sites:
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

    def settle_preds(self) -> tuple[frozenset[int], ...] | None:
        """Each comb process's source processes, or None when no order works.

        None on comb feedback, a signal with two comb drivers, a
        non-blocking comb assignment, or a comb block reading a signal it
        assigns later or only conditionally.
        """
        if self._preds is _UNSET:
            self._preds = self._settle_preds()
        return self._preds  # type: ignore[return-value]

    def _settle_preds(self) -> tuple[frozenset[int], ...] | None:
        if self.components():
            return None
        driver: dict[str, int] = {}
        for number, (targets, _whole, nonblocking) in enumerate(self.processes):
            if nonblocking:
                return None
            for name in targets:
                if driver.setdefault(name, number) != number:
                    return None
        preds: list[set[int]] = [set() for _ in self.processes]
        for stmt_id, names, _targets, _assigned, process, settled in self.sites:
            if stmt_id is not None:
                names = names + self.reads[stmt_id].select
            for name in names:
                source = driver.get(name)
                if source == process:
                    if name not in settled:
                        return None
                elif source is not None:
                    preds[process].add(source)
        return tuple(frozenset(sources) for sources in preds)

    def settle(self) -> SettleSchedule | None:
        if self._settle is _UNSET:
            preds = self.settle_preds()
            self._settle = None if preds is None else _schedule(self.processes, preds)
        return self._settle  # type: ignore[return-value]


def _schedule(
    processes: tuple[_Process, ...], preds: "list[frozenset[int]] | tuple[frozenset[int], ...]"
) -> SettleSchedule | None:
    """The settle order of ``preds`` and the passes the source-order loop takes.

    None on a process cycle, or when a process that keeps state could
    see an unsettled input in the loop's first pass.
    """
    order = _stable_topological(preds)
    if order is None:
        return None
    # The source-order loop settles process p in the first pass whose
    # run of p comes after its sources' final runs.
    passes = [0] * len(preds)
    for number in order:
        need = max(
            (passes[source] + (source > number) for source in preds[number]),
            default=1,
        )
        targets, whole, _nonblocking = processes[number]
        if need > 1 and not targets <= whole:
            return None
        passes[number] = need
    return SettleSchedule(order, max(passes, default=0))


def _stable_topological(
    preds: "list[frozenset[int]] | tuple[frozenset[int], ...]",
) -> tuple[int, ...] | None:
    """Kahn's order of ``preds`` (node -> its sources), smallest node first.

    None when the graph has a cycle.
    """
    succs: list[list[int]] = [[] for _ in preds]
    waiting = [len(sources) for sources in preds]
    for number, sources in enumerate(preds):
        for source in sources:
            succs[source].append(number)
    ready = [number for number, count in enumerate(waiting) if not count]
    order: list[int] = []
    while ready:
        number = heapq.heappop(ready)
        order.append(number)
        for succ in succs[number]:
            waiting[succ] -= 1
            if not waiting[succ]:
                heapq.heappush(ready, succ)
    return tuple(order) if len(order) == len(preds) else None


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
        statements, reads, sites, comb_driven, processes = _walk_module(module)
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
            tuple(processes),
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

    def settle_schedule(self, variants: Sequence[Statement] = ()) -> SettleSchedule | None:
        """The one-pass comb schedule, or None (see the module docstring).

        With ``variants`` (replacement statements, as for
        :meth:`patched`), the order also settles this design with any one
        of them swapped in: it follows the union of their reads, and
        None unless every variant's design has an order too.  Memoized
        without variants.
        """
        if not variants:
            return self._deps.settle()
        designs = [self._deps, *(self.patched(variant)._deps for variant in variants)]
        preds = [deps.settle_preds() for deps in designs]
        known = [sources for sources in preds if sources is not None]
        if len(known) < len(preds):
            return None
        union = [frozenset[int]().union(*sources) for sources in zip(*known)]
        return _schedule(self._deps.processes, union)

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
    """One walk: statements, reads, comb read sites, comb drivers, processes.

    The read sites follow the simulator's settle semantics: a combinational
    process evaluates in order, so a read of a variable already assigned
    unconditionally earlier in the same pass is not a cross-pass read.
    Processes are numbered in the simulator's comb pass order: continuous
    assigns, then unclocked always blocks.
    """
    entries: list[tuple[Statement, tuple[str, ...]]] = []
    sites: list[_Site] = []
    comb_driven: set[str] = {assign.target.name for assign in module.assigns}
    processes: list[_Process] = []
    nonblocking = False

    def site(stmt_id, names, targets, assigned, settled) -> None:
        sites.append(
            (
                stmt_id,
                tuple(names),
                frozenset(targets),
                frozenset(assigned),
                len(processes),
                frozenset(settled),
            )
        )

    def walk(stmt, control, assigned, settled, comb):
        """Return (variables assigned unconditionally, of them whole, all
        targets) below stmt."""
        nonlocal nonblocking
        if isinstance(stmt, Block):
            newly: set[str] = set()
            whole: set[str] = set()
            targets: set[str] = set()
            for child in stmt.statements:
                child_assigned, child_whole, child_targets = walk(
                    child, control, assigned | newly, settled | whole, comb
                )
                newly |= child_assigned
                whole |= child_whole
                targets |= child_targets
            return newly, whole, targets
        if isinstance(stmt, If):
            guard = collect_identifiers(stmt.cond)
            inner = control + tuple(guard)
            then_assigned, then_whole, targets = walk(
                stmt.then_stmt, inner, assigned, settled, comb
            )
            newly, whole = set(), set()
            if stmt.else_stmt is not None:
                else_assigned, else_whole, else_targets = walk(
                    stmt.else_stmt, inner, assigned, settled, comb
                )
                targets = targets | else_targets
                newly = then_assigned & else_assigned
                whole = then_whole & else_whole
            if comb:
                site(None, guard, targets, assigned, settled)
            return newly, whole, targets
        if isinstance(stmt, Case):
            subject = tuple(collect_identifiers(stmt.subject))
            names = list(subject)
            branches: list[tuple[set[str], set[str]]] = []
            targets = set()
            for item in stmt.items:
                labels: list[str] = []
                for label in item.labels:
                    labels.extend(collect_identifiers(label))
                names.extend(labels)
                item_assigned, item_whole, item_targets = walk(
                    item.body, control + subject + tuple(labels), assigned, settled, comb
                )
                branches.append((item_assigned, item_whole))
                targets |= item_targets
            if comb:
                site(None, names, targets, assigned, settled)
            if branches and any(not item.labels for item in stmt.items):
                return (
                    set.intersection(*(newly for newly, _ in branches)),
                    set.intersection(*(whole for _, whole in branches)),
                    targets,
                )
            return set(), set(), targets
        if isinstance(stmt, Assignment):
            entries.append((stmt, control))
            target = stmt.target.name
            if comb:
                comb_driven.add(target)
                site(stmt.stmt_id, collect_identifiers(stmt.rhs), {target}, assigned, settled)
                nonblocking = nonblocking or not stmt.blocking
            return {target}, _whole_write(stmt), {target}
        return set(), set(), set()

    for assign in module.assigns:
        entries.append((assign, ()))
        site(assign.stmt_id, collect_identifiers(assign.rhs), {assign.target.name}, (), ())
        processes.append(
            (frozenset({assign.target.name}), frozenset(_whole_write(assign)), False)
        )
    for block in module.always_blocks:
        comb = not block.is_clocked
        nonblocking = False
        _assigned, whole, targets = walk(block.body, (), frozenset(), frozenset(), comb)
        if comb:
            processes.append((frozenset(targets), frozenset(whole), nonblocking))

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
    return [stmt for stmt, _ in entries], reads, sites, comb_driven, processes


def _whole_write(stmt: Statement) -> set[str]:
    """The target, when the statement assigns it without a bit or part select."""
    lv = stmt.target
    return {lv.name} if lv.index is None and lv.msb is None else set()


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
