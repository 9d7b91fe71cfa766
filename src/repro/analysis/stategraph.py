"""The whole-program state graph: every class's mutable state, classified.

Kalis's adaptability only scales to a sharded fleet and a resumable
service mode if we know statically *exactly* which mutable state exists,
which object owns it, and whether it can cross a pickle or process
boundary.  Built on the :mod:`repro.analysis.callgraph` symbol index,
this layer derives a **class-field inventory** for every class in the
scanned tree:

- each field classified as **primary** state, **derived** cache (spatial
  grid, timestamp ring, bound counters), **rng** stream, **wall_clock**,
  or **external** handle (telemetry, paths, file handles);
- each field's **origin** — freshly constructed (``new``), injected via
  a parameter (``param`` — a shared reference), the injectable-default
  idiom ``x if x is not None else Ctor(...)`` (``default``), or a
  literal;
- **in-place mutation** sites (``self._stamps.append``,
  ``self._grids[m] = ...``) and **rebuild/invalidate hooks**
  (:data:`REBUILD_HOOK_NAMES`) so restore-safety is checkable;
- statically non-picklable constructions (locks, open files, lambdas,
  generators, weakrefs, hashlib objects);
- **reachability** from the checkpoint roots (:data:`CHECKPOINT_ROOTS`)
  through constructor calls, annotations and subclassing, with the set
  of roots reaching each class (the alias surface);
- module-level mutable globals and where they are mutated (hidden state
  outside any checkpoint).

The KL201–KL205 rules (:mod:`repro.analysis.rules.state`) ride on this
graph, and :func:`export_json` / :func:`export_dot` ship it with fully
sorted iteration so two runs produce byte-identical output — CI asserts
this.  The runtime counterpart lives in :mod:`repro.analysis.census`:
a debug walker over the live object graph of a real scenario run that
asserts this static inventory is a superset of reality.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import attribute_chain
from repro.analysis.callgraph import CallGraph, ClassInfo, FunctionInfo, scanned
from repro.analysis.project import Project, SourceFile

#: Class names whose instances are snapshotted by the checkpoint/restore
#: service mode and the fleet (DESIGN.md §§9–10).  Everything reachable from one
#: of these must be picklable or carry a rebuild hook.
CHECKPOINT_ROOTS = (
    "CollectiveKnowledgeNetwork",
    "DataStore",
    "Deployment",
    "EventBus",
    "KalisNode",
    "KnowledgeBase",
    "ModuleHealth",
    "ModuleManager",
    "ModuleSupervisor",
    "PeerLink",
    "RadioMedium",
    "SimNode",
    "Simulator",
)

#: Field kinds.
PRIMARY = "primary"
DERIVED = "derived"
RNG = "rng"
WALL_CLOCK = "wall_clock"
EXTERNAL = "external"

#: Constructors whose value is an RNG stream.
RNG_CONSTRUCTORS = frozenset(
    {"SeededRng", "HashedStream", "HashedDraws", "Random", "default_rng"}
)
#: Methods returning a derived RNG stream (``rng.substream(...)``).
RNG_METHODS = frozenset({"substream", "sample"})
#: Constructors whose value is a derived cache by definition.
DERIVED_CONSTRUCTORS = frozenset({"SpatialGrid"})
#: Field-name suffixes that mark a derived cache by convention.
DERIVED_NAME_SUFFIXES = (
    "_cache",
    "_caches",
    "_counters",
    "_grids",
    "_stamps",
    "_memo",
    "_pool",
)
#: Constructors whose value is simulated/wall time.
CLOCK_CONSTRUCTORS = frozenset({"Clock", "ManualClock"})
#: Ambient wall-clock call chains (fixture trees; KL001 bans them live).
WALL_CLOCK_CHAINS = frozenset(
    {("time", "time"), ("time", "monotonic"), ("time", "perf_counter")}
)
#: Field names (exact or suffix) that denote an external handle.
EXTERNAL_NAME_HINTS = ("telemetry", "_path")
#: Constructors whose value points outside the process.
EXTERNAL_CONSTRUCTORS = frozenset({"Path", "open"})

#: Constructor names that produce statically non-picklable values.
NON_PICKLABLE_CONSTRUCTORS = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore"}
)
#: Receivers whose constructor calls are non-picklable (``hashlib.sha256()``).
NON_PICKLABLE_RECEIVERS = frozenset({"hashlib", "weakref", "threading"})

#: Method names recognized as restore/rebuild hooks: defining one that
#: touches a derived field registers that field as rebuildable, and any
#: of them counts as a pickle hook for KL202.
REBUILD_HOOK_NAMES = frozenset(
    {
        "rebuild_derived_state",
        "invalidate_caches",
        "__getstate__",
        "__setstate__",
        "__reduce__",
        "__reduce_ex__",
    }
)

#: Receiver method calls that mutate a container in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Calls producing a fresh mutable container.
MUTABLE_FACTORY_NAMES = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)


@dataclass
class FieldInfo:
    """One field of one class, as derived from its assignments."""

    name: str
    kind: str = PRIMARY
    #: "new" | "param" | "default" | "literal" | "unknown"
    origin: str = "unknown"
    line: int = 0
    #: Constructor class name, when the assigned value is a known class.
    value_type: Optional[str] = None
    #: Assigned at class-body level (shared by every instance).
    class_level: bool = False
    #: Class-body value is a mutable display/factory (list/dict/set).
    mutable_literal: bool = False
    mutated_lines: List[int] = field(default_factory=list)
    #: Why the assigned value cannot cross pickle, when detected.
    non_picklable: Optional[str] = None
    #: Does the class assign (or declare) the field, rather than only
    #: mutate one that a base class's initializer made?
    assigned: bool = True


@dataclass
class ClassState:
    """The state inventory of one class definition."""

    module: str
    name: str
    path: str
    line: int
    bases: Tuple[str, ...]
    fields: Dict[str, FieldInfo] = field(default_factory=dict)
    slots: Tuple[str, ...] = ()
    #: Hook name -> self-attributes it references.
    hooks: Dict[str, Set[str]] = field(default_factory=dict)
    #: Class names referenced in annotations (reachability edges).
    annotation_refs: Set[str] = field(default_factory=set)
    reachable: bool = False
    #: Checkpoint roots from which this class is reachable.
    roots: Set[str] = field(default_factory=set)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.name)

    @property
    def qualifier(self) -> str:
        return f"{self.module}.{self.name}"

    def has_pickle_hook(self) -> bool:
        return bool(self.hooks)

    def hook_covers(self, field_name: str) -> bool:
        """Does some rebuild hook reference (rebuild/clear) the field?"""
        return any(field_name in refs for refs in self.hooks.values())


@dataclass
class ModuleGlobal:
    """One module-level mutable binding and where it is mutated."""

    module: str
    path: str
    name: str
    line: int
    mutated_lines: List[int] = field(default_factory=list)


@dataclass
class InjectedAttr:
    """A cross-object attribute assignment (``obj.attr = …``, obj ≠ self).

    Monkey-patch seams — the fault plan wrapping ``module.handle`` — put
    state on *other* objects' instances.  The graph records every such
    site so the runtime census can tell a statically-known injection
    from a genuinely unknown live attribute.
    """

    attr: str
    module: str
    path: str
    line: int


@dataclass
class RootCall:
    """One constructor call of a checkpoint-root class (for aliasing)."""

    class_name: str
    path: str
    module: str
    line: int
    #: Enclosing function qualname, or None at module level.
    function: Optional[str]
    #: Bare-name arguments (positional and keyword), keyword name or None.
    name_args: Tuple[Tuple[Optional[str], str], ...] = ()


@dataclass
class StateGraph:
    """The derived whole-program state inventory."""

    project: Project
    graph: CallGraph
    classes: Dict[Tuple[str, str], ClassState] = field(default_factory=dict)
    #: class name -> definitions (name-based, like the call graph).
    by_name: Dict[str, List[ClassState]] = field(default_factory=dict)
    module_globals: List[ModuleGlobal] = field(default_factory=list)
    #: (defining module, name) -> lines where the global is mutated.
    global_mutations: Dict[Tuple[str, str], List[int]] = field(
        default_factory=dict
    )
    root_calls: List[RootCall] = field(default_factory=list)
    injected_attrs: List[InjectedAttr] = field(default_factory=list)
    #: subclass edges: base name -> subclass names.
    children: Dict[str, Set[str]] = field(default_factory=dict)

    def reachable_classes(self) -> List[ClassState]:
        return [
            self.classes[key]
            for key in sorted(self.classes)
            if self.classes[key].reachable
        ]

    def inventory_index(self) -> Dict[Tuple[str, str], Set[str]]:
        """(module, class name) -> statically-known field names (census)."""
        return {
            state.key: set(state.fields) | set(state.slots)
            for state in self.classes.values()
        }

    def injected_attribute_names(self) -> Set[str]:
        """Attribute names assigned onto foreign objects anywhere."""
        return {entry.attr for entry in self.injected_attrs}


def derive_stategraph(project: Project) -> StateGraph:
    """The whole-program state graph of a project, built once."""
    return project.layer("state", _build_stategraph)


def _build_stategraph(project: Project) -> StateGraph:
    graph = CallGraph.of(project)
    state = StateGraph(project=project, graph=graph)
    for class_infos in graph.classes.values():
        for info in class_infos:
            source = project.by_module.get(info.module)
            if source is None or not scanned(source):
                continue
            class_state = _scan_class(source, info, graph)
            state.classes[class_state.key] = class_state
            state.by_name.setdefault(class_state.name, []).append(class_state)
            for base in class_state.bases:
                state.children.setdefault(base, set()).add(class_state.name)
    for source in project.files:
        if not scanned(source):
            continue
        _scan_module_globals(source, state)
        _record_global_mutations(source, project, state)
        _record_injected_attrs(source, state)
    for entry in state.module_globals:
        entry.mutated_lines = sorted(
            set(state.global_mutations.get((entry.module, entry.name), []))
        )
    _collect_root_calls(state)
    _mark_reachable(state)
    _sort_graph(state)
    _inherit_origins(state)
    return state


# -- class scanning ------------------------------------------------------------


def _scan_class(
    source: SourceFile, info: ClassInfo, graph: CallGraph
) -> ClassState:
    state = ClassState(
        module=info.module,
        name=info.name,
        path=source.relpath,
        line=info.node.lineno,
        bases=info.bases,
    )
    _scan_class_body(state, info.node)
    for method_name, method in sorted(info.methods.items()):
        _scan_method(state, method)
    return state


def _scan_class_body(state: ClassState, node: ast.ClassDef) -> None:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__slots__":
                    state.slots = _string_elements(statement.value)
                    continue
                entry = _classify_value(
                    state, target.id, statement.value, params=frozenset()
                )
                entry.line = statement.lineno
                entry.class_level = True
                entry.mutable_literal = _is_mutable_literal(statement.value)
                _merge_field(state, entry)
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            annotation = statement.annotation
            class_level = "ClassVar" in ast.dump(annotation)
            value = statement.value
            if value is not None:
                entry = _classify_value(
                    state, statement.target.id, value, params=frozenset()
                )
                entry.mutable_literal = _is_mutable_literal(value)
            else:
                entry = FieldInfo(name=statement.target.id, origin="unknown")
            entry.line = statement.lineno
            entry.class_level = class_level
            state.annotation_refs.update(_annotation_names(annotation))
            if entry.kind == PRIMARY:
                entry.kind = _kind_from_name(statement.target.id, entry.kind)
            _merge_field(state, entry)


def _scan_method(state: ClassState, method: FunctionInfo) -> None:
    params = frozenset(method.params)
    locals_map = _single_assignment_locals(method.node)
    hook_refs: Set[str] = set()
    is_hook = method.name in REBUILD_HOOK_NAMES
    for node in ast.walk(method.node):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            value = node.value
            for target in targets:
                attr = _self_attribute(target)
                if attr is not None:
                    if value is not None:
                        entry = _classify_value(
                            state, attr, value, params, locals_map
                        )
                    else:
                        entry = FieldInfo(name=attr)
                    entry.line = node.lineno
                    if isinstance(node, ast.AnnAssign):
                        state.annotation_refs.update(
                            _annotation_names(node.annotation)
                        )
                    _merge_field(state, entry)
                    if is_hook:
                        hook_refs.add(attr)
                    continue
                # self.X[k] = v / self.X[k] += v: in-place mutation.
                mutated = _subscript_attribute(target)
                if mutated is not None:
                    _mark_mutated(state, mutated, node.lineno)
                    if is_hook:
                        hook_refs.add(mutated)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                mutated = _subscript_attribute(target)
                if mutated is not None:
                    _mark_mutated(state, mutated, node.lineno)
                    if is_hook:
                        hook_refs.add(mutated)
        elif isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if (
                chain is not None
                and len(chain) == 3
                and chain[0] == "self"
                and chain[-1] in MUTATING_METHODS
            ):
                _mark_mutated(state, chain[1], node.lineno)
                if is_hook:
                    hook_refs.add(chain[1])
        if is_hook and isinstance(node, ast.Attribute):
            attr_chain = attribute_chain(node)
            if attr_chain and attr_chain[0] == "self" and len(attr_chain) >= 2:
                hook_refs.add(attr_chain[1])
    if is_hook:
        state.hooks[method.name] = hook_refs


def _merge_field(state: ClassState, entry: FieldInfo) -> None:
    existing = state.fields.get(entry.name)
    if existing is None:
        state.fields[entry.name] = entry
        return
    # Keep the most specific classification across assignment sites.
    rank = {PRIMARY: 0, EXTERNAL: 1, WALL_CLOCK: 2, DERIVED: 3, RNG: 4}
    if rank.get(entry.kind, 0) > rank.get(existing.kind, 0):
        existing.kind = entry.kind
    origin_rank = {"unknown": 0, "literal": 1, "param": 2, "new": 3, "default": 4}
    if origin_rank.get(entry.origin, 0) > origin_rank.get(existing.origin, 0):
        existing.origin = entry.origin
    if existing.value_type is None:
        existing.value_type = entry.value_type
    if entry.non_picklable and not existing.non_picklable:
        existing.non_picklable = entry.non_picklable
    existing.class_level = existing.class_level or entry.class_level
    existing.assigned = existing.assigned or entry.assigned
    existing.mutable_literal = existing.mutable_literal or entry.mutable_literal
    if existing.line == 0:
        existing.line = entry.line


def _mark_mutated(state: ClassState, field_name: str, line: int) -> None:
    entry = state.fields.get(field_name)
    if entry is None:
        entry = FieldInfo(name=field_name, line=line, assigned=False)
        entry.kind = _kind_from_name(field_name, PRIMARY)
        state.fields[field_name] = entry
    if line not in entry.mutated_lines:
        entry.mutated_lines.append(line)


def _inherit_origins(state: StateGraph) -> None:
    """A field a class only mutates takes its origin from a base class.

    ``self._last_alert_at.clear()`` in a detection module's
    ``on_deactivate`` mutates the dict ``DetectionModule.__init__``
    assigned, so the subclass lists the base's ``literal`` origin.
    """

    def base_origin(class_state: ClassState, name: str, seen: Set[str]) -> Optional[str]:
        for base in class_state.bases:
            for base_state in state.by_name.get(base, ()):
                if base_state.qualifier in seen:
                    continue
                seen.add(base_state.qualifier)
                entry = base_state.fields.get(name)
                if entry is not None and entry.assigned:
                    return entry.origin
                origin = base_origin(base_state, name, seen)
                if origin is not None:
                    return origin
        return None

    for class_state in state.classes.values():
        for entry in class_state.fields.values():
            if not entry.assigned:
                origin = base_origin(class_state, entry.name, set())
                if origin is not None:
                    entry.origin = origin


# -- value classification ------------------------------------------------------


def _classify_value(
    state: ClassState,
    name: str,
    value: ast.expr,
    params: frozenset,
    locals_map: Optional[Dict[str, ast.expr]] = None,
) -> FieldInfo:
    entry = FieldInfo(name=name)
    resolved = value
    origin = None
    if isinstance(value, ast.IfExp):
        # The injectable-default idiom: ``x if x is not None else Ctor()``.
        branches = [value.body, value.orelse]
        names = [b for b in branches if isinstance(b, ast.Name)]
        others = [b for b in branches if not isinstance(b, ast.Name)]
        if len(names) == 1 and len(others) == 1:
            resolved = others[0]
            origin = "default"
    if isinstance(resolved, ast.Name):
        if locals_map and resolved.id in locals_map:
            resolved = locals_map[resolved.id]
        elif resolved.id in params:
            entry.origin = "param"
    _classify_resolved(state, entry, resolved, params)
    if origin is not None:
        entry.origin = origin
    entry.kind = _kind_from_name(name, entry.kind)
    return entry


def _classify_resolved(
    state: ClassState, entry: FieldInfo, value: ast.expr, params: frozenset
) -> None:
    if isinstance(value, ast.Lambda):
        entry.origin = "new"
        entry.non_picklable = "lambda"
        return
    if isinstance(value, (ast.GeneratorExp,)):
        entry.origin = "new"
        entry.non_picklable = "generator expression"
        return
    if isinstance(value, ast.Constant):
        entry.origin = "literal"
        return
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple)):
        entry.origin = "literal"
        return
    if isinstance(value, ast.Name):
        if value.id in params:
            entry.origin = "param"
        return
    if isinstance(value, ast.Call):
        chain = attribute_chain(value.func)
        if chain is None:
            return
        entry.origin = "new"
        callee = chain[-1]
        receiver = chain[-2] if len(chain) >= 2 else None
        if callee in RNG_CONSTRUCTORS or callee in RNG_METHODS:
            entry.kind = RNG
            entry.value_type = callee if callee in RNG_CONSTRUCTORS else None
        elif callee in DERIVED_CONSTRUCTORS:
            entry.kind = DERIVED
            entry.value_type = callee
        elif callee in CLOCK_CONSTRUCTORS or tuple(chain) in WALL_CLOCK_CHAINS:
            entry.kind = WALL_CLOCK
            entry.value_type = callee if callee in CLOCK_CONSTRUCTORS else None
        elif callee in EXTERNAL_CONSTRUCTORS:
            entry.kind = EXTERNAL
            if callee == "open":
                entry.non_picklable = "open file handle"
        elif callee in NON_PICKLABLE_CONSTRUCTORS or (
            receiver in NON_PICKLABLE_RECEIVERS
        ):
            entry.non_picklable = ".".join(chain)
        elif callee[:1].isupper():
            entry.value_type = callee
        return


def _kind_from_name(name: str, current: str) -> str:
    if current != PRIMARY:
        return current
    if any(name.endswith(suffix) for suffix in DERIVED_NAME_SUFFIXES):
        return DERIVED
    lowered = name.lstrip("_")
    if any(
        lowered == hint.lstrip("_") or name.endswith(hint)
        for hint in EXTERNAL_NAME_HINTS
    ):
        return EXTERNAL
    return current


def _single_assignment_locals(node: ast.AST) -> Dict[str, ast.expr]:
    """Local name -> value expression, for names assigned exactly once."""
    counts: Dict[str, int] = {}
    values: Dict[str, ast.expr] = {}
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 1
                    values[target.id] = child.value
        elif isinstance(child, (ast.AugAssign, ast.For, ast.AsyncFor)):
            target = child.target
            if isinstance(target, ast.Name):
                counts[target.id] = counts.get(target.id, 0) + 2
    return {
        name: value for name, value in values.items() if counts.get(name) == 1
    }


# -- module-level globals ------------------------------------------------------


def _scan_module_globals(source: SourceFile, state: StateGraph) -> None:
    for statement in source.tree.body:
        if isinstance(statement, ast.Assign):
            targets = [
                t for t in statement.targets if isinstance(t, ast.Name)
            ]
            value = statement.value
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            targets = [statement.target]
            value = statement.value
        else:
            continue
        if value is None or not _is_mutable_literal(value):
            continue
        for target in targets:
            if target.id.startswith("__"):
                continue
            state.module_globals.append(
                ModuleGlobal(
                    module=source.module,
                    path=source.relpath,
                    name=target.id,
                    line=statement.lineno,
                )
            )


def _record_global_mutations(
    source: SourceFile, project: Project, state: StateGraph
) -> None:
    """Record mutations of bare module-level names, resolving imports."""

    def origin_of(name: str) -> Tuple[str, str]:
        link = project.imported_names.get((source.module, name))
        if link is not None:
            return link
        return (source.module, name)

    def record(name: str, line: int) -> None:
        state.global_mutations.setdefault(origin_of(name), []).append(line)

    for node in ast.walk(source.tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    record(target.value.id, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    record(target.value.id, node.lineno)
        elif isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if (
                chain is not None
                and len(chain) == 2
                and chain[1] in MUTATING_METHODS
            ):
                record(chain[0], node.lineno)


def _record_injected_attrs(source: SourceFile, state: StateGraph) -> None:
    """Record ``obj.attr = …`` assignments where obj is not self/cls."""
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            receiver = target.value
            if isinstance(receiver, ast.Name) and receiver.id in (
                "self",
                "cls",
            ):
                continue
            state.injected_attrs.append(
                InjectedAttr(
                    attr=target.attr,
                    module=source.module,
                    path=source.relpath,
                    line=node.lineno,
                )
            )


# -- root-call collection (aliasing) -------------------------------------------


def _collect_root_calls(state: StateGraph) -> None:
    root_names = _shard_root_names(state)
    for site in state.graph.call_sites:
        if not scanned(site.source):
            continue
        callee = site.chain[-1]
        if callee not in root_names:
            continue
        name_args: List[Tuple[Optional[str], str]] = []
        for arg in site.node.args:
            if isinstance(arg, ast.Name):
                name_args.append((None, arg.id))
        for keyword in site.node.keywords:
            if keyword.arg is not None and isinstance(keyword.value, ast.Name):
                name_args.append((keyword.arg, keyword.value.id))
        state.root_calls.append(
            RootCall(
                class_name=callee,
                path=site.source.relpath,
                module=site.source.module,
                line=site.node.lineno,
                function=site.caller.qualname if site.caller else None,
                name_args=tuple(name_args),
            )
        )


def _shard_root_names(state: StateGraph) -> Set[str]:
    """Shard roots: Simulator/KalisNode and their subclasses."""
    names: Set[str] = set()
    frontier = ["Simulator", "KalisNode"]
    while frontier:
        name = frontier.pop()
        if name in names:
            continue
        names.add(name)
        frontier.extend(state.children.get(name, ()))
    return names


# -- reachability --------------------------------------------------------------


def _mark_reachable(state: StateGraph) -> None:
    for root in CHECKPOINT_ROOTS:
        frontier = [root]
        seen: Set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for class_state in state.by_name.get(name, ()):
                class_state.reachable = True
                class_state.roots.add(root)
                for entry in class_state.fields.values():
                    if entry.value_type and entry.value_type in state.by_name:
                        frontier.append(entry.value_type)
                for ref in class_state.annotation_refs:
                    if ref in state.by_name:
                        frontier.append(ref)
            frontier.extend(state.children.get(name, ()))


# -- small AST helpers ---------------------------------------------------------


def _self_attribute(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _subscript_attribute(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        return _self_attribute(node.value)
    return None


def _string_elements(node: ast.expr) -> Tuple[str, ...]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(
            element.value
            for element in node.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        )
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return ()


def _annotation_names(node: Optional[ast.expr]) -> Set[str]:
    """Identifiers (and string forward references) inside an annotation."""
    names: Set[str] = set()
    if node is None:
        return names
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            token = child.value.strip().strip('"')
            if token.isidentifier():
                names.add(token)
    return names


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        return chain is not None and chain[-1] in MUTABLE_FACTORY_NAMES
    return False


def _sort_graph(state: StateGraph) -> None:
    state.module_globals.sort(key=lambda g: (g.path, g.line, g.name))
    state.root_calls.sort(key=lambda c: (c.path, c.line, c.class_name))
    state.injected_attrs.sort(key=lambda a: (a.path, a.line, a.attr))
    for class_state in state.classes.values():
        for entry in class_state.fields.values():
            entry.mutated_lines.sort()
    for by_name in state.by_name.values():
        by_name.sort(key=lambda c: (c.module, c.line))


# -- export --------------------------------------------------------------------


def _field_dict(entry: FieldInfo) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "kind": entry.kind,
        "origin": entry.origin,
        "line": entry.line,
    }
    if entry.value_type:
        payload["value_type"] = entry.value_type
    if entry.class_level:
        payload["class_level"] = True
    if entry.mutable_literal:
        payload["mutable_literal"] = True
    if entry.mutated_lines:
        payload["mutated_lines"] = list(entry.mutated_lines)
    if entry.non_picklable:
        payload["non_picklable"] = entry.non_picklable
    return payload


def export_json(state: StateGraph) -> str:
    """The full state graph as deterministic (byte-stable) JSON."""
    classes: Dict[str, object] = {}
    for key in sorted(state.classes):
        class_state = state.classes[key]
        classes[class_state.qualifier] = {
            "path": class_state.path,
            "line": class_state.line,
            "bases": sorted(class_state.bases),
            "reachable": class_state.reachable,
            "roots": sorted(class_state.roots),
            "slots": sorted(class_state.slots),
            "rebuild_hooks": {
                hook: sorted(refs)
                for hook, refs in sorted(class_state.hooks.items())
            },
            "fields": {
                name: _field_dict(class_state.fields[name])
                for name in sorted(class_state.fields)
            },
        }
    payload = {
        "roots": sorted(CHECKPOINT_ROOTS),
        "classes": classes,
        "module_state": [
            {
                "module": entry.module,
                "name": entry.name,
                "path": entry.path,
                "line": entry.line,
                "mutated_lines": list(entry.mutated_lines),
            }
            for entry in state.module_globals
        ],
        "injected_attributes": [
            {
                "attr": entry.attr,
                "module": entry.module,
                "path": entry.path,
                "line": entry.line,
            }
            for entry in state.injected_attrs
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_dot(state: StateGraph) -> str:
    """Class-ownership edges as deterministic Graphviz DOT.

    Nodes are reachable classes (checkpoint roots double-octagon);
    edges are field-ownership links labelled with the field name, with
    rng/derived/external fields colored by kind.
    """
    colors = {RNG: "purple", DERIVED: "orange", EXTERNAL: "gray", WALL_CLOCK: "blue"}
    lines = [
        "digraph kalis_state {",
        "  rankdir=LR;",
        '  node [fontname="monospace" shape=box];',
    ]
    nodes: Set[str] = set()
    edges: Set[Tuple[str, str, str, str]] = set()
    for key in sorted(state.classes):
        class_state = state.classes[key]
        if not class_state.reachable:
            continue
        nodes.add(class_state.name)
        for name in sorted(class_state.fields):
            entry = class_state.fields[name]
            if entry.value_type and entry.value_type in state.by_name:
                color = colors.get(entry.kind, "black")
                edges.add((class_state.name, entry.value_type, name, color))
    for name in sorted(nodes):
        shape = "doubleoctagon" if name in CHECKPOINT_ROOTS else "box"
        lines.append(f'  "{name}" [shape={shape}];')
    for left, right, label, color in sorted(edges):
        lines.append(
            f'  "{left}" -> "{right}" [label="{label}" color={color}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
