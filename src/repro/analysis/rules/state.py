"""KL201–KL205 — checkpoint-safety and shard-isolation rules.

These rules run on the :mod:`repro.analysis.stategraph` whole-program
state inventory.  They are the static gate for a sharded multi-site fleet (DESIGN.md §10) and a
resumable service mode with KB/DataStore/RNG snapshot-restore
(DESIGN.md §9).

- **KL201** — hidden mutable state: a module-level mutable binding that
  some code mutates, or a class-body mutable display shared by every
  instance and mutated in place.  Both live outside any checkpoint root,
  so a snapshot silently misses them and two shards in one process share
  them.
- **KL202** — non-picklable state reachable from a checkpoint root:
  locks, open file handles, lambdas, generators, weakrefs, live hashlib
  objects.  A class carrying one must define ``__getstate__``/
  ``__setstate__``/``__reduce__`` or a rebuild hook, or the snapshot
  fails (or worse, half-succeeds).
- **KL203** — RNG provenance: every stream must flow from the node seed
  through :mod:`repro.util.rng`.  Direct ``random.*``/``np.random.*``
  use is an ERROR anywhere outside ``util.rng``; constructing a
  ``SeededRng``/``HashedStream`` from a numeric literal (instead of a
  derived seed) is a WARNING.  The injectable-default idiom
  ``rng if rng is not None else SeededRng(0, "label")`` is exempt — the
  literal branch is the documented test-only fallback.
- **KL204** — stale-after-restore caches: a derived field (spatial grid,
  timestamp ring, bound counters) mutated in place with no rebuild/
  invalidate hook referencing it.  A restore would resurrect the stale
  cache alongside fresh primary state.
- **KL205** — cross-shard aliasing: one mutable local passed into two or
  more shard-root constructors (``Simulator``/``KalisNode`` and
  subclasses), or a mutable default parameter value on a reachable
  class's method (shared across all instances and calls).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import attribute_chain
from repro.analysis.callgraph import scanned
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, SourceFile
from repro.analysis.stategraph import (
    DERIVED,
    MUTABLE_FACTORY_NAMES,
    RNG_CONSTRUCTORS,
    StateGraph,
    _is_mutable_literal,
    derive_stategraph,
)

#: The one module allowed to touch raw randomness primitives.
RNG_HOME_MODULE = "repro.util.rng"

#: A call whose resolved target is one of these modules, or lies under
#: one, is a raw-randomness use.
RAW_RNG_MODULES = frozenset({"random", "numpy.random"})


@register_rule
class HiddenMutableStateRule(Rule):
    """KL201: no mutable state outside the checkpoint inventory."""

    ID = "KL201"
    TITLE = "state: hidden module/class-level mutable state"

    def check(self, project: Project) -> Iterable[Finding]:
        state = derive_stategraph(project)
        for entry in state.module_globals:
            if not entry.mutated_lines:
                continue
            yield self.finding(
                Severity.WARNING,
                entry.path,
                entry.line,
                f"module-level mutable {entry.name!r} is mutated at line"
                f" {entry.mutated_lines[0]} — this state lives outside every"
                " checkpoint root and is shared across shards in one process",
                key=entry.name,
            )
        for key in sorted(state.classes):
            class_state = state.classes[key]
            for name in sorted(class_state.fields):
                field = class_state.fields[name]
                if (
                    field.class_level
                    and field.mutable_literal
                    and field.mutated_lines
                ):
                    yield self.finding(
                        Severity.WARNING,
                        class_state.path,
                        field.line,
                        f"class-level mutable {class_state.name}.{name} is"
                        " mutated in place — it is shared by every instance"
                        " and invisible to per-instance snapshots",
                        key=f"{class_state.name}.{name}",
                    )


@register_rule
class NonPicklableStateRule(Rule):
    """KL202: checkpoint-reachable state must survive pickling."""

    ID = "KL202"
    TITLE = "state: non-picklable state reachable from a checkpoint root"

    def check(self, project: Project) -> Iterable[Finding]:
        state = derive_stategraph(project)
        for class_state in state.reachable_classes():
            if class_state.has_pickle_hook():
                continue
            for name in sorted(class_state.fields):
                field = class_state.fields[name]
                if field.non_picklable is None:
                    continue
                roots = ", ".join(sorted(class_state.roots))
                yield self.finding(
                    Severity.ERROR,
                    class_state.path,
                    field.line,
                    f"{class_state.name}.{name} holds a non-picklable value"
                    f" ({field.non_picklable}) and is reachable from"
                    f" checkpoint root(s) {roots} without a"
                    " __getstate__/__setstate__/rebuild hook",
                    key=f"{class_state.name}.{name}",
                )


@register_rule
class RngProvenanceRule(Rule):
    """KL203: all randomness flows from the node seed via util.rng."""

    ID = "KL203"
    TITLE = "state: RNG constructed outside util.rng seed derivation"

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            if not scanned(source) or source.module == RNG_HOME_MODULE:
                continue
            exempt_lines = _injectable_default_lines(source.tree)
            for node in ast.walk(source.tree):
                if not isinstance(node, ast.Call):
                    continue
                chain = attribute_chain(node.func)
                if chain is None:
                    continue
                raw = self._raw_rng_chain(project, source, chain)
                if raw is not None:
                    yield self.finding(
                        Severity.ERROR,
                        source.relpath,
                        node.lineno,
                        f"raw randomness {raw} bypasses util.rng seed"
                        " derivation — draws are irreproducible and"
                        " unlabelled (paper's deterministic-replay seam)",
                        key=raw,
                    )
                    continue
                if (
                    chain[-1] in RNG_CONSTRUCTORS
                    and chain[-1] in {"SeededRng", "HashedStream"}
                    and node.args
                    and _is_numeric_literal(node.args[0])
                    and node.lineno not in exempt_lines
                ):
                    yield self.finding(
                        Severity.WARNING,
                        source.relpath,
                        node.lineno,
                        f"{chain[-1]} constructed from a numeric literal —"
                        " the stream is not derived from the node seed, so"
                        " reseeding the experiment will not reseed it",
                        key=chain[-1],
                    )

    @staticmethod
    def _raw_rng_chain(
        project: Project, source: SourceFile, chain: List[str]
    ) -> Optional[str]:
        """The chain as written when the call lands in random/np.random.

        The head resolves through module aliases (``import numpy.random
        as npr``) and imported names (``from random import shuffle``).
        """
        head = chain[0]
        target = project.resolve_module(source.module, head)
        if target is None:
            link = project.imported_names.get((source.module, head))
            target = ".".join(link) if link is not None else head
        resolved = ".".join([target, *chain[1:]])
        if any(
            resolved == module or resolved.startswith(module + ".")
            for module in RAW_RNG_MODULES
        ):
            return ".".join(chain)
        return None


def _is_numeric_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_numeric_literal(node.operand)
    return False


def _injectable_default_lines(tree: ast.AST) -> Set[int]:
    """Lines of RNG calls inside the injectable-default IfExp idiom."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.IfExp):
            continue
        branches = [node.body, node.orelse]
        names = [b for b in branches if isinstance(b, ast.Name)]
        calls = [b for b in branches if isinstance(b, ast.Call)]
        if len(names) == 1 and len(calls) == 1:
            for call in ast.walk(calls[0]):
                if isinstance(call, ast.Call):
                    lines.add(call.lineno)
    return lines


@register_rule
class StaleCacheRule(Rule):
    """KL204: in-place-mutated derived caches need a rebuild hook."""

    ID = "KL204"
    TITLE = "state: derived cache mutated in place without a rebuild hook"

    def check(self, project: Project) -> Iterable[Finding]:
        state = derive_stategraph(project)
        for class_state in state.reachable_classes():
            for name in sorted(class_state.fields):
                field = class_state.fields[name]
                if field.kind != DERIVED or not field.mutated_lines:
                    continue
                if class_state.hook_covers(name):
                    continue
                yield self.finding(
                    Severity.WARNING,
                    class_state.path,
                    field.line or field.mutated_lines[0],
                    f"derived cache {class_state.name}.{name} is mutated in"
                    f" place (line {field.mutated_lines[0]}) but no"
                    " rebuild_derived_state/invalidate hook references it —"
                    " a snapshot-restore would resurrect it stale",
                    key=f"{class_state.name}.{name}",
                )


@register_rule
class CrossShardAliasRule(Rule):
    """KL205: no mutable object shared between two shard roots."""

    ID = "KL205"
    TITLE = "state: mutable object aliased across shard roots"

    #: Keyword names that are deliberately process-wide (observability).
    SHARED_OK_NAMES = frozenset({"telemetry", "clock"})

    def check(self, project: Project) -> Iterable[Finding]:
        state = derive_stategraph(project)
        yield from self._aliased_constructor_args(state)
        yield from self._mutable_default_params(state)

    def _aliased_constructor_args(
        self, state: StateGraph
    ) -> Iterable[Finding]:
        # Group root-constructor calls by enclosing function; a bare name
        # passed to >= 2 of them, bound to a statically-mutable value in
        # that function, is a shared mutable alias.
        by_scope: Dict[
            Tuple[str, Optional[str]], List
        ] = {}
        for call in state.root_calls:
            by_scope.setdefault((call.module, call.function), []).append(call)
        for scope in sorted(by_scope, key=lambda s: (s[0], s[1] or "")):
            calls = by_scope[scope]
            if len(calls) < 2:
                continue
            uses: Dict[str, List] = {}
            for call in calls:
                for keyword, name in call.name_args:
                    if keyword in self.SHARED_OK_NAMES:
                        continue
                    if name in self.SHARED_OK_NAMES:
                        continue
                    uses.setdefault(name, []).append(call)
            module, function = scope
            mutable_locals = self._mutable_locals(state, module, function)
            for name in sorted(uses):
                sites = uses[name]
                if len(sites) < 2:
                    continue
                if name not in mutable_locals:
                    continue
                first = sites[0]
                lines = ", ".join(str(c.line) for c in sites)
                yield self.finding(
                    Severity.ERROR,
                    first.path,
                    first.line,
                    f"mutable {name!r} is passed into {len(sites)} shard-root"
                    f" constructors (lines {lines}) — the shards alias one"
                    " object and cannot be checkpointed or migrated"
                    " independently",
                    key=name,
                )

    def _mutable_locals(
        self, state: StateGraph, module: str, function: Optional[str]
    ) -> Set[str]:
        """Names bound to statically-mutable values in the scope."""
        names: Set[str] = set()
        if function is not None:
            info = state.graph.functions.get((module, function))
            body = info.node if info is not None else None
        else:
            source = state.project.by_module.get(module)
            body = source.tree if source is not None else None
        if body is None:
            return names
        for node in ast.walk(body):
            if isinstance(node, ast.Assign):
                if not self._is_shared_mutable(state, node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_shared_mutable(state: StateGraph, value: ast.expr) -> bool:
        if _is_mutable_literal(value):
            return True
        if isinstance(value, ast.Call):
            chain = attribute_chain(value.func)
            if chain is None:
                return False
            callee = chain[-1]
            if callee in MUTABLE_FACTORY_NAMES:
                return True
            return callee in state.by_name
        return False

    def _mutable_default_params(self, state: StateGraph) -> Iterable[Finding]:
        for key in sorted(state.classes):
            class_state = state.classes[key]
            if not class_state.reachable:
                continue
            info_list = state.graph.classes.get(class_state.name, [])
            for info in info_list:
                if info.module != class_state.module:
                    continue
                for method_name in sorted(info.methods):
                    method = info.methods[method_name]
                    args = method.node.args
                    defaults = list(args.defaults) + list(args.kw_defaults)
                    for default in defaults:
                        if default is None:
                            continue
                        if isinstance(
                            default, (ast.List, ast.Dict, ast.Set)
                        ) or (
                            isinstance(default, ast.Call)
                            and (attribute_chain(default.func) or ["?"])[-1]
                            in MUTABLE_FACTORY_NAMES
                        ):
                            yield self.finding(
                                Severity.ERROR,
                                class_state.path,
                                default.lineno,
                                f"mutable default on"
                                f" {class_state.name}.{method_name} — one"
                                " object is shared by every call and every"
                                " instance across shards",
                                key=f"{class_state.name}.{method_name}",
                            )
