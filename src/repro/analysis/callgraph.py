"""Symbol resolution and the whole-program call graph.

Per-file AST rules see one call site at a time; whole-program rules
(KL101..KL105, the knowledge-flow graph) need to know *which function a
call lands in* — so a topic constant passed through a wrapper like
``ModuleSupervisor._publish(topic, payload)`` still reaches the real
``bus.publish`` underneath.  This layer derives, from a parsed
:class:`~repro.analysis.project.Project`:

- a **symbol index**: every function and method, every class with its
  (name-resolved) base classes and methods;
- a **call graph**: each call site resolved to its target function
  where that is statically possible — bare names, module aliases
  (``mod.func``), ``self.method`` / ``cls.method`` chains resolved
  through the class hierarchy, and ``ClassName.method``;
- **wrapper detection**: a function that forwards one of its parameters
  into a Knowledge Base write/read or an event-bus publish/subscribe is
  a *wrapper*; its call sites are then knowledge/topic sites themselves
  (``self._anomaly_entities("ForwardingAnomaly")`` reads the
  ``ForwardingAnomaly`` knowgget even though no ``kb.with_label``
  appears at the call site).  Detection runs to a fixed point, so
  wrappers of wrappers resolve too.

Resolution is deliberately name-based (no type inference): ``self.kb``
and ``self.bus`` receiver roles follow spelling conventions, plus the two
defining classes themselves (``KnowledgeBase`` methods called on
``self`` are KB primitives, ``EventBus`` methods called on ``self`` are
bus primitives).

The graph is built once per project (:meth:`CallGraph.of`), and the
flow, state and proc layers built on it share one scope:
:func:`scanned`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutil import attribute_chain, call_arg, call_chain
from repro.analysis.project import Project, SourceFile

#: Packages the whole-program layers never scan: the analyzer itself,
#: and the taxonomy helpers, which build knowledge bases reflectively
#: from the very maps under test.
EXCLUDED_PACKAGES = ("repro.analysis", "repro.taxonomy")

#: Receiver spellings that denote a KnowledgeBase.
KB_RECEIVERS = frozenset({"kb", "_kb"})
#: Receiver suffixes that denote an EventBus.
BUS_RECEIVER_SUFFIXES = ("bus", "_bus")
#: Classes whose ``self.<method>`` calls are primitives of that role.
KB_CLASSES = frozenset({"KnowledgeBase"})
BUS_CLASSES = frozenset({"EventBus"})

#: Primitive method name -> (role, kind).  ``role`` is "kb" or "bus";
#: ``kind`` is what the first (label/topic) argument means.
KB_WRITE_METHODS = frozenset({"put", "put_static"})
KB_READ_METHODS = frozenset(
    {"get", "get_knowgget", "with_label", "subscribe", "subscribe_labels", "sublabels"}
)
#: kb primitives whose label argument is not spelled ``label``.
_KB_LABEL_PARAMS = {"sublabels": "root_label", "subscribe_labels": "labels"}
BUS_PUBLISH_METHODS = frozenset({"publish"})
BUS_SUBSCRIBE_METHODS = frozenset({"subscribe", "subscribe_prefix"})


def scanned(source: SourceFile) -> bool:
    """Do the flow, state and proc layers scan this file?"""
    return not any(source.in_package(pkg) for pkg in EXCLUDED_PACKAGES)


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str  # "name" or "Class.name"
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    source: SourceFile
    class_name: Optional[str] = None
    #: Positional-or-keyword parameter names, ``self``/``cls`` stripped.
    params: Tuple[str, ...] = ()

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ClassInfo:
    """One class definition with name-resolved bases and methods."""

    module: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...]  # last-segment base names
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved-or-not call expression inside a function (or module)."""

    source: SourceFile
    node: ast.Call
    chain: Tuple[str, ...]
    caller: Optional[FunctionInfo]  # None at module/class level
    #: Enclosing class name — set even for class-body calls (e.g. a
    #: ``Requirement(...)`` inside a ``REQUIREMENTS`` assignment).
    owner_class: Optional[str] = None
    #: The statically-resolved callee, when resolution succeeded.
    target: Optional[FunctionInfo] = None


@dataclass(frozen=True)
class WrapperSpec:
    """A function that forwards a parameter into a kb/bus primitive.

    :param role: ``"kb"`` or ``"bus"``.
    :param kind: ``"write"``/``"read"``/``"publish"``/``"subscribe"``.
    :param method: the underlying primitive (``put``, ``with_label``, …)
        — downstream rules distinguish strict reads (``get``) from
        tolerant list-reads (``with_label``).
    :param param: name of the forwarded label/topic parameter.
    :param index: its positional index (``self`` excluded).
    """

    role: str
    kind: str
    method: str
    param: str
    index: int


class CallGraph:
    """The whole-program symbol index and resolved call sites."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        #: class name -> definitions (same name may exist in two modules).
        self.classes: Dict[str, List[ClassInfo]] = {}
        self.call_sites: List[CallSite] = []
        #: function key -> resolved callee keys.
        self.edges: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        #: function key -> wrapper facts derived to a fixed point.
        self.wrappers: Dict[Tuple[str, str], WrapperSpec] = {}

    # -- construction ----------------------------------------------------------

    @classmethod
    def of(cls, project: Project) -> "CallGraph":
        """The project's call graph, built on first use."""
        return project.layer("callgraph", cls.build)

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls(project)
        for source in project.files:
            graph._index_file(source)
        for source in project.files:
            graph._collect_calls(source)
        graph._resolve_targets()
        graph._derive_wrappers()
        return graph

    def _index_file(self, source: SourceFile) -> None:
        for node, class_node in _walk_definitions(source.tree):
            if isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    chain = attribute_chain(base)
                    if chain:
                        bases.append(chain[-1])
                info = ClassInfo(
                    module=source.module,
                    name=node.name,
                    node=node,
                    bases=tuple(bases),
                )
                self.classes.setdefault(node.name, []).append(info)
            else:
                class_name = class_node.name if class_node else None
                qualname = (
                    f"{class_name}.{node.name}" if class_name else node.name
                )
                info = FunctionInfo(
                    module=source.module,
                    qualname=qualname,
                    name=node.name,
                    node=node,
                    source=source,
                    class_name=class_name,
                    params=_param_names(node, method=class_name is not None),
                )
                self.functions[info.key] = info
                if class_name:
                    for class_info in self.classes.get(class_name, ()):
                        if class_info.module == source.module:
                            class_info.methods[node.name] = info

    def _collect_calls(self, source: SourceFile) -> None:
        for call, owner, owner_class in _walk_calls(source.tree, source, self):
            chain = call_chain(call)
            if chain is None:
                continue
            self.call_sites.append(
                CallSite(
                    source=source,
                    node=call,
                    chain=tuple(chain),
                    caller=owner,
                    owner_class=owner_class,
                )
            )

    # -- resolution ------------------------------------------------------------

    def _resolve_targets(self) -> None:
        for site in self.call_sites:
            target = self.resolve_call(site)
            if target is None:
                continue
            site.target = target
            if site.caller is not None:
                self.edges.setdefault(site.caller.key, set()).add(target.key)

    def resolve_call(self, site: CallSite) -> Optional[FunctionInfo]:
        """The function a call lands in, where statically resolvable."""
        chain = site.chain
        module = site.source.module
        if len(chain) == 1:
            return self.resolve_name(module, chain[0])
        if chain[0] in ("self", "cls") and len(chain) == 2:
            if site.caller is None or site.caller.class_name is None:
                return None
            return self.resolve_method(site.caller.class_name, chain[1])
        # ``ClassName.method`` via a locally-known or imported class name.
        if len(chain) == 2 and chain[0] in self.classes:
            return self.resolve_method(chain[0], chain[1])
        # ``alias.func`` / ``pkg.sub.func`` through module aliases.
        target_module = self.project.resolve_module(module, chain[0])
        if target_module is not None:
            for segment in chain[1:-1]:
                candidate = f"{target_module}.{segment}"
                if candidate in self.project.by_module:
                    target_module = candidate
                else:
                    target_module = None
                    break
            if target_module is not None:
                return self.functions.get((target_module, chain[-1]))
        return None

    def resolve_name(self, module: str, name: str) -> Optional[FunctionInfo]:
        """A bare name's function definition (local or imported)."""
        direct = self.functions.get((module, name))
        if direct is not None:
            return direct
        link = self.project.imported_names.get((module, name))
        if link is not None:
            return self.functions.get(link)
        return None

    def resolve_method(
        self, class_name: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Look a method up on a class, walking base classes by name."""
        seen = _seen if _seen is not None else set()
        if class_name in seen:
            return None
        seen.add(class_name)
        for class_info in self.classes.get(class_name, ()):
            found = class_info.methods.get(method)
            if found is not None:
                return found
        for class_info in self.classes.get(class_name, ()):
            for base in class_info.bases:
                found = self.resolve_method(base, method, seen)
                if found is not None:
                    return found
        return None

    # -- receiver classification ----------------------------------------------

    def receiver_role(self, site: CallSite) -> Optional[str]:
        """``"kb"`` / ``"bus"`` when the call's receiver denotes one.

        Follows the receiver spelling conventions (``…kb.put``,
        ``…bus.publish``) and additionally treats ``self.<primitive>``
        inside the defining classes themselves as that role.
        """
        chain = site.chain
        if len(chain) < 2:
            return None
        receiver = chain[-2]
        if receiver in KB_RECEIVERS:
            return "kb"
        if any(
            receiver == suffix or receiver.endswith(suffix)
            for suffix in BUS_RECEIVER_SUFFIXES
        ):
            return "bus"
        if receiver == "self" and site.caller is not None:
            owner = site.caller.class_name
            if owner in KB_CLASSES:
                return "kb"
            if owner in BUS_CLASSES:
                return "bus"
        return None

    def primitive_kind(self, site: CallSite) -> Optional[Tuple[str, str]]:
        """``(role, kind)`` when the site calls a kb/bus primitive."""
        role = self.receiver_role(site)
        if role is None:
            return None
        method = site.chain[-1]
        if role == "kb":
            if method in KB_WRITE_METHODS:
                return ("kb", "write")
            if method in KB_READ_METHODS:
                return ("kb", "read")
        else:
            if method in BUS_PUBLISH_METHODS:
                return ("bus", "publish")
            if method in BUS_SUBSCRIBE_METHODS:
                return ("bus", "subscribe")
        return None

    # -- wrapper derivation -----------------------------------------------------

    def _derive_wrappers(self) -> None:
        """Find label/topic-forwarding wrappers, to a fixed point."""
        by_caller: Dict[Tuple[str, str], List[CallSite]] = {}
        for site in self.call_sites:
            if site.caller is not None:
                by_caller.setdefault(site.caller.key, []).append(site)

        changed = True
        while changed:
            changed = False
            for key, info in self.functions.items():
                if key in self.wrappers or not info.params:
                    continue
                for site in by_caller.get(key, ()):
                    spec = self._forwarding_spec(info, site)
                    if spec is not None:
                        self.wrappers[key] = spec
                        changed = True
                        break

    def _forwarding_spec(
        self, caller: FunctionInfo, site: CallSite
    ) -> Optional[WrapperSpec]:
        """Does this call forward one of ``caller``'s params as a label?"""
        primitive = self.primitive_kind(site)
        if primitive is not None:
            role, kind = primitive
            method = site.chain[-1]
            argument = call_arg(site.node, 0, first_arg_name(role, method))
            return self._param_spec(caller, argument, role, kind, method)
        if site.target is not None and site.target.key in self.wrappers:
            inner = self.wrappers[site.target.key]
            argument = call_arg(site.node, inner.index, inner.param)
            return self._param_spec(
                caller, argument, inner.role, inner.kind, inner.method
            )
        return None

    @staticmethod
    def _param_spec(
        caller: FunctionInfo,
        argument: Optional[ast.expr],
        role: str,
        kind: str,
        method: str,
    ) -> Optional[WrapperSpec]:
        if not isinstance(argument, ast.Name):
            return None
        if argument.id not in caller.params:
            return None
        return WrapperSpec(
            role=role,
            kind=kind,
            method=method,
            param=argument.id,
            index=caller.params.index(argument.id),
        )

    def wrapper_for(self, site: CallSite) -> Optional[WrapperSpec]:
        """The wrapper spec of the site's resolved target, if any."""
        if site.target is None:
            return None
        return self.wrappers.get(site.target.key)


def first_arg_name(role: str, method: str) -> str:
    """Keyword name of the label/topic argument of a primitive."""
    if role == "kb":
        return _KB_LABEL_PARAMS.get(method, "label")
    return "topic" if method == "publish" else "prefix"


def _param_names(node: ast.AST, method: bool) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _walk_definitions(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef]]]:
    """Yield every class and function definition with its owning class.

    Nested functions are attributed to the enclosing class (if any) but
    keep their own def node; functions inside functions are indexed
    under their bare name only when no clash exists.
    """

    def visit(node: ast.AST, owner: Optional[ast.ClassDef]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield child, owner
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                yield from visit(child, owner)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def _walk_calls(
    tree: ast.Module, source: SourceFile, graph: CallGraph
) -> Iterator[Tuple[ast.Call, Optional[FunctionInfo], Optional[str]]]:
    """Yield every call with the FunctionInfo and class containing it."""

    def visit(node: ast.AST, owner: Optional[FunctionInfo], class_name):
        for child in ast.iter_child_nodes(node):
            child_owner = owner
            child_class = class_name
            if isinstance(child, ast.ClassDef):
                child_class = child.name
                child_owner = None
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = (
                    f"{class_name}.{child.name}" if class_name else child.name
                )
                child_owner = graph.functions.get((source.module, qualname))
                if child_owner is not None and child_owner.node is not child:
                    # A nested def shadowing a method name; keep outer owner.
                    child_owner = owner
            if isinstance(child, ast.Call):
                yield child, child_owner, child_class
            yield from visit(child, child_owner, child_class)

    yield from visit(tree, None, None)
