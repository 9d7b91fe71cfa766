"""The whole-program knowledge-flow and bus-topic graphs.

Built on the :mod:`repro.analysis.callgraph` layer, this module derives
the two dataflow surfaces Kalis's correctness rests on (paper §IV):

- the **knowledge flow**: every knowgget *writer* (``kb.put`` /
  ``kb.put_static``, directly or through a label-forwarding wrapper) and
  every *reader* (``kb.get`` / ``get_knowgget`` / ``with_label`` /
  ``subscribe`` / ``subscribe_labels`` / ``sublabels`` plus
  ``Requirement(label=…)`` declarations);
- the **topic graph**: every ``bus.publish`` site (directly or through a
  topic-forwarding wrapper such as ``ModuleSupervisor._publish``) and
  every ``bus.subscribe`` / ``subscribe_prefix`` site.

Sites hidden behind wrappers are resolved here
(``self._anomaly_entities("ForwardingAnomaly")`` *is* a
``ForwardingAnomaly`` reader), and a light local constant propagation
follows single-assignment locals (``label = f"SharedAlert{i}";
kb.put(label)`` is a ``SharedAlert`` prefix write).

Both graphs export deterministically (:func:`export_json`,
:func:`export_dot`): iteration is sorted everywhere, so two runs over
the same tree produce byte-identical output — CI asserts this.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import (
    StrPattern,
    call_arg,
    pattern_covers,
    patterns_overlap,
    string_pattern,
)
from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    first_arg_name,
    scanned,
)
from repro.analysis.project import Project

#: Enclosing function key -> its single-assignment string locals.
LocalsMemo = Dict[Tuple[str, str], Dict[str, StrPattern]]


@dataclass(frozen=True)
class FlowSite:
    """One writer/reader/publish/subscribe occurrence."""

    pattern: StrPattern
    path: str
    line: int
    module: str
    via: str  # "put", "get", "requirement", "publish", "subscribe", ...
    owner: Optional[str] = None  # enclosing class
    function: Optional[str] = None  # enclosing function qualname
    #: Wrapper qualname when the site was derived through one
    #: (``ModuleSupervisor._publish``), None for direct primitives.
    derived_from: Optional[str] = None
    #: kb reads and requirements: does the call carry a ``default=``
    #: fallback for an absent knowgget?
    has_default: bool = False

    def render(self) -> str:
        kind, value = self.pattern
        if kind == "exact" and value is not None:
            return value
        if kind == "prefix" and value is not None:
            return f"{value}*"
        return "<dynamic>"


@dataclass
class KnowFlow:
    """The derived whole-program knowledge and topic flow."""

    writes: List[FlowSite] = field(default_factory=list)
    reads: List[FlowSite] = field(default_factory=list)
    publishes: List[FlowSite] = field(default_factory=list)
    subscribes: List[FlowSite] = field(default_factory=list)
    #: class name -> its declared Requirement labels.
    requirement_labels: Dict[str, Set[str]] = field(default_factory=dict)
    #: every string constant in the scanned tree -> paths containing it.
    string_constants: Dict[str, Set[str]] = field(default_factory=dict)

    # -- queries ---------------------------------------------------------------

    def written(self, label: str) -> bool:
        """Is a concrete label covered by some write site?"""
        return any(pattern_covers(site.pattern, label) for site in self.writes)

    def read_overlaps(self, pattern: StrPattern) -> bool:
        """Could a write with this pattern ever be read?"""
        for site in self.reads:
            if patterns_overlap(pattern, site.pattern):
                return True
        for labels in self.requirement_labels.values():
            for label in labels:
                if pattern_covers(pattern, label):
                    return True
        return False

    def referenced_elsewhere(self, label: str, own_paths: Set[str]) -> bool:
        """Does the label occur as a string constant outside ``own_paths``?"""
        return bool(self.string_constants.get(label, set()) - own_paths)


def derive_knowflow(project: Project) -> KnowFlow:
    """The knowledge-flow and topic graphs of a project, built once."""
    return project.layer("flow", _build_knowflow)


def _build_knowflow(project: Project) -> KnowFlow:
    graph = CallGraph.of(project)
    flow = KnowFlow()
    for source in project.files:
        if not scanned(source):
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                flow.string_constants.setdefault(node.value, set()).add(
                    source.relpath
                )

    memo: LocalsMemo = {}
    for site in graph.call_sites:
        if scanned(site.source):
            _classify_site(project, graph, memo, site, flow)
    _sort_flow(flow)
    return flow


def _classify_site(
    project: Project,
    graph: CallGraph,
    memo: LocalsMemo,
    site: CallSite,
    flow: KnowFlow,
) -> None:
    chain = site.chain
    method = chain[-1]

    # Requirement(label=…) declarations — knowledge readers by contract.
    if method == "Requirement" or (
        len(chain) >= 2 and list(chain[-2:]) == ["base", "Requirement"]
    ):
        label_node = call_arg(site.node, 0, "label")
        if label_node is None:
            return
        pattern = _pattern_at(project, memo, site, label_node)
        flow.reads.append(
            _site(
                site,
                pattern,
                "requirement",
                has_default=_requirement_default(site.node),
            )
        )
        kind, value = pattern
        if kind == "exact" and value is not None and site.owner_class:
            flow.requirement_labels.setdefault(site.owner_class, set()).add(
                value
            )
        return

    # Skip a wrapper's own internal forwarding call — its *call sites*
    # carry the real label/topic patterns (classifying the body's
    # ``self.bus.publish(topic, …)`` would only add a bogus dynamic site
    # and suppress whole-program liveness checks).
    if site.caller is not None and site.caller.key in graph.wrappers:
        spec = graph.wrappers[site.caller.key]
        forwarded = call_arg(
            site.node,
            0 if graph.primitive_kind(site) else spec.index,
            spec.param,
        )
        if isinstance(forwarded, ast.Name) and forwarded.id == spec.param:
            return

    primitive = graph.primitive_kind(site)
    if primitive is not None:
        role, kind = primitive
        argument = call_arg(site.node, 0, first_arg_name(role, method))
        if argument is None:
            return
        if role == "kb":
            if kind == "write":
                flow.writes.append(
                    _site(
                        site,
                        _pattern_at(project, memo, site, argument),
                        method,
                    )
                )
            else:
                for pattern in _read_patterns(project, memo, site, argument):
                    flow.reads.append(
                        _site(
                            site,
                            pattern,
                            method,
                            has_default=_has_default(site.node),
                        )
                    )
        else:
            pattern = _pattern_at(project, memo, site, argument)
            if method == "subscribe_prefix" and pattern[0] == "exact":
                # A prefix subscription matches a topic family by design.
                pattern = ("prefix", pattern[1])
            if kind == "publish":
                flow.publishes.append(_site(site, pattern, method))
            else:
                flow.subscribes.append(_site(site, pattern, method))
        return

    # Wrapper call: the target forwards one parameter into a primitive.
    spec = graph.wrapper_for(site)
    if spec is None:
        return
    argument = call_arg(site.node, spec.index, spec.param)
    if argument is None:
        return
    pattern = _pattern_at(project, memo, site, argument)
    assert site.target is not None
    derived = f"{site.target.module}.{site.target.qualname}"
    if spec.role == "kb" and spec.kind == "write":
        flow.writes.append(
            _site(site, pattern, spec.method, derived_from=derived)
        )
    elif spec.role == "kb":
        for sub_pattern in _read_patterns(project, memo, site, argument):
            flow.reads.append(
                _site(
                    site,
                    sub_pattern,
                    spec.method,
                    derived_from=derived,
                    has_default=_has_default(site.node),
                )
            )
    elif spec.kind == "publish":
        flow.publishes.append(
            _site(site, pattern, spec.method, derived_from=derived)
        )
    else:
        flow.subscribes.append(
            _site(site, pattern, spec.method, derived_from=derived)
        )


def _site(
    site: CallSite,
    pattern: StrPattern,
    via: str,
    derived_from: Optional[str] = None,
    has_default: bool = False,
) -> FlowSite:
    return FlowSite(
        pattern=pattern,
        path=site.source.relpath,
        line=site.node.lineno,
        module=site.source.module,
        via=via,
        owner=site.owner_class,
        function=site.caller.qualname if site.caller else None,
        derived_from=derived_from,
        has_default=has_default,
    )


def _pattern_at(
    project: Project, memo: LocalsMemo, site: CallSite, node: ast.expr
) -> StrPattern:
    """Classify a string argument, with local constant propagation.

    A name is first looked up among the enclosing function's
    single-assignment locals (``label = f"SharedAlert{i}"``), then among
    module-level constants (imports followed), then — for dotted
    references — through module aliases.
    """
    module = site.source.module
    locals_map = (
        _local_bindings(project, memo, site.caller) if site.caller else {}
    )

    def resolve(name: str) -> Optional[str]:
        bound = locals_map.get(name)
        if bound is not None and bound[0] == "exact":
            return bound[1]
        return project.resolve_str(module, name)

    def resolve_chain(chain: List[str]) -> Optional[str]:
        return project.resolve_str_chain(module, chain)

    if isinstance(node, ast.Name) and node.id in locals_map:
        bound = locals_map[node.id]
        if bound[0] != "exact":
            return bound
    return string_pattern(node, resolve, resolve_chain)


def _local_bindings(
    project: Project, memo: LocalsMemo, caller: FunctionInfo
) -> Dict[str, StrPattern]:
    """Single-assignment local name -> statically-known string pattern."""
    cached = memo.get(caller.key)
    if cached is not None:
        return cached

    def resolve(name: str) -> Optional[str]:
        return project.resolve_str(caller.module, name)

    assigned: Dict[str, int] = {}
    bindings: Dict[str, StrPattern] = {}
    for node in ast.walk(caller.node):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]  # loop variables are never constant
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        if value is None and not targets:
            continue
        for target in targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    assigned[name_node.id] = assigned.get(name_node.id, 0) + 1
                    if value is not None and isinstance(target, ast.Name):
                        bindings[name_node.id] = string_pattern(value, resolve)
                    else:
                        bindings[name_node.id] = ("dynamic", None)
    result = {
        name: pattern
        for name, pattern in bindings.items()
        if assigned.get(name, 0) == 1 and pattern[0] != "dynamic"
    }
    memo[caller.key] = result
    return result


def _read_patterns(
    project: Project, memo: LocalsMemo, site: CallSite, node: ast.expr
) -> List[StrPattern]:
    """Read-side patterns: a str pattern, or each element of a str-tuple."""
    pattern = _pattern_at(project, memo, site, node)
    if pattern[0] != "dynamic":
        return [pattern]
    if isinstance(node, ast.Name):
        as_tuple = project.resolve_str_tuple(site.source.module, node.id)
        if as_tuple is not None:
            return [("exact", value) for value in as_tuple]
    return [pattern]


def _has_default(call: ast.Call) -> bool:
    return any(keyword.arg == "default" for keyword in call.keywords)


def _requirement_default(call: ast.Call) -> bool:
    """Does a ``Requirement(...)`` name a value for an absent knowgget?

    ``default=None`` is the dataclass default (absent fails), so only a
    non-None default makes the requirement tolerant.
    """
    default = call_arg(call, 4, "default")
    return default is not None and not (
        isinstance(default, ast.Constant) and default.value is None
    )


def _sort_flow(flow: KnowFlow) -> None:
    key = lambda s: (s.path, s.line, s.via, s.render())  # noqa: E731
    flow.writes.sort(key=key)
    flow.reads.sort(key=key)
    flow.publishes.sort(key=key)
    flow.subscribes.sort(key=key)


# -- export --------------------------------------------------------------------


def _site_dict(site: FlowSite) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "pattern": site.render(),
        "path": site.path,
        "line": site.line,
        "module": site.module,
        "via": site.via,
    }
    if site.owner:
        payload["owner"] = site.owner
    if site.function:
        payload["function"] = site.function
    if site.derived_from:
        payload["derived_from"] = site.derived_from
    if site.has_default:
        payload["has_default"] = True
    return payload


def _edges(
    producers: List[FlowSite], consumers: List[FlowSite]
) -> List[Dict[str, object]]:
    """Pattern-level edges: each producer pattern with its overlapping
    consumer patterns (and vice versa, so orphans appear on both sides)."""
    names: Set[str] = set()
    for site in producers + consumers:
        if site.pattern[0] != "dynamic":
            names.add(site.render())
    edges = []
    for name in sorted(names):
        pattern: StrPattern = (
            ("prefix", name[:-1]) if name.endswith("*") else ("exact", name)
        )
        edges.append(
            {
                "pattern": name,
                "producers": sorted(
                    {
                        f"{s.module}:{s.line}"
                        for s in producers
                        if patterns_overlap(pattern, s.pattern)
                    }
                ),
                "consumers": sorted(
                    {
                        f"{s.module}:{s.line}"
                        for s in consumers
                        if patterns_overlap(pattern, s.pattern)
                    }
                ),
            }
        )
    return edges


def export_json(flow: KnowFlow) -> str:
    """The full flow as deterministic (byte-stable) JSON."""
    payload = {
        "knowledge": {
            "writes": [_site_dict(s) for s in flow.writes],
            "reads": [_site_dict(s) for s in flow.reads],
            "requirements": {
                owner: sorted(labels)
                for owner, labels in sorted(flow.requirement_labels.items())
            },
            "edges": _edges(flow.writes, flow.reads),
        },
        "topics": {
            "publishes": [_site_dict(s) for s in flow.publishes],
            "subscribes": [_site_dict(s) for s in flow.subscribes],
            "edges": _edges(flow.publishes, flow.subscribes),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_dot(flow: KnowFlow) -> str:
    """Module → label/topic → module edges as deterministic Graphviz DOT."""
    lines = [
        "digraph kalis_flow {",
        "  rankdir=LR;",
        '  node [fontname="monospace"];',
    ]

    def emit(producers, consumers, shape, prefix):
        edges: Set[Tuple[str, str]] = set()
        nodes: Set[str] = set()
        for site in producers:
            if site.pattern[0] == "dynamic":
                continue
            name = f"{prefix}:{site.render()}"
            nodes.add(name)
            edges.add((site.module, name))
        for site in consumers:
            if site.pattern[0] == "dynamic":
                continue
            name = f"{prefix}:{site.render()}"
            nodes.add(name)
            edges.add((name, site.module))
        for name in sorted(nodes):
            lines.append(f'  "{name}" [shape={shape}];')
        for left, right in sorted(edges):
            lines.append(f'  "{left}" -> "{right}";')

    emit(flow.writes, flow.reads, "box", "label")
    emit(flow.publishes, flow.subscribes, "ellipse", "topic")
    lines.append("}")
    return "\n".join(lines) + "\n"
