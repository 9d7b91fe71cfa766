"""The whole-program process-boundary graph: every seam a record crosses.

The fleet pipeline (PR 8) and service mode (PR 7) multiplied the places
where state leaves a Python process: pickle payloads inside snapshot
files, NDJSON batch streams, a bounded multiprocessing queue, forked
worker entrypoints, ``os._exit`` kill paths and signal handlers.  Each
of those seams carries a hand-maintained wire contract (ckpt
``SCHEMA_VERSION``, obs export ``FORMAT_VERSION``, siem batch schema),
and until now only runtime tests guarded them.  Built on the
:mod:`repro.analysis.callgraph` symbol index, this layer derives:

- every **serialization site** (``pickle``/``json`` dumps/loads,
  ``gzip.open``) with its enclosing function and direction;
- every **boundary crossing**: fork spawns (``Process(target=…)`` with
  the target resolved to its definition), ``get_context`` method
  choices, bounded-queue puts/gets, ``os._exit`` sites, and
  ``signal.signal`` registrations with the handler resolved;
- every **wire schema**: per-module groups keyed on a ``*_VERSION``
  constant, with *writers* (functions emitting a dict whose keys
  include the ``v``/``version`` field — dict literals and
  ``header["k"] = …`` subscript builds both count) and *readers*
  (``read_*``/``load``/``validate_*``/``parse_*`` functions, with the
  string keys they consume via ``x["k"]``, ``x.get("k")``, ``"k" in x``
  and the ``for f in ("a", "b"): if f not in rec`` idiom), plus a
  stable digest of the emitted field set;
- every **dedup/sort key spec** (``*_dedup_key``/``*_sort_key``
  function pairs and the record fields their tuples read) — the
  exactly-once contract's static shadow;
- two name-based closures: the **validating** functions (anything that
  transitively reaches a schema reader or ``validate*``) and the
  **durable** functions (anything that transitively reaches a
  ``flush``/``save``/``checkpoint``/``snapshot``/``fsync``).

The KL301–KL306 rules (:mod:`repro.analysis.rules.boundaries`) ride on
this graph, and :func:`export_json` / :func:`export_dot` ship it with
fully sorted iteration so two runs produce byte-identical output — CI
asserts this, mirroring the flow and state views.  The runtime
counterpart lives in the fleet smoke cross-check test: a real fleet
run's observed file/queue crossings must be a subset of this static
inventory (the PR-6 census pattern).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.astutil import keyword_arg
from repro.analysis.callgraph import CallGraph, FunctionInfo, scanned
from repro.analysis.project import Project

#: ``(module, callee) -> (format, direction)`` for serializer calls.
SERIALIZER_CALLS = {
    ("pickle", "dumps"): ("pickle", "write"),
    ("pickle", "dump"): ("pickle", "write"),
    ("pickle", "loads"): ("pickle", "read"),
    ("pickle", "load"): ("pickle", "read"),
    ("json", "dumps"): ("json", "write"),
    ("json", "dump"): ("json", "write"),
    ("json", "loads"): ("json", "read"),
    ("json", "load"): ("json", "read"),
    ("gzip", "open"): ("gzip", "open"),
}

#: Queue method names that move a record across the process boundary.
QUEUE_PUT_METHODS = frozenset({"put", "put_nowait"})
QUEUE_GET_METHODS = frozenset({"get", "get_nowait"})

#: Call names that make state durable (seed of the durable closure).
DURABLE_CALL_NAMES = frozenset(
    {"flush", "save", "checkpoint", "snapshot", "fsync", "write_snapshot"}
)
#: Handler calls that cleanly hand shutdown to the run loop.
STOP_REQUEST_NAMES = frozenset({"request_stop", "stop"})

#: A function whose (underscore-stripped) name starts with one of these
#: is a schema-reader candidate.
READER_NAME_PREFIXES = ("read", "load", "validate", "parse")

#: Dict keys that mark a dict build as a versioned wire record.
VERSION_FIELD_NAMES = frozenset({"v", "version"})


def _is_queue_receiver(name: str) -> bool:
    """Does a receiver spelling denote a cross-process queue?"""
    return name == "q" or name.endswith("queue")


@dataclass
class SerializationSite:
    """One pickle/json/gzip call that moves bytes across a boundary."""

    path: str
    module: str
    line: int
    #: Enclosing function qualname, or None at module/class level.
    function: Optional[str]
    format: str  # "pickle" | "json" | "gzip"
    direction: str  # "write" | "read" | "open"
    chain: str


@dataclass
class ForkSite:
    """One ``Process(target=…)`` spawn (or ``get_context`` choice)."""

    path: str
    module: str
    line: int
    function: Optional[str]
    kind: str  # "spawn" | "context"
    #: Spawn: the target's name as written; context: the start method.
    target: Optional[str] = None
    #: Resolved target definition, when static resolution succeeded.
    target_module: Optional[str] = None
    target_qualname: Optional[str] = None
    #: The spawn's ``ast.Call`` (not exported; KL303 inspects its args).
    node: Optional[ast.Call] = field(default=None, repr=False)


@dataclass
class QueueSite:
    """One queue ``put``/``get`` on a queue-spelled receiver."""

    path: str
    module: str
    line: int
    function: Optional[str]
    receiver: str
    op: str  # "put" | "get"
    method: str


@dataclass
class ExitSite:
    """One ``os._exit`` call — a no-cleanup process death."""

    path: str
    module: str
    line: int
    function: Optional[str]


@dataclass
class SignalSite:
    """One ``signal.signal`` registration with its handler, if resolved."""

    path: str
    module: str
    line: int
    function: Optional[str]
    handler: Optional[str] = None
    handler_module: Optional[str] = None
    handler_qualname: Optional[str] = None


@dataclass
class FlushSite:
    """One ``.flush()`` call (the durable half of flush-before-put)."""

    path: str
    module: str
    line: int
    function: Optional[str]
    receiver: str


@dataclass
class SchemaFunction:
    """One writer or reader of a versioned wire record."""

    module: str
    qualname: str
    name: str
    path: str
    line: int
    role: str  # "writer" | "reader"
    keys: Tuple[str, ...]


@dataclass
class SchemaGroup:
    """One module's wire contract: version, writers, readers, digest."""

    module: str
    path: str
    version: Optional[int] = None
    version_const: Optional[str] = None
    version_line: int = 0
    writers: List[SchemaFunction] = field(default_factory=list)
    readers: List[SchemaFunction] = field(default_factory=list)

    def emitted_keys(self) -> Tuple[str, ...]:
        keys: Set[str] = set()
        for writer in self.writers:
            keys.update(writer.keys)
        return tuple(sorted(keys))

    def digest(self) -> str:
        """A stable 8-hex digest of the emitted field set."""
        joined = ",".join(self.emitted_keys()).encode("utf-8")
        return hashlib.sha1(joined).hexdigest()[:8]


@dataclass
class KeySpec:
    """One dedup/content or sort key function and the fields it reads."""

    module: str
    qualname: str
    path: str
    line: int
    kind: str  # "dedup" | "sort"
    fields: Tuple[str, ...]


@dataclass
class ProcGraph:
    """The derived whole-program process-boundary inventory."""

    project: Project
    graph: CallGraph
    serialization_sites: List[SerializationSite] = field(default_factory=list)
    fork_sites: List[ForkSite] = field(default_factory=list)
    queue_sites: List[QueueSite] = field(default_factory=list)
    exit_sites: List[ExitSite] = field(default_factory=list)
    signal_sites: List[SignalSite] = field(default_factory=list)
    flush_sites: List[FlushSite] = field(default_factory=list)
    #: module -> its wire-schema group.
    schema_groups: Dict[str, SchemaGroup] = field(default_factory=dict)
    key_specs: List[KeySpec] = field(default_factory=list)
    #: Bare names of functions that transitively reach schema validation.
    validating_names: Set[str] = field(default_factory=set)
    #: Bare names of calls/functions that transitively make state durable.
    durable_names: Set[str] = field(default_factory=set)

    def writer_functions(self) -> Set[Tuple[str, str]]:
        """(module, qualname) of every schema writer."""
        return {
            (writer.module, writer.qualname)
            for group in self.schema_groups.values()
            for writer in group.writers
        }

    def fork_target_names(self) -> Set[str]:
        """Resolved qualnames (or raw names) of every fork entrypoint."""
        names: Set[str] = set()
        for site in self.fork_sites:
            if site.kind != "spawn":
                continue
            if site.target_qualname is not None:
                names.add(site.target_qualname)
            elif site.target is not None:
                names.add(site.target)
        return names


def derive_procgraph(project: Project) -> ProcGraph:
    """The whole-program process-boundary graph of a project, built once."""
    return project.layer("proc", _build_procgraph)


def _build_procgraph(project: Project) -> ProcGraph:
    proc = ProcGraph(project=project, graph=CallGraph.of(project))
    _collect_call_sites(proc)
    _collect_schemas(proc)
    _collect_key_specs(proc)
    proc.validating_names = _name_closure(
        proc,
        seed_names={
            reader.name
            for group in proc.schema_groups.values()
            for reader in group.readers
        }
        | {
            info.name
            for info in proc.graph.functions.values()
            if info.name.lstrip("_").startswith("validate")
        },
    )
    proc.durable_names = _name_closure(proc, seed_names=set(DURABLE_CALL_NAMES))
    _sort_graph(proc)
    return proc


# -- call-site classification --------------------------------------------------


def _collect_call_sites(proc: ProcGraph) -> None:
    project = proc.project
    for site in proc.graph.call_sites:
        if not scanned(site.source):
            continue
        chain = site.chain
        module = site.source.module
        common = dict(
            path=site.source.relpath,
            module=module,
            line=site.node.lineno,
            function=site.caller.qualname if site.caller else None,
        )
        serializer = _serializer_pair(project, module, chain)
        if serializer is not None:
            fmt, direction = SERIALIZER_CALLS[serializer]
            proc.serialization_sites.append(
                SerializationSite(
                    format=fmt,
                    direction=direction,
                    chain=".".join(chain),
                    **common,
                )
            )
            continue
        callee = chain[-1]
        receiver = chain[-2] if len(chain) >= 2 else ""
        if callee in QUEUE_PUT_METHODS and _is_queue_receiver(receiver):
            proc.queue_sites.append(
                QueueSite(receiver=receiver, op="put", method=callee, **common)
            )
        elif callee in QUEUE_GET_METHODS and _is_queue_receiver(receiver):
            proc.queue_sites.append(
                QueueSite(receiver=receiver, op="get", method=callee, **common)
            )
        elif callee == "flush" and len(chain) >= 2:
            proc.flush_sites.append(FlushSite(receiver=receiver, **common))
        elif callee == "Process":
            target = keyword_arg(site.node, "target")
            name = target.id if isinstance(target, ast.Name) else None
            resolved = proc.graph.resolve_name(module, name) if name else None
            proc.fork_sites.append(
                ForkSite(
                    kind="spawn",
                    target=name,
                    target_module=resolved.module if resolved else None,
                    target_qualname=resolved.qualname if resolved else None,
                    node=site.node,
                    **common,
                )
            )
        elif callee == "get_context" and site.node.args:
            first = site.node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                proc.fork_sites.append(
                    ForkSite(kind="context", target=first.value, **common)
                )
        elif callee == "_exit" and receiver == "os":
            proc.exit_sites.append(ExitSite(**common))
        elif callee == "signal" and receiver == "signal":
            handler = site.node.args[1] if len(site.node.args) >= 2 else None
            name = handler.id if isinstance(handler, ast.Name) else None
            resolved = proc.graph.resolve_name(module, name) if name else None
            proc.signal_sites.append(
                SignalSite(
                    handler=name,
                    handler_module=resolved.module if resolved else None,
                    handler_qualname=resolved.qualname if resolved else None,
                    **common,
                )
            )


def _serializer_pair(
    project: Project, module: str, chain: Tuple[str, ...]
) -> Optional[Tuple[str, str]]:
    """The ``(module, callee)`` serializer key for a call chain, if any."""
    if len(chain) == 1:
        link = project.imported_names.get((module, chain[0]))
        if link is not None and link in SERIALIZER_CALLS:
            return link
        return None
    head = project.resolve_module(module, chain[0]) or chain[0]
    pair = (head, chain[-1])
    return pair if pair in SERIALIZER_CALLS else None


# -- wire-schema extraction ----------------------------------------------------


def _collect_schemas(proc: ProcGraph) -> None:
    ordered = [proc.graph.functions[key] for key in sorted(proc.graph.functions)]
    in_scope = [info for info in ordered if scanned(info.source)]
    # Pass 1: writers anchor the groups (a group exists once anything in
    # the module emits a versioned record).
    for info in in_scope:
        writer_keys, version_expr = _writer_keys(info.node)
        if not writer_keys:
            continue
        group = _group_for(proc, info.module, info.source.relpath)
        group.writers.append(
            SchemaFunction(
                module=info.module,
                qualname=info.qualname,
                name=info.name,
                path=info.source.relpath,
                line=info.node.lineno,
                role="writer",
                keys=tuple(writer_keys),
            )
        )
        if group.version is None and version_expr is not None:
            group.version = _static_int(
                proc.project, info.module, version_expr
            )
    # Pass 2: readers attach to an existing group (or a module carrying
    # a ``*_VERSION`` constant) — separate passes so source order of the
    # reader and writer definitions cannot matter.
    for info in in_scope:
        if not info.name.lstrip("_").startswith(READER_NAME_PREFIXES):
            continue
        if info.module not in proc.schema_groups and not _module_version(
            proc.project, info.module
        ):
            continue
        reader_keys = _reader_keys(info.node)
        if not reader_keys:
            continue
        group = _group_for(proc, info.module, info.source.relpath)
        group.readers.append(
            SchemaFunction(
                module=info.module,
                qualname=info.qualname,
                name=info.name,
                path=info.source.relpath,
                line=info.node.lineno,
                role="reader",
                keys=tuple(reader_keys),
            )
        )
    # Stamp explicit version constants (they win over inline literals).
    for module, group in proc.schema_groups.items():
        versioned = _module_version(proc.project, module)
        if versioned is not None:
            name, (value, line) = versioned
            group.version = value
            group.version_const = name
            group.version_line = line


def _group_for(proc: ProcGraph, module: str, path: str) -> SchemaGroup:
    group = proc.schema_groups.get(module)
    if group is None:
        group = SchemaGroup(module=module, path=path)
        proc.schema_groups[module] = group
    return group


def _module_version(
    project: Project, module: str
) -> Optional[Tuple[str, Tuple[int, int]]]:
    """The module's ``*_VERSION`` constant ``(name, (value, line))``."""
    candidates = sorted(
        (name, entry)
        for (mod, name), entry in project.int_constants.items()
        if mod == module and name.endswith("_VERSION")
    )
    return candidates[0] if candidates else None


def _static_int(project: Project, module: str, expr: ast.expr) -> Optional[int]:
    """An int expression's static value (literal or imported constant)."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
        return expr.value
    if isinstance(expr, ast.Name):
        return project.resolve_int(module, expr.id)
    return None


def _writer_keys(
    node: ast.AST,
) -> Tuple[List[str], Optional[ast.expr]]:
    """A function's emitted wire-record keys, plus its version expression.

    A dict build counts as a wire record when its keys include ``v`` or
    ``version`` — either a dict literal or a run of ``name["key"] = …``
    subscript assignments onto one local.
    """
    keys: Set[str] = set()
    version_expr: Optional[ast.expr] = None
    by_receiver: Dict[str, Set[str]] = {}
    for child in ast.walk(node):
        if isinstance(child, ast.Dict):
            literal: Dict[str, ast.expr] = {}
            for key_node, value in zip(child.keys, child.values):
                if isinstance(key_node, ast.Constant) and isinstance(
                    key_node.value, str
                ):
                    literal[key_node.value] = value
            if VERSION_FIELD_NAMES & set(literal):
                keys.update(literal)
                if version_expr is None:
                    version_expr = literal.get("v", literal.get("version"))
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    by_receiver.setdefault(target.value.id, set()).add(
                        target.slice.value
                    )
                    if target.slice.value in VERSION_FIELD_NAMES and (
                        version_expr is None
                    ):
                        version_expr = child.value
    for assigned in by_receiver.values():
        if VERSION_FIELD_NAMES & assigned:
            keys.update(assigned)
    return sorted(keys), version_expr


def _reader_keys(node: ast.AST) -> List[str]:
    """The string keys a reader function consumes from its records."""
    keys: Set[str] = set()
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Subscript)
            and isinstance(child.ctx, ast.Load)
            and isinstance(child.value, ast.Name)
            and isinstance(child.slice, ast.Constant)
            and isinstance(child.slice.value, str)
        ):
            keys.add(child.slice.value)
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Attribute)
            and child.func.attr == "get"
            and child.args
            and isinstance(child.args[0], ast.Constant)
            and isinstance(child.args[0].value, str)
        ):
            keys.add(child.args[0].value)
        elif (
            isinstance(child, ast.Compare)
            and len(child.ops) == 1
            and isinstance(child.ops[0], (ast.In, ast.NotIn))
            and isinstance(child.left, ast.Constant)
            and isinstance(child.left.value, str)
        ):
            keys.add(child.left.value)
        elif isinstance(child, ast.For):
            keys.update(_membership_loop_keys(child))
    return sorted(keys)


def _membership_loop_keys(node: ast.For) -> Set[str]:
    """``for f in ("a", "b"): if f not in rec`` — the looped field names."""
    if not isinstance(node.target, ast.Name) or not isinstance(
        node.iter, (ast.Tuple, ast.List)
    ):
        return set()
    strings = [
        element.value
        for element in node.iter.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]
    if len(strings) != len(node.iter.elts) or not strings:
        return set()
    variable = node.target.id
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Compare)
            and len(child.ops) == 1
            and isinstance(child.ops[0], (ast.In, ast.NotIn))
            and isinstance(child.left, ast.Name)
            and child.left.id == variable
        ):
            return set(strings)
    return set()


# -- dedup/sort key specs ------------------------------------------------------


def _collect_key_specs(proc: ProcGraph) -> None:
    for key in sorted(proc.graph.functions):
        info = proc.graph.functions[key]
        if not scanned(info.source):
            continue
        if "dedup_key" in info.name or "content_key" in info.name:
            kind = "dedup"
        elif "sort_key" in info.name:
            kind = "sort"
        else:
            continue
        fields = _param_subscript_keys(info)
        if not fields:
            continue
        proc.key_specs.append(
            KeySpec(
                module=info.module,
                qualname=info.qualname,
                path=info.source.relpath,
                line=info.node.lineno,
                kind=kind,
                fields=tuple(fields),
            )
        )


def _param_subscript_keys(info: FunctionInfo) -> List[str]:
    """String keys read off the function's parameters via subscript."""
    params = set(info.params)
    keys: Set[str] = set()
    for child in ast.walk(info.node):
        if (
            isinstance(child, ast.Subscript)
            and isinstance(child.value, ast.Name)
            and child.value.id in params
            and isinstance(child.slice, ast.Constant)
            and isinstance(child.slice.value, str)
        ):
            keys.add(child.slice.value)
    return sorted(keys)


# -- name closures -------------------------------------------------------------


def _name_closure(proc: ProcGraph, seed_names: Set[str]) -> Set[str]:
    """Bare names of functions transitively calling into ``seed_names``.

    Deliberately name-based (like the call graph's receiver roles): a
    call through a local object (``aggregator.ingest_batch``) still
    propagates, at the cost of conflating same-named functions.
    """
    called_by_function: Dict[Tuple[str, str], Set[str]] = {}
    for site in proc.graph.call_sites:
        if site.caller is None or not scanned(site.source):
            continue
        called_by_function.setdefault(site.caller.key, set()).add(
            site.chain[-1]
        )
    names = set(seed_names)
    changed = True
    while changed:
        changed = False
        for key, called in called_by_function.items():
            info = proc.graph.functions.get(key)
            if info is None or info.name in names:
                continue
            if called & names:
                names.add(info.name)
                changed = True
    return names


# -- sorting and export --------------------------------------------------------


def _sort_graph(proc: ProcGraph) -> None:
    site_key = lambda s: (s.path, s.line)  # noqa: E731
    proc.serialization_sites.sort(key=lambda s: (s.path, s.line, s.chain))
    proc.fork_sites.sort(key=lambda s: (s.path, s.line, s.kind))
    proc.queue_sites.sort(key=lambda s: (s.path, s.line, s.op))
    proc.exit_sites.sort(key=site_key)
    proc.signal_sites.sort(key=site_key)
    proc.flush_sites.sort(key=lambda s: (s.path, s.line, s.receiver))
    proc.key_specs.sort(key=lambda s: (s.path, s.line, s.qualname))
    for group in proc.schema_groups.values():
        group.writers.sort(key=lambda f: (f.path, f.line, f.qualname))
        group.readers.sort(key=lambda f: (f.path, f.line, f.qualname))


def _schema_fn_dict(entry: SchemaFunction) -> Dict[str, object]:
    return {
        "function": entry.qualname,
        "line": entry.line,
        "keys": list(entry.keys),
    }


def export_json(proc: ProcGraph) -> str:
    """The full process-boundary graph as byte-stable JSON."""
    payload: Dict[str, object] = {
        "serialization_sites": [
            {
                "path": site.path,
                "line": site.line,
                "function": site.function,
                "format": site.format,
                "direction": site.direction,
                "chain": site.chain,
            }
            for site in proc.serialization_sites
        ],
        "fork_sites": [
            {
                "path": site.path,
                "line": site.line,
                "function": site.function,
                "kind": site.kind,
                "target": site.target,
                "resolved": (
                    f"{site.target_module}.{site.target_qualname}"
                    if site.target_qualname
                    else None
                ),
            }
            for site in proc.fork_sites
        ],
        "queue_sites": [
            {
                "path": site.path,
                "line": site.line,
                "function": site.function,
                "receiver": site.receiver,
                "op": site.op,
                "method": site.method,
            }
            for site in proc.queue_sites
        ],
        "exit_sites": [
            {
                "path": site.path,
                "line": site.line,
                "function": site.function,
            }
            for site in proc.exit_sites
        ],
        "signal_sites": [
            {
                "path": site.path,
                "line": site.line,
                "function": site.function,
                "handler": site.handler,
                "resolved": (
                    f"{site.handler_module}.{site.handler_qualname}"
                    if site.handler_qualname
                    else None
                ),
            }
            for site in proc.signal_sites
        ],
        "schemas": {
            module: {
                "path": group.path,
                "version": group.version,
                "version_const": group.version_const,
                "digest": group.digest(),
                "emitted_keys": list(group.emitted_keys()),
                "writers": [_schema_fn_dict(w) for w in group.writers],
                "readers": [_schema_fn_dict(r) for r in group.readers],
            }
            for module, group in sorted(proc.schema_groups.items())
        },
        "key_specs": [
            {
                "path": spec.path,
                "line": spec.line,
                "function": spec.qualname,
                "kind": spec.kind,
                "fields": list(spec.fields),
            }
            for spec in proc.key_specs
        ],
        "validating_functions": sorted(proc.validating_names),
        "durable_functions": sorted(proc.durable_names),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def export_dot(proc: ProcGraph) -> str:
    """Boundary crossings as deterministic Graphviz DOT.

    Function nodes are boxes; schema records are notes; the transport
    queue is a ``cds`` shape; fork entrypoints are double-octagons;
    ``os._exit`` is an octagon.  Every node and edge is emitted in
    sorted order so two runs render byte-identically.
    """
    nodes: Dict[str, str] = {}
    edges: Set[Tuple[str, str, str]] = set()

    def fn_node(module: str, function: Optional[str]) -> str:
        name = f"{module}:{function}" if function else module
        nodes.setdefault(name, "box")
        return name

    for module, group in sorted(proc.schema_groups.items()):
        label = f"{module}@v{group.version if group.version is not None else '?'}"
        nodes.setdefault(label, "note")
        for writer in group.writers:
            edges.add((fn_node(module, writer.qualname), label, "write"))
        for reader in group.readers:
            edges.add((label, fn_node(module, reader.qualname), "read"))
    for site in proc.queue_sites:
        nodes.setdefault("queue", "cds")
        owner = fn_node(site.module, site.function)
        if site.op == "put":
            edges.add((owner, "queue", site.method))
        else:
            edges.add(("queue", owner, site.method))
    for site in proc.fork_sites:
        if site.kind != "spawn":
            continue
        target = (
            fn_node(site.target_module, site.target_qualname)
            if site.target_qualname
            else fn_node(site.module, site.target or "?")
        )
        nodes[target] = "doubleoctagon"
        edges.add((fn_node(site.module, site.function), target, "fork"))
    for site in proc.exit_sites:
        nodes.setdefault("os._exit", "octagon")
        edges.add((fn_node(site.module, site.function), "os._exit", "exit"))
    for site in proc.signal_sites:
        if site.handler_qualname is None:
            continue
        handler = fn_node(site.handler_module, site.handler_qualname)
        edges.add((fn_node(site.module, site.function), handler, "signal"))

    lines = [
        "digraph kalis_proc {",
        "  rankdir=LR;",
        '  node [fontname="monospace" shape=box];',
    ]
    for name in sorted(nodes):
        lines.append(f'  "{name}" [shape={nodes[name]}];')
    for left, right, label in sorted(edges):
        lines.append(f'  "{left}" -> "{right}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
