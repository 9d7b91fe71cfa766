"""KL105 — determinism taint: nondeterminism must not reach decisions.

KL001 bans *calling* ambient time/randomness in the deterministic
substrate.  This rule closes the remaining gap with an intraprocedural
taint walk: a value derived from a nondeterministic **source** —
wall-clock (``time.time``/``monotonic``/``perf_counter``),
``datetime.now``/``utcnow``/``today``, the global ``random`` module,
``os.urandom``, ``uuid.uuid4``, or CPython object identity (``id()``,
whose values vary across runs and poison any ordering or hashing
decision) — must not flow into a **sink** that shapes behaviour:

- a branch condition (``if``/``while`` tests);
- an event-bus publish (``*.bus.publish(…)`` arguments);
- an alert payload (``self.alert(…)`` arguments — the one call through
  which a detection module raises an alert);
- a Knowledge Base write (``kb.put``/``put_static`` arguments).

Taint propagates through assignments within one function body (to a
fixed point, so chains like ``a = time.time(); b = a * 2`` are caught).

:mod:`repro.obs` is the sole sanctioned sink — telemetry may timestamp
freely (it is excluded from the replay-equality oracle), mirroring the
KL001 exemption for :mod:`repro.util`, where the seeded wrappers live.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set

from repro.analysis.astutil import attribute_chain
from repro.analysis.callgraph import KB_RECEIVERS, KB_WRITE_METHODS
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import Project, SourceFile

#: Packages in which tainted flow is banned (KL001's set plus the event
#: bus, experiments, and firewall — everything replay equality covers).
GUARDED_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.proto",
    "repro.attacks",
    "repro.eventbus",
    "repro.experiments",
    "repro.firewall",
)
#: Sanctioned sinks/wrapper homes, never scanned.
EXEMPT_PACKAGES = ("repro.obs", "repro.util", "repro.analysis")

_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _source_of(node: ast.AST) -> Optional[str]:
    """A human-readable source name when ``node`` is a taint source."""
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name) and node.func.id == "id":
        return "id()"
    chain = attribute_chain(node.func)
    if not chain or len(chain) < 2:
        return None
    head, attr = chain[0], chain[-1]
    if head == "time" and attr in _TIME_ATTRS:
        return f"time.{attr}"
    if head == "datetime" and attr in _DATETIME_ATTRS:
        return f"datetime.{attr}"
    if head == "random":
        return f"random.{attr}"
    if head == "os" and attr == "urandom":
        return "os.urandom"
    if head == "uuid" and attr in ("uuid1", "uuid4"):
        return f"uuid.{attr}"
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


def _first_source_in(node: ast.AST) -> Optional[str]:
    for child in ast.walk(node):
        what = _source_of(child)
        if what is not None:
            return what
    return None


class _FunctionTaint:
    """Taint state for one function body."""

    def __init__(self, body: List[ast.stmt]) -> None:
        self.tainted: dict = {}  # name -> source description
        self._propagate(body)

    def _propagate(self, body: List[ast.stmt]) -> None:
        statements = [
            node
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        ]
        changed = True
        while changed:
            changed = False
            for node in statements:
                value = node.value
                if value is None:
                    continue
                what = self.taint_of(value)
                if what is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for name_node in ast.walk(target):
                        if (
                            isinstance(name_node, ast.Name)
                            and name_node.id not in self.tainted
                        ):
                            self.tainted[name_node.id] = what
                            changed = True

    def taint_of(self, node: ast.AST) -> Optional[str]:
        """Why the expression is tainted, or None if it is clean."""
        direct = _first_source_in(node)
        if direct is not None:
            return direct
        for name in sorted(_names_in(node)):
            if name in self.tainted:
                return self.tainted[name]
        return None


@register_rule
class DeterminismTaintRule(Rule):
    """KL105: nondeterministic values must not reach decision sinks."""

    ID = "KL105"
    TITLE = "determinism taint: sources must not flow into sinks"

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            if any(source.in_package(pkg) for pkg in EXEMPT_PACKAGES):
                continue
            if not any(source.in_package(pkg) for pkg in GUARDED_PACKAGES):
                continue
            yield from self._check_file(source)

    def _check_file(self, source: SourceFile) -> Iterator[Finding]:
        for function in self._functions(source.tree):
            taint = _FunctionTaint(function.body)
            yield from self._check_sinks(source, function, taint)

    @staticmethod
    def _functions(tree: ast.Module):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _check_sinks(
        self, source: SourceFile, function: ast.AST, taint: _FunctionTaint
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if isinstance(node, (ast.If, ast.While)):
                what = taint.taint_of(node.test)
                if what is not None:
                    yield self._flow(
                        source, node, function, what, "a branch condition"
                    )
            elif isinstance(node, ast.Call):
                sink = self._sink_kind(node)
                if sink is None:
                    continue
                for argument in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    what = taint.taint_of(argument)
                    if what is not None:
                        yield self._flow(source, node, function, what, sink)
                        break

    @staticmethod
    def _sink_kind(call: ast.Call) -> Optional[str]:
        chain = attribute_chain(call.func)
        if not chain:
            return None
        if chain == ["self", "alert"]:
            return "an alert payload"
        if len(chain) < 2:
            return None
        method = chain[-1]
        receiver = chain[-2]
        if method == "publish" and (
            receiver == "bus" or receiver.endswith("bus")
        ):
            return "a bus publish"
        if method in KB_WRITE_METHODS and receiver in KB_RECEIVERS:
            return "a knowledge write"
        return None

    def _flow(
        self,
        source: SourceFile,
        node: ast.AST,
        function: ast.AST,
        what: str,
        sink: str,
    ) -> Finding:
        name = getattr(function, "name", "<function>")
        line = getattr(node, "lineno", 0)
        return self.finding(
            Severity.ERROR,
            source.relpath,
            line,
            f"nondeterministic value from {what} flows into {sink} in"
            f" {name}() — replay equality breaks; route through the seeded"
            " wrappers in repro.util, or record via repro.obs",
            key=f"{name}:{what}:{sink}",
        )
