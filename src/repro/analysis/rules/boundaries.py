"""KL301–KL306 — process-boundary and wire-schema rules.

These rules run on the :mod:`repro.analysis.procgraph` whole-program
boundary inventory.  They are the static gate for the fleet/SIEM/ckpt
layer (DESIGN.md §§9–10): three hand-maintained wire
contracts and a fork-based fleet whose exactly-once merge guarantees
previously had only runtime tests.

- **KL301** — writer/reader schema drift: within a versioned wire
  schema group, a reader consuming a key no writer emits is an ERROR
  (the contract already drifted); every writer group also carries a
  WARNING pinning the digest of its emitted field set, so changing the
  fields without bumping the version forces a fresh triage — the
  baseline entry records the accepted digest.
- **KL302** — non-address-free payloads: ``id()``, default ``repr``
  (call or ``!r``), lambdas or bare function references inside a
  payload that crosses a process or file boundary.  These differ
  between processes and runs, so they break byte-determinism and
  content-keyed dedup (the PR-7 deadletter fix, generalized).
- **KL303** — fork-unsafety: a lock, open file handle, or live
  telemetry object created in the spawning function and passed into a
  ``Process(target=…, args=…)`` tuple.  Under the fork start method
  these are silently inherited in a broken state; under spawn they
  fail to pickle.
- **KL304** — queue discipline: a cross-process queue ``put`` without
  a durable ``flush`` earlier in the same function (the
  flush-before-put pattern ``fleet/worker.py`` establishes), or a
  ``get`` in a function that never reaches schema validation.
- **KL305** — exit-path hygiene: an ``os._exit`` not preceded by a
  durable call (flush/save/checkpoint/snapshot) in the same function,
  or a signal handler that neither persists state nor hands shutdown
  to the run loop via ``request_stop``/``stop``.
- **KL306** — dedup-key completeness: a canonical sort key reading a
  record field the paired dedup/content key ignores.  Two records
  equal under the content key but distinct under the sort key make
  "exactly-once" depend on arrival order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.astutil import attribute_chain, keyword_arg
from repro.analysis.callgraph import scanned
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.procgraph import (
    STOP_REQUEST_NAMES,
    ProcGraph,
    derive_procgraph,
)
from repro.analysis.project import Project
from repro.analysis.stategraph import (
    NON_PICKLABLE_CONSTRUCTORS,
    _single_assignment_locals,
)

#: Constructor names KL303 treats as live-telemetry subscribers.
TELEMETRY_CONSTRUCTORS = frozenset({"Telemetry", "FlightRecorder"})

#: Serializer callee names whose positional args are payload expressions.
_DUMP_CALLEES = frozenset({"dumps", "dump"})


@register_rule
class SchemaDriftRule(Rule):
    """KL301: wire readers stay within the written field set."""

    ID = "KL301"
    TITLE = "boundary: writer/reader wire-schema drift"

    def check(self, project: Project) -> Iterable[Finding]:
        proc = derive_procgraph(project)
        for module in sorted(proc.schema_groups):
            group = proc.schema_groups[module]
            if not group.writers:
                continue
            emitted = set(group.emitted_keys())
            for reader in group.readers:
                for key in reader.keys:
                    if key in emitted:
                        continue
                    yield self.finding(
                        Severity.ERROR,
                        reader.path,
                        reader.line,
                        f"reader {reader.qualname!r} consumes key {key!r}"
                        f" that no writer in {module} emits (emitted field"
                        f" set: {', '.join(group.emitted_keys())}) — the"
                        " wire contract has drifted",
                        key=f"{reader.qualname}.{key}",
                    )
            version = "?" if group.version is None else str(group.version)
            line = group.version_line or group.writers[0].line
            yield self.finding(
                Severity.WARNING,
                group.path,
                line,
                f"wire schema {module} v{version} emits field set"
                f" [{', '.join(group.emitted_keys())}] with digest"
                f" {group.digest()} — changing this set requires a version"
                " bump; the baseline entry pins the accepted digest",
                key=f"{module.rsplit('.', 1)[-1]}@v{version}:{group.digest()}",
            )


@register_rule
class AddressFreePayloadRule(Rule):
    """KL302: nothing address-dependent crosses a process/file boundary."""

    ID = "KL302"
    TITLE = "boundary: non-address-free payload crosses a boundary"

    def check(self, project: Project) -> Iterable[Finding]:
        proc = derive_procgraph(project)
        # Payload roots overlap (a dict passed to dumps() is walked as
        # both), so findings dedupe on their (path, line, key) identity.
        seen: Set[Tuple[str, int, str]] = set()
        for module, qualname in self._contexts(proc):
            info = proc.graph.functions.get((module, qualname))
            if info is None:
                continue
            path = info.source.relpath
            emitted: List[Finding] = []
            for child in ast.walk(info.node):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "id"
                ):
                    emitted.append(
                        self.finding(
                            Severity.ERROR,
                            path,
                            child.lineno,
                            f"id() inside boundary-crossing function"
                            f" {qualname!r} — object addresses differ"
                            " between processes and runs, breaking"
                            " byte-determinism and content-keyed dedup",
                            key=f"{qualname}.id",
                        )
                    )
            for payload in self._payload_roots(info.node):
                emitted.extend(
                    self._check_payload(proc, module, qualname, path, payload)
                )
            for finding in emitted:
                identity = (finding.path, finding.line, finding.key)
                if identity in seen:
                    continue
                seen.add(identity)
                yield finding

    def _contexts(self, proc: ProcGraph) -> List[Tuple[str, str]]:
        """(module, qualname) of every function that emits across a boundary."""
        contexts: Set[Tuple[str, str]] = set()
        for site in proc.serialization_sites:
            if site.direction == "write" and site.function is not None:
                contexts.add((site.module, site.function))
        for site in proc.queue_sites:
            if site.op == "put" and site.function is not None:
                contexts.add((site.module, site.function))
        contexts.update(proc.writer_functions())
        return sorted(contexts)

    def _payload_roots(self, node: ast.AST) -> List[ast.expr]:
        """Dict displays plus serializer-call positional args."""
        roots: List[ast.expr] = []
        for child in ast.walk(node):
            if isinstance(child, ast.Dict):
                roots.extend(value for value in child.values if value is not None)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _DUMP_CALLEES
            ):
                roots.extend(child.args)
        return roots

    def _check_payload(
        self,
        proc: ProcGraph,
        module: str,
        qualname: str,
        path: str,
        payload: ast.expr,
    ) -> Iterable[Finding]:
        if isinstance(payload, ast.Lambda):
            yield self.finding(
                Severity.ERROR,
                path,
                payload.lineno,
                f"lambda inside a payload emitted by {qualname!r} — a"
                " lambda serializes by address (or not at all); name the"
                " function and record it via repro.util.naming"
                ".callable_name",
                key=f"{qualname}.lambda",
            )
            return
        if isinstance(payload, ast.Name):
            target = proc.graph.functions.get((module, payload.id))
            if target is not None:
                yield self.finding(
                    Severity.ERROR,
                    path,
                    payload.lineno,
                    f"bare function reference {payload.id!r} inside a"
                    f" payload emitted by {qualname!r} — record"
                    " callable_name(...) instead so the wire form is"
                    " address-free",
                    key=f"{qualname}.{payload.id}",
                )
            return
        for child in ast.walk(payload):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "repr"
            ):
                yield self.finding(
                    Severity.WARNING,
                    path,
                    child.lineno,
                    f"repr() inside a payload emitted by {qualname!r} —"
                    " default object repr embeds the memory address; use a"
                    " stable rendering",
                    key=f"{qualname}.repr",
                )
            elif isinstance(child, ast.FormattedValue) and child.conversion == ord(
                "r"
            ):
                yield self.finding(
                    Severity.WARNING,
                    path,
                    child.lineno,
                    f"!r conversion inside a payload emitted by"
                    f" {qualname!r} — default object repr embeds the"
                    " memory address; use a stable rendering",
                    key=f"{qualname}.conv_r",
                )


@register_rule
class ForkSafetyRule(Rule):
    """KL303: nothing fork-unsafe rides into a worker entrypoint."""

    ID = "KL303"
    TITLE = "boundary: fork-unsafe state passed to a process entrypoint"

    def check(self, project: Project) -> Iterable[Finding]:
        proc = derive_procgraph(project)
        for site in proc.fork_sites:
            if site.kind != "spawn" or site.node is None:
                continue
            if site.function is None:
                continue
            caller = proc.graph.functions.get((site.module, site.function))
            if caller is None:
                continue
            locals_map = _single_assignment_locals(caller.node)
            arguments = keyword_arg(site.node, "args")
            if not isinstance(arguments, (ast.Tuple, ast.List)):
                continue
            for element in arguments.elts:
                if not isinstance(element, ast.Name):
                    continue
                value = locals_map.get(element.id)
                if not isinstance(value, ast.Call):
                    continue
                chain = attribute_chain(value.func)
                constructor = chain[-1] if chain else ""
                if (
                    constructor in NON_PICKLABLE_CONSTRUCTORS
                    or constructor == "open"
                ):
                    yield self.finding(
                        Severity.ERROR,
                        site.path,
                        site.line,
                        f"{element.id!r} (a {constructor}() from line"
                        f" {value.lineno}) is passed into the"
                        f" {site.target or '?'} process args — locks and"
                        " open handles are inherited broken under fork and"
                        " unpicklable under spawn",
                        key=f"{site.function}.{element.id}",
                    )
                elif constructor in TELEMETRY_CONSTRUCTORS:
                    yield self.finding(
                        Severity.WARNING,
                        site.path,
                        site.line,
                        f"live telemetry object {element.id!r} is passed"
                        f" into the {site.target or '?'} process args —"
                        " subscribers forked mid-flight double-report;"
                        " construct telemetry inside the child",
                        key=f"{site.function}.{element.id}",
                    )


@register_rule
class QueueDisciplineRule(Rule):
    """KL304: flush-before-put on the way in, validate on the way out."""

    ID = "KL304"
    TITLE = "boundary: queue crossing without durability/validation"

    def check(self, project: Project) -> Iterable[Finding]:
        proc = derive_procgraph(project)
        flush_lines: Dict[Tuple[str, Optional[str]], List[int]] = {}
        for flush in proc.flush_sites:
            flush_lines.setdefault((flush.module, flush.function), []).append(
                flush.line
            )
        for site in proc.queue_sites:
            owner = site.function or "<module>"
            if site.op == "put":
                earlier = flush_lines.get((site.module, site.function), [])
                if not any(line < site.line for line in earlier):
                    yield self.finding(
                        Severity.ERROR,
                        site.path,
                        site.line,
                        f"queue {site.method}() in {owner!r} without a"
                        " durable flush earlier in the same function — the"
                        " flush-before-put pattern keeps the stream file at"
                        " least as complete as what the aggregator saw, so"
                        " a kill between the two costs nothing",
                        key=f"{owner}.put",
                    )
            else:
                bare = owner.rsplit(".", 1)[-1]
                if bare not in proc.validating_names:
                    yield self.finding(
                        Severity.ERROR,
                        site.path,
                        site.line,
                        f"queue {site.method}() in {owner!r}, which never"
                        " reaches schema validation — records crossing the"
                        " process boundary must be version-checked"
                        " (validate_batch) before use",
                        key=f"{owner}.get",
                    )


@register_rule
class ExitHygieneRule(Rule):
    """KL305: no-cleanup exits only after state is durable."""

    ID = "KL305"
    TITLE = "boundary: exit path skips durable flush"

    def check(self, project: Project) -> Iterable[Finding]:
        proc = derive_procgraph(project)
        calls = self._calls_by_function(proc)
        for site in proc.exit_sites:
            owner = site.function or "<module>"
            observed = calls.get((site.module, site.function or ""), [])
            durable = any(
                line < site.line and name in proc.durable_names
                for line, name in observed
            )
            if not durable:
                yield self.finding(
                    Severity.ERROR,
                    site.path,
                    site.line,
                    f"os._exit in {owner!r} with no durable call"
                    " (flush/save/checkpoint/snapshot) earlier in the same"
                    " function — state reachable only from this process"
                    " dies with it",
                    key=f"{owner}._exit",
                )
        allowed = proc.durable_names | STOP_REQUEST_NAMES
        for site in proc.signal_sites:
            if site.handler_qualname is None:
                continue  # handler not statically resolvable
            observed = calls.get(
                (site.handler_module or "", site.handler_qualname), []
            )
            if not any(name in allowed for _, name in observed):
                yield self.finding(
                    Severity.ERROR,
                    site.path,
                    site.line,
                    f"signal handler {site.handler_qualname!r} neither"
                    " persists state nor requests a clean stop — a signal"
                    " landing mid-run would drop the manifest/snapshot"
                    " flush",
                    key=f"{site.handler_qualname}.handler",
                )

    def _calls_by_function(
        self, proc: ProcGraph
    ) -> Dict[Tuple[str, str], List[Tuple[int, str]]]:
        calls: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
        for site in proc.graph.call_sites:
            if site.caller is None or not scanned(site.source):
                continue
            calls.setdefault(
                (site.caller.module, site.caller.qualname), []
            ).append((site.node.lineno, site.chain[-1]))
        return calls


@register_rule
class DedupCompletenessRule(Rule):
    """KL306: the content key covers every canonical sort field."""

    ID = "KL306"
    TITLE = "boundary: sort-key field missing from dedup/content key"

    def check(self, project: Project) -> Iterable[Finding]:
        proc = derive_procgraph(project)
        by_module: Dict[str, List] = {}
        for spec in proc.key_specs:
            by_module.setdefault(spec.module, []).append(spec)
        for module in sorted(by_module):
            specs = by_module[module]
            dedup_fields: Set[str] = set()
            for spec in specs:
                if spec.kind == "dedup":
                    dedup_fields.update(spec.fields)
            if not dedup_fields:
                continue
            for spec in specs:
                if spec.kind != "sort":
                    continue
                for name in spec.fields:
                    if name in dedup_fields:
                        continue
                    yield self.finding(
                        Severity.WARNING,
                        spec.path,
                        spec.line,
                        f"sort key {spec.qualname!r} reads field {name!r}"
                        f" that no dedup/content key in {module} covers —"
                        " records equal under the content key but distinct"
                        f" in {name!r} make exactly-once merge order"
                        " arrival-dependent",
                        key=f"{spec.qualname}.{name}",
                    )
