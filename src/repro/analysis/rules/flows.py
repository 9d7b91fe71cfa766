"""KL101–KL104 — whole-program knowledge-flow and topic liveness.

These rules run on the :mod:`repro.analysis.knowflow` graph, so sites
hidden behind wrappers (``ModuleSupervisor._publish``,
``WormholeModule._anomaly_entities``) and single-assignment locals are
resolved before liveness is judged.

- **KL101** — knowgget read-before-any-write: a defaultless
  ``Requirement`` label or Knowledge Base read (``get``,
  ``get_knowgget``, ``with_label``, ``subscribe``, ``sublabels``) that
  no code ever puts.  Such a module can never activate (paper §IV-B4),
  and such a read is usually a typo: "no alerts" and "module never
  activated" look identical at runtime, so this must be static.  A
  ``default=`` names what an absent knowgget means, so a defaulted
  read may legitimately never be written.  Config-driven ``put_static`` injection is an operator override, not a
  liveness guarantee, so a dynamic ``put_static`` does *not* silence the
  rule — only a fully-dynamic ``put`` does.
- **KL102** — dead knowledge: a write pattern no read or Requirement
  ever overlaps, and whose label is not referenced as a string constant
  elsewhere (a knowgget nobody will ever look at).
- **KL103** — orphan bus topic: a publication with no overlapping
  subscription (WARNING — may be an intentional operational surface) or
  a subscription with no overlapping publication (ERROR — the handler
  can never fire).  Wrapper-derived publish sites count, so
  ``self._publish(TOPIC_MODULE_RESTORE, …)`` is not a blind spot, and
  ``KnowledgeBase.subscribe`` (which takes a label) is not a topic.
  A site whose topic is computed at runtime pairs with nothing, so it
  is reported on its own (WARNING), once per side and function, and the
  sites that do resolve are still checked against each other: one
  dynamic publish never switches off the subscription check.
- **KL104** — module contract drift: a detection module whose code
  strictly reads (``get``/``get_knowgget`` without ``default=``) a
  knowgget its ``REQUIREMENTS`` never declare and the module itself
  never writes (WARNING).  Tolerant list-reads (``with_label``/
  ``sublabels``) and defaulted reads are the sanctioned way to consume
  optional knowledge — except inside ``required()``: the Module Manager
  re-checks a module's activation only when a knowgget its
  ``REQUIREMENTS`` declare changes, so *any* read there of another
  label, defaulted or not, lets activation go stale (ERROR).  Only reads
  written directly in the class's own ``required`` body are seen, and
  the class must declare the label itself.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.analysis.astutil import patterns_overlap
from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.knowflow import FlowSite, derive_knowflow
from repro.analysis.project import Project

#: Topic prefixes whose families are deliberately open-ended: knowledge
#: change notifications fan out per-knowgget key, and observers attach
#: at runtime (``subscribe_prefix``) — individual keys are not required
#: to have a static subscriber each.
DYNAMIC_TOPIC_ALLOWLIST = ("knowledge.",)

#: kb read methods that are strict: absence of the label at runtime is a
#: behavioural difference (``None``/miss), unlike list-reads which just
#: return empty.
_STRICT_READS = frozenset({"get", "get_knowgget"})


@register_rule
class KnowggetLivenessRule(Rule):
    """KL101: every required or default-less-read knowgget has a writer."""

    ID = "KL101"
    TITLE = "whole-program: required knowggets must have a writer"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = derive_knowflow(project)
        # A fully-dynamic ``put`` could write any label; stay quiet
        # rather than guess wrong.  (``put_static`` injection from
        # config deliberately does not count — see module docstring.)
        if any(
            site.pattern[0] == "dynamic" and site.via != "put_static"
            for site in flow.writes
        ):
            return
        reported: Set[str] = set()
        for site in flow.reads:
            kind, label = site.pattern
            if kind != "exact" or label is None or site.has_default:
                continue
            if flow.written(label) or label in reported:
                continue
            reported.add(label)
            if site.via == "requirement":
                what = f"Requirement of {site.owner}"
            elif site.via in _STRICT_READS:
                what = f"strict {site.via} read"
            else:
                what = f"{site.via} read"
            yield self.finding(
                Severity.ERROR,
                site.path,
                site.line,
                f"knowgget label {label!r} is a {what} but no code in the"
                " tree ever writes it (wrappers included) — the consumer"
                " can never be satisfied",
                key=label,
            )


@register_rule
class DeadKnowledgeRule(Rule):
    """KL102: every written knowgget has a reader (or a reference)."""

    ID = "KL102"
    TITLE = "whole-program: written knowggets must be read somewhere"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = derive_knowflow(project)
        reported: Set[str] = set()
        for site in flow.writes:
            kind, value = site.pattern
            if kind == "dynamic" or value is None:
                continue
            if flow.read_overlaps(site.pattern):
                continue
            rendered = site.render()
            if rendered in reported:
                continue
            if kind == "exact" and flow.referenced_elsewhere(
                value, {s.path for s in flow.writes if s.render() == rendered}
            ):
                continue
            reported.add(rendered)
            origin = (
                f" (via {site.derived_from})" if site.derived_from else ""
            )
            yield self.finding(
                Severity.WARNING,
                site.path,
                site.line,
                f"knowgget {rendered!r} is written here{origin} but no"
                " Requirement or Knowledge Base read anywhere in the tree"
                " ever consumes it — dead knowledge",
                key=rendered,
            )


@register_rule
class OrphanTopicRule(Rule):
    """KL103: publish/subscribe topic sides must pair up."""

    ID = "KL103"
    TITLE = "whole-program: no orphan bus topics"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = derive_knowflow(project)
        reported: Set[str] = set()
        for site in flow.publishes:
            kind, value = site.pattern
            if kind == "dynamic" or value is None:
                yield from self._dynamic(site, "publish", reported)
                continue
            if _allowlisted(value):
                continue
            if any(
                patterns_overlap(site.pattern, other.pattern)
                for other in flow.subscribes
            ):
                continue
            rendered = site.render()
            if rendered in reported:
                continue
            reported.add(rendered)
            origin = (
                f" (via {site.derived_from})" if site.derived_from else ""
            )
            yield self.finding(
                Severity.WARNING,
                site.path,
                site.line,
                f"topic {rendered!r} is published here{origin} but nothing"
                " in the tree subscribes to it",
                key=rendered,
            )
        for site in flow.subscribes:
            kind, value = site.pattern
            if kind == "dynamic" or value is None:
                yield from self._dynamic(site, "subscribe", reported)
                continue
            if _allowlisted(value):
                continue
            if any(
                patterns_overlap(site.pattern, other.pattern)
                for other in flow.publishes
            ):
                continue
            rendered = site.render()
            key = f"sub:{rendered}"
            if key in reported:
                continue
            reported.add(key)
            yield self.finding(
                Severity.ERROR,
                site.path,
                site.line,
                f"topic {rendered!r} is subscribed here but never published"
                " anywhere in the tree (wrappers included) — the handler"
                " can never fire",
                key=rendered,
            )

    def _dynamic(
        self, site: FlowSite, side: str, reported: Set[str]
    ) -> Iterable[Finding]:
        """One finding per side and function for runtime-computed topics."""
        key = f"{side}:<dynamic>@{site.function or '<module>'}"
        if key in reported:
            return
        reported.add(key)
        origin = f" (via {site.derived_from})" if site.derived_from else ""
        yield self.finding(
            Severity.WARNING,
            site.path,
            site.line,
            f"the topic of this {side}{origin} is computed at runtime, so it"
            " cannot be paired with any site — spell it as a constant or a"
            " constant prefix",
            key=key,
        )


def _allowlisted(value: str) -> bool:
    return any(
        value == prefix or value.startswith(prefix)
        for prefix in DYNAMIC_TOPIC_ALLOWLIST
    )


@register_rule
class ContractDriftRule(Rule):
    """KL104: module reads must match its declared requirements."""

    ID = "KL104"
    TITLE = "whole-program: module reads match declared Requirements"

    def check(self, project: Project) -> Iterable[Finding]:
        flow = derive_knowflow(project)
        contracts = flow.requirement_labels
        writes_by_owner: Dict[str, List[FlowSite]] = {}
        for site in flow.writes:
            if site.owner:
                writes_by_owner.setdefault(site.owner, []).append(site)
        for site in flow.reads:
            owner = site.owner
            if owner is None or site.via == "requirement":
                continue
            required = contracts.get(owner, set())
            kind, label = site.pattern
            if site.function == f"{owner}.required":
                if kind != "exact" or label not in required:
                    yield self._stale_activation_read(site)
                continue
            # Only classes that declare Requirements have a contract to
            # drift from; others are free-form consumers.
            if owner not in contracts:
                continue
            if site.via not in _STRICT_READS or site.has_default:
                continue
            if kind != "exact" or label is None:
                continue
            if label in required:
                continue
            if any(
                label.startswith(req + ".") or req.startswith(label + ".")
                for req in required
            ):
                continue
            if any(
                patterns_overlap(site.pattern, write.pattern)
                for write in writes_by_owner.get(owner, ())
            ):
                continue  # the module's own state, not an input contract
            yield self.finding(
                Severity.WARNING,
                site.path,
                site.line,
                f"{owner} strictly reads knowgget {label!r} but its"
                " REQUIREMENTS never declare it and the module never writes"
                " it — declare the Requirement, or read tolerantly"
                " (default= / with_label)",
                key=f"{owner}:{label}",
            )

    def _stale_activation_read(self, site: FlowSite) -> Finding:
        """A ``required()`` read of a label REQUIREMENTS do not declare."""
        return self.finding(
            Severity.ERROR,
            site.path,
            site.line,
            f"{site.owner}.required reads knowgget {site.render()!r} that"
            " its REQUIREMENTS do not declare — the Module Manager re-checks"
            " activation only when a declared knowgget changes, so this"
            " module's activation would go stale; declare it as a"
            " Requirement (default= for optional knowledge)",
            key=f"{site.owner}.required:{site.render()}",
        )
