"""The pluggable rule framework and analysis runner.

A rule is a class with an ``ID``, a ``TITLE``, and a ``check(project)``
generator yielding :class:`~repro.analysis.findings.Finding` objects.
Rules register with :func:`register_rule`; the runner instantiates each
selected rule once and hands every rule the same parsed
:class:`~repro.analysis.project.Project`.

Two pseudo-rules are reserved and always on:

- ``KL000`` — a file failed to parse (every other rule is blind there);
- ``KL099`` — a baseline entry no longer matches any finding (stale).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Type

from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.project import Project, SourceFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.cache import LintCache

#: Rule id used for files that fail to parse.
SYNTAX_RULE_ID = "KL000"
#: Rule id used for stale baseline entries (emitted by the CLI layer).
STALE_BASELINE_RULE_ID = "KL099"


class Rule:
    """Base class for kalis-lint rules.

    ``SCOPE`` declares what a rule's findings depend on: ``"program"``
    rules see the whole tree (any file change invalidates their cached
    results), ``"file"`` rules (see :class:`FileRule`) judge each file
    in isolation and cache per file.
    """

    ID = "KL???"
    TITLE = "untitled rule"
    SCOPE = "program"

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        severity: Severity,
        path: str,
        line: int,
        message: str,
        key: str,
        column: Optional[int] = None,
    ) -> Finding:
        """Construct a finding stamped with this rule's id."""
        return Finding(
            rule=self.ID,
            severity=severity,
            path=path,
            line=line,
            message=message,
            key=key,
            column=column,
        )


class FileRule(Rule):
    """A rule whose findings for a file depend only on that file.

    Subclasses implement :meth:`check_file`; the engine caches its
    results per ``(path, size, sha1)`` so a warm lint re-runs it only
    on changed files.
    """

    SCOPE = "file"

    def check_file(
        self, project: Project, source: SourceFile
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            yield from self.check_file(project, source)


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not (isinstance(rule_class, type) and issubclass(rule_class, Rule)):
        raise TypeError(f"{rule_class!r} is not a Rule subclass")
    rule_id = rule_class.ID
    existing = _RULES.get(rule_id)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            f"rule id {rule_id!r} already registered by {existing.__name__}"
        )
    _RULES[rule_id] = rule_class
    return rule_class


def available_rules() -> List[Type[Rule]]:
    """All registered rules, ordered by id."""
    _ensure_rules_loaded()
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def run_rules(
    project: Project,
    select: Optional[Iterable[str]] = None,
    cache: Optional["LintCache"] = None,
) -> List[Finding]:
    """Run the selected rules (default: all) over a parsed project.

    With a :class:`~repro.analysis.cache.LintCache`, file-scoped rules
    re-run only on files whose content changed, and program-scoped
    rules re-run only when any file (or the analysis code) changed.
    """
    _ensure_rules_loaded()
    findings: List[Finding] = [
        Finding(
            rule=SYNTAX_RULE_ID,
            severity=Severity.ERROR,
            path=failure.relpath,
            line=failure.line,
            message=failure.message,
            key="syntax-error",
        )
        for failure in project.failures
    ]
    chosen = set(select) if select is not None else None
    if chosen is not None:
        unknown = chosen - set(_RULES)
        if unknown:
            raise KeyError(
                f"unknown rule ids: {', '.join(sorted(unknown))};"
                f" known: {', '.join(sorted(_RULES))}"
            )
    tree_digest = cache.tree_digest(project.files) if cache is not None else ""
    for rule_id in sorted(_RULES):
        if chosen is not None and rule_id not in chosen:
            continue
        rule = _RULES[rule_id]()
        if rule.SCOPE == "file":
            for source in project.files:
                cached = (
                    cache.get_file_findings(source.relpath, source.text, rule_id)
                    if cache is not None
                    else None
                )
                if cached is None:
                    cached = list(rule.check_file(project, source))
                    if cache is not None:
                        cache.put_file_findings(
                            source.relpath, source.text, rule_id, cached
                        )
                findings.extend(cached)
        elif cache is None:
            findings.extend(rule.check(project))
        else:
            cached = cache.get_program_findings(tree_digest, rule_id)
            if cached is None:
                cached = list(rule.check(project))
                cache.put_program_findings(tree_digest, rule_id, cached)
            findings.extend(cached)
    if cache is not None:
        cache.flush()
    return sort_findings(findings)


def _ensure_rules_loaded() -> None:
    """Import the bundled rule modules (idempotent)."""
    from repro.analysis import rules  # noqa: F401  (import registers rules)
