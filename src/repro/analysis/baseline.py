"""Baseline suppression for kalis-lint findings.

A baseline entry records a *justified* finding: one the team has looked
at and decided to keep, with a one-line reason checked into the repo.
Entries match on ``(rule, path, key)`` — never on line numbers — so they
survive unrelated edits but die with the code they describe.

File format (``kalis-lint.baseline``), one entry per line::

    KL102 src/repro/core/modules/sensing/mobility.py SignalStrength -- collective knowgget

Blank lines and ``#`` comments are ignored.  The ``--`` separator
introduces the mandatory reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.findings import Finding

_SEPARATOR = " -- "


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    key: str
    reason: str

    @property
    def identity(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.key)

    def render(self) -> str:
        return f"{self.rule} {self.path} {self.key}{_SEPARATOR}{self.reason}"


class BaselineError(ValueError):
    """A malformed baseline file line."""


class Baseline:
    """The set of suppressed findings, with usage tracking."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self._entries: Dict[Tuple[str, str, str], BaselineEntry] = {}
        for entry in entries:
            self._entries[entry.identity] = entry
        self._used: Set[Tuple[str, str, str]] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[BaselineEntry]:
        return [self._entries[key] for key in sorted(self._entries)]

    def suppresses(self, finding: Finding) -> bool:
        """True (and mark the entry used) if the finding is baselined."""
        identity = (finding.rule, finding.path, finding.key)
        if identity in self._entries:
            self._used.add(identity)
            return True
        return False

    def stale_entries(self, scanned_paths: Iterable[str]) -> List[BaselineEntry]:
        """Entries whose file was scanned but produced no matching finding.

        Entries for files outside the scanned set are left alone, so
        linting a single file never reports the rest of the baseline as
        stale.
        """
        scanned = set(scanned_paths)
        return [
            entry
            for key, entry in sorted(self._entries.items())
            if entry.path in scanned and key not in self._used
        ]

    # -- persistence -----------------------------------------------------------

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        entries = []
        for line_number, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entries.append(_parse_line(line, path, line_number))
        return cls(entries)

    @staticmethod
    def render_file(entries: Iterable[BaselineEntry]) -> str:
        lines = [
            "# kalis-lint baseline — justified findings, one per line:",
            "#   <rule> <path> <key> -- <reason>",
            "# Remove an entry once the underlying finding is fixed.",
        ]
        lines.extend(
            entry.render()
            for entry in sorted(entries, key=lambda e: e.identity)
        )
        return "\n".join(lines) + "\n"

    @staticmethod
    def entry_for(finding: Finding, reason: str) -> BaselineEntry:
        return BaselineEntry(
            rule=finding.rule, path=finding.path, key=finding.key, reason=reason
        )


def _parse_line(line: str, path: Path, line_number: int) -> BaselineEntry:
    head, separator, reason = line.partition(_SEPARATOR)
    if not separator or not reason.strip():
        raise BaselineError(
            f"{path}:{line_number}: baseline entry is missing a"
            f" '{_SEPARATOR.strip()} <reason>' justification: {line!r}"
        )
    fields = head.split()
    if len(fields) != 3:
        raise BaselineError(
            f"{path}:{line_number}: expected '<rule> <path> <key>'"
            f" before the reason, got {head!r}"
        )
    rule, file_path, key = fields
    return BaselineEntry(
        rule=rule, path=file_path, key=key, reason=reason.strip()
    )
