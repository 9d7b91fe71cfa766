"""The kalis-lint command line.

``kalis-lint`` (console script) and ``python -m repro.analysis`` run the
invariant checker over a source tree::

    kalis-lint src/repro                 # lint, honoring the baseline
    kalis-lint --list-rules              # what is checked
    kalis-lint --select KL001,KL101 …    # a subset of rules
    kalis-lint --write-baseline …        # snapshot current findings
    kalis-lint --format json …           # machine-readable output
    kalis-lint --format sarif …          # SARIF 2.1.0 (CI annotations)
    kalis-lint --changed [REF] …         # only files touched since REF
                                         # (plus their transitive importers)
    kalis-lint --fix [--dry-run] …       # rewrite autofixable findings
                                         # (KL006 unused imports)
    kalis-lint --no-cache …              # skip the .kalis-lint-cache
    kalis-lint graph --format dot|json   # export the whole-program
                                         # knowledge-flow and topic graphs
    kalis-lint graph --view state        # export the state graph
                                         # (checkpoint-safety inventory)
    kalis-lint graph --view proc         # export the process-boundary
                                         # graph (serialization, forks,
                                         # queues, wire schemas)
    kalis-lint baseline --audit …        # flag stale baseline entries
    kalis-lint baseline --audit --prune  # …and rewrite without them

``--changed`` still parses the *whole* tree (the KL1xx whole-program
rules are unsound on a partial parse); only the reported findings are
filtered to the change closure, so it is fast to read, not fast to run.

Exit codes: 0 clean, 1 findings (including stale baseline entries),
2 usage or baseline-file errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.cache import LintCache
from repro.analysis.engine import (
    STALE_BASELINE_RULE_ID,
    available_rules,
    run_rules,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.project import Project, _find_root

#: Default baseline file name, looked up in the project root.
BASELINE_FILENAME = "kalis-lint.baseline"
#: Reason stamped on entries created by ``--write-baseline``.
TODO_REASON = "TODO: justify this finding or fix it"


def build_parser() -> argparse.ArgumentParser:
    """Build the kalis-lint argument parser."""
    parser = argparse.ArgumentParser(
        prog="kalis-lint",
        description=(
            "AST-based invariant checker for the Kalis reproduction:"
            " determinism, module contracts, knowledge-label flow, packet"
            " schemas, and event-bus topics."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root for relative paths (default: auto-detected via"
        " pyproject.toml/.git)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0;"
        " existing justifications are preserved",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="report only findings in files changed vs. REF (default HEAD)"
        " and their transitive importers; the whole tree is still parsed",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="rewrite autofixable findings in place (KL006 unused imports)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --fix: print the diff instead of writing files",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="parse and run every rule from scratch, ignoring"
        " .kalis-lint-cache",
    )
    return parser


def build_graph_parser() -> argparse.ArgumentParser:
    """Build the ``kalis-lint graph`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="kalis-lint graph",
        description=(
            "Export the whole-program knowledge-flow and bus-topic graphs"
            " (deterministic: byte-identical across runs)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root for relative paths",
    )
    parser.add_argument(
        "--format",
        choices=("dot", "json"),
        default="json",
        dest="output_format",
    )
    parser.add_argument(
        "--view",
        choices=("flow", "state", "proc"),
        default="flow",
        help="flow: knowledge-flow and bus-topic graphs (default);"
        " state: the whole-program state inventory (checkpoint roots,"
        " field classification, rebuild hooks); proc: the"
        " process-boundary graph (serialization sites, forks, queues,"
        " exits, wire schemas)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write to FILE instead of stdout",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run kalis-lint; returns the process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "graph":
        return graph_main(arguments[1:])
    if arguments and arguments[0] == "baseline":
        return baseline_main(arguments[1:])
    parser = build_parser()
    options = parser.parse_args(arguments)

    if options.list_rules:
        for rule_class in available_rules():
            print(f"{rule_class.ID}  {rule_class.TITLE}")
        return 0

    project, cache = _load_project(parser, options, cached=not options.no_cache)

    select = None
    if options.select:
        select = [r.strip() for r in options.select.split(",") if r.strip()]
    try:
        findings = run_rules(project, select=select, cache=cache)
    except KeyError as error:
        # str(KeyError) wraps the message in quotes; unwrap it.
        parser.error(error.args[0] if error.args else str(error))

    baseline_path = options.baseline or (project.root / BASELINE_FILENAME)
    if options.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as error:
            print(f"kalis-lint: {error}", file=sys.stderr)
            return 2

    if options.write_baseline:
        return _write_baseline(baseline_path, baseline, findings)

    scope: Optional[Set[str]] = None
    if options.changed is not None:
        try:
            scope = _changed_scope(project, options.changed)
        except RuntimeError as error:
            print(f"kalis-lint: {error}", file=sys.stderr)
            return 2

    suppressed = 0
    reported: List[Finding] = []
    for finding in findings:
        if scope is not None and finding.path not in scope:
            continue
        if baseline.suppresses(finding):
            suppressed += 1
        else:
            reported.append(finding)

    scanned = {source.relpath for source in project.files}
    scanned.update(failure.relpath for failure in project.failures)
    if scope is not None:
        # Out-of-scope files were not (re-)judged; their baseline
        # entries cannot be called stale.
        scanned &= scope
    for entry in baseline.stale_entries(scanned):
        if select is not None and entry.rule not in select:
            # The entry's rule did not run; it cannot be judged stale.
            continue
        reported.append(
            Finding(
                rule=STALE_BASELINE_RULE_ID,
                severity=Severity.WARNING,
                path=entry.path,
                line=0,
                message=(
                    f"stale baseline entry: {entry.rule} no longer reports"
                    f" {entry.key!r} here ({entry.reason}); remove the entry"
                ),
                key=entry.key,
            )
        )
    reported = sort_findings(reported)

    if options.fix:
        from repro.analysis.fixes import apply_fixes, fixable

        changed, diff = apply_fixes(
            project, reported, dry_run=options.dry_run
        )
        fixed = {
            (finding.path, finding.line, finding.key)
            for finding in fixable(reported)
            if finding.path in set(changed)
        }
        if options.dry_run:
            sys.stdout.write(diff)
        else:
            # Fixed findings are gone from the tree; don't re-report them.
            reported = [
                finding
                for finding in reported
                if (finding.path, finding.line, finding.key) not in fixed
            ]
        verb = "would fix" if options.dry_run else "fixed"
        print(
            f"kalis-lint: {verb} {len(fixed)} finding(s) in"
            f" {len(changed)} file(s)"
        )

    if options.output_format == "sarif":
        from repro.analysis.sarif import render_sarif

        sys.stdout.write(render_sarif(reported))
    elif options.output_format == "json":
        print(
            json.dumps(
                {
                    "findings": [finding.to_dict() for finding in reported],
                    "suppressed": suppressed,
                    "files": len(project.files),
                },
                indent=2,
            )
        )
    else:
        for finding in reported:
            print(finding.render())
        summary = (
            f"kalis-lint: {len(reported)} finding(s)"
            if reported
            else "kalis-lint: clean"
        )
        details = [f"{len(project.files)} files"]
        if suppressed:
            details.append(f"{suppressed} baselined")
        print(f"{summary} ({', '.join(details)})")

    return 1 if reported else 0


def _load_project(
    parser: argparse.ArgumentParser,
    options: argparse.Namespace,
    cached: bool,
) -> Tuple[Project, Optional[LintCache]]:
    """Parse ``options.paths`` (default ``src/repro``), through the
    on-disk cache when ``cached``; a missing path is a usage error."""
    paths = [Path(p) for p in options.paths] or [Path("src/repro")]
    if not options.paths and not paths[0].exists():
        parser.error("no paths given and ./src/repro does not exist")
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")
    cache = None
    if cached:
        root = options.root or _find_root([p.resolve() for p in paths])
        cache = LintCache(root.resolve())
    return Project.load(paths, root=options.root, cache=cache), cache


def _changed_scope(project: Project, ref: str) -> Set[str]:
    """Relpaths in the change closure: files changed vs. ``ref`` plus
    every file that (transitively) imports one of them."""
    changed: Set[str] = set()
    for command in (
        ["git", "diff", "--name-only", ref, "--"],
        # Brand-new files are invisible to diff until tracked.
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            completed = subprocess.run(
                command,
                cwd=project.root,
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError) as error:
            detail = getattr(error, "stderr", "") or str(error)
            hint = (
                "; --changed takes an optional git REF, not a path — put"
                " paths before it (kalis-lint src/repro --changed)"
                if Path(ref).exists()
                else ""
            )
            raise RuntimeError(
                f"--changed: {' '.join(command[:2])} failed:"
                f" {detail.strip()}{hint}"
            ) from error
        changed.update(
            line.strip() for line in completed.stdout.splitlines() if line.strip()
        )

    by_relpath = {source.relpath: source for source in project.files}
    frontier = [
        by_relpath[relpath].module
        for relpath in changed
        if relpath in by_relpath
    ]
    closure: Set[str] = set(frontier)
    while frontier:
        module = frontier.pop()
        for importer in project.importers_of(module):
            if importer not in closure:
                closure.add(importer)
                frontier.append(importer)

    scope = {
        source.relpath
        for source in project.files
        if source.module in closure
    }
    # Changed files that did not parse (or are not modules) stay in
    # scope so their findings/baseline entries are still judged.
    scope.update(changed)
    return scope


def graph_main(argv: List[str]) -> int:
    """Run ``kalis-lint graph``; returns the process exit code."""
    parser = build_graph_parser()
    options = parser.parse_args(argv)
    project, _ = _load_project(parser, options, cached=False)
    if options.view == "proc":
        from repro.analysis import procgraph

        proc = procgraph.derive_procgraph(project)
        rendered = (
            procgraph.export_dot(proc)
            if options.output_format == "dot"
            else procgraph.export_json(proc)
        )
    elif options.view == "state":
        from repro.analysis import stategraph

        state = stategraph.derive_stategraph(project)
        rendered = (
            stategraph.export_dot(state)
            if options.output_format == "dot"
            else stategraph.export_json(state)
        )
    else:
        from repro.analysis.knowflow import (
            derive_knowflow,
            export_dot,
            export_json,
        )

        flow = derive_knowflow(project)
        rendered = (
            export_dot(flow)
            if options.output_format == "dot"
            else export_json(flow)
        )
    if options.output is not None:
        options.output.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0


def build_baseline_parser() -> argparse.ArgumentParser:
    """Build the ``kalis-lint baseline`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="kalis-lint baseline",
        description=(
            "Audit the baseline against a full lint run: flag entries"
            " whose (rule, path, key) no longer matches any current"
            " finding, and optionally prune them."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--root", type=Path, default=None, help="project root"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="report stale entries; exit 1 if any (this is the default"
        " and only mode, the flag exists for readability in CI)",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="rewrite the baseline file without the stale entries",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore .kalis-lint-cache for the underlying lint run",
    )
    return parser


def baseline_main(argv: List[str]) -> int:
    """Run ``kalis-lint baseline``; returns the process exit code."""
    parser = build_baseline_parser()
    options = parser.parse_args(argv)
    project, cache = _load_project(parser, options, cached=not options.no_cache)
    findings = run_rules(project, cache=cache)

    baseline_path = options.baseline or (project.root / BASELINE_FILENAME)
    try:
        baseline = Baseline.load(baseline_path)
    except BaselineError as error:
        print(f"kalis-lint: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        baseline.suppresses(finding)  # marks matching entries as used

    scanned = {source.relpath for source in project.files}
    scanned.update(failure.relpath for failure in project.failures)
    stale = baseline.stale_entries(scanned)
    unjudged = [
        entry for entry in baseline.entries() if entry.path not in scanned
    ]
    for entry in stale:
        print(
            f"{entry.path}: stale {entry.rule} entry {entry.key!r}"
            f" ({entry.reason})"
        )
    if options.prune and stale:
        stale_ids = {entry.identity for entry in stale}
        kept = [
            entry
            for entry in baseline.entries()
            if entry.identity not in stale_ids
        ]
        baseline_path.write_text(
            Baseline.render_file(kept), encoding="utf-8"
        )
        print(
            f"kalis-lint: pruned {len(stale)} stale entr"
            f"{'y' if len(stale) == 1 else 'ies'} from {baseline_path}"
            f" ({len(kept)} kept)"
        )
        return 0
    summary = (
        f"kalis-lint: {len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}"
        if stale
        else "kalis-lint: baseline is live"
    )
    details = [f"{len(baseline)} entries", f"{len(project.files)} files"]
    if unjudged:
        details.append(f"{len(unjudged)} outside the scanned paths")
    print(f"{summary} ({', '.join(details)})")
    return 1 if stale else 0


def _write_baseline(
    baseline_path: Path, existing: Baseline, findings: List[Finding]
) -> int:
    """Snapshot current findings, keeping justifications already written."""
    previous = {entry.identity: entry for entry in existing.entries()}
    entries = []
    for finding in findings:
        identity = (finding.rule, finding.path, finding.key)
        kept = previous.get(identity)
        reason = kept.reason if kept is not None else TODO_REASON
        entries.append(Baseline.entry_for(finding, reason))
    baseline_path.write_text(
        Baseline.render_file(entries), encoding="utf-8"
    )
    print(
        f"kalis-lint: wrote {len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'} to {baseline_path}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
