"""kalis-lint: an AST-based invariant checker for the Kalis reproduction.

The reproduction's correctness rests on invariants Python cannot
enforce at runtime — detection modules activate only via declaratively
listed knowgget labels, modules are instantiated by name through the
registry, the event substrate must stay deterministic, and packet
schemas must round-trip through the trace codec.  This package checks
them statically, over the parsed AST and import graph of ``src/repro``.

Public surface:

- :func:`repro.analysis.engine.run_rules` /
  :class:`repro.analysis.project.Project` — programmatic analysis;
- :class:`repro.analysis.callgraph.CallGraph` /
  :func:`repro.analysis.knowflow.derive_knowflow` — the whole-program
  symbol/call-graph layer and the knowledge-flow + topic graphs the
  KL1xx rules run on (exported via ``kalis-lint graph``; its
  Requirement labels are machine-checked against the paper's Figure 3
  taxonomy in tests);
- :mod:`repro.analysis.cli` — the ``kalis-lint`` command.

Per-file rules: KL001 determinism, KL002 module contracts, KL004 packet
schemas, KL006 unused imports, KL007 swallowed exceptions, KL008 no
print() outside the CLI surface — plus KL000 (syntax failure) and KL099
(stale baseline entry).  Whole-program rules: KL101 knowgget liveness,
KL102 dead knowledge, KL103 orphan bus topics, KL104 module contract
drift, KL105 determinism taint; KL201–KL205 checkpoint state and
KL301–KL306 process boundaries.  Each whole-program layer (call graph,
flow, state, proc) is built at most once per project.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import Rule, available_rules, register_rule, run_rules
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.knowflow import KnowFlow, derive_knowflow
from repro.analysis.project import Project, SourceFile

__all__ = [
    "Baseline",
    "BaselineEntry",
    "CallGraph",
    "Finding",
    "KnowFlow",
    "Project",
    "Rule",
    "Severity",
    "SourceFile",
    "available_rules",
    "derive_knowflow",
    "register_rule",
    "run_rules",
    "sort_findings",
]
