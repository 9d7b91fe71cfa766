"""Shared experiment plumbing.

The evaluation methodology, common to every scenario:

1. build the simulated testbed (benign devices + attackers + a
   recording sniffer) and run it, producing one
   :class:`~repro.trace.trace.Trace` plus ground-truth
   :class:`~repro.attacks.base.SymptomInstance` windows;
2. replay the *identical* captures into each engine under test
   (Kalis, the traditional IDS, Snort) — total fairness, as in §VI-B;
3. score each engine's alerts with :mod:`repro.metrics.detection` and
   account its work with :mod:`repro.metrics.resources`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.attacks.base import SymptomInstance
from repro.baselines.snort import SnortEngine, community_ruleset
from repro.baselines.traditional import TraditionalIds
from repro.core.alerts import Alert
from repro.core.kalis import KalisNode
from repro.metrics.detection import DetectionScore, score_alerts, score_countermeasure
from repro.metrics.resources import ResourceReport, resource_report
from repro.trace.trace import Trace
from repro.util.ids import NodeId


@dataclass
class EngineRun:
    """One engine's results over one scenario."""

    name: str
    alerts: List[Alert]
    score: DetectionScore
    resources: ResourceReport
    revoked: List[NodeId] = field(default_factory=list)
    countermeasure_effectiveness: Optional[float] = None
    extra: Dict = field(default_factory=dict)

    def summary(self) -> str:
        parts = [f"{self.name}: {self.score.summary()}"]
        parts.append(
            f"CPU {self.resources.cpu_percent:.2f}% RAM {self.resources.ram_kb:,.0f} kB"
        )
        if self.countermeasure_effectiveness is not None:
            parts.append(
                f"countermeasure {self.countermeasure_effectiveness:.0%}"
            )
        return " | ".join(parts)


@dataclass
class ScenarioResult:
    """All engines' results over one scenario."""

    scenario: str
    duration_s: float
    capture_count: int
    instances: List[SymptomInstance]
    runs: Dict[str, EngineRun] = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)

    def run(self, engine: str) -> EngineRun:
        return self.runs[engine]

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario}: {self.capture_count} captures over "
            f"{self.duration_s:.0f} s, {len(self.instances)} symptom instances"
        ]
        for name in sorted(self.runs):
            lines.append("  " + self.runs[name].summary())
        return "\n".join(lines)


def suspects_of(alerts: Sequence[Alert]) -> List[NodeId]:
    """Every distinct suspect across an alert stream (revocation set)."""
    seen: Set[NodeId] = set()
    ordered: List[NodeId] = []
    for alert in alerts:
        for suspect in alert.suspects:
            if suspect not in seen:
                seen.add(suspect)
                ordered.append(suspect)
    return ordered


def run_kalis_on_trace(
    trace: Trace,
    instances: Sequence[SymptomInstance],
    node_id: NodeId = NodeId("kalis-1"),
    config=None,
    detection_slack: float = 20.0,
    telemetry=None,
    **kalis_kwargs,
) -> Tuple[EngineRun, KalisNode]:
    """Replay a trace into a fresh Kalis node and score it."""
    kalis = KalisNode(node_id, config=config, telemetry=telemetry, **kalis_kwargs)
    kalis.replay_trace(trace)
    run = _score_engine(
        name="kalis",
        engine_kind="kalis",
        alerts=kalis.alerts.alerts,
        instances=instances,
        trace=trace,
        work_units=kalis.cpu_work_units(),
        active_modules=len(kalis.manager.active_modules()),
        state_bytes=kalis.approximate_ram_bytes(),
        detection_slack=detection_slack,
        telemetry=telemetry,
    )
    return run, kalis


def run_traditional_on_trace(
    trace: Trace,
    instances: Sequence[SymptomInstance],
    node_id: NodeId = NodeId("trad-1"),
    module_names=None,
    detection_slack: float = 20.0,
    telemetry=None,
    **kwargs,
) -> Tuple[EngineRun, TraditionalIds]:
    """Replay a trace into the traditional-IDS baseline and score it."""
    trad = TraditionalIds(
        node_id, module_names=module_names, telemetry=telemetry, **kwargs
    )
    trad.replay_trace(trace)
    run = _score_engine(
        name="traditional",
        engine_kind="traditional",
        alerts=trad.alerts.alerts,
        instances=instances,
        trace=trace,
        work_units=trad.cpu_work_units(),
        active_modules=len(trad.manager.active_modules()),
        state_bytes=trad.approximate_ram_bytes(),
        detection_slack=detection_slack,
        telemetry=telemetry,
    )
    return run, trad


def run_snort_on_trace(
    trace: Trace,
    instances: Sequence[SymptomInstance],
    rule_count: int = 3500,
    detection_slack: float = 20.0,
    telemetry=None,
) -> Tuple[EngineRun, SnortEngine]:
    """Replay a trace into the Snort baseline and score it."""
    snort = SnortEngine(community_ruleset(target_size=rule_count))
    for record in trace:
        snort.on_capture(record.capture)
    run = _score_engine(
        name="snort",
        engine_kind="snort",
        alerts=snort.alerts.alerts,
        instances=instances,
        trace=trace,
        work_units=snort.work_units,
        active_modules=0,
        state_bytes=snort.approximate_state_bytes(),
        rule_count=snort.rule_count(),
        detection_slack=detection_slack,
        telemetry=telemetry,
    )
    return run, snort


def _score_engine(
    name: str,
    engine_kind: str,
    alerts: Sequence[Alert],
    instances: Sequence[SymptomInstance],
    trace: Trace,
    work_units: float,
    active_modules: int,
    state_bytes: int,
    rule_count: int = 0,
    detection_slack: float = 20.0,
    telemetry=None,
) -> EngineRun:
    duration = max(trace.duration, 1e-9)
    score = score_alerts(alerts, instances, detection_slack=detection_slack)
    resources = resource_report(
        engine_kind,
        work_units=work_units,
        duration_s=duration,
        active_modules=active_modules,
        state_bytes=state_bytes,
        rule_count=rule_count,
        telemetry=telemetry,
    )
    return EngineRun(
        name=name,
        alerts=list(alerts),
        score=score,
        resources=resources,
        revoked=suspects_of(alerts),
    )


def apply_countermeasure_score(
    run: EngineRun,
    attackers: Sequence[NodeId],
    victims: Sequence[NodeId] = (),
) -> None:
    """Fill in countermeasure effectiveness from the revocation set."""
    run.countermeasure_effectiveness = score_countermeasure(
        run.revoked, attackers, victims
    )
