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
from repro.devices.commodity import CloudService, NestThermostat
from repro.devices.wsn import TelosbMote
from repro.metrics.detection import DetectionScore, score_alerts, score_countermeasure
from repro.metrics.resources import ResourceReport, resource_report
from repro.proto.iphost import IpRouter, LanDirectory
from repro.proto.mesh import ZigbeeMeshNode
from repro.sim.node import SnifferNode
from repro.sim.topology import star_positions
from repro.trace.recorder import TraceRecorder
from repro.trace.trace import Trace
from repro.util.ids import NodeId, make_node_id
from repro.util.rng import SeededRng


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


@dataclass
class HomeLan:
    """The home-LAN core: a router, its cloud service and a Nest thermostat."""

    lan: LanDirectory
    router: IpRouter
    cloud: CloudService
    nest: NestThermostat


def add_home_lan(sim, rng: SeededRng) -> HomeLan:
    """Add the router, the cloud and the Nest (in that order) to ``sim``:
    every WiFi world's core.  The Nest draws from ``rng.substream("nest")``."""
    lan, wan = LanDirectory(), LanDirectory()
    router = sim.add_node(IpRouter(NodeId("router"), (0.0, 0.0), lan, wan))
    cloud = sim.add_node(CloudService(NodeId("cloud"), (500.0, 0.0), wan, gateway=router.node_id))
    nest = sim.add_node(NestThermostat(NodeId("nest"), (6.0, 2.0), lan, cloud.ip,
                                       router.node_id, rng=rng.substream("nest")))
    return HomeLan(lan=lan, router=router, cloud=cloud, nest=nest)


def add_ctp_chain(sim, relay=None):
    """Add the CTP chain base <- mote-1 <- relay <- mote-3 to ``sim``: TelosB
    motes 25 m apart, so mote-3's reports reach the base only through the
    slot at 50 m.  ``relay`` (placed there) takes it, else a benign mote-2.
    Returns the node in that slot."""
    sim.add_node(TelosbMote(NodeId("mote-base"), (0.0, 0.0), is_root=True))
    sim.add_node(TelosbMote(NodeId("mote-1"), (25.0, 0.0)))
    slot = sim.add_node(relay if relay is not None else TelosbMote(NodeId("mote-2"), (50.0, 0.0)))
    sim.add_node(TelosbMote(NodeId("mote-3"), (75.0, 0.0)))
    return slot


def add_zigbee_star(
    sim, members: int, radius: float, report_every: float, first_report: float,
    stagger: float,
) -> Tuple[ZigbeeMeshNode, List[ZigbeeMeshNode]]:
    """Add a ZigBee coordinator and ``members`` nodes on a circle around
    it; member ``i`` reports 16 bytes to it every ``report_every`` s, first
    at ``first_report + stagger * i``.  Returns ``(coordinator, members)``."""
    coordinator = sim.add_node(ZigbeeMeshNode(NodeId("coordinator"), (0.0, 0.0)))
    nodes: List[ZigbeeMeshNode] = []
    for index, position in enumerate(star_positions(members, radius)):
        member = ZigbeeMeshNode(make_node_id("member", index), position)
        member.set_routes({coordinator.node_id: coordinator.node_id})
        sim.add_node(member)
        nodes.append(member)

        def report(node=member) -> None:
            if node.attached:
                node.send_app(coordinator.node_id, data_length=16)

        sim.schedule_every(report_every, report, first_delay=first_report + stagger * index)
    return coordinator, nodes


def sniff(sim, position, observer: str = "observer") -> Trace:
    """Add a recording sniffer to ``sim``, after the world's other nodes,
    and return the trace it fills as ``sim`` runs."""
    sniffer = sim.add_node(SnifferNode(NodeId(observer), position))
    return TraceRecorder().attach(sniffer).trace


def strike_horizon(attacker) -> float:
    """How long a timer-driven attacker's world runs: its full strike
    schedule, then 20 s for the last symptoms to be scored."""
    return attacker.start_delay + attacker.max_instances * attacker.interval + 20.0


def collapse(
    instances: List[SymptomInstance], attack: str, until: Optional[float] = None
) -> List[SymptomInstance]:
    """Collapse per-packet symptom logs into one spanning instance.

    Drip-style attacks (a forged frame every few seconds) are one
    ongoing adverse event, not dozens; rate detectors legitimately take
    several packets to accumulate evidence for it.  ``until`` extends
    the span for misbehaviour that continues past the attacker's own
    log (a route lie keeps swallowing traffic as long as victims stay
    re-parented).
    """
    if not instances:
        return []
    end = until if until is not None else instances[-1].end
    return [SymptomInstance(attack=attack, attacker=instances[0].attacker, instance=0,
                            start=instances[0].start, end=end)]


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
    run = score_node(
        "kalis", kalis, instances, trace.duration,
        detection_slack=detection_slack, telemetry=telemetry,
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
    run = score_node(
        "traditional", trad, instances, trace.duration,
        detection_slack=detection_slack, telemetry=telemetry,
    )
    return run, trad


def score_node(
    engine: str,
    node: KalisNode,
    instances: Sequence[SymptomInstance],
    duration_s: float,
    detection_slack: float = 20.0,
    telemetry=None,
) -> EngineRun:
    """Score a Kalis or traditional node (``engine`` names which) once it
    has seen its captures over ``duration_s`` seconds."""
    return _score_engine(
        name=engine,
        engine_kind=engine,
        alerts=node.alerts.alerts,
        instances=instances,
        duration_s=duration_s,
        work_units=node.cpu_work_units(),
        active_modules=len(node.manager.active_modules()),
        state_bytes=node.approximate_ram_bytes(),
        detection_slack=detection_slack,
        telemetry=telemetry,
    )


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
        duration_s=trace.duration,
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
    duration_s: float,
    work_units: float,
    active_modules: int,
    state_bytes: int,
    rule_count: int = 0,
    detection_slack: float = 20.0,
    telemetry=None,
) -> EngineRun:
    duration = max(duration_s, 1e-9)
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
