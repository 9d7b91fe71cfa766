"""E5 — Knowledge sharing: collaborative wormhole detection (§VI-D).

"Two Kalis nodes monitor two different portions of a ZigBee network.
One node in each portion is malicious, namely nodes B1 and B2, and they
collude in carrying out a wormhole attack. ... The Kalis node observing
the behavior of B1 would, by itself, detect a blackhole attack, while
the Kalis node observing B2 would, without further information,
consider it a source of traffic.  However, correlating the events
between the two Kalis nodes, they are able to correctly identify such
attack as a wormhole."

The scenario runs twice on the identical recorded traffic: once with
each Kalis node isolated (``collective=False``) and once with their
Knowledge Bases joined through the collective-knowledge network.  The
comparison is the experiment's result: isolation yields a blackhole
misclassification; sharing yields the correct wormhole verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.attacks.base import SymptomInstance
from repro.attacks.wormhole import WormholePair
from repro.core.collective import CollectiveKnowledgeNetwork
from repro.core.kalis import KalisNode
from repro.experiments.common import (
    EngineRun,
    collapse,
    run_kalis_on_trace,
    run_traditional_on_trace,
    sniff,
    suspects_of,
)
from repro.metrics.detection import DetectionScore, score_alerts
from repro.proto.mesh import ZigbeeMeshNode
from repro.sim.engine import Simulator
from repro.trace.trace import Trace
from repro.util.ids import NodeId

RUN_DURATION_S = 120.0


@dataclass
class WormholeOutcome:
    """Result of one configuration (isolated or collective)."""

    collective: bool
    alerts_by_node: Dict[str, List]
    score: DetectionScore
    attacks_seen: List[str]

    def summary(self) -> str:
        mode = "collective" if self.collective else "isolated"
        per_node = ", ".join(
            f"{node}: {sorted({alert.attack for alert in alerts})}"
            for node, alerts in sorted(self.alerts_by_node.items())
        )
        return (
            f"[{mode}] attacks seen: {self.attacks_seen} | per node: {per_node} | "
            f"{self.score.summary()}"
        )


@dataclass
class BuiltWormhole:
    traces: Dict[str, Trace]
    instances: List[SymptomInstance]
    entry: NodeId
    exit: NodeId


def build(seed: int = 17) -> BuiltWormhole:
    """Build the two-segment mesh with the colluding pair, and record
    one trace per Kalis observation point."""
    sim = Simulator(seed=seed)

    # Segment A: src -> fwd-a -> B1 (entry).  Segment B: B2 -> fwd-b -> dst.
    # Positions keep the two segments out of each other's radio range.
    source = ZigbeeMeshNode(NodeId("src"), (0.0, 0.0))
    forwarder_a = ZigbeeMeshNode(NodeId("fwd-a"), (25.0, 0.0))
    pair = WormholePair(
        NodeId("B1"), (50.0, 0.0), NodeId("B2"), (200.0, 0.0)
    )
    forwarder_b = ZigbeeMeshNode(NodeId("fwd-b"), (225.0, 0.0))
    destination = ZigbeeMeshNode(NodeId("dst"), (250.0, 0.0))

    dst_id = destination.node_id
    source.set_routes({dst_id: forwarder_a.node_id})
    forwarder_a.set_routes({dst_id: pair.entry.node_id})
    pair.entry.set_routes({dst_id: NodeId("unused")})  # it tunnels instead
    pair.exit.set_routes({dst_id: forwarder_b.node_id})
    forwarder_b.set_routes({dst_id: dst_id})

    for node in (source, forwarder_a, forwarder_b, destination):
        sim.add_node(node)
    pair.add_to(sim)

    def generate() -> None:
        if source.attached:
            source.send_app(dst_id, data_length=20)

    sim.schedule_every(2.0, generate, first_delay=1.0)

    traces = {
        "kalis-A": sniff(sim, (37.0, 8.0), observer="kalis-A"),
        "kalis-B": sniff(sim, (215.0, 8.0), observer="kalis-B"),
    }
    sim.run(RUN_DURATION_S)

    return BuiltWormhole(
        traces=traces,
        instances=collapse(pair.entry.log.instances, "wormhole"),
        entry=pair.entry.node_id,
        exit=pair.exit.node_id,
    )


def replay(built: BuiltWormhole, collective: bool, telemetry=None) -> WormholeOutcome:
    """Replay the recorded traces into two Kalis nodes, optionally
    joined through the collective-knowledge network."""
    kalis_a = KalisNode(NodeId("kalis-A"), telemetry=telemetry)
    kalis_b = KalisNode(NodeId("kalis-B"), telemetry=telemetry)
    if collective:
        network = CollectiveKnowledgeNetwork(sim=None, telemetry=telemetry)
        network.join(kalis_a.kb)
        network.join(kalis_b.kb)

    # Interleave both traces by timestamp so knowledge flows during
    # replay exactly as it would live.
    merged = built.traces["kalis-A"].merged_with(built.traces["kalis-B"])
    nodes = {NodeId("kalis-A"): kalis_a, NodeId("kalis-B"): kalis_b}
    for record in merged:
        observer = record.capture.observer
        nodes[observer].feed(record.capture)

    all_alerts = kalis_a.alerts.alerts + kalis_b.alerts.alerts
    score = score_alerts(all_alerts, built.instances, detection_slack=RUN_DURATION_S)
    return WormholeOutcome(
        collective=collective,
        alerts_by_node={
            "kalis-A": kalis_a.alerts.alerts,
            "kalis-B": kalis_b.alerts.alerts,
        },
        score=score,
        attacks_seen=sorted({alert.attack for alert in all_alerts}),
    )


def breadth_runs(built: BuiltWormhole) -> Dict[str, EngineRun]:
    """Score Figure 8's wormhole row on ``built``: Kalis is the
    collaborating pair, the traditional IDS one all-modules box at the
    entry, with no way to collaborate.  Kalis' resource figures are one
    node's, from a solo replay of the entry trace.  Neither engine
    reports telemetry."""
    pair = replay(built, collective=True)
    entry, slack = built.traces["kalis-A"], RUN_DURATION_S
    traditional, _ = run_traditional_on_trace(entry, built.instances, detection_slack=slack)
    kalis, _ = run_kalis_on_trace(entry, built.instances, detection_slack=slack)
    kalis.alerts = pair.alerts_by_node["kalis-A"] + pair.alerts_by_node["kalis-B"]
    kalis.score, kalis.revoked = pair.score, suspects_of(kalis.alerts)
    return {"kalis": kalis, "traditional": traditional}


def run(
    seed: int = 17, telemetry=None
) -> Tuple[WormholeOutcome, WormholeOutcome]:
    """Run E5: returns (isolated outcome, collective outcome)."""
    built = build(seed=seed)
    return (
        replay(built, collective=False, telemetry=telemetry),
        replay(built, collective=True, telemetry=telemetry),
    )
