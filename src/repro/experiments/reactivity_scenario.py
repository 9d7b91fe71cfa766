"""E4 — Reactivity to environment changes (§VI-C).

"We run [Kalis] with a configuration file that does not activate any
detection modules by default and does not contain any a-priori
knowgget.  We then let Kalis monitor a ZigBee network with one node
programmed to carry out selective forwarding attacks, and measure how
soon Kalis detects the first attack.  The selective forwarding
detection module only activates upon discovering a multi-hop network;
the Topology Discovery sensing module detects such feature from the
first CTP packets intercepted."

The metric: Kalis must identify 100% of the selective-forwarding
symptoms even though no detection module was active when monitoring
began — knowledge discovery and module activation must be fast enough
that nothing is missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.selective_forwarding import SelectiveForwardingMote
from repro.core.kalis import KalisNode
from repro.core.knowledge import KNOWLEDGE_TOPIC_PREFIX
from repro.experiments.common import add_ctp_chain, sniff
from repro.metrics.detection import score_alerts
from repro.sim.engine import Simulator
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


@dataclass
class ReactivityResult:
    """Timeline of Kalis' reaction to a cold start."""

    first_capture_at: float
    multihop_discovered_at: Optional[float]
    module_activated_at: Optional[float]
    first_alert_at: Optional[float]
    detection_rate: float
    total_instances: int

    @property
    def discovery_latency(self) -> Optional[float]:
        if self.multihop_discovered_at is None:
            return None
        return self.multihop_discovered_at - self.first_capture_at

    @property
    def detection_latency(self) -> Optional[float]:
        if self.first_alert_at is None:
            return None
        return self.first_alert_at - self.first_capture_at

    def summary(self) -> str:
        lines = [
            f"first capture at t={self.first_capture_at:.2f}s",
            f"multi-hop discovered after {self.discovery_latency:.2f}s"
            if self.discovery_latency is not None
            else "multi-hop never discovered",
            f"detection module activated after "
            f"{self.module_activated_at - self.first_capture_at:.2f}s"
            if self.module_activated_at is not None
            else "detection module never activated",
            f"first alert after {self.detection_latency:.2f}s"
            if self.detection_latency is not None
            else "no alert raised",
            f"detection rate {self.detection_rate:.0%} over "
            f"{self.total_instances} symptom instances",
        ]
        return "\n".join(lines)


#: Configuration file (paper Figure 6 grammar): nothing active, nothing known.
COLD_START_CONFIG = """
modules = { }
knowggets = { }
"""

RUN_DURATION_S = 120.0


def run(
    seed: int = 13, drop_probability: float = 0.7, telemetry=None
) -> ReactivityResult:
    """Run the cold-start reactivity experiment."""
    sim = Simulator(seed=seed, telemetry=telemetry)
    attacker = SelectiveForwardingMote(
        NodeId("forwarder"), (50.0, 0.0), drop_probability=drop_probability,
        rng=SeededRng(seed, "attacker"),
    )
    add_ctp_chain(sim, relay=attacker)
    trace = sniff(sim, (50.0, 10.0))
    sim.run(RUN_DURATION_S)

    if len(trace) == 0:
        raise RuntimeError("scenario produced no captures")
    first_capture_at = trace[0].timestamp

    kalis = KalisNode(NodeId("kalis-1"), config=COLD_START_CONFIG, telemetry=telemetry)

    # Instrument the knowledge bus and module manager for the timeline.
    timeline = {"multihop_at": None, "activated_at": None}
    watchdog = kalis.manager.module("ForwardingMisbehaviorModule")
    assert not watchdog.active, "cold start must begin with no detection modules"

    last_seen = {"t": first_capture_at}

    def on_knowledge(event) -> None:
        if (
            timeline["multihop_at"] is None
            and event.topic == KNOWLEDGE_TOPIC_PREFIX + "kalis-1$Multihop.802154"
            and event.payload is not None
            and event.payload.value == "true"
        ):
            timeline["multihop_at"] = last_seen["t"]
        if timeline["activated_at"] is None and watchdog.active:
            timeline["activated_at"] = last_seen["t"]

    kalis.bus.subscribe_prefix(KNOWLEDGE_TOPIC_PREFIX, on_knowledge)

    for record in trace:
        last_seen["t"] = record.timestamp
        kalis.feed(record.capture)

    # Exclude the truncated tail: a drop seconds before the recording
    # stops has no subsequent watchdog window in which to be reported.
    # The experiment's claim is about the *beginning* — no symptom is
    # missed while knowledge is still being discovered.
    trace_end = trace[len(trace) - 1].timestamp
    scoreable = [
        instance
        for instance in attacker.log.instances
        if instance.start <= trace_end - 15.0
    ]
    score = score_alerts(kalis.alerts.alerts, scoreable, detection_slack=30.0)
    first_alert = kalis.alerts.first()
    return ReactivityResult(
        first_capture_at=first_capture_at,
        multihop_discovered_at=timeline["multihop_at"],
        module_activated_at=timeline["activated_at"],
        first_alert_at=first_alert.timestamp if first_alert else None,
        detection_rate=score.detection_rate,
        total_instances=score.total_instances,
    )
