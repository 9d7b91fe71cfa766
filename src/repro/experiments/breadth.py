"""E6 — Figure 8: breadth of attack detection (§VI-E).

"Overall, we consider 8 attack scenarios ... Snort is not shown as it
could not run on any of the ZigBee-based attack scenarios. ... we
observe that Kalis is always more effective than traditional IDS
approaches and, on average, achieves significant improvements."

The eight scenarios: ICMP flood, Smurf, SYN flood, selective
forwarding, blackhole, wormhole, replication, sybil.  For each, the
same recorded trace is scored for Kalis (knowledge-driven) and the
traditional baseline (everything always on; for replication, a random
static module choice; for wormhole, a single non-collaborating box).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.attacks.base import SymptomInstance
from repro.attacks.blackhole import BlackholeMote
from repro.attacks.selective_forwarding import SelectiveForwardingMote
from repro.attacks.smurf import SmurfAttacker
from repro.attacks.sybil import SybilNode
from repro.attacks.syn_flood import SynFloodAttacker
from repro.devices.commodity import CloudService, LifxBulb, NestThermostat
from repro.devices.mesh_wifi import MeshRelayStation
from repro.devices.wsn import TelosbMote
from repro.experiments import (
    icmp_flood_scenario,
    replication_scenario,
    wormhole_scenario,
)
from repro.experiments.common import (
    EngineRun,
    run_kalis_on_trace,
    run_traditional_on_trace,
)
from repro.metrics.detection import score_alerts
from repro.proto.iphost import IpHost, IpRouter, LanDirectory
from repro.proto.mesh import ZigbeeMeshNode
from repro.sim.engine import Simulator
from repro.sim.node import SnifferNode
from repro.trace.recorder import TraceRecorder
from repro.trace.trace import Trace
from repro.util.ids import NodeId, make_node_id
from repro.util.rng import SeededRng

SCENARIOS: Tuple[str, ...] = (
    "icmp_flood",
    "smurf",
    "syn_flood",
    "selective_forwarding",
    "blackhole",
    "wormhole",
    "replication",
    "sybil",
)


@dataclass
class BreadthResult:
    """Per-scenario and average effectiveness for Kalis vs traditional."""

    per_scenario: Dict[str, Dict[str, EngineRun]] = field(default_factory=dict)

    def average(self, engine: str, metric: str) -> float:
        values = []
        for runs in self.per_scenario.values():
            run = runs.get(engine)
            if run is None:
                continue
            values.append(getattr(run.score, metric))
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        lines = [
            f"{'scenario':>22}  {'Kalis DR':>9} {'Trad DR':>9}  "
            f"{'Kalis acc':>9} {'Trad acc':>9}"
        ]
        for scenario in SCENARIOS:
            runs = self.per_scenario.get(scenario, {})
            kalis = runs.get("kalis")
            trad = runs.get("traditional")

            def fmt(run: Optional[EngineRun], metric: str) -> str:
                if run is None:
                    return "      n/a"
                return f"{getattr(run.score, metric) * 100:>8.0f}%"

            lines.append(
                f"{scenario:>22}  {fmt(kalis, 'detection_rate')} "
                f"{fmt(trad, 'detection_rate')}  "
                f"{fmt(kalis, 'classification_accuracy')} "
                f"{fmt(trad, 'classification_accuracy')}"
            )
        lines.append(
            f"{'AVERAGE':>22}  "
            f"{self.average('kalis', 'detection_rate') * 100:>8.0f}% "
            f"{self.average('traditional', 'detection_rate') * 100:>8.0f}%  "
            f"{self.average('kalis', 'classification_accuracy') * 100:>8.0f}% "
            f"{self.average('traditional', 'classification_accuracy') * 100:>8.0f}%"
        )
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Scenario builders.  Each returns (trace, instances).
# --------------------------------------------------------------------------


def _build_smurf(seed: int, bursts: int) -> Tuple[Trace, List[SymptomInstance]]:
    """A mesh WLAN (multi-hop) where a Smurf reflects off neighbours."""
    sim = Simulator(seed=seed)
    rng = SeededRng(seed, "smurf-scenario")
    lan = LanDirectory()
    wan = LanDirectory()
    router = IpRouter(NodeId("router"), (0.0, 0.0), lan, wan)
    sim.add_node(router)
    cloud = CloudService(NodeId("cloud"), (500.0, 0.0), wan, gateway=router.node_id)
    sim.add_node(cloud)

    victim = NestThermostat(
        NodeId("nest"), (6.0, 2.0), lan, cloud.ip, router.node_id,
        rng=rng.substream("nest"),
    )
    sim.add_node(victim)
    # Ping-answering neighbours: the Smurf's amplifiers.
    responders = []
    for index in range(4):
        responder = IpHost(
            make_node_id("station", index),
            (3.0 + 2.0 * index, 7.0),
            lan,
            gateway=router.node_id,
        )
        sim.add_node(responder)
        responders.append(responder)
    # The extender that makes this WLAN a mesh (multi-hop evidence).
    sim.add_node(
        MeshRelayStation(
            NodeId("extender"),
            (10.0, 4.0),
            relay_for=(responders[0].node_id, victim.node_id),
            rng=rng.substream("extender"),
        )
    )
    attacker = SmurfAttacker(
        NodeId("smurfer"),
        (9.0, 9.0),
        lan,
        victim_ip=victim.ip,
        requests_per_burst=5,
        burst_interval=6.0,
        start_delay=15.0,
        max_bursts=bursts,
        rng=rng.substream("attacker"),
    )
    sim.add_node(attacker)
    sniffer = SnifferNode(NodeId("observer"), (5.0, 4.0))
    sim.add_node(sniffer)
    recorder = TraceRecorder().attach(sniffer)
    sim.run(attacker.start_delay + bursts * attacker.interval + 20.0)
    return recorder.trace, attacker.log.instances


def _build_syn_flood(seed: int, bursts: int) -> Tuple[Trace, List[SymptomInstance]]:
    sim = Simulator(seed=seed)
    rng = SeededRng(seed, "syn-scenario")
    lan = LanDirectory()
    wan = LanDirectory()
    router = IpRouter(NodeId("router"), (0.0, 0.0), lan, wan)
    sim.add_node(router)
    cloud = CloudService(NodeId("cloud"), (500.0, 0.0), wan, gateway=router.node_id)
    sim.add_node(cloud)
    victim = NestThermostat(
        NodeId("nest"), (6.0, 2.0), lan, cloud.ip, router.node_id,
        rng=rng.substream("nest"),
    )
    victim.tcp.listen(443)  # the flooded service
    sim.add_node(victim)
    sim.add_node(
        LifxBulb(NodeId("lifx"), (4.0, 6.0), lan, cloud.ip, router.node_id,
                 rng=rng.substream("lifx"))
    )
    attacker = SynFloodAttacker(
        NodeId("synner"),
        (9.0, 8.0),
        lan,
        victim_ip=victim.ip,
        victim_link=victim.node_id,
        burst_size=30,
        burst_interval=6.0,
        start_delay=15.0,
        max_bursts=bursts,
        rng=rng.substream("attacker"),
    )
    sim.add_node(attacker)
    sniffer = SnifferNode(NodeId("observer"), (5.0, 4.0))
    sim.add_node(sniffer)
    recorder = TraceRecorder().attach(sniffer)
    sim.run(attacker.start_delay + bursts * attacker.interval + 20.0)
    return recorder.trace, attacker.log.instances


def _build_ctp_chain(
    seed: int, attacker_node
) -> Tuple[Trace, List[SymptomInstance]]:
    """The shared CTP chain: base <- mote-1 <- ATTACKER <- mote-3."""
    sim = Simulator(seed=seed)
    sim.add_node(TelosbMote(NodeId("mote-base"), (0.0, 0.0), is_root=True))
    sim.add_node(TelosbMote(NodeId("mote-1"), (25.0, 0.0)))
    sim.add_node(attacker_node)
    sim.add_node(TelosbMote(NodeId("mote-3"), (75.0, 0.0)))
    sniffer = SnifferNode(NodeId("observer"), (50.0, 10.0))
    sim.add_node(sniffer)
    recorder = TraceRecorder().attach(sniffer)
    sim.run(150.0)
    return recorder.trace, attacker_node.log.instances


def _build_sybil(seed: int, rounds: int) -> Tuple[Trace, List[SymptomInstance]]:
    sim = Simulator(seed=seed)
    rng = SeededRng(seed, "sybil-scenario")
    coordinator = ZigbeeMeshNode(NodeId("coordinator"), (0.0, 0.0))
    sim.add_node(coordinator)
    import math

    members = []
    for index in range(5):
        angle = 2.0 * math.pi * index / 5
        member = ZigbeeMeshNode(
            make_node_id("member", index),
            (12.0 * math.cos(angle), 12.0 * math.sin(angle)),
        )
        member.set_routes({coordinator.node_id: coordinator.node_id})
        sim.add_node(member)
        members.append(member)

        def report(node=member) -> None:
            if node.attached:
                node.send_app(coordinator.node_id, data_length=16)

        sim.schedule_every(2.5, report, first_delay=0.4 + 0.31 * index)

    attacker = SybilNode(
        NodeId("sybiller"),
        (18.0, 6.0),
        target=coordinator.node_id,
        identity_count=4,
        round_interval=6.0,
        start_delay=12.0,
        max_rounds=rounds,
        rng=rng.substream("attacker"),
    )
    sim.add_node(attacker)
    sniffer = SnifferNode(NodeId("observer"), (4.0, 3.0))
    sim.add_node(sniffer)
    recorder = TraceRecorder().attach(sniffer)
    sim.run(attacker.start_delay + rounds * attacker.interval + 20.0)
    return recorder.trace, attacker.log.instances


# --------------------------------------------------------------------------
# Per-scenario runners.
# --------------------------------------------------------------------------


def _score_pair(
    trace: Trace,
    instances: List[SymptomInstance],
    detection_slack: float = 25.0,
    telemetry=None,
) -> Dict[str, EngineRun]:
    kalis_run, _ = run_kalis_on_trace(
        trace, instances, detection_slack=detection_slack, telemetry=telemetry
    )
    trad_run, _ = run_traditional_on_trace(
        trace, instances, detection_slack=detection_slack, telemetry=telemetry
    )
    return {"kalis": kalis_run, "traditional": trad_run}


def run(
    seed: int = 23, instances_per_scenario: int = 12, telemetry=None
) -> BreadthResult:
    """Run all eight Figure 8 scenarios.

    :param instances_per_scenario: symptom instances per burst-style
        scenario (the paper uses 50; smaller keeps tests quick).
    """
    result = BreadthResult()
    count = instances_per_scenario

    e1 = icmp_flood_scenario.run(
        seed=seed, symptom_instances=count, engines=("kalis", "traditional"),
        telemetry=telemetry,
    )
    result.per_scenario["icmp_flood"] = {
        "kalis": e1.runs["kalis"],
        "traditional": e1.runs["traditional"],
    }

    trace, instances = _build_smurf(seed + 1, bursts=count)
    result.per_scenario["smurf"] = _score_pair(trace, instances, telemetry=telemetry)

    trace, instances = _build_syn_flood(seed + 2, bursts=count)
    result.per_scenario["syn_flood"] = _score_pair(trace, instances, telemetry=telemetry)

    trace, instances = _build_ctp_chain(
        seed + 3,
        SelectiveForwardingMote(
            NodeId("forwarder"), (50.0, 0.0), drop_probability=0.6,
            rng=SeededRng(seed + 3, "sf"),
        ),
    )
    result.per_scenario["selective_forwarding"] = _score_pair(
        trace, instances, detection_slack=35.0, telemetry=telemetry
    )

    trace, instances = _build_ctp_chain(
        seed + 4, BlackholeMote(NodeId("forwarder"), (50.0, 0.0))
    )
    result.per_scenario["blackhole"] = _score_pair(
        trace, instances, detection_slack=35.0, telemetry=telemetry
    )

    # Wormhole: Kalis = two collaborating nodes; traditional = one
    # all-modules box near the entry (no collaboration mechanism).
    built = wormhole_scenario.build(seed + 5)
    collective_outcome = wormhole_scenario.replay(built, collective=True)
    trad_run, _ = run_traditional_on_trace(
        built.traces["kalis-A"], built.instances, detection_slack=wormhole_scenario.RUN_DURATION_S
    )
    kalis_alerts = (
        collective_outcome.alerts_by_node["kalis-A"]
        + collective_outcome.alerts_by_node["kalis-B"]
    )
    kalis_run, _ = run_kalis_on_trace(
        built.traces["kalis-A"], built.instances, detection_slack=wormhole_scenario.RUN_DURATION_S
    )
    kalis_run.alerts = kalis_alerts
    kalis_run.score = score_alerts(
        kalis_alerts, built.instances, detection_slack=wormhole_scenario.RUN_DURATION_S
    )
    result.per_scenario["wormhole"] = {"kalis": kalis_run, "traditional": trad_run}

    e2 = replication_scenario.run(
        seed=seed + 6, runs=3, engines=("kalis", "traditional"),
        telemetry=telemetry,
    )
    result.per_scenario["replication"] = {
        "kalis": e2.runs["kalis"],
        "traditional": e2.runs["traditional"],
    }

    trace, instances = _build_sybil(seed + 7, rounds=count)
    result.per_scenario["sybil"] = _score_pair(
        trace, instances, detection_slack=35.0, telemetry=telemetry
    )

    return result
