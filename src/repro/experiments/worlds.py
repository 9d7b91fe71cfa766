"""The scenario table: one world per attack in the library.

Every attack in :data:`repro.taxonomy.ATTACKS` has one :class:`World`,
keyed by ``(attack, topology)``.  A row holds only what is specific to
its world: how it records a run (attacker and parameters, RNG stream
names, node add order, observer, run length, ground-truth shaping, live
or replayed), its detection slack and the suspects a correct alert
names.  :func:`score` scores the rows alike, but for the two whose
paper experiment scores them its own way: the replication row (E2's
merged runs) and the wormhole row (E5's collaborating pair).  The
icmp_flood, wormhole and replication rows record through E1's, E5's
and E2's own builders.

E6 (:mod:`~repro.experiments.breadth`) and E13
(:mod:`~repro.experiments.extended_breadth`) are views of this table:
each walks its rows (:data:`BREADTH`, :data:`EXTENDED_BREADTH`) in
order, row ``i`` at ``seed + i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.base import SymptomInstance
from repro.attacks.blackhole import BlackholeMote
from repro.attacks.data_alteration import AlteringMote
from repro.attacks.hello_flood import HelloFloodNode
from repro.attacks.jamming import JammingNode
from repro.attacks.selective_forwarding import SelectiveForwardingMote
from repro.attacks.sinkhole import SinkholeMote
from repro.attacks.smurf import SmurfAttacker
from repro.attacks.spoofing import SpoofingNode
from repro.attacks.sybil import SybilNode
from repro.attacks.syn_flood import SynFloodAttacker
from repro.core.kalis import KalisNode
from repro.devices.commodity import LifxBulb
from repro.devices.mesh_wifi import MeshRelayStation
from repro.experiments import (
    icmp_flood_scenario,
    replication_scenario,
    wormhole_scenario,
)
from repro.experiments.common import (
    EngineRun,
    add_ctp_chain,
    add_home_lan,
    add_zigbee_star,
    collapse,
    run_kalis_on_trace,
    run_traditional_on_trace,
    score_node,
    sniff,
    strike_horizon,
)
from repro.proto.iphost import IpHost
from repro.sim.engine import Simulator
from repro.trace.trace import Trace
from repro.util.ids import NodeId, make_node_id
from repro.util.rng import SeededRng

#: Run length of the worlds whose attacker is not timer-driven; ground
#: truth for ongoing misbehaviour (a sinkhole that keeps swallowing
#: attracted traffic) extends to this horizon.
RUN_DURATION_S = 150.0

#: The engines a world is scored for unless a caller asks otherwise.
ENGINES: Tuple[str, ...] = ("kalis", "traditional")

#: E6's rows (Figure 8's scenarios) and E13's (the rest of the
#: library), each in the order its view runs them.
BREADTH: Tuple[str, ...] = (
    "icmp_flood", "smurf", "syn_flood", "selective_forwarding", "blackhole",
    "wormhole", "replication", "sybil",
)
EXTENDED_BREADTH: Tuple[str, ...] = (
    "sinkhole", "hello_flood", "data_alteration", "spoofing", "jamming",
)


@dataclass
class Recorded:
    """One run of a world: each observer's trace (by observer id, in
    placement order) and the ground truth.  A live world records no
    trace: its Kalis node ran inside the simulation and is ``live``."""

    traces: Dict[str, Trace]
    instances: List[SymptomInstance]
    duration_s: float
    live: Optional[KalisNode] = None

    @property
    def trace(self) -> Trace:
        """The first observer's trace: what a single IDS box replays."""
        if not self.traces:
            raise ValueError("a live world records no trace to replay")
        return next(iter(self.traces.values()))


@dataclass(frozen=True)
class World:
    """One attack's world, and how it is scored.

    :param record: records one run from a seed and a symptom-instance
        count (worlds with a fixed schedule ignore the count).
    :param protocol: the row's own scoring, where its paper experiment
        has one: ``protocol(seed, instances, engines, telemetry)``
        returns the engines' runs.
    """

    attack: str
    topology: str
    record: Callable[[int, int], Recorded]
    detection_slack: float
    suspects: Tuple[NodeId, ...]
    protocol: Optional[Callable[[int, int, Sequence[str], object], Dict[str, EngineRun]]] = None


def _simulated(
    populate: Callable[[Simulator, int, int], object],
    observer: Tuple[float, float],
    duration: Optional[float] = RUN_DURATION_S,
    truth: Callable[[object], List[SymptomInstance]] = lambda attacker: attacker.log.instances,
    live: bool = False,
) -> Callable[[int, int], Recorded]:
    """The shared record step: ``populate(sim, seed, instances)`` adds
    the world to a fresh simulator and returns its attacker; a sniffer
    at ``observer`` records the run, or with ``live`` a Kalis node runs
    there (a medium-mutating attack, as jamming is, cannot be replayed).
    ``truth`` turns the attacker into ground truth after the run;
    ``duration`` ``None`` runs the whole strike schedule.
    """

    def record(seed: int, instances: int) -> Recorded:
        sim = Simulator(seed=seed)
        attacker = populate(sim, seed, instances)
        run_for = strike_horizon(attacker) if duration is None else duration
        if live:
            kalis = KalisNode(NodeId("kalis-1"))
            kalis.deploy(sim, position=observer)
            sim.run(run_for)
            return Recorded({}, truth(attacker), run_for, live=kalis)
        trace = sniff(sim, observer)
        sim.run(run_for)
        return Recorded({"observer": trace}, truth(attacker), run_for)

    return record


def _icmp_flood(seed: int, instances: int) -> Recorded:
    built = icmp_flood_scenario.build(seed=seed, symptom_instances=instances)
    return Recorded({"observer": built.trace}, built.instances, built.duration_s)


def _wormhole(seed: int, _: int) -> Recorded:
    built = wormhole_scenario.build(seed)
    return Recorded(built.traces, built.instances, wormhole_scenario.RUN_DURATION_S)


def _wormhole_runs(seed: int, _: int, engines, telemetry) -> Dict[str, EngineRun]:
    return wormhole_scenario.breadth_runs(wormhole_scenario.build(seed))


def _replication(seed: int, _: int) -> Recorded:
    built = replication_scenario.build_run(seed)
    return Recorded({"observer": built.trace}, built.instances,
                    replication_scenario.RUN_DURATION_S)


def _replication_runs(seed: int, _: int, engines, telemetry) -> Dict[str, EngineRun]:
    # E2's protocol: three runs merged, the traditional IDS shipping one
    # replication detector, drawn per run.
    return replication_scenario.run(seed, runs=3, engines=tuple(engines),
                                    telemetry=telemetry).runs


def _smurf(sim: Simulator, seed: int, bursts: int) -> SmurfAttacker:
    """A mesh WLAN (multi-hop) where a Smurf reflects off neighbours."""
    rng = SeededRng(seed, "smurf-scenario")
    home = add_home_lan(sim, rng)
    # Ping-answering neighbours (the Smurf's amplifiers), and the
    # extender that makes this WLAN a mesh (multi-hop evidence).
    responders = [
        sim.add_node(IpHost(make_node_id("station", index), (3.0 + 2.0 * index, 7.0),
                            home.lan, gateway=home.router.node_id))
        for index in range(4)
    ]
    sim.add_node(MeshRelayStation(
        NodeId("extender"), (10.0, 4.0), rng=rng.substream("extender"),
        relay_for=(responders[0].node_id, home.nest.node_id),
    ))
    return sim.add_node(SmurfAttacker(
        NodeId("smurfer"), (9.0, 9.0), home.lan, victim_ip=home.nest.ip,
        requests_per_burst=5, burst_interval=6.0, start_delay=15.0,
        max_bursts=bursts, rng=rng.substream("attacker"),
    ))


def _syn_flood(sim: Simulator, seed: int, bursts: int) -> SynFloodAttacker:
    rng = SeededRng(seed, "syn-scenario")
    home = add_home_lan(sim, rng)
    home.nest.tcp.listen(443)  # the flooded service
    sim.add_node(LifxBulb(NodeId("lifx"), (4.0, 6.0), home.lan, home.cloud.ip,
                          home.router.node_id, rng=rng.substream("lifx")))
    return sim.add_node(SynFloodAttacker(
        NodeId("synner"), (9.0, 8.0), home.lan, victim_ip=home.nest.ip,
        victim_link=home.nest.node_id, burst_size=30, burst_interval=6.0,
        start_delay=15.0, max_bursts=bursts, rng=rng.substream("attacker"),
    ))


def _sybil(sim: Simulator, seed: int, rounds: int) -> SybilNode:
    rng = SeededRng(seed, "sybil-scenario")
    coordinator, _ = add_zigbee_star(
        sim, 5, radius=12.0, report_every=2.5, first_report=0.4, stagger=0.31
    )
    return sim.add_node(SybilNode(
        NodeId("sybiller"), (18.0, 6.0), target=coordinator.node_id,
        identity_count=4, round_interval=6.0, start_delay=12.0,
        max_rounds=rounds, rng=rng.substream("attacker"),
    ))


def _selective_forwarding(sim: Simulator, seed: int, _: int) -> SelectiveForwardingMote:
    return add_ctp_chain(sim, relay=SelectiveForwardingMote(
        NodeId("forwarder"), (50.0, 0.0), drop_probability=0.6,
        rng=SeededRng(seed, "sf"),
    ))


def _blackhole(sim: Simulator, seed: int, _: int) -> BlackholeMote:
    return add_ctp_chain(sim, relay=BlackholeMote(NodeId("forwarder"), (50.0, 0.0)))


def _e13_seed(seed: int, attack: str) -> int:
    """E13's base seed, which that view's attackers draw their streams
    from: the seed of ``attack``'s world less its place in the view."""
    return seed - EXTENDED_BREADTH.index(attack)


def _sinkhole(sim: Simulator, seed: int, _: int) -> SinkholeMote:
    add_ctp_chain(sim)
    return sim.add_node(SinkholeMote(
        NodeId("sinker"), (27.0, 10.0), advertised_etx=0, beacon_interval=2.0,
    ))


def _hello_flood(sim: Simulator, seed: int, _: int) -> HelloFloodNode:
    add_ctp_chain(sim)
    return sim.add_node(HelloFloodNode(
        NodeId("helloer"), (50.0, 5.0), beacons_per_burst=25, burst_interval=8.0,
        start_delay=15.0, max_bursts=10,
        rng=SeededRng(_e13_seed(seed, "hello_flood"), "hello"),
    ))


def _data_alteration(sim: Simulator, seed: int, _: int) -> AlteringMote:
    return add_ctp_chain(sim, relay=AlteringMote(
        NodeId("alterer"), (50.0, 0.0), alter_probability=0.6,
        rng=SeededRng(_e13_seed(seed, "data_alteration"), "alter"),
    ))


def _spoofing(sim: Simulator, seed: int, _: int) -> SpoofingNode:
    add_ctp_chain(sim)
    return sim.add_node(SpoofingNode(
        NodeId("spoofer"), (48.0, 12.0), spoofed_identity=NodeId("mote-2"),
        target=NodeId("mote-1"), send_interval=4.0, start_delay=20.0,
        rng=SeededRng(_e13_seed(seed, "spoofing"), "spoof"),
    ))


def _jamming(sim: Simulator, seed: int, _: int) -> JammingNode:
    add_ctp_chain(sim)
    return sim.add_node(JammingNode(
        NodeId("jammer"), (30.0, 5.0), loss_probability=0.92, burst_duration=20.0,
        burst_interval=60.0, start_delay=40.0, max_bursts=2,
        rng=SeededRng(_e13_seed(seed, "jamming"), "jam"),
    ))


def _sinkhole_truth(attacker: SinkholeMote) -> List[SymptomInstance]:
    # The forged advertisement AND the blackholing of the traffic it
    # attracted: both labels are ground truth for the same window.
    log = attacker.log.instances
    return collapse(log, "sinkhole", RUN_DURATION_S) + collapse(log, "blackhole", RUN_DURATION_S)


def _hello_flood_truth(attacker: HelloFloodNode) -> List[SymptomInstance]:
    # The beacon storms, plus one spanning instance for the blackholing
    # of the traffic the beacons attract.
    log = attacker.log.instances
    return log + collapse(log, "blackhole", RUN_DURATION_S)


def _data_alteration_truth(attacker: AlteringMote) -> List[SymptomInstance]:
    # A flow-keyed watchdog cannot tell "altered" from "dropped": tampered
    # relays also present as selective forwarding, so both are ground truth.
    log = attacker.log.instances
    return log + collapse(log, "selective_forwarding")


def _spoofing_truth(attacker: SpoofingNode) -> List[SymptomInstance]:
    return collapse(attacker.log.instances, "spoofing")


_ROWS = (
    World("icmp_flood", "home_lan", _icmp_flood,
          detection_slack=20.0, suspects=(NodeId("flooder"),)),
    World("smurf", "mesh_lan", _simulated(_smurf, (5.0, 4.0), duration=None),
          detection_slack=25.0, suspects=(NodeId("smurfer"),)),
    World("syn_flood", "home_lan", _simulated(_syn_flood, (5.0, 4.0), duration=None),
          detection_slack=25.0, suspects=(NodeId("synner"),)),
    World("selective_forwarding", "ctp_chain", _simulated(_selective_forwarding, (50.0, 10.0)),
          detection_slack=35.0, suspects=(NodeId("forwarder"),)),
    World("blackhole", "ctp_chain", _simulated(_blackhole, (50.0, 10.0)),
          detection_slack=35.0, suspects=(NodeId("forwarder"),)),
    # Kalis is two collaborating nodes, one per mesh segment; the
    # traditional IDS is one box at the entry.
    World("wormhole", "zigbee_mesh", _wormhole,
          detection_slack=wormhole_scenario.RUN_DURATION_S,
          suspects=(NodeId("B1"), NodeId("B2")), protocol=_wormhole_runs),
    # A replica transmits under the identity it cloned.
    World("replication", "zigbee_star", _replication,
          detection_slack=12.0,
          suspects=tuple(make_node_id("member", index) for index in (0, 2, 4)),
          protocol=_replication_runs),
    # A sybil alert names the identities the attacker fabricated.
    World("sybil", "zigbee_star", _simulated(_sybil, (4.0, 3.0), duration=None),
          detection_slack=35.0,
          suspects=tuple(NodeId(f"sybiller-sybil{index}") for index in range(4))),
    World("sinkhole", "ctp_chain", _simulated(_sinkhole, (15.0, 5.0), truth=_sinkhole_truth),
          detection_slack=35.0, suspects=(NodeId("sinker"),)),
    World("hello_flood", "ctp_chain",
          _simulated(_hello_flood, (50.0, 10.0), truth=_hello_flood_truth),
          detection_slack=35.0, suspects=(NodeId("helloer"),)),
    # The alteration watchdog only judges relays whose ingress leg it can reliably
    # hear: the sniffer sits between the forwarder and the flow origin.
    World("data_alteration", "ctp_chain",
          _simulated(_data_alteration, (58.0, 8.0), truth=_data_alteration_truth),
          detection_slack=35.0, suspects=(NodeId("alterer"),)),
    # A spoofing alert names the abused identity: the attacker's own
    # never appears on the air.
    World("spoofing", "ctp_chain", _simulated(_spoofing, (50.0, 10.0), truth=_spoofing_truth),
          detection_slack=35.0, suspects=(NodeId("mote-2"),)),
    World("jamming", "ctp_chain", _simulated(_jamming, (30.0, 8.0), live=True),
          detection_slack=15.0, suspects=(NodeId("jammer"),)),
)

#: The scenario table, keyed by ``(attack, topology)``.
TABLE: Dict[Tuple[str, str], World] = {(row.attack, row.topology): row for row in _ROWS}


def world_for(attack: str) -> World:
    """The table's one row for ``attack``."""
    (world,) = [world for world in TABLE.values() if world.attack == attack]
    return world


def score(
    world: World,
    seed: int,
    instances: int = 12,
    engines: Sequence[str] = ENGINES,
    telemetry=None,
) -> Dict[str, EngineRun]:
    """Record ``world`` at ``seed`` and score each of ``engines`` on it.

    Kalis and the traditional IDS each replay the first observer's
    trace.  A live world records none: its Kalis node alone is scored,
    whatever else ``engines`` asks for.  A row with a protocol of its
    own is scored by that.
    """
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"the table scores kalis and traditional, not {engine!r}")
    if world.protocol is not None:
        runs = world.protocol(seed, instances, engines, telemetry)
        return {engine: runs[engine] for engine in engines}
    recorded = world.record(seed, instances)
    slack = world.detection_slack
    if recorded.live is not None:
        if "kalis" not in engines:
            return {}
        return {"kalis": score_node("kalis", recorded.live, recorded.instances,
                                    recorded.duration_s, detection_slack=slack,
                                    telemetry=telemetry)}
    replay = {"kalis": run_kalis_on_trace, "traditional": run_traditional_on_trace}
    return {
        engine: replay[engine](recorded.trace, recorded.instances,
                               detection_slack=slack, telemetry=telemetry)[0]
        for engine in engines
    }


def names_culprit(world: World, run: EngineRun) -> bool:
    """Whether ``run``'s alerts name one of ``world``'s suspects; vacuously
    true when they name no one (a jammer cannot be localised)."""
    return not run.revoked or any(suspect in run.revoked for suspect in world.suspects)
