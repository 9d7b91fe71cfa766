"""E1 — ICMP Flood on a single-hop network (§VI-B1).

The paper's first comparison scenario: a single-hop (WiFi) network of
commodity IoT devices, with an attacker flooding a victim with forged
ICMP Echo Replies — the symptom a Smurf would also produce.

- **Kalis** learns the network is single-hop, keeps only the ICMP-Flood
  module active, classifies every burst correctly, and its suspects are
  exactly the attacker → perfect accuracy and countermeasure.
- The **traditional IDS** runs both flood modules; both fire on every
  burst (detection yes, classification 50/50), and the Smurf module's
  2-hop heuristic names the *victim* as suspect — revoking it would
  disconnect the network, the paper's §VI-B1 observation.
- **Snort** fires its ICMP-flood *and* smurf signatures on the same
  bursts: high detection, ambiguous classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.attacks.icmp_flood import IcmpFloodAttacker
from repro.devices.commodity import ArloCamera, LifxBulb, Smartphone
from repro.experiments.common import (
    ScenarioResult,
    add_home_lan,
    apply_countermeasure_score,
    run_kalis_on_trace,
    run_snort_on_trace,
    run_traditional_on_trace,
    sniff,
    strike_horizon,
)
from repro.sim.engine import Simulator
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

#: The paper runs 50 symptom instances per attack scenario.
PAPER_SYMPTOM_INSTANCES = 50

#: Where every E1 caller places its observer: a sniffer or a Kalis node.
OBSERVER_POSITION = (5.0, 4.0)


@dataclass
class BuiltScenario:
    """The recorded world: trace + ground truth + key identities.

    ``sim`` is the live simulator after the run — kept so debug tooling
    (the kalis-lint runtime state census) can walk the real object
    graph of a finished scenario.
    """

    trace: "Trace"
    instances: list
    attacker: NodeId
    victim: NodeId
    duration_s: float
    sim: Optional[Simulator] = None


def build_world(
    sim: Simulator,
    seed: int,
    symptom_instances: int,
    burst_interval: float = 5.0,
    burst_size: int = 20,
) -> IcmpFloodAttacker:
    """Add the single-hop flood world to ``sim`` and return its flooder.

    Adds the router, the cloud, four devices and the flooder, in that
    order (hence every RNG draw).  The observer is the caller's: a
    trace-recording sniffer or a live Kalis node, placed at
    :data:`OBSERVER_POSITION` after this returns.  The victim is
    ``flooder.victim_link``.
    """
    rng = SeededRng(seed, "icmp-flood-scenario")
    home = add_home_lan(sim, rng)
    lan, cloud_ip, gateway = home.lan, home.cloud.ip, home.router.node_id
    sim.add_node(LifxBulb(NodeId("lifx"), (4.0, 6.0), lan, cloud_ip, gateway,
                          rng=rng.substream("lifx")))
    sim.add_node(ArloCamera(NodeId("arlo"), (8.0, 5.0), lan, cloud_ip, gateway,
                            rng=rng.substream("arlo")))
    sim.add_node(Smartphone(NodeId("phone"), (3.0, 3.0), lan, gateway,
                            rng=rng.substream("phone")))
    return sim.add_node(IcmpFloodAttacker(
        NodeId("flooder"), (9.0, 8.0), lan, victim_ip=home.nest.ip,
        victim_link=home.nest.node_id, burst_size=burst_size, burst_interval=burst_interval,
        start_delay=12.0, max_bursts=symptom_instances, rng=rng.substream("attacker"),
    ))

def build(
    seed: int = 7,
    symptom_instances: int = PAPER_SYMPTOM_INSTANCES,
    burst_interval: float = 5.0,
    burst_size: int = 20,
) -> BuiltScenario:
    """Build and record the single-hop flood scenario.

    ``burst_size``/``burst_interval`` shape the flood: the default is
    the paper-style burst; small bursts at short intervals give a
    "slow-drip" flood whose detectability depends on the detector's
    rate window (used by the E10 ablation).
    """
    sim = Simulator(seed=seed)
    attacker = build_world(
        sim, seed, symptom_instances,
        burst_interval=burst_interval, burst_size=burst_size,
    )
    trace = sniff(sim, OBSERVER_POSITION)
    duration = strike_horizon(attacker)
    sim.run(duration)

    return BuiltScenario(
        trace=trace,
        instances=attacker.log.instances,
        attacker=attacker.node_id,
        victim=attacker.victim_link,
        duration_s=duration,
        sim=sim,
    )


def run(
    seed: int = 7,
    symptom_instances: int = PAPER_SYMPTOM_INSTANCES,
    engines: Tuple[str, ...] = ("kalis", "traditional", "snort"),
    telemetry=None,
) -> ScenarioResult:
    """Run E1 and score every engine on the identical trace."""
    built = build(seed=seed, symptom_instances=symptom_instances)
    result = ScenarioResult(
        scenario="icmp_flood_single_hop",
        duration_s=built.duration_s,
        capture_count=len(built.trace),
        instances=built.instances,
    )
    result.extra["attacker"] = built.attacker
    result.extra["victim"] = built.victim

    if "kalis" in engines:
        run_result, kalis = run_kalis_on_trace(
            built.trace, built.instances, telemetry=telemetry
        )
        run_result.extra["active_modules"] = kalis.active_module_names()
        apply_countermeasure_score(
            run_result, attackers=[built.attacker], victims=[built.victim]
        )
        result.runs["kalis"] = run_result
    if "traditional" in engines:
        run_result, _ = run_traditional_on_trace(
            built.trace, built.instances, telemetry=telemetry
        )
        apply_countermeasure_score(
            run_result, attackers=[built.attacker], victims=[built.victim]
        )
        result.runs["traditional"] = run_result
    if "snort" in engines:
        run_result, _ = run_snort_on_trace(
            built.trace, built.instances, telemetry=telemetry
        )
        apply_countermeasure_score(
            run_result, attackers=[built.attacker], victims=[built.victim]
        )
        result.runs["snort"] = run_result
    return result
