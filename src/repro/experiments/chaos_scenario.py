"""E14 — Chaos: detection and knowledge sync under injected faults.

The robustness experiment: the E1 single-hop flood scenario runs live
with a seeded :class:`~repro.faults.FaultPlan` layered on top — a
sensing module forced to crash on every capture inside a window, a
benign device powered off and back on, an interface flap, and a
peer-link partition — while two Kalis nodes share detection knowledge
over a lossy collective-knowledge channel.

Measured claims:

- the run **completes**: module crashes are quarantined by the
  supervisor and the module is restored after its cooldown, and the
  scripted ICMP flood is still detected;
- the whole chaos schedule is **deterministic**: two runs with the same
  seed and plan produce byte-identical alert logs;
- with link loss ≤ 30%, the ack/retry channel delivers **100%** of the
  shared knowggets, while the fire-and-forget baseline (``max_retries=0``)
  demonstrably loses some — and the knowledge-convergence time
  quantifies the cost of the retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.attacks.icmp_flood import IcmpFloodAttacker
from repro.ckpt.snapshot import alert_lines
from repro.core.alerts import ALERT_TOPIC, Alert
from repro.core.collective import CollectiveKnowledgeNetwork
from repro.core.kalis import KalisNode
from repro.core.manager import TOPIC_MODULE_QUARANTINE, TOPIC_MODULE_RESTORE
from repro.devices.commodity import LifxBulb, NestThermostat, Smartphone
from repro.faults import FaultPlan, InterfaceFlap, LinkOutage, ModuleCrash, NodeCrash
from repro.metrics.detection import DetectionScore, score_alerts
from repro.metrics.resources import resource_report
from repro.net.packets.base import Medium
from repro.proto.iphost import IpRouter, LanDirectory
from repro.sim.engine import Simulator
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

#: The module the default plan crashes (sensing; detection-independent).
CRASHED_MODULE = "TrafficStatsModule"

KALIS_PRIMARY = NodeId("kalis-1")
KALIS_REMOTE = NodeId("kalis-2")


def default_plan(seed: int) -> FaultPlan:
    """The standard chaos schedule layered over the flood scenario."""
    return FaultPlan(seed=seed, events=(
        # Crash the sensing module on every capture for 25 s: three
        # consecutive failures open the breaker; the 30 s cooldown ends
        # after the window, so the half-open probe restores it.
        ModuleCrash(kalis=KALIS_PRIMARY, module=CRASHED_MODULE,
                    start=20.0, end=45.0, every=1),
        NodeCrash(node=NodeId("lifx"), at=30.0, duration=40.0),
        InterfaceFlap(node=NodeId("phone"), medium=Medium.WIFI,
                      at=60.0, duration=10.0),
        LinkOutage(start=60.0, end=75.0),
    ))


class AlertSharer:
    """Shares every alert as a uniquely-labelled collective knowgget.

    A module-level class (not a closure) so a chaos world with this
    subscriber on the bus stays picklable for checkpoint/restore; the
    running count is carried in the snapshot, so labels keep
    incrementing seamlessly across a restore.
    """

    def __init__(self, kb) -> None:
        self.kb = kb
        self.count = 0

    def __call__(self, event) -> None:
        label = f"SharedAlert{self.count}"
        self.count += 1
        self.kb.put(label, event.payload.attack, collective=True)


class FlakyDashboard:
    """A dashboard subscriber whose first ``failures`` deliveries raise.

    Exercises the bus dead-letter path (and, with telemetry on, the
    flight-recorder dump) deterministically on every run.  Picklable:
    the remaining-failure budget survives a checkpoint, so a restored
    run fails exactly as many times as an uninterrupted one.
    """

    def __init__(self, failures: int = 2) -> None:
        self.failures_left = failures

    def __call__(self, event) -> None:
        if self.failures_left > 0:
            self.failures_left -= 1
            raise RuntimeError("dashboard connector not ready")


class ModuleEventLog:
    """Appends each module event's module name to a list (picklable)."""

    def __init__(self) -> None:
        self.items: List[str] = []

    def __call__(self, event) -> None:
        self.items.append(event.payload.module)


@dataclass
class ChaosWorld:
    """The live chaos deployment, before (or during) its run.

    Everything here is picklable mid-run — the substrate the E15
    kill/restore soak checkpoints.  ``collect(world)`` turns a finished
    world into a :class:`ChaosResult`.
    """

    seed: int
    duration_s: float
    sim: Simulator
    primary: KalisNode
    remote: KalisNode
    network: CollectiveKnowledgeNetwork
    attacker: IcmpFloodAttacker
    sharer: AlertSharer
    dashboard: FlakyDashboard
    quarantine_log: ModuleEventLog
    restore_log: ModuleEventLog
    plan: FaultPlan
    telemetry: Optional[object] = None


@dataclass
class ChaosResult:
    """Everything the chaos benchmark asserts on and reports."""

    seed: int
    duration_s: float
    capture_count: int
    score: DetectionScore
    alerts: List[Alert]
    alert_log: List[str]
    health_table: Dict[str, str]
    quarantined: List[str]
    restored: List[str]
    module_failures: int
    shared_total: int
    shared_received: int
    delivery: Dict[str, int]
    convergence_time: float
    deadletters: int = 0
    resources: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.capture_count > 0

    def summary(self) -> str:
        lines = [
            f"seed {self.seed}: {self.capture_count} captures over "
            f"{self.duration_s:.0f} s | {self.score.summary()}",
            f"  supervisor: quarantined={self.quarantined} "
            f"restored={self.restored} "
            f"({self.module_failures} failures absorbed); "
            f"final health: {self.health_table}",
            f"  knowledge sync: {self.shared_received}/{self.shared_total} "
            f"shared knowggets delivered "
            f"(attempts={self.delivery['attempts']}, "
            f"retries={self.delivery['retries']}, "
            f"gave_up={self.delivery['gave_up']}); "
            f"convergence at t={self.convergence_time:.2f} s",
        ]
        return "\n".join(lines)


def _node_resources(node: KalisNode, duration: float, telemetry) -> Dict[str, float]:
    """The CPU/RAM proxy for one live node, keyed by its node id."""
    report = resource_report(
        node.node_id.value,
        work_units=node.cpu_work_units(),
        duration_s=duration,
        active_modules=len(node.manager.active_modules()),
        state_bytes=node.approximate_ram_bytes(),
        telemetry=telemetry,
    )
    return {
        "cpu_percent": report.cpu_percent,
        "ram_kb": report.ram_kb,
        "work_units": report.work_units,
    }


def build_world(
    seed: int = 23,
    symptom_instances: int = 20,
    link_loss: float = 0.3,
    max_retries: int = 8,
    plan: Optional[FaultPlan] = None,
    telemetry=None,
) -> ChaosWorld:
    """Build the chaos deployment without running it.

    Construction order (hence every RNG draw) is identical to what
    :func:`run` always did; :func:`run` is now ``collect(build_world()
    .sim.run(...))``.  The returned world is fully picklable, so the
    E15 soak can checkpoint it at arbitrary points mid-run.

    :param link_loss: peer-link per-attempt loss probability.
    :param max_retries: the links' retry budget (0 = fire-and-forget).
        The default of 8 gives a ~51 s backoff span, sized to out-last
        the plan's 15 s partition — a transfer starting the instant the
        partition opens still has retries left when it lifts.
    :param plan: a custom :class:`FaultPlan`; :func:`default_plan` when
        omitted.  Plans are single-use — pass a fresh one per run.
    :param telemetry: a :class:`repro.obs.Telemetry` shared by the
        simulator, both Kalis nodes and the collective network; None
        (the default) runs fully uninstrumented.
    """
    sim = Simulator(seed=seed, telemetry=telemetry)
    rng = SeededRng(seed, "chaos-scenario")
    lan = LanDirectory()
    wan = LanDirectory()

    router = sim.add_node(IpRouter(NodeId("router"), (0.0, 0.0), lan, wan))
    victim = sim.add_node(
        NestThermostat(NodeId("nest"), (6.0, 2.0), lan, "203.0.113.1",
                       router.node_id, rng=rng.substream("nest"))
    )
    sim.add_node(
        LifxBulb(NodeId("lifx"), (4.0, 6.0), lan, "203.0.113.1",
                 router.node_id, rng=rng.substream("lifx"))
    )
    sim.add_node(
        Smartphone(NodeId("phone"), (3.0, 3.0), lan, router.node_id,
                   rng=rng.substream("phone"))
    )
    attacker = sim.add_node(
        IcmpFloodAttacker(
            NodeId("flooder"), (9.0, 8.0), lan,
            victim_ip=victim.ip, victim_link=victim.node_id,
            burst_size=20, burst_interval=5.0, start_delay=12.0,
            max_bursts=symptom_instances, rng=rng.substream("attacker"),
        )
    )

    # Two Kalis nodes: the primary overlooks the LAN; the remote one is
    # far out of radio range and learns of the attack only through the
    # collective-knowledge channel.
    primary = KalisNode(KALIS_PRIMARY, telemetry=telemetry)
    primary.deploy(sim, position=(5.0, 4.0))
    remote = KalisNode(KALIS_REMOTE, telemetry=telemetry)
    remote.deploy(sim, position=(5000.0, 5000.0))

    network = CollectiveKnowledgeNetwork(
        sim=sim, loss_probability=link_loss,
        rng=SeededRng(seed, "chaos-net"), max_retries=max_retries,
        telemetry=telemetry,
    )
    network.join(primary.kb)
    network.join(remote.kb)

    # Share every detection with the group: one uniquely-labelled
    # collective knowgget per alert, so delivery is countable.
    sharer = AlertSharer(primary.kb)
    primary.bus.subscribe(ALERT_TOPIC, sharer)

    # A deliberately flaky "dashboard" subscriber: its first two alert
    # deliveries raise, exercising the bus dead-letter path (and, with
    # telemetry on, the flight-recorder dump) on every run.  Dispatch is
    # exception-safe, so the alert log is unaffected.
    dashboard = FlakyDashboard(failures=2)
    primary.bus.subscribe(ALERT_TOPIC, dashboard)

    quarantine_log = ModuleEventLog()
    restore_log = ModuleEventLog()
    primary.bus.subscribe(TOPIC_MODULE_QUARANTINE, quarantine_log)
    primary.bus.subscribe(TOPIC_MODULE_RESTORE, restore_log)

    if plan is None:
        plan = default_plan(seed)
    plan.apply(sim, kalis_nodes=[primary, remote], network=network)

    duration = attacker.start_delay + symptom_instances * 5.0 + 30.0
    return ChaosWorld(
        seed=seed,
        duration_s=duration,
        sim=sim,
        primary=primary,
        remote=remote,
        network=network,
        attacker=attacker,
        sharer=sharer,
        dashboard=dashboard,
        quarantine_log=quarantine_log,
        restore_log=restore_log,
        plan=plan,
        telemetry=telemetry,
    )


def collect(world: ChaosWorld) -> ChaosResult:
    """Score a finished (fully-run) chaos world into a ChaosResult."""
    sim = world.sim
    primary, remote = world.primary, world.remote
    attacker, network, plan = world.attacker, world.network, world.plan
    duration = world.duration_s
    telemetry = world.telemetry
    received = sum(
        1 for index in range(world.sharer.count)
        if remote.kb.get(f"SharedAlert{index}", str, creator=KALIS_PRIMARY)
        is not None
    )
    score = score_alerts(
        primary.alerts.alerts, attacker.log.instances, detection_slack=20.0
    )
    result = ChaosResult(
        seed=world.seed,
        duration_s=duration,
        capture_count=primary.comm.total_captures,
        score=score,
        alerts=list(primary.alerts.alerts),
        alert_log=alert_lines(primary),
        health_table=primary.manager.health_table(),
        quarantined=list(world.quarantine_log.items),
        restored=list(world.restore_log.items),
        module_failures=len(primary.manager.supervisor.failures),
        shared_total=world.sharer.count,
        shared_received=received,
        delivery=network.delivery_stats(),
        convergence_time=network.convergence_time(),
        deadletters=len(primary.deadletters),
        resources={
            node.node_id.value: _node_resources(node, duration, telemetry)
            for node in (primary, remote)
        },
    )
    result.extra["plan"] = plan.describe()
    result.extra["injected"] = {
        key: injector.injected for key, injector in plan.injectors.items()
    }
    # Runtime truth for the static topic graph: every topic that crossed
    # either node's bus (kalis-lint's KL103 pass must cover all of them).
    result.extra["bus_topics"] = sorted(
        set(primary.bus.topic_counts()) | set(remote.bus.topic_counts())
    )
    # Runtime truth for the static state graph: the live roots of the
    # chaos world, for the kalis-lint runtime state census.
    result.extra["world"] = {
        "sim": sim,
        "primary": primary,
        "remote": remote,
        "network": network,
    }
    return result


def run(
    seed: int = 23,
    symptom_instances: int = 20,
    link_loss: float = 0.3,
    max_retries: int = 8,
    plan: Optional[FaultPlan] = None,
    telemetry=None,
) -> ChaosResult:
    """Run the chaos scenario live and collect every robustness metric.

    See :func:`build_world` for the parameters; this runs the built
    world to completion in one uninterrupted stretch and scores it.
    """
    world = build_world(
        seed=seed,
        symptom_instances=symptom_instances,
        link_loss=link_loss,
        max_retries=max_retries,
        plan=plan,
        telemetry=telemetry,
    )
    world.sim.run(world.duration_s)
    return collect(world)
