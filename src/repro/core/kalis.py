"""The Kalis node facade.

Wires the full Figure 4 architecture together: Communication System →
Data Store → Module Manager → modules, with the Knowledge Base at the
centre and alerts flowing out to subscribers.  One :class:`KalisNode`
is one deployed IDS box ("security-in-a-box"); several of them can be
joined through
:class:`~repro.core.collective.CollectiveKnowledgeNetwork`.

Typical use on a live simulation::

    kalis = KalisNode(NodeId("kalis-1"))
    sniffer = kalis.deploy(sim, position=(10.0, 5.0))
    sim.run(120.0)
    print(kalis.alerts.alerts)

or on a recorded trace::

    kalis = KalisNode(NodeId("kalis-1"))
    kalis.replay_trace(trace)
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.core.alerts import ALERT_TOPIC, AlertSink
from repro.core.comm import CommunicationSystem
from repro.core.config import KalisConfig, parse_config
from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.core.manager import TOPIC_MODULE_QUARANTINE, ModuleManager, ModuleSupervisor
from repro.core.modules.registry import available_modules, create_module
from repro.eventbus.bus import DEADLETTER_TOPIC, DeadLetter, Event, EventBus
from repro.net.packets.base import Medium
from repro.sim.capture import Capture
from repro.sim.node import SnifferNode
from repro.trace.replay import TraceReplayer
from repro.trace.trace import Trace
from repro.util.ids import NodeId
from repro.util.naming import callable_name

#: The prototype's three sensing modules (§V).
DEFAULT_SENSING_MODULES = (
    "TopologyDiscoveryModule",
    "TrafficStatsModule",
    "MobilityAwarenessModule",
)

#: The full detection library shipped with this reproduction.
DEFAULT_DETECTION_MODULES = (
    "IcmpFloodModule",
    "JammingModule",
    "SmurfModule",
    "SynFloodModule",
    "ForwardingMisbehaviorModule",
    "WormholeModule",
    "ReplicationStaticModule",
    "ReplicationMobileModule",
    "SybilModule",
    "SinkholeModule",
    "HelloFloodModule",
    "DataAlterationModule",
    "SpoofingModule",
)


class KalisNode:
    """One deployed Kalis IDS instance.

    :param node_id: this Kalis node's identity (the knowgget creator).
    :param config: a :class:`KalisConfig`, raw config text in the
        Figure 6 language, or None.  Modules named in the config are
        activated by default with their parameters; its knowggets become
        a-priori knowledge.
    :param knowledge_driven: False turns this engine into the paper's
        traditional-IDS baseline (no knowledge-driven activation, all
        modules always on).
    :param mediums: mediums this node has capture hardware for (default:
        all of them).
    :param module_names: the module library to register (default: all
        sensing + all detection modules).
    :param window_size / window_age / log_to: Data Store settings.
    :param supervisor: a pre-configured :class:`ModuleSupervisor`
        (custom breaker thresholds / cooldowns); default settings apply
        when omitted.
    :param telemetry: a shared :class:`repro.obs.Telemetry`; when given,
        every layer of this node (bus, data store, intake, manager,
        supervisor) reports spans and metrics into it, and the flight
        recorder dumps automatically on module quarantine and bus
        dead-letters.  None (the default) disables all instrumentation.
    """

    def __init__(
        self,
        node_id: NodeId,
        config: Union[KalisConfig, str, None] = None,
        knowledge_driven: bool = True,
        mediums: Optional[Iterable[Medium]] = None,
        module_names: Optional[Iterable[str]] = None,
        window_size: int = 2000,
        window_age: Optional[float] = 60.0,
        log_to: Optional[str] = None,
        supervisor: Optional[ModuleSupervisor] = None,
        telemetry=None,
    ) -> None:
        self.node_id = node_id
        self.telemetry = telemetry
        self.bus = EventBus()
        self.kb = KnowledgeBase(node_id, self.bus)
        self.datastore = DataStore(
            window_size=window_size,
            window_age=window_age,
            log_to=log_to,
            telemetry=telemetry,
            telemetry_node=node_id.value,
        )
        self.comm = CommunicationSystem(
            supported_mediums=list(mediums) if mediums is not None else None
        )
        self.manager = ModuleManager(
            kb=self.kb,
            datastore=self.datastore,
            bus=self.bus,
            node_id=node_id,
            knowledge_driven=knowledge_driven,
            supervisor=supervisor,
            telemetry=telemetry,
        )
        self.alerts = AlertSink()
        self.deadletters: List[DeadLetter] = []
        self.bus.subscribe(ALERT_TOPIC, self._on_alert)
        self.bus.subscribe(DEADLETTER_TOPIC, self._on_deadletter)
        self.comm.set_error_listener(self._on_intake_error)
        self.comm.add_listener(self._on_capture)
        self._quarantine_dump_sub = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

        if isinstance(config, str):
            config = parse_config(config)
        self.config: KalisConfig = config if config is not None else KalisConfig()

        self._register_library(module_names)
        self._apply_static_knowledge()

    # -- restore seams ---------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """(Re)bind a telemetry sink across every layer of this node.

        Called at construction when ``telemetry`` is passed, and again
        by the checkpoint/restore path when a node snapshotted without
        instrumentation is restored into a process that wants it: the
        bus, intake, data-store and supervisor bindings are refreshed
        and the flight-recorder quarantine-dump trigger is subscribed
        exactly once (re-attaching is idempotent).  Listeners that were
        already subscribed ride along inside the snapshot — they are
        bound methods, which pickle — so a restored node needs no other
        re-registration.
        """
        self.telemetry = telemetry
        self.bus.bind_telemetry(telemetry, self.node_id.value)
        self.comm.bind_telemetry(telemetry, self.node_id.value)
        self.datastore.bind_telemetry(telemetry, self.node_id.value)
        self.manager.telemetry = telemetry
        if self.manager.supervisor.telemetry is None:
            self.manager.supervisor.bind_telemetry(telemetry, str(self.node_id))
        if self._quarantine_dump_sub is None or not self._quarantine_dump_sub.active:
            self._quarantine_dump_sub = self.bus.subscribe(
                TOPIC_MODULE_QUARANTINE, self._on_quarantine_dump
            )

    def rebuild_derived_state(self) -> None:
        """Restore hook: recompute this node's derived caches.

        The node's own layers keep little derived state — the data
        store's timestamp ring, the manager's requirement index and
        route sequence, the knowledge base's memoised keys and the bus's
        resolved targets are the caches rebuilt or dropped here; the
        rest (knowledge base, activation and forced-active tables,
        supervisor breaker state, alert sink, dead letters) is primary
        state carried verbatim by the snapshot.
        """
        self.bus.rebuild_derived_state()
        self.kb.rebuild_derived_state()
        self.datastore.rebuild_derived_state()
        self.manager.rebuild_derived_state()

    # -- construction helpers -------------------------------------------------------

    def _register_library(self, module_names: Optional[Iterable[str]]) -> None:
        names = (
            list(module_names)
            if module_names is not None
            else list(DEFAULT_SENSING_MODULES) + list(DEFAULT_DETECTION_MODULES)
        )
        configured = {spec.name: spec for spec in self.config.modules}
        # Config may name modules outside the default library.
        for name in configured:
            if name not in names:
                names.append(name)
        for name in names:
            spec = configured.get(name)
            module = create_module(name, params=spec.params if spec else None)
            self.manager.register(module, force_active=spec is not None)

    def _apply_static_knowledge(self) -> None:
        for static in self.config.knowggets:
            self.kb.put_static(static.label, static.value, entity=static.entity)

    # -- capture intake ------------------------------------------------------------------

    def _on_capture(self, capture: Capture) -> None:
        if self.telemetry is None:
            self.datastore.add(capture)
            self.manager.on_capture(capture)
            return
        with self.telemetry.span(
            "kalis.capture",
            node=self.node_id.value,
            t=capture.timestamp,
            medium=capture.medium.value,
        ):
            self.datastore.add(capture)
            self.manager.on_capture(capture)

    # -- bus observers ----------------------------------------------------------------

    def _on_alert(self, event: Event) -> None:
        alert = event.payload
        self.alerts.on_alert(alert)
        if self.telemetry is not None:
            self.telemetry.metrics.counter("alerts_total").inc(
                node=self.node_id.value, attack=alert.attack
            )
            self.telemetry.event(
                "alert.raised",
                node=self.node_id.value,
                t=alert.timestamp,
                attack=alert.attack,
                detected_by=alert.detected_by,
            )

    def _on_deadletter(self, event: Event) -> None:
        deadletter = event.payload
        self.deadletters.append(deadletter)
        if self.telemetry is not None:
            self.telemetry.flight_dump(
                "bus.deadletter",
                node=self.node_id.value,
                topic=deadletter.topic,
                handler=deadletter.handler,
                error=type(deadletter.error).__name__,
            )

    def _on_quarantine_dump(self, event: Event) -> None:
        health = event.payload
        self.telemetry.flight_dump(
            "module.quarantine",
            node=self.node_id.value,
            module=health.module,
            quarantine_count=health.quarantine_count,
        )

    def _on_intake_error(self, listener, capture: Capture, error: BaseException) -> None:
        """Surface a failed capture consumer on the dead-letter topic."""
        self.bus.publish(
            DEADLETTER_TOPIC,
            DeadLetter(
                topic="comm.capture",
                event=Event(topic="comm.capture", payload=capture),
                handler=callable_name(listener),
                error=error,
            ),
        )

    def feed(self, capture: Capture) -> None:
        """Push one capture through the full pipeline (tests, adapters)."""
        self.comm.on_capture(capture)

    def attach_sniffer(self, sniffer: SnifferNode) -> None:
        self.comm.attach_sniffer(sniffer)

    def deploy(self, sim, position, mediums: Optional[Iterable[Medium]] = None) -> SnifferNode:
        """Create, register and attach a sniffer for this Kalis node."""
        sniffer = SnifferNode(
            self.node_id,
            position=position,
            mediums=tuple(mediums)
            if mediums is not None
            else (Medium.WIFI, Medium.IEEE_802_15_4, Medium.BLUETOOTH),
        )
        sim.add_node(sniffer)
        self.attach_sniffer(sniffer)
        return sniffer

    def replay_trace(self, trace: Trace) -> int:
        """Replay a recorded trace through the pipeline (batch mode)."""
        return TraceReplayer(trace).replay_batch(self.comm.on_capture)

    # -- resource metrics ------------------------------------------------------------------

    def cpu_work_units(self) -> float:
        """Total module-evaluation work performed (CPU proxy input)."""
        return self.manager.work_units

    def approximate_ram_bytes(self) -> int:
        """Live state footprint: window + knowledge + module state."""
        return (
            self.datastore.approximate_bytes()
            + self.kb.approximate_bytes()
            + self.manager.approximate_state_bytes()
        )

    # -- introspection -----------------------------------------------------------------------

    def active_module_names(self) -> List[str]:
        return self.manager.active_module_names()

    def status(self) -> dict:
        """A JSON-safe health snapshot for dashboards and SIEM polling.

        The paper's event-driven design "allows Kalis to interoperate
        with cloud-based monitoring dashboards" (§V); this is the pull
        side of that interface.
        """
        return {
            "node": self.node_id.value,
            "knowledge_driven": self.manager.knowledge_driven,
            "captures": self.comm.total_captures,
            "captures_by_medium": {
                medium.value: count
                for medium, count in sorted(
                    self.comm.captures_by_medium.items(),
                    key=lambda item: item[0].value,
                )
            },
            "knowggets": len(self.kb),
            "modules": self.manager.activation_table(),
            "module_health": self.manager.health_table(),
            "module_failures": len(self.manager.supervisor.failures),
            "deadletters": len(self.deadletters),
            "alerts": len(self.alerts),
            "attacks_seen": self.alerts.attacks_seen(),
            "work_units": self.manager.work_units,
            "approx_ram_bytes": self.approximate_ram_bytes(),
        }

    def describe(self) -> str:
        """Human-readable status: modules, activation, knowledge size."""
        lines = [f"KalisNode {self.node_id}"]
        lines.append(f"  knowledge-driven: {self.manager.knowledge_driven}")
        lines.append(f"  knowggets: {len(self.kb)}")
        lines.append(f"  captures: {self.comm.total_captures}")
        lines.append("  modules:")
        health_table = self.manager.health_table()
        for module in self.manager.modules():
            state = "ACTIVE" if module.active else "dormant"
            health = health_table[module.NAME]
            suffix = "" if health == "healthy" else f" [{health}]"
            lines.append(
                f"    [{state:>7}] {module.NAME} ({module.KIND}; "
                f"requires {module.describe_requirements()}){suffix}"
            )
        return "\n".join(lines)


def available_module_names() -> List[str]:
    """All module names registered in the library."""
    return available_modules()
