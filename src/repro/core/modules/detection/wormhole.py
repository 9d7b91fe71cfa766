"""Wormhole detection via collective knowledge (§VI-D).

A wormhole's two halves look innocuous in isolation: the entry node B1
is an apparent blackhole (traffic enters, nothing leaves) and the exit
node B2 an apparent spontaneous source (it relays flows that never
entered it).  Each half is detectable locally:

- the :class:`~repro.core.modules.detection.forwarding.ForwardingMisbehaviorModule`
  publishes collective ``ForwardingAnomaly@B1`` knowggets;
- this module locally detects *traffic-source anomalies* — a node
  transmitting forwarded-looking frames (NWK originator differs from the
  MAC transmitter) for flows it was never observed receiving — and
  publishes collective ``TrafficSourceAnomaly@B2`` knowggets.

The correlation step then fires on *either* Kalis node once both
knowggets are visible in its Knowledge Base — locally created or
synchronized from a peer: a concurrent forwarding anomaly and source
anomaly in the same network is classified as a wormhole between the two
entities.  Without collective knowledge the correlation never has both
halves, reproducing the paper's point that a single viewpoint
misclassifies this attack.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.knowledge import Knowgget
from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import SlidingWindowCounter
from repro.core.modules.registry import register_module
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.sim.capture import Capture
from repro.util.ids import NodeId

FlowKey = Tuple[NodeId, int]

#: The knowgget labels the correlation step reads.
ANOMALY_LABELS = ("ForwardingAnomaly", "TrafficSourceAnomaly")


@register_module
class WormholeModule(DetectionModule):
    """Correlates forwarding anomalies with traffic-source anomalies.

    Parameters: ``ingressWindow`` (default 10 s of remembered ingress),
    ``sourceThresh`` (default 3 unexplained relays before declaring a
    source anomaly), ``cooldown`` (default 30 s per suspect pair),
    ``minUnexplainedRatio`` (default 0.5: fraction of a node's relays
    that must be unexplained before it counts as a source anomaly).
    """

    NAME = "WormholeModule"
    REQUIREMENTS = (Requirement(label="Multihop.802154", equals=True),)
    DETECTS = ("wormhole",)
    COST_WEIGHT = 1.5

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.ingress_window = self.param("ingressWindow", 10.0)
        self.source_thresh = self.param("sourceThresh", 3)
        self.cooldown = self.param("cooldown", 30.0)
        self.min_unexplained_ratio = self.param("minUnexplainedRatio", 0.5)
        self._ingress = SlidingWindowCounter(self.ingress_window)
        self._unexplained = SlidingWindowCounter(60.0)
        self._explained = SlidingWindowCounter(60.0)
        self._source_anomalies: Set[NodeId] = set()
        self._kb_subscription = None

    def on_activate(self) -> None:
        # Watch the Knowledge Base for anomaly knowggets from any
        # creator — this is where peer knowledge enters the correlation.
        # A dormant module does not correlate, so it does not listen.
        self._kb_subscription = self.ctx.kb.subscribe_labels(
            ANOMALY_LABELS, self._on_knowledge_event
        )

    def on_deactivate(self) -> None:
        if self._kb_subscription is not None:
            self.ctx.kb.bus.unsubscribe(self._kb_subscription)
            self._kb_subscription = None

    def _on_knowledge_event(self, event) -> None:
        if isinstance(event.payload, Knowgget):  # a removal carries None
            self._correlate(timestamp=None)

    # -- local traffic-source anomaly detection ------------------------------------

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        inner = mac.payload
        if not isinstance(inner, ZigbeePacket) or inner.zigbee_kind is not ZigbeeKind.DATA:
            return
        now = capture.timestamp
        flow: FlowKey = (inner.src, inner.seq)
        # Ingress: the flow entered mac.dst.
        self._ingress.record(now, (mac.dst, flow))
        # Egress: mac.src relays a flow it did not originate.
        if mac.src != inner.src:
            if self._ingress.count((mac.src, flow)) == 0:
                self._unexplained.record(now, mac.src)
                unexplained = self._unexplained.count(mac.src)
                explained = self._explained.count(mac.src)
                ratio = unexplained / max(unexplained + explained, 1)
                if (
                    mac.src not in self._source_anomalies
                    and unexplained >= self.source_thresh
                    and ratio >= self.min_unexplained_ratio
                ):
                    self._source_anomalies.add(mac.src)
                    self.ctx.kb.put(
                        "TrafficSourceAnomaly", True, entity=mac.src, collective=True
                    )
            else:
                self._explained.record(now, mac.src)
        self._correlate(timestamp=now)

    # -- correlation -------------------------------------------------------------------

    def _anomaly_entities(self, label: str) -> Set[NodeId]:
        return {
            knowgget.entity
            for knowgget in self.ctx.kb.with_label(label)
            if knowgget.entity is not None and knowgget.value == "true"
        }

    def _correlate(self, timestamp: Optional[float]) -> None:
        if self.ctx is None or not self.active:
            return
        forwarding = self._anomaly_entities("ForwardingAnomaly")
        sources = self._anomaly_entities("TrafficSourceAnomaly")
        if not forwarding or not sources:
            return
        now = (
            timestamp
            if timestamp is not None
            else (self.ctx.datastore.latest_timestamp() or 0.0)
        )
        for entry in sorted(forwarding):
            for exit_node in sorted(sources):
                if entry == exit_node:
                    continue
                pair = (entry, exit_node)
                if self.cooling(pair, now):
                    continue
                # Record the refined classification so the watchdog stops
                # re-reporting the entry node as a plain blackhole.
                self.ctx.kb.put("WormholeInvolving", True, entity=entry)
                self.ctx.kb.put("WormholeInvolving", True, entity=exit_node)
                self.alert(
                    pair,
                    now,
                    suspects=pair,
                    confidence=0.85,
                    details={
                        "entry": entry.value,
                        "exit": exit_node.value,
                        "correlated_from": sorted(
                            knowgget.creator.value
                            for knowgget in self.ctx.kb.with_label("ForwardingAnomaly")
                            + self.ctx.kb.with_label("TrafficSourceAnomaly")
                        ),
                    },
                )
