"""SYN flood detection module.

Required knowledge: a WiFi/IP segment exists (the Topology Discovery
module has reached a verdict about it — either way; the attack works on
single- and multi-hop IP networks alike, per the Figure 3 taxonomy).

Symptom: connection-opening SYNs at one victim far outpacing handshake
completions.  Benign IoT check-ins complete (SYN ≈ ACK rates); a flood
leaves the ratio unbounded.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.modules.base import DetectionModule, EXISTS, Requirement
from repro.core.modules.common import (
    SlidingWindowCounter,
    link_destination,
    link_source,
)
from repro.core.modules.registry import register_module
from repro.net.packets.ip import IpPacket
from repro.net.packets.tcp import TcpSegment
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class SynFloodModule(DetectionModule):
    """SYN-vs-completion ratio detector, per victim address.

    Parameters: ``threshold`` (default 20 SYNs), ``window`` (default
    10 s), ``ratio`` (default 4.0: SYNs per completion before alerting),
    ``cooldown`` (default 8 s per victim).
    """

    NAME = "SynFloodModule"
    REQUIREMENTS = (Requirement(label="Multihop.wifi", equals=EXISTS),)
    DETECTS = ("syn_flood",)
    COST_WEIGHT = 1.0

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.threshold = self.param("threshold", 20)
        self.window = self.param("window", 10.0)
        self.ratio = self.param("ratio", 4.0)
        self.cooldown = self.param("cooldown", 8.0)
        self._syns = SlidingWindowCounter(self.window)
        self._acks = SlidingWindowCounter(self.window)
        self._syn_senders: Dict[str, Set[NodeId]] = {}
        self._victim_link: Dict[str, NodeId] = {}

    def on_deactivate(self) -> None:
        self._syns = SlidingWindowCounter(self.window)
        self._acks = SlidingWindowCounter(self.window)
        self._syn_senders.clear()
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        ip_packet = capture.packet.find_layer(IpPacket)
        if ip_packet is None:
            return
        segment = ip_packet.payload
        if not isinstance(segment, TcpSegment):
            return
        now = capture.timestamp
        if segment.is_syn:
            victim_ip = ip_packet.dst_ip
            self._syns.record(now, victim_ip)
            sender = link_source(capture.packet)
            if sender is not None:
                self._syn_senders.setdefault(victim_ip, set()).add(sender)
            receiver = link_destination(capture.packet)
            if receiver is not None:
                self._victim_link[victim_ip] = receiver
            self._evaluate(victim_ip, now)
        elif segment.is_pure_ack:
            # Handshake-completing ACK travels toward the server: count
            # it for the destination (the would-be victim).
            self._acks.record(now, ip_packet.dst_ip)

    def _evaluate(self, victim_ip: str, now: float) -> None:
        syn_count = self._syns.count(victim_ip)
        if syn_count < self.threshold:
            return
        completions = self._acks.count(victim_ip)
        if syn_count < self.ratio * max(completions, 1):
            return
        self.alert(
            victim_ip,
            now,
            suspects=tuple(sorted(self._syn_senders.get(victim_ip, ()))),
            victim=self._victim_link.get(victim_ip),
            confidence=0.9,
            details={
                "victim_ip": victim_ip,
                "syns_in_window": syn_count,
                "completions_in_window": completions,
            },
        )
