"""Smurf detection module.

Required knowledge: the WiFi segment is **multi-hop** — a Smurf needs a
reflection path (attacker → neighbours → victim), impossible when every
node is one hop from every other (§III-A1, Figure 2).

Symptom: the same Echo-Reply burst an ICMP Flood produces.  The module
identifies the orchestrator when it can: the sender of recent Echo
*Requests* forged with the victim's source address.  Failing that, it
falls back on the paper's heuristic — "all nodes at a 2-hop distance
from the victim", which under a simplistic exploration of a single-hop
graph degenerates to the victim itself (the exact failure the paper's
countermeasure experiment shows for the traditional IDS, §VI-B1).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import (
    SlidingWindowCounter,
    link_destination,
    link_source,
)
from repro.core.modules.registry import register_module
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ip import IpPacket
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class SmurfModule(DetectionModule):
    """Detects reflected Echo-Reply floods on multi-hop networks.

    Parameters: ``threshold`` (default 15 replies), ``window`` (default
    10 s), ``cooldown`` (default 8 s per victim).
    """

    NAME = "SmurfModule"
    REQUIREMENTS = (Requirement(label="Multihop.wifi", equals=True),)
    DETECTS = ("smurf",)
    COST_WEIGHT = 1.1

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.threshold = self.param("threshold", 15)
        self.window = self.param("window", 10.0)
        self.cooldown = self.param("cooldown", 8.0)
        self._replies = SlidingWindowCounter(self.window)
        #: victim_ip -> link-layer sender of spoofed Echo Requests.
        self._request_forgers: Dict[str, NodeId] = {}
        self._victim_link: Dict[str, NodeId] = {}

    def on_deactivate(self) -> None:
        self._replies = SlidingWindowCounter(self.window)
        self._request_forgers.clear()
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        ip_packet = capture.packet.find_layer(IpPacket)
        if ip_packet is None:
            return
        icmp = ip_packet.payload
        if not isinstance(icmp, IcmpMessage):
            return
        now = capture.timestamp
        if icmp.icmp_type is IcmpType.ECHO_REQUEST:
            self._note_request(capture, ip_packet)
            return
        if icmp.icmp_type is not IcmpType.ECHO_REPLY:
            return
        victim_ip = ip_packet.dst_ip
        self._replies.record(now, victim_ip)
        receiver = link_destination(capture.packet)
        if receiver is not None:
            self._victim_link[victim_ip] = receiver
        self._evaluate(victim_ip, now)

    def _note_request(self, capture: Capture, ip_packet: IpPacket) -> None:
        """Remember who transmits Echo Requests on behalf of which source.

        In a Smurf, the forged requests carry the victim's address as
        source — so the link-layer transmitter of requests "from" the
        flood victim is the orchestrator.
        """
        sender = link_source(capture.packet)
        if sender is not None:
            self._request_forgers[ip_packet.src_ip] = sender

    def _evaluate(self, victim_ip: str, now: float) -> None:
        if self._replies.count(victim_ip) < self.threshold:
            return
        if self.cooling(victim_ip, now):
            return  # most replies of a flood land here: skip the evidence
        victim_link = self._victim_link.get(victim_ip)
        self.alert(
            victim_ip,
            now,
            suspects=self._suspects(victim_ip, victim_link),
            victim=victim_link,
            confidence=0.9,
            details={
                "victim_ip": victim_ip,
                "replies_in_window": self._replies.count(victim_ip),
                "orchestrator_seen": victim_ip in self._request_forgers,
            },
        )

    def _suspects(
        self, victim_ip: str, victim_link: Optional[NodeId]
    ) -> Tuple[NodeId, ...]:
        forger = self._request_forgers.get(victim_ip)
        if forger is not None:
            return (forger,)
        # No forged request observed: fall back to the 2-hop heuristic.
        # On a network that is actually single-hop, the only node "two
        # hops away" under naive graph exploration (victim -> neighbour
        # -> back) is the victim itself — the paper's §VI-B1 failure
        # mode, reproduced faithfully.
        if victim_link is not None:
            return (victim_link,)
        return ()
