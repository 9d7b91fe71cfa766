"""ICMP Flood detection module.

Required knowledge: the WiFi segment is **single-hop** — in a
single-hop network a Smurf reflection is impossible, so a burst of Echo
Replies at one victim can only be an ICMP Flood (the paper's working
example, §III-A1).

Symptom: Echo-Reply arrivals at one victim exceeding ``threshold``
packets within ``window`` seconds.  Suspects: the link-layer
transmitters of the replies — all one hop from the victim by the very
knowledge that activated this module; the paper's prototype additionally
disambiguates by comparing signal strength with previously overheard
communications, which here means dropping identities whose RSSI does not
match the flood frames.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import (
    EwmaTracker,
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
class IcmpFloodModule(DetectionModule):
    """Rate detector for Echo-Reply floods on single-hop networks.

    Parameters: ``threshold`` (default 15 replies), ``window`` (default
    10 s), ``cooldown`` (default 8 s between alerts per victim),
    ``rssiTolerance`` (default 6 dB for suspect disambiguation).
    """

    NAME = "IcmpFloodModule"
    REQUIREMENTS = (Requirement(label="Multihop.wifi", equals=False),)
    DETECTS = ("icmp_flood",)
    COST_WEIGHT = 1.0

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.threshold = self.param("threshold", 15)
        self.window = self.param("window", 10.0)
        self.cooldown = self.param("cooldown", 8.0)
        self.rssi_tolerance = self.param("rssiTolerance", 6.0)
        self._replies = SlidingWindowCounter(self.window)
        self._reply_senders: Dict[str, Set[NodeId]] = {}
        self._flood_rssi = EwmaTracker(alpha=0.3)
        self._victim_link: Dict[str, NodeId] = {}

    def on_deactivate(self) -> None:
        self._replies = SlidingWindowCounter(self.window)
        self._reply_senders.clear()
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        ip_packet = capture.packet.find_layer(IpPacket)
        if ip_packet is None:
            return
        icmp = ip_packet.payload
        if not isinstance(icmp, IcmpMessage):
            return
        if icmp.icmp_type is not IcmpType.ECHO_REPLY:
            return
        victim_ip = ip_packet.dst_ip
        now = capture.timestamp
        self._replies.record(now, victim_ip)
        sender = link_source(capture.packet)
        if sender is not None:
            self._reply_senders.setdefault(victim_ip, set()).add(sender)
            self._flood_rssi.observe((victim_ip, sender), capture.rssi)
        receiver = link_destination(capture.packet)
        if receiver is not None:
            self._victim_link[victim_ip] = receiver
        self._evaluate(victim_ip, now)

    def _evaluate(self, victim_ip: str, now: float) -> None:
        if self._replies.count(victim_ip) < self.threshold:
            return
        if self.cooling(victim_ip, now):
            return  # most replies of a flood land here: skip the evidence
        self.alert(
            victim_ip,
            now,
            suspects=self._disambiguated_suspects(victim_ip),
            victim=self._victim_link.get(victim_ip),
            confidence=0.95,
            details={
                "victim_ip": victim_ip,
                "replies_in_window": self._replies.count(victim_ip),
                "window_s": self.window,
            },
        )

    def _disambiguated_suspects(self, victim_ip: str) -> Tuple[NodeId, ...]:
        """Reply senders, filtered by RSSI consistency.

        A sender whose flood frames arrive at a stable RSSI is one
        physical transmitter; identities with no samples are dropped.
        """
        victim_link = self._victim_link.get(victim_ip)
        suspects = []
        for sender in sorted(self._reply_senders.get(victim_ip, ())):
            if victim_link is not None and sender == victim_link:
                continue  # never accuse the victim of flooding itself
            if self._flood_rssi.mean((victim_ip, sender)) is not None:
                suspects.append(sender)
        return tuple(suspects)
