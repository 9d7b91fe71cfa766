"""HELLO flood detection module.

Required knowledge: an 802.15.4 network exists (the attack saturates
link-local beaconing, so it applies to single- and multi-hop WSNs
alike).

Symptom: routing beacons (CTP routing frames, ZigBee control kinds)
from one sender at a rate far above the protocols' natural cadence —
an anomaly against the Traffic Statistics baseline rather than a
signature, demonstrating Kalis' hybrid detection.
"""

from __future__ import annotations

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import SlidingWindowCounter
from repro.core.modules.registry import register_module
from repro.net.packets.base import PacketKind
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.capture import Capture

#: Kinds counted as routing chatter.
ROUTING_KINDS = frozenset(
    {PacketKind.CTP_ROUTING, PacketKind.ZIGBEE_ROUTING, PacketKind.RPL_CONTROL}
)


@register_module
class HelloFloodModule(DetectionModule):
    """Per-sender routing-beacon rate anomaly detector.

    Parameters: ``rate`` (default 1.0 beacons/s that counts as
    flooding; CTP beacons naturally arrive at ~0.2/s), ``window``
    (default 10 s), ``cooldown`` (default 20 s per suspect).
    """

    NAME = "HelloFloodModule"
    REQUIREMENTS = (Requirement(label="Multihop.802154"),)
    DETECTS = ("hello_flood",)
    COST_WEIGHT = 0.9

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.rate = self.param("rate", 1.0)
        self.window = self.param("window", 10.0)
        self.cooldown = self.param("cooldown", 20.0)
        self._beacons = SlidingWindowCounter(self.window)

    def on_deactivate(self) -> None:
        self._beacons = SlidingWindowCounter(self.window)
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        if capture.packet.traffic_kind() not in ROUTING_KINDS:
            return
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        now = capture.timestamp
        self._beacons.record(now, mac.src)
        observed_rate = self._beacons.rate(mac.src)
        if observed_rate < self.rate:
            return
        self.alert(
            mac.src,
            now,
            suspects=(mac.src,),
            confidence=0.9,
            details={
                "beacon_rate_per_s": round(observed_rate, 2),
                "threshold_per_s": self.rate,
            },
        )
