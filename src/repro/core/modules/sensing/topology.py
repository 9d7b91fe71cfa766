"""Topology Discovery sensing module.

"Detects multi-hop and single-hop topology by analyzing the captured
traffic.  The features used for this analysis include the communication
medium used, the detection of known protocols (such as RPL in 6LoWPAN
or Collection Tree Protocol in TinyOS), the inclusion of specific
forwarding/next-hop headers in packets, and more" (§V).

Concretely, per medium, any of the following is positive multi-hop
evidence:

- a CTP data frame whose ``thl`` (hops travelled) is >= 1;
- a CTP routing beacon advertising path ETX >= 2;
- a ZigBee NWK packet whose MAC-layer transmitter differs from the NWK
  originator (someone forwarded it), or whose radius was decremented;
- a 6LoWPAN packet whose hop limit is below the medium's default;
- an RPL DIO advertising a rank beyond the root's.

Single-hop is concluded *positively* after ``minCaptures`` frames on a
medium produce no such evidence.  Knowggets written::

    Multihop            -- any medium multi-hop (bool)
    Multihop.<medium>   -- per-medium verdict (bool)
    MonitoredNodes      -- distinct link-layer sources seen (int)
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.modules.base import SensingModule
from repro.core.modules.common import link_source, medium_label
from repro.core.modules.registry import register_module
from repro.net.packets.base import Medium, Packet
from repro.net.packets.ctp import CtpDataFrame, CtpRoutingFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.rpl import ROOT_RANK, RplDio
from repro.net.packets.sixlowpan import SixLowpanPacket
from repro.net.packets.wifi import WifiFrame
from repro.net.packets.zigbee import ZigbeePacket
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: Hop-limit value 6LoWPAN packets start with in this substrate.
DEFAULT_HOP_LIMIT = 64


@register_module
class TopologyDiscoveryModule(SensingModule):
    """Infers single- vs multi-hop structure per medium.

    Parameters (config file):

    - ``minCaptures`` (default 20): frames on a medium without
      forwarding evidence before concluding single-hop.
    """

    NAME = "TopologyDiscoveryModule"
    COST_WEIGHT = 1.2

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.min_captures = self.param("minCaptures", 20)
        self._captures_per_medium: Dict[Medium, int] = {}
        self._multihop_mediums: Set[Medium] = set()
        self._concluded_single: Set[Medium] = set()
        self._sources: Set[NodeId] = set()

    def process(self, capture: Capture) -> None:
        medium = capture.medium
        self._captures_per_medium[medium] = (
            self._captures_per_medium.get(medium, 0) + 1
        )
        source = link_source(capture.packet)
        if source is not None and source not in self._sources:
            self._sources.add(source)
            self.ctx.kb.put("MonitoredNodes", len(self._sources))

        if medium not in self._multihop_mediums and self._is_multihop_evidence(
            capture
        ):
            self._multihop_mediums.add(medium)
            self._concluded_single.discard(medium)
            self._write_verdict(medium, True)
        elif (
            medium not in self._multihop_mediums
            and medium not in self._concluded_single
            and self._captures_per_medium[medium] >= self.min_captures
        ):
            self._concluded_single.add(medium)
            self._write_verdict(medium, False)

    def _write_verdict(self, medium: Medium, multihop: bool) -> None:
        self.ctx.kb.put(f"Multihop.{medium_label(medium)}", multihop)
        self.ctx.kb.put("Multihop", bool(self._multihop_mediums))

    def _is_multihop_evidence(self, capture: Capture) -> bool:
        # One walk down the stack finds the outermost layer of each type.
        # Keying by exact type matches ``find_layer``'s isinstance test
        # because no packet type subclasses another.
        layers: Dict[type, Packet] = {}
        layer: Optional[Packet] = capture.packet
        while layer is not None:
            layers.setdefault(type(layer), layer)
            layer = layer.payload
        ctp_data = layers.get(CtpDataFrame)
        if ctp_data is not None and ctp_data.thl >= 1:
            return True
        ctp_routing = layers.get(CtpRoutingFrame)
        if ctp_routing is not None and 2 <= ctp_routing.etx < 0xFFFF:
            return True
        zigbee = layers.get(ZigbeePacket)
        if zigbee is not None:
            # A NWK packet transmitted by someone other than its
            # originator has been forwarded — multi-hop.  (Radius alone
            # is not evidence: hubs legitimately send radius-1 frames.)
            mac = layers.get(Ieee802154Frame)
            if mac is not None and mac.src != zigbee.src:
                return True
        lowpan = layers.get(SixLowpanPacket)
        if lowpan is not None and lowpan.hop_limit < DEFAULT_HOP_LIMIT:
            return True
        dio = layers.get(RplDio)
        if dio is not None and dio.rank > ROOT_RANK:
            return True
        wifi = layers.get(WifiFrame)
        if wifi is not None and wifi.is_mesh_relayed:
            # 802.11s four-address frames: a mesh WLAN relays at the MAC
            # layer.  (A routed IP path is NOT wireless multi-hop.)
            return True
        return False

    def on_deactivate(self) -> None:
        # Sensing modules are effectively always-on; state kept.
        pass
