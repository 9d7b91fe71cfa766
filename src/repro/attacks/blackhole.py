"""Blackhole attack.

The degenerate case of selective forwarding: the compromised forwarder
drops *everything* it should relay.  The paper notes the two share a
detection technique generalised over drop rate ("selective forwarding
attack vs. blackhole attack", §IV-B4); the wormhole experiment (§VI-D)
also begins life as an apparent blackhole at the entry node.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import SymptomLog
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.zigbee import ZigbeePacket
from repro.proto.ctp import CtpNode
from repro.proto.mesh import ZigbeeMeshNode
from repro.util.ids import NodeId


class BlackholeMote(CtpNode):
    """A CTP forwarder that drops every relayed data frame."""

    ATTACK_NAME = "blackhole"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        data_interval: Optional[float] = 3.0,
    ) -> None:
        super().__init__(node_id, position, data_interval=data_interval)
        self.log = SymptomLog(self.ATTACK_NAME, node_id)

    def forward_data(self, data: CtpDataFrame) -> None:
        self.log.record(self.sim.clock.now)


class BlackholeMeshNode(ZigbeeMeshNode):
    """A ZigBee mesh forwarder that drops every in-transit packet."""

    ATTACK_NAME = "blackhole"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float] = (0.0, 0.0),
        pan_id: int = 0x33,
    ) -> None:
        super().__init__(node_id, position, pan_id=pan_id)
        self.log = SymptomLog(self.ATTACK_NAME, node_id)

    def forward_packet(self, packet: ZigbeePacket, timestamp: float) -> None:
        self.log.record(timestamp)
