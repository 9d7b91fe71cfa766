"""Wormhole attack.

Two colluding nodes, B1 and B2, monitor different portions of a mesh.
"B1 does not correctly forward traffic, transmitting it instead
directly to B2" (§VI-D) over an out-of-band channel invisible to any
radio sniffer; B2 re-emits the traffic in its own neighbourhood.

Locally, B1 looks like a blackhole (traffic enters, never leaves) and
B2 looks like a spontaneous traffic source.  Only by correlating the
two observations — which is what Kalis' collective knowledge enables —
does the wormhole become identifiable.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Tuple

from repro.attacks.base import SymptomLog
from repro.net.packets.zigbee import ZigbeePacket
from repro.proto.mesh import ZigbeeMeshNode
from repro.util.ids import NodeId

#: Latency of the attackers' private tunnel (out-of-band link).
TUNNEL_LATENCY_S = 0.002


class WormholeEntry(ZigbeeMeshNode):
    """B1: swallows in-transit traffic and tunnels it to the exit."""

    ATTACK_NAME = "wormhole"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float] = (0.0, 0.0),
        pan_id: int = 0x33,
    ) -> None:
        super().__init__(node_id, position, pan_id=pan_id)
        self.log = SymptomLog(self.ATTACK_NAME, node_id)
        self.exit_node: Optional["WormholeExit"] = None

    def forward_packet(self, packet: ZigbeePacket, timestamp: float) -> None:
        self.log.record(timestamp)
        if self.exit_node is None or not self.attached:
            return
        # Out-of-band tunnel: a direct, un-sniffable hand-off.  Nothing
        # radiates on any monitored medium between entry and exit.
        self.sim.schedule_in(
            TUNNEL_LATENCY_S, partial(self.exit_node.emit_tunnelled, packet)
        )


class WormholeExit(ZigbeeMeshNode):
    """B2: re-emits tunnelled traffic into its own neighbourhood."""

    ATTACK_NAME = "wormhole"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float] = (0.0, 0.0),
        pan_id: int = 0x33,
    ) -> None:
        super().__init__(node_id, position, pan_id=pan_id)
        self.emitted_count = 0

    def emit_tunnelled(self, packet: ZigbeePacket) -> None:
        """Re-inject a tunnelled packet as if it had arrived normally."""
        if not self.attached:
            return
        next_hop = self.routing_table.get(packet.dst)
        if next_hop is None:
            return
        self.emitted_count += 1
        self.send(
            self.mediums_medium(),
            self._mac_frame(next_hop, packet.forwarded()),
        )

    def mediums_medium(self):
        # Mesh nodes have exactly one medium (802.15.4).
        return next(iter(self.mediums))


class WormholePair:
    """Convenience factory wiring an entry and exit node together."""

    def __init__(
        self,
        entry_id: NodeId,
        entry_position: Tuple[float, float],
        exit_id: NodeId,
        exit_position: Tuple[float, float],
        pan_id: int = 0x33,
    ) -> None:
        self.entry = WormholeEntry(entry_id, entry_position, pan_id=pan_id)
        self.exit = WormholeExit(exit_id, exit_position, pan_id=pan_id)
        self.entry.exit_node = self.exit

    @property
    def log(self) -> SymptomLog:
        return self.entry.log

    def add_to(self, sim) -> "WormholePair":
        sim.add_node(self.entry)
        sim.add_node(self.exit)
        return self
