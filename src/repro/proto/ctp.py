"""Collection Tree Protocol (CTP) nodes.

Implements the subset of CTP (Gnawali et al., SenSys'09) that produces
observable multi-hop structure:

- the root advertises ETX 0; every other node periodically broadcasts a
  routing beacon with its current parent and path ETX;
- nodes choose as parent the neighbour minimising ``neighbour ETX + 1``;
- application data frames are unicast hop by hop toward the root, with
  the ``thl`` (time-has-lived) counter incremented at every forward.

The forwarding decision is isolated in :meth:`CtpNode.forward_data` so
that attacker subclasses (selective forwarding, blackhole) override one
method and everything else stays honest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addressing import BROADCAST
from repro.net.packets.base import Medium, Packet
from repro.net.packets.ctp import CtpDataFrame, CtpRoutingFrame
from repro.net.packets.ieee802154 import FrameType, Ieee802154Frame
from repro.sim.node import SimNode
from repro.util.ids import NodeId, stable_hash

#: ETX advertised before a route is known (effectively infinite).
NO_ROUTE_ETX = 0xFFFF


class CtpNode(SimNode):
    """A WSN mote speaking CTP over IEEE 802.15.4.

    :param node_id: the mote's identity.
    :param position: physical placement.
    :param is_root: whether this mote is the collection root (base
        station).
    :param data_interval: seconds between application samples, or None
        for a node that only routes.  The paper's motes send every 3 s.
    :param beacon_interval: seconds between routing beacons.
    :param pan_id: 802.15.4 PAN the mote belongs to.
    :param min_link_rssi: beacons weaker than this are ignored by the
        link estimator — the stand-in for CTP's ETX-based link quality
        filtering, which keeps flaky edge-of-range links out of the tree.
    """

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float] = (0.0, 0.0),
        is_root: bool = False,
        data_interval: Optional[float] = 3.0,
        beacon_interval: float = 5.0,
        pan_id: int = 0x22,
        min_link_rssi: float = -85.0,
    ) -> None:
        super().__init__(node_id, position, mediums=(Medium.IEEE_802_15_4,))
        self.is_root = is_root
        self.data_interval = data_interval
        self.beacon_interval = beacon_interval
        self.pan_id = pan_id
        self.min_link_rssi = min_link_rssi
        self.parent: Optional[NodeId] = None
        self.etx: int = 0 if is_root else NO_ROUTE_ETX
        self.neighbor_etx: Dict[NodeId, int] = {}
        self._mac_seq = 0
        self._app_seqno = 0
        #: Samples delivered to this node as root: (origin, seqno, thl, time).
        self.collected: List[Tuple[NodeId, int, int, float]] = []
        #: Data frames this node forwarded (for tests and ground truth).
        self.forwarded_count = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        jitter = (stable_hash(self.node_id) % 10) / 10.0
        self.sim.schedule_every(
            self.beacon_interval,
            self.send_beacon,
            first_delay=self.beacon_interval * (0.1 + 0.05 * jitter),
        )
        if self.data_interval is not None and not self.is_root:
            self.sim.schedule_every(
                self.data_interval,
                self.send_sample,
                first_delay=self.data_interval * (0.2 + 0.07 * jitter),
            )

    # -- MAC helpers ---------------------------------------------------------

    def _next_seq(self) -> int:
        self._mac_seq += 1
        return self._mac_seq

    def _mac_frame(self, dst: NodeId, payload: Packet) -> Ieee802154Frame:
        return Ieee802154Frame(
            pan_id=self.pan_id,
            seq=self._next_seq(),
            src=self.node_id,
            dst=dst,
            frame_type=FrameType.DATA,
            payload=payload,
        )

    # -- beaconing and route selection ----------------------------------------

    def send_beacon(self) -> None:
        """Broadcast a routing beacon advertising our parent and ETX."""
        beacon = CtpRoutingFrame(
            parent=self.parent if self.parent is not None else self.node_id,
            etx=self.etx,
        )
        self.send(Medium.IEEE_802_15_4, self._mac_frame(BROADCAST, beacon))

    def _update_route(self) -> None:
        """One pass: the lowest ``etx + 1`` below :data:`NO_ROUTE_ETX`
        wins, ties going to the smallest id (an id-ordered scan's pick)."""
        if self.is_root:
            return
        best_parent: Optional[NodeId] = None
        best_etx = NO_ROUTE_ETX
        for neighbor, neighbor_etx in self.neighbor_etx.items():
            candidate = neighbor_etx + 1
            if candidate < best_etx or (
                candidate == best_etx
                and best_parent is not None
                and neighbor.value < best_parent.value
            ):
                best_parent = neighbor
                best_etx = candidate
        if best_parent is not None:
            self.parent = best_parent
            self.etx = best_etx

    # -- application ---------------------------------------------------------

    def send_sample(self) -> None:
        """Generate one application sample and route it toward the root."""
        self._app_seqno += 1
        data = CtpDataFrame(
            origin=self.node_id, seqno=self._app_seqno, thl=0, etx=self.etx
        )
        self._route_data(data)

    def _route_data(self, data: CtpDataFrame) -> None:
        if self.parent is None:
            return  # no route yet; CTP drops (queue omitted for simplicity)
        self.send(Medium.IEEE_802_15_4, self._mac_frame(self.parent, data))

    # -- reception -----------------------------------------------------------

    def on_receive(
        self, packet: Packet, medium: Medium, rssi: float, timestamp: float
    ) -> None:
        mac = packet if isinstance(packet, Ieee802154Frame) else None
        if mac is None or mac.pan_id != self.pan_id:
            return
        inner = mac.payload
        if isinstance(inner, CtpRoutingFrame):
            if rssi >= self.min_link_rssi:
                self._on_beacon(mac.src, inner)
        elif isinstance(inner, CtpDataFrame) and mac.dst == self.node_id:
            self._on_data(inner, timestamp)

    def _on_beacon(self, sender: NodeId, beacon: CtpRoutingFrame) -> None:
        self.neighbor_etx[sender] = beacon.etx
        self._update_route()

    def _on_data(self, data: CtpDataFrame, timestamp: float) -> None:
        if self.is_root:
            self.collected.append((data.origin, data.seqno, data.thl, timestamp))
            return
        self.forward_data(data)

    def forward_data(self, data: CtpDataFrame) -> None:
        """Forward a data frame one hop toward the root.

        Attacker subclasses override this to drop or divert traffic.
        """
        if self.parent is None:
            return
        self.forwarded_count += 1
        forwarded = data.forwarded(new_etx=self.etx)
        self.send(Medium.IEEE_802_15_4, self._mac_frame(self.parent, forwarded))
