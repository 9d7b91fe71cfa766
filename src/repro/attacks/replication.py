"""Replication (node clone) attack.

"Malicious devices are added to the network as replicas of some
legitimate node(s)" (§VI-B2): the replica transmits data frames bearing
a legitimate node's identity from a *different physical location*.

The physics is the tell.  In a **static** network the cloned identity
suddenly appears at two stable-but-different RSSI signatures; in a
**mobile** network RSSI varies legitimately, and detection must fall
back on protocol evidence (e.g. the same identity interleaving two
independent sequence-number streams).  That is why the paper ships two
replication detection modules and lets the Mobility Awareness knowgget
choose between them.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import RecurringAttack
from repro.net.packets.base import Medium, RawPayload
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class ReplicaMote(RecurringAttack, SimNode):
    """A clone of a legitimate CTP mote, transmitting under its identity.

    :param cloned_identity: the legitimate node id the replica claims.
    :param clone_parent: where the replica addresses its forged data
        (typically the victim network's base station or a forwarder).
    :param send_interval: seconds between forged data frames (each frame
        is one symptom instance).
    """

    ATTACK_NAME = "replication"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        cloned_identity: NodeId,
        clone_parent: NodeId,
        pan_id: int = 0x22,
        send_interval: float = 3.0,
        start_delay: float = 5.0,
        max_sends: Optional[int] = None,
        seqno_offset: int = 5000,
        rng: Optional[SeededRng] = None,
    ) -> None:
        # The replica's *true* identity exists only as simulation ground
        # truth; every frame it emits claims cloned_identity.
        super().__init__(node_id, position, mediums=(Medium.IEEE_802_15_4,))
        self._init_recurring(send_interval, start_delay, max_sends, rng)
        self.cloned_identity = cloned_identity
        self.clone_parent = clone_parent
        self.pan_id = pan_id
        self.seqno_offset = seqno_offset
        self._seq = 0

    def fire(self) -> None:
        """Emit one data frame under the cloned identity."""
        self._seq += 1
        data = CtpDataFrame(
            origin=self.cloned_identity,
            seqno=self.seqno_offset + self._seq,
            thl=0,
            etx=2,
        )
        frame = Ieee802154Frame(
            pan_id=self.pan_id,
            seq=self._seq,
            src=self.cloned_identity,  # forged MAC source
            dst=self.clone_parent,
            payload=data,
        )
        self.send(Medium.IEEE_802_15_4, frame)
        self.log.record(self.sim.clock.now)


class ReplicaMeshNode(RecurringAttack, SimNode):
    """A clone of a legitimate ZigBee mesh node."""

    ATTACK_NAME = "replication"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        cloned_identity: NodeId,
        target: NodeId,
        next_hop: NodeId,
        pan_id: int = 0x33,
        send_interval: float = 4.0,
        start_delay: float = 5.0,
        max_sends: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, mediums=(Medium.IEEE_802_15_4,))
        self._init_recurring(send_interval, start_delay, max_sends, rng)
        self.cloned_identity = cloned_identity
        self.target = target
        self.next_hop = next_hop
        self.pan_id = pan_id
        self._seq = 0

    def fire(self) -> None:
        self._seq += 1
        packet = ZigbeePacket(
            src=self.cloned_identity,
            dst=self.target,
            seq=9000 + self._seq,
            zigbee_kind=ZigbeeKind.DATA,
            payload=RawPayload(length=16),
        )
        frame = Ieee802154Frame(
            pan_id=self.pan_id,
            seq=self._seq,
            src=self.cloned_identity,
            dst=self.next_hop,
            payload=packet,
        )
        self.send(Medium.IEEE_802_15_4, frame)
        self.log.record(self.sim.clock.now)
