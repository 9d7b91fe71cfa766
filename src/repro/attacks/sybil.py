"""Sybil attack.

One physical attacker fabricates many identities and participates in
the network under all of them.  Unlike replication (which steals an
*existing* identity), sybil invents new ones — but shares the same
physical giveaway: every fabricated identity radiates from one
transmitter, so all of them carry the same RSSI signature at a sniffer
(Wang et al., RSSI-based sybil detection, the paper's reference [42]).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.attacks.base import RecurringAttack
from repro.net.packets.base import Medium, RawPayload
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class SybilNode(RecurringAttack, SimNode):
    """Emits ZigBee traffic under several fabricated identities.

    :param identity_count: number of fake identities.
    :param target: node the forged data is addressed to.
    :param round_interval: seconds between rounds; each round (one frame
        from every fake identity) is one symptom instance.
    """

    ATTACK_NAME = "sybil"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        target: NodeId,
        identity_count: int = 4,
        pan_id: int = 0x33,
        round_interval: float = 6.0,
        start_delay: float = 8.0,
        max_rounds: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, mediums=(Medium.IEEE_802_15_4,))
        if identity_count < 2:
            raise ValueError(f"identity_count must be >= 2, got {identity_count}")
        self._init_recurring(round_interval, start_delay, max_rounds, rng)
        self.target = target
        self.pan_id = pan_id
        self.fake_identities: List[NodeId] = [
            node_id.with_suffix(f"sybil{index}") for index in range(identity_count)
        ]
        self._seq = 0

    def fire(self) -> None:
        """One frame from every fabricated identity, back to back."""
        start = self.sim.clock.now
        for identity in self.fake_identities:
            self._seq += 1
            packet = ZigbeePacket(
                src=identity,
                dst=self.target,
                seq=self._seq,
                zigbee_kind=ZigbeeKind.DATA,
                payload=RawPayload(length=12),
            )
            frame = Ieee802154Frame(
                pan_id=self.pan_id,
                seq=self._seq,
                src=identity,
                dst=self.target,
                payload=packet,
            )
            self.send(Medium.IEEE_802_15_4, frame)
        self.log.record(start, self.sim.clock.now)
