"""Identity spoofing attack.

The attacker injects frames that claim another (live, legitimate) node
as their source — e.g. forged sensor readings attributed to a real
mote.  The legitimate owner keeps transmitting too, so a sniffer sees
the same identity producing two interleaved sequence-number streams
from two RSSI signatures: the shared physical fingerprint behind
spoofing, sybil and replication detection.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import RecurringAttack
from repro.net.packets.base import Medium
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class SpoofingNode(RecurringAttack, SimNode):
    """Injects forged CTP data under a live legitimate identity.

    :param spoofed_identity: the legitimate node being impersonated.
    :param target: where forged frames are addressed (e.g. the victim's
        parent, to poison the collected data).
    """

    ATTACK_NAME = "spoofing"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        spoofed_identity: NodeId,
        target: NodeId,
        pan_id: int = 0x22,
        send_interval: float = 4.0,
        start_delay: float = 6.0,
        max_sends: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, mediums=(Medium.IEEE_802_15_4,))
        self._init_recurring(send_interval, start_delay, max_sends, rng)
        self.spoofed_identity = spoofed_identity
        self.target = target
        self.pan_id = pan_id
        self._seq = 0

    def fire(self) -> None:
        self._seq += 1
        forged = CtpDataFrame(
            origin=self.spoofed_identity,
            # A sloppy injector: random sequence numbers far outside the
            # victim's real stream (a *coherent* second stream would be a
            # replica, not an injection).
            seqno=self._rng.integer(10_000, 1_000_000),
            thl=0,
            etx=2,
        )
        frame = Ieee802154Frame(
            pan_id=self.pan_id,
            seq=self._seq,
            src=self.spoofed_identity,
            dst=self.target,
            payload=forged,
        )
        self.send(Medium.IEEE_802_15_4, frame)
        self.log.record(self.sim.clock.now)
