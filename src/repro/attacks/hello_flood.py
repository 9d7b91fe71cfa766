"""HELLO flood attack.

The attacker blasts link-layer/routing hello beacons (CTP routing
frames here) at an abnormally high rate, polluting every neighbour's
routing state and draining constrained receivers.  The observable
symptom is a routing-beacon rate far above the protocol's natural
cadence — an anomaly against the Traffic Statistics baseline.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import RecurringAttack
from repro.net.addressing import BROADCAST
from repro.net.packets.base import Medium
from repro.net.packets.ctp import CtpRoutingFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class HelloFloodNode(RecurringAttack, SimNode):
    """Floods the 802.15.4 channel with attractive routing beacons.

    :param beacons_per_burst: beacons per burst (one burst = one symptom
        instance).
    """

    ATTACK_NAME = "hello_flood"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        pan_id: int = 0x22,
        beacons_per_burst: int = 25,
        burst_interval: float = 6.0,
        start_delay: float = 10.0,
        max_bursts: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, mediums=(Medium.IEEE_802_15_4,))
        if beacons_per_burst < 1:
            raise ValueError(
                f"beacons_per_burst must be >= 1, got {beacons_per_burst}"
            )
        self._init_recurring(burst_interval, start_delay, max_bursts, rng)
        self.pan_id = pan_id
        self.beacons_per_burst = beacons_per_burst
        self._seq = 0

    def fire(self) -> None:
        start = self.sim.clock.now
        for _ in range(self.beacons_per_burst):
            self._seq += 1
            beacon = CtpRoutingFrame(parent=self.node_id, etx=1)
            frame = Ieee802154Frame(
                pan_id=self.pan_id,
                seq=self._seq,
                src=self.node_id,
                dst=BROADCAST,
                payload=beacon,
            )
            self.send(Medium.IEEE_802_15_4, frame)
        self.log.record(start, self.sim.clock.now)
