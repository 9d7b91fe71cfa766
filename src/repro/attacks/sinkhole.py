"""Sinkhole attack.

The attacker advertises an irresistibly good route (ETX 0 in CTP; the
root's rank in RPL) so that neighbours re-parent onto it, funnelling
the region's traffic through the attacker — who then drops it.  Only
meaningful in multi-hop networks, and the appropriate detection differs
between single- and multi-hop settings (a "circle" cell in the paper's
Figure 3 taxonomy).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import SymptomLog
from repro.net.addressing import BROADCAST
from repro.net.packets.ctp import CtpDataFrame, CtpRoutingFrame
from repro.net.packets.rpl import ROOT_RANK
from repro.proto.ctp import CtpNode
from repro.proto.rpl import RplNode
from repro.util.ids import NodeId


class SinkholeMote(CtpNode):
    """A CTP node that lies about its route quality, then drops traffic.

    :param advertised_etx: the forged path quality (0 = "I am the
        root"); honest nodes re-parent because ``0 + 1`` beats any real
        route through the tree.
    """

    ATTACK_NAME = "sinkhole"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        advertised_etx: int = 0,
        data_interval: Optional[float] = None,
        beacon_interval: float = 2.0,
        start_delay: float = 20.0,
    ) -> None:
        super().__init__(
            node_id,
            position,
            data_interval=data_interval,
            beacon_interval=beacon_interval,
        )
        if advertised_etx < 0:
            raise ValueError(f"advertised_etx must be >= 0, got {advertised_etx}")
        self.advertised_etx = advertised_etx
        #: Sinkholes strike *established* trees: stay silent while the
        #: honest root settles, then out-advertise it.
        self.start_delay = start_delay
        self.log = SymptomLog(self.ATTACK_NAME, node_id)

    def start(self) -> None:
        self.sim.schedule_every(
            self.beacon_interval, self.send_beacon, first_delay=self.start_delay
        )

    def send_beacon(self) -> None:
        """Broadcast the forged route advertisement."""
        beacon = CtpRoutingFrame(parent=self.node_id, etx=self.advertised_etx)
        self.send(
            next(iter(self.mediums)), self._mac_frame(BROADCAST, beacon)
        )

    def _update_route(self) -> None:
        pass  # the sinkhole never re-parents; its "route" is the lie

    def forward_data(self, data: CtpDataFrame) -> None:
        self.log.record(self.sim.clock.now)

    def _on_data(self, data: CtpDataFrame, timestamp: float) -> None:
        # Everything addressed to the sinkhole is swallowed, including
        # traffic from nodes that adopted it as parent.
        self.forward_data(data)


class RplSinkholeNode(RplNode):
    """An RPL node that advertises the root's rank to attract traffic.

    The RPL flavour of the same lie: a DIO claiming ``ROOT_RANK`` makes
    every neighbour adopt the attacker as parent (rank ``ROOT_RANK +
    RANK_INCREASE`` beats any honest route), after which the upward
    data it attracts is silently swallowed.
    """

    ATTACK_NAME = "sinkhole"

    def __init__(
        self,
        node_id: NodeId,
        position,
        dio_interval: float = 3.0,
        pan_id: int = 0x44,
        start_delay: float = 20.0,
    ) -> None:
        super().__init__(
            node_id, position, is_root=False,
            dio_interval=dio_interval, pan_id=pan_id,
        )
        # The lie: present root-grade routing state from the start.
        self.rank = ROOT_RANK
        self.dodag_id = "dodag-root"
        #: Sinkholes strike *established* DODAGs: the attacker stays
        #: silent while the honest root settles, then out-advertises it.
        self.start_delay = start_delay
        self.log = SymptomLog(self.ATTACK_NAME, node_id)

    def start(self) -> None:
        self.sim.schedule_every(
            self.dio_interval, self.send_dio, first_delay=self.start_delay
        )

    def _on_dio(self, sender: NodeId, dio) -> None:
        pass  # never re-parent; the advertised rank is fixed

    def _on_data(self, lowpan, timestamp: float) -> None:
        # Attracted upward traffic is swallowed, never forwarded.
        self.log.record(timestamp)
