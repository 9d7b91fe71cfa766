"""Selective forwarding attack.

A compromised forwarder in a multi-hop collection tree silently drops a
fraction of the data packets it should relay.  Impossible in a
single-hop network — there is nothing to forward — which is the
feature/attack relationship Kalis exploits to keep this module dormant
until Topology Discovery reports a multi-hop network (§VI-C).

Each dropped data packet is one symptom instance: the sniffer saw the
packet arrive at the attacker and can observe that it never left.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import SymptomLog
from repro.net.packets.ctp import CtpDataFrame
from repro.proto.ctp import CtpNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class SelectiveForwardingMote(CtpNode):
    """A CTP forwarder that drops a fraction of relayed data frames.

    :param drop_probability: chance of dropping each data frame it
        should forward (1.0 turns this into a blackhole).
    :param max_drops: stop dropping after this many symptom instances
        (None = unlimited), letting experiments hit an exact count.
    """

    ATTACK_NAME = "selective_forwarding"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        drop_probability: float = 0.6,
        max_drops: Optional[int] = None,
        data_interval: Optional[float] = 3.0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, data_interval=data_interval)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {drop_probability}"
            )
        self.drop_probability = drop_probability
        self.max_drops = max_drops
        self._rng = rng if rng is not None else SeededRng(0, "attack", node_id.value)
        self.log = SymptomLog(self.ATTACK_NAME, node_id)

    def forward_data(self, data: CtpDataFrame) -> None:
        quota_left = self.max_drops is None or len(self.log) < self.max_drops
        if quota_left and self._rng.chance(self.drop_probability):
            self.log.record(self.sim.clock.now)
            return  # the drop: relay nothing
        super().forward_data(data)
