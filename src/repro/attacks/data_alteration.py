"""Data alteration attack.

A compromised forwarder relays traffic — but tampers with it in
transit, here by corrupting the CTP sequence number and payload of the
frames it forwards.  A promiscuous observer that heard both the inbound
and outbound copy can diff them; cryptographic integrity protection on
the monitored devices makes the attack moot, which is why the paper's
Figure 3 marks data alteration impossible "in presence of prevention
techniques" (a static knowgget can encode exactly that).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import SymptomLog
from repro.net.packets.ctp import CtpDataFrame
from repro.proto.ctp import CtpNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class AlteringMote(CtpNode):
    """A CTP forwarder that corrupts a fraction of relayed frames.

    :param alter_probability: chance of tampering with each forwarded
        data frame (each altered frame = one symptom instance).
    :param seqno_shift: how far the forged sequence number jumps; large
        enough that an observer comparing in/out copies cannot mistake
        it for normal forwarding.
    """

    ATTACK_NAME = "data_alteration"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        alter_probability: float = 0.5,
        seqno_shift: int = 7777,
        max_alterations: Optional[int] = None,
        data_interval: Optional[float] = 3.0,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, data_interval=data_interval)
        if not 0.0 <= alter_probability <= 1.0:
            raise ValueError(
                f"alter_probability must be in [0, 1], got {alter_probability}"
            )
        self.alter_probability = alter_probability
        self.seqno_shift = seqno_shift
        self.max_alterations = max_alterations
        self._rng = rng if rng is not None else SeededRng(0, "attack", node_id.value)
        self.log = SymptomLog(self.ATTACK_NAME, node_id)

    def forward_data(self, data: CtpDataFrame) -> None:
        quota_left = self.max_alterations is None or len(self.log) < self.max_alterations
        if quota_left and self._rng.chance(self.alter_probability):
            self.log.record(self.sim.clock.now)
            data = CtpDataFrame(
                origin=data.origin,
                seqno=data.seqno + self.seqno_shift,  # the tampering
                thl=data.thl,
                etx=data.etx,
                collect_id=data.collect_id,
                payload=data.payload,
            )
        super().forward_data(data)
