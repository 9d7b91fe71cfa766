"""Sinkhole detection module.

Required knowledge: a multi-hop 802.15.4 network (in a single-hop
network there is no routing gradient to subvert — Figure 3 marks the
attack impossible there).

Technique: routing advertisements are self-reported and cheap to forge,
but the *legitimate* root's identity stabilises quickly: it is the
first identity consistently advertising a root-quality route (CTP ETX 0
/ RPL root rank).  A later, different identity advertising an
equal-or-better route than the established root is the sinkhole
signature.  DIO rank regressions (a node suddenly advertising a much
better rank than it ever held) are flagged the same way.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.registry import register_module
from repro.net.packets.ctp import CtpRoutingFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.rpl import ROOT_RANK, RplDio
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class SinkholeModule(DetectionModule):
    """Detects forged root-quality route advertisements.

    Parameters: ``minAdverts`` (default 2 forged advertisements before
    alerting), ``cooldown`` (default 30 s per suspect).
    """

    NAME = "SinkholeModule"
    REQUIREMENTS = (Requirement(label="Multihop.802154", equals=True),)
    DETECTS = ("sinkhole",)
    COST_WEIGHT = 1.2

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.min_adverts = self.param("minAdverts", 2)
        self.cooldown = self.param("cooldown", 30.0)
        self._ctp_root: Optional[NodeId] = None
        self._rpl_root: Optional[NodeId] = None
        self._forged_counts: Dict[NodeId, int] = {}

    def on_deactivate(self) -> None:
        self._forged_counts.clear()
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        now = capture.timestamp
        inner = mac.payload
        if isinstance(inner, CtpRoutingFrame) and inner.etx == 0:
            self._observe_root_claim(mac.src, "ctp", now)
        dio = capture.packet.find_layer(RplDio)
        if dio is not None and dio.rank <= ROOT_RANK:
            self._observe_root_claim(mac.src, "rpl", now)

    def _observe_root_claim(self, claimant: NodeId, protocol: str, now: float) -> None:
        root_attr = "_ctp_root" if protocol == "ctp" else "_rpl_root"
        established = getattr(self, root_attr)
        if established is None:
            # The first identity heard claiming root quality is taken as
            # the legitimate root.
            setattr(self, root_attr, claimant)
            return
        if claimant == established:
            return
        # A second identity claiming root quality: sinkhole signature.
        count = self._forged_counts.get(claimant, 0) + 1
        self._forged_counts[claimant] = count
        if count < self.min_adverts:
            return
        self.alert(
            claimant,
            now,
            suspects=(claimant,),
            confidence=0.9,
            details={
                "protocol": protocol,
                "established_root": established.value,
                "forged_advertisements": count,
            },
        )
