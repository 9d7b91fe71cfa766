"""Identity spoofing detection module.

Required knowledge: a static 802.15.4 network (the RSSI fingerprint
only identifies a transmitter while positions hold still).

Technique: wireless device fingerprinting in the spirit of Desmond et
al. (the paper's reference [5]).  A frame claiming identity X is
suspicious when **both** physical and protocol evidence disagree with
X's history:

- its RSSI deviates from X's established baseline by more than
  ``rssiThreshold`` dB, and
- its sequence number is a far outlier from X's dominant stream *and*
  the outliers themselves do not form a coherent second monotone stream
  (a coherent second stream is a live replica — the replication
  modules' territory, keeping the two classifications disjoint).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import EwmaTracker
from repro.core.modules.registry import register_module
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class SpoofingModule(DetectionModule):
    """Physical + protocol fingerprint mismatch detector.

    Parameters: ``rssiThreshold`` (default 6 dB), ``seqJump`` (default
    1000), ``minOutliers`` (default 3 incoherent outliers before
    alerting), ``cooldown`` (default 25 s per identity).
    """

    NAME = "SpoofingModule"
    REQUIREMENTS = (
        Requirement(label="Multihop.802154"),
        Requirement(label="Mobility", equals=False),
    )
    DETECTS = ("spoofing",)
    COST_WEIGHT = 1.3

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.rssi_threshold = self.param("rssiThreshold", 6.0)
        self.seq_jump = self.param("seqJump", 1000)
        self.min_outliers = self.param("minOutliers", 3)
        self.cooldown = self.param("cooldown", 25.0)
        self._rssi_baselines = EwmaTracker(alpha=0.1)
        self._seq_history: Dict[NodeId, Deque[int]] = {}
        self._outlier_seqs: Dict[NodeId, List[int]] = {}

    def on_deactivate(self) -> None:
        self._seq_history.clear()
        self._outlier_seqs.clear()
        self._last_alert_at.clear()

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        data = mac.payload
        if not isinstance(data, CtpDataFrame) or data.origin != mac.src:
            return
        identity = mac.src
        now = capture.timestamp
        history = self._seq_history.setdefault(identity, deque(maxlen=16))
        baseline = self._rssi_baselines.mean(identity)
        samples = self._rssi_baselines.samples(identity)

        is_seq_outlier = bool(history) and all(
            abs(data.seqno - previous) > self.seq_jump for previous in history
        )
        is_rssi_outlier = (
            baseline is not None
            and samples >= 4
            and abs(capture.rssi - baseline) > self.rssi_threshold
        )

        if is_seq_outlier and is_rssi_outlier:
            outliers = self._outlier_seqs.setdefault(identity, [])
            outliers.append(data.seqno)
            if len(outliers) > 24:
                del outliers[0]
            self._evaluate(identity, now)
            return  # outliers must not pollute the legitimate baseline

        history.append(data.seqno)
        self._rssi_baselines.observe(identity, capture.rssi)

    def _evaluate(self, identity: NodeId, now: float) -> None:
        outliers = self._outlier_seqs.get(identity, [])
        if len(outliers) < self.min_outliers:
            return
        if _coherent_stream(outliers):
            return  # a live second stream is replication, not spoofing
        self.alert(
            identity,
            now,
            suspects=(identity,),
            confidence=0.8,
            details={
                "incoherent_outliers": len(outliers),
                "mode": "fingerprint-mismatch",
            },
        )


def _coherent_stream(sequence: List[int], tolerance: float = 0.2) -> bool:
    """True when the numbers look like one advancing counter."""
    if len(sequence) < 2:
        return True
    decreases = sum(1 for a, b in zip(sequence, sequence[1:]) if b <= a)
    return decreases <= tolerance * (len(sequence) - 1)
