"""Replication detection for **mobile** networks.

Required knowledge: the network is currently mobile (``Mobility ==
true``).  RSSI is useless as a fingerprint while nodes move, so this
detector relies on protocol evidence instead: a single live node
advances *one* sequence-number counter, while an identity shared by the
original and a replica produces **two interleaved monotone streams** —
observed as repeated large backward jumps that alternate between two
consistent levels.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import mostly_monotone, own_sequence
from repro.core.modules.registry import register_module
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class ReplicationMobileModule(DetectionModule):
    """Dual-sequence-stream replica detector for mobile networks.

    Parameters: ``jump`` (default 100: sequence distance that separates
    streams), ``minAlternations`` (default 3 stream switches), ``history``
    (default 24 sequence numbers per identity), ``cooldown`` (default
    25 s per identity).
    """

    NAME = "ReplicationMobileModule"
    REQUIREMENTS = (Requirement(label="Mobility", equals=True),)
    DETECTS = ("replication",)
    COST_WEIGHT = 1.3

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.jump = self.param("jump", 100)
        self.min_alternations = self.param("minAlternations", 3)
        self.history = self.param("history", 24)
        self.cooldown = self.param("cooldown", 25.0)
        self._sequences: Dict[NodeId, Deque[int]] = {}

    def on_deactivate(self) -> None:
        self._sequences.clear()

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        seq = own_sequence(mac)
        if seq is None:
            return
        history = self._sequences.setdefault(mac.src, deque(maxlen=self.history))
        history.append(seq)
        self._evaluate(mac.src, capture.timestamp)

    def _evaluate(self, identity: NodeId, now: float) -> None:
        if self.cooling(identity, now):
            return
        verdict = _dual_stream(list(self._sequences[identity]), jump=self.jump,
                               min_alternations=self.min_alternations)
        if verdict is None:
            return
        self.alert(
            identity,
            now,
            suspects=(identity,),
            confidence=0.85,
            details={
                "stream_alternations": verdict,
                "mode": "mobile/sequence",
            },
        )


def _dual_stream(sequence: List[int], jump: int, min_alternations: int) -> Optional[int]:
    """Count alternations between two far-apart monotone streams.

    Splits observed numbers by the midpoint of the overall range when
    the range exceeds ``jump``; requires both halves to be locally
    monotone and the time order to switch halves at least
    ``min_alternations`` times.  Returns the alternation count, or None.
    """
    if len(sequence) < 6:
        return None
    low_bound, high_bound = min(sequence), max(sequence)
    if high_bound - low_bound < jump:
        return None
    midpoint = (low_bound + high_bound) / 2.0
    low = [value for value in sequence if value < midpoint]
    high = [value for value in sequence if value >= midpoint]
    if len(low) < 3 or len(high) < 3:
        return None
    if not (mostly_monotone(low) and mostly_monotone(high)):
        return None
    alternations = 0
    previous_side = None
    for value in sequence:
        side = value >= midpoint
        if previous_side is not None and side != previous_side:
            alternations += 1
        previous_side = side
    if alternations < min_alternations:
        return None
    return alternations
