"""A single trace record: one capture plus optional ground truth."""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Dict, Optional

from repro.net.packets.base import Medium
from repro.net.packets.codec import decode_packet, encode_packet
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: Medium by its stored value: a dict hit instead of ``Medium(value)``.
_MEDIUM_BY_VALUE = MappingProxyType({medium.value: medium for medium in Medium})


@dataclass(frozen=True)
class TraceRecord:
    """One captured frame in a stored trace.

    :param capture: the observable capture (what the IDS sees).
    :param attack: ground-truth attack name if this frame is an injected
        symptom (e.g. ``"icmp_flood"``); None for benign traffic.
    :param attacker: ground-truth attacker identity, if any.
    :param instance: symptom-instance index, grouping the frames that
        belong to one adverse event for detection-rate scoring.
    """

    capture: Capture
    attack: Optional[str] = None
    attacker: Optional[NodeId] = None
    instance: Optional[int] = None

    @property
    def is_attack(self) -> bool:
        return self.attack is not None

    @property
    def timestamp(self) -> float:
        return self.capture.timestamp

    def shifted(self, delta: float) -> "TraceRecord":
        """A copy with the capture timestamp shifted by ``delta``."""
        shifted_capture = replace(
            self.capture, timestamp=self.capture.timestamp + delta
        )
        return replace(self, capture=shifted_capture)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "t": self.capture.timestamp,
            "medium": self.capture.medium.value,
            "rssi": self.capture.rssi,
            "packet": encode_packet(self.capture.packet),
        }
        if self.capture.observer is not None:
            data["observer"] = self.capture.observer.value
        if self.attack is not None:
            data["attack"] = self.attack
        if self.attacker is not None:
            data["attacker"] = self.attacker.value
        if self.instance is not None:
            data["instance"] = self.instance
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        capture = Capture(
            packet=decode_packet(data["packet"]),
            timestamp=float(data["t"]),
            medium=_MEDIUM_BY_VALUE[data["medium"]],
            rssi=float(data["rssi"]),
            observer=NodeId(data["observer"]) if "observer" in data else None,
        )
        return cls(
            capture=capture,
            attack=data.get("attack"),
            attacker=NodeId(data["attacker"]) if "attacker" in data else None,
            instance=data.get("instance"),
        )
