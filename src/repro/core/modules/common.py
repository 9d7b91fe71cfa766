"""Helpers shared by sensing and detection modules."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

from repro.net.packets.base import Medium, Packet
from repro.net.packets.ctp import CtpDataFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.util.ids import NodeId

#: Knowgget-safe sub-label for each medium (labels use dots for
#: multilevel structure, so "802.15.4" cannot appear verbatim).
MEDIUM_LABELS = {
    Medium.IEEE_802_15_4: "802154",
    Medium.WIFI: "wifi",
    Medium.BLUETOOTH: "ble",
    Medium.WIRED: "wired",
}


def medium_label(medium: Medium) -> str:
    """The knowgget-safe sub-label for a medium."""
    return MEDIUM_LABELS[medium]


def link_source(packet: Packet) -> Optional[NodeId]:
    """Link-layer source of the outermost addressed layer, if any."""
    source = getattr(packet, "src", None)
    return source if isinstance(source, NodeId) else None


def link_destination(packet: Packet) -> Optional[NodeId]:
    """Link-layer destination of the outermost addressed layer, if any."""
    destination = getattr(packet, "dst", None)
    return destination if isinstance(destination, NodeId) else None


def own_sequence(mac: Ieee802154Frame) -> Optional[int]:
    """The sequence number a transmitter stamps on data it originated.

    CTP data whose origin is the transmitter carries ``seqno``; ZigBee
    mesh data whose NWK source is the transmitter carries ``seq``.
    Relayed and non-data frames give None.
    """
    inner = mac.payload
    if isinstance(inner, CtpDataFrame) and inner.origin == mac.src:
        return inner.seqno
    if (
        isinstance(inner, ZigbeePacket)
        and inner.zigbee_kind is ZigbeeKind.DATA
        and inner.src == mac.src
    ):
        return inner.seq
    return None


def mostly_monotone(sequence: List[int], tolerance: float = 0.2) -> bool:
    """True when at most ``tolerance`` of adjacent steps decrease."""
    if len(sequence) < 2:
        return True
    decreases = sum(1 for a, b in zip(sequence, sequence[1:]) if b < a)
    return decreases <= tolerance * (len(sequence) - 1)


class SlidingWindowCounter:
    """Counts events per key over a trailing time window.

    Used by rate-based modules: record (timestamp, key) events, query
    per-key counts over the last ``window`` seconds.  Eviction is driven
    by the timestamps of recorded events, so the counter works
    identically on live traffic and on batch trace replay.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._events: Deque[Tuple[float, Hashable]] = deque()
        self._counts: Dict[Hashable, int] = {}

    def record(self, timestamp: float, key: Hashable) -> int:
        """Count one event; returns ``key``'s count after eviction."""
        events = self._events
        counts = self._counts
        events.append((timestamp, key))
        counts[key] = counts.get(key, 0) + 1
        if events[0][0] < timestamp - self.window:
            self.evict(timestamp)
        return counts[key]

    def evict(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] < horizon:
            _, old_key = self._events.popleft()
            remaining = self._counts[old_key] - 1
            if remaining:
                self._counts[old_key] = remaining
            else:
                del self._counts[old_key]

    def count(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def rate(self, key: Hashable) -> float:
        """Events per second for ``key`` over the window."""
        return self.count(key) / self.window

    def total(self) -> int:
        return len(self._events)

    def keys(self) -> List[Hashable]:
        return sorted(self._counts, key=repr)

    def items(self) -> List[Tuple[Hashable, int]]:
        return sorted(self._counts.items(), key=lambda item: repr(item[0]))


class EwmaTracker:
    """Per-key exponentially-weighted moving averages (RSSI baselines)."""

    def __init__(self, alpha: float = 0.05) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._means: Dict[Hashable, float] = {}
        self._counts: Dict[Hashable, int] = {}

    def observe(self, key: Hashable, value: float) -> Tuple[float, int]:
        """Update the mean; returns (deviation_from_prior_mean, samples).

        The deviation is measured against the mean *before* this sample,
        so a sudden jump registers fully instead of dragging the
        baseline with it.
        """
        previous = self._means.get(key)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if previous is None:
            self._means[key] = value
            return 0.0, count
        deviation = value - previous
        self._means[key] = previous + self.alpha * deviation
        return deviation, count

    def mean(self, key: Hashable) -> Optional[float]:
        return self._means.get(key)

    def samples(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def keys(self) -> List[Hashable]:
        return sorted(self._means, key=repr)
