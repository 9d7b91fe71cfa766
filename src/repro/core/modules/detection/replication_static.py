"""Replication detection for **static** networks.

Required knowledge: the network is currently static (``Mobility ==
false``).  The paper runs two replication detectors and lets the
Mobility Awareness knowgget choose (§VI-B2); this is the static-network
one, following the RSSI line of Manjula & Chellappan (reference [25]).

Physics: in a static network every identity has one stable RSSI
signature at the sniffer.  A cloned identity radiates from two fixed
positions, so its samples form **two separated clusters that
interleave in time** — a plain level shift (device moved once) shows a
changepoint, not interleaving, and network-wide movement would have
flipped the Mobility knowgget and deactivated this module.  The module
additionally checks that each cluster's sequence numbers are locally
monotone (two live senders, each with its own counter), which separates
replication from sloppy one-off spoofing injections.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import mostly_monotone, own_sequence
from repro.core.modules.registry import register_module
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: One observation of an identity: (timestamp, rssi, seq or None).
Sample = Tuple[float, float, Optional[int]]


@register_module
class ReplicationStaticModule(DetectionModule):
    """Bimodal-RSSI replica detector for static 802.15.4 networks.

    Parameters: ``gap`` (default 6 dB between clusters), ``minSamples``
    (default 4 per cluster), ``minFlips`` (default 3 time-interleavings),
    ``clusterWidth`` (default 8 dB: max spread within a cluster — two
    *tight* signatures are two parked transmitters; a smeared one is a
    node in motion, for which this technique is simply invalid),
    ``history`` (default 24 samples per identity), ``cooldown`` (default
    25 s per identity).
    """

    NAME = "ReplicationStaticModule"
    REQUIREMENTS = (Requirement(label="Mobility", equals=False),)
    DETECTS = ("replication",)
    COST_WEIGHT = 1.4

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.gap = self.param("gap", 6.0)
        self.min_samples = self.param("minSamples", 4)
        self.min_flips = self.param("minFlips", 3)
        self.cluster_width = self.param("clusterWidth", 8.0)
        self.history = self.param("history", 24)
        self.cooldown = self.param("cooldown", 25.0)
        self._samples: Dict[NodeId, Deque[Sample]] = {}

    def on_deactivate(self) -> None:
        self._samples.clear()

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        seq = own_sequence(mac)
        if seq is None:
            return
        history = self._samples.setdefault(mac.src, deque(maxlen=self.history))
        history.append((capture.timestamp, capture.rssi, seq))
        self._evaluate(mac.src, capture.timestamp)

    def _evaluate(self, identity: NodeId, now: float) -> None:
        if self.cooling(identity, now):
            return
        verdict = _bimodal_interleaved(
            list(self._samples[identity]),
            gap=self.gap,
            min_each=self.min_samples,
            min_flips=self.min_flips,
            cluster_width=self.cluster_width,
        )
        if verdict is None:
            return
        low_mean, high_mean, flips = verdict
        self.alert(
            identity,
            now,
            suspects=(identity,),
            confidence=0.9,
            details={
                "cluster_rssi_dbm": [round(low_mean, 1), round(high_mean, 1)],
                "interleavings": flips,
                "mode": "static/rssi",
            },
        )


def _bimodal_interleaved(
    samples: List[Sample],
    gap: float,
    min_each: int,
    min_flips: int,
    cluster_width: float = 8.0,
) -> Optional[Tuple[float, float, int]]:
    """Detect two time-interleaved, *tight* RSSI clusters with monotone
    sequence streams.

    Returns ``(low_mean, high_mean, flips)`` or None.  Pure function so
    it can be property-tested in isolation.  The cluster-width bound is
    what makes this a static-network technique: a moving transmitter
    smears its cluster far beyond shadowing noise, and the function then
    correctly refuses to call it a replica.
    """
    if len(samples) < 2 * min_each:
        return None
    rssis = sorted(sample[1] for sample in samples)
    # Largest gap between consecutive sorted RSSI values splits clusters.
    best_split = None
    best_gap = gap
    for index in range(len(rssis) - 1):
        spread = rssis[index + 1] - rssis[index]
        if spread >= best_gap:
            best_gap = spread
            best_split = (rssis[index] + rssis[index + 1]) / 2.0
    if best_split is None:
        return None
    low = [sample for sample in samples if sample[1] < best_split]
    high = [sample for sample in samples if sample[1] >= best_split]
    if len(low) < min_each or len(high) < min_each:
        return None
    # Each cluster must be tight (two parked transmitters, not motion).
    for cluster in (low, high):
        rssi_values = [sample[1] for sample in cluster]
        if max(rssi_values) - min(rssi_values) > cluster_width:
            return None
    # Time interleaving: the identity flips between clusters repeatedly.
    flips = 0
    previous_side = None
    for sample in samples:  # samples are in time order
        side = sample[1] >= best_split
        if previous_side is not None and side != previous_side:
            flips += 1
        previous_side = side
    if flips < min_flips:
        return None
    # Two live transmitters each keep a locally monotone counter.
    for cluster in (low, high):
        if not mostly_monotone([s[2] for s in cluster if s[2] is not None]):
            return None
    low_mean = sum(s[1] for s in low) / len(low)
    high_mean = sum(s[1] for s in high) / len(high)
    return low_mean, high_mean, flips
