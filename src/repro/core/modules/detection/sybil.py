"""Sybil detection module.

Required knowledge: a static 802.15.4 network (RSSI fingerprints only
mean something while nodes hold still — a "circle" cell in the paper's
Figure 3: the right technique depends on the mobility feature).

Technique: RSSI clustering in the spirit of Wang et al. (the paper's
reference [42]).  Distinct physical nodes — even equidistant ones —
rarely transmit in lockstep; a sybil attacker's fabricated identities
share one radio, so they appear as **several identities with
indistinguishable RSSI that transmit back-to-back, burst after burst**.
Both conditions must hold repeatedly before the module alerts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import EwmaTracker, SlidingWindowCounter
from repro.core.modules.registry import register_module
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.capture import Capture
from repro.util.ids import NodeId


@register_module
class SybilModule(DetectionModule):
    """RSSI-cluster + burst-correlation sybil detector.

    Parameters: ``rssiTolerance`` (default 2.0 dB cluster width),
    ``burstSpan`` (default 0.25 s for a back-to-back burst),
    ``minIdentities`` (default 3), ``minBursts`` (default 3 correlated
    bursts before alerting), ``cooldown`` (default 15 s).
    """

    NAME = "SybilModule"
    REQUIREMENTS = (
        Requirement(label="Multihop.802154"),  # an 802.15.4 network exists
        Requirement(label="Mobility", equals=False),
    )
    DETECTS = ("sybil",)
    COST_WEIGHT = 1.4

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.rssi_tolerance = self.param("rssiTolerance", 2.0)
        self.burst_span = self.param("burstSpan", 0.25)
        self.min_identities = self.param("minIdentities", 3)
        self.min_bursts = self.param("minBursts", 3)
        self.cooldown = self.param("cooldown", 15.0)
        self._baselines = EwmaTracker(alpha=0.2)
        #: Recent transmissions: (timestamp, identity, rssi).
        self._recent: Deque[Tuple[float, NodeId, float]] = deque(maxlen=64)
        #: Correlated-burst participations per identity over a window
        #: (per identity, not per exact cluster set — shadowing noise
        #: makes individual identities drop in and out of a burst's
        #: cluster, but the participants stay the same over time).
        self._identity_bursts = SlidingWindowCounter(window=60.0)
        #: When the last burst was counted (one long burst counts once).
        self._last_burst_at: float = float("-inf")

    def on_deactivate(self) -> None:
        self._recent.clear()
        self._identity_bursts = SlidingWindowCounter(window=60.0)
        self._last_burst_at = float("-inf")

    def process(self, capture: Capture) -> None:
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is None:
            return
        identity = mac.src
        now = capture.timestamp
        self._baselines.observe(identity, capture.rssi)
        self._recent.append((now, identity, capture.rssi))
        self._detect_burst(now)

    def _detect_burst(self, now: float) -> None:
        window = [item for item in self._recent if now - item[0] <= self.burst_span]
        identities = {identity for _, identity, _ in window}
        if len(identities) < self.min_identities:
            return
        # Cluster: every identity in the burst within rssiTolerance of
        # the burst's mean RSSI.
        rssis = [rssi for _, _, rssi in window]
        mean_rssi = sum(rssis) / len(rssis)
        clustered = {
            identity
            for _, identity, rssi in window
            if abs(rssi - mean_rssi) <= self.rssi_tolerance
        }
        if len(clustered) < self.min_identities:
            return
        if now - self._last_burst_at <= 4 * self.burst_span:
            return  # still the same burst; already counted
        self._last_burst_at = now
        for identity in clustered:
            self._identity_bursts.record(now, identity)
        repeat_offenders = sorted(
            identity
            for identity in clustered
            if self._identity_bursts.count(identity) >= self.min_bursts
        )
        if len(repeat_offenders) < self.min_identities:
            return
        self.alert(
            None,  # one cooldown for the whole network
            now,
            suspects=repeat_offenders,
            confidence=0.85,
            details={
                "cluster_size": len(repeat_offenders),
                "mean_rssi_dbm": round(mean_rssi, 1),
            },
        )
