"""Jamming detection module.

Required knowledge: only ``Multihop.802154`` — the node monitors an
802.15.4 network.  The module reads no traffic knowggets: it keeps its
own list of recent 802.15.4 capture timestamps and learns the ambient
rate baseline from them.  Jamming is the purest anomaly-based case in
the library: there is no signature, only a **collapse of the ambient
rate** relative to the network's own learned baseline — the kind of
detection the paper has the Traffic Statistics module support
("supports ... anomaly-based detection modules that can detect unknown
attacks, even when their signature is not predetermined", §V), done
here from the module's own counts.

Suspects are necessarily empty — a passive sniffer cannot localise a
jammer from frame captures alone — so the alert carries the evidence
(observed vs. baseline rate) for operator triage.
"""

from __future__ import annotations

from typing import Optional

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.registry import register_module
from repro.net.packets.base import Medium
from repro.sim.capture import Capture


@register_module
class JammingModule(DetectionModule):
    """Ambient-rate-collapse detector for the 802.15.4 channel.

    Parameters: ``window`` (default 10 s rate window), ``baselineAlpha``
    (default 0.05 EWMA), ``collapseRatio`` (default 0.3: alert when the
    live rate falls below this fraction of baseline), ``minBaseline``
    (default 1.0 pkt/s before the baseline counts as established),
    ``cooldown`` (default 30 s).
    """

    NAME = "JammingModule"
    REQUIREMENTS = (Requirement(label="Multihop.802154"),)
    DETECTS = ("jamming",)
    COST_WEIGHT = 0.8

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.window = self.param("window", 10.0)
        self.baseline_alpha = self.param("baselineAlpha", 0.05)
        self.collapse_ratio = self.param("collapseRatio", 0.3)
        self.min_baseline = self.param("minBaseline", 1.0)
        self.cooldown = self.param("cooldown", 30.0)
        self._timestamps: list = []
        self._baseline_rate: Optional[float] = None

    def on_deactivate(self) -> None:
        self._timestamps.clear()
        self._baseline_rate = None

    def process(self, capture: Capture) -> None:
        if capture.medium is not Medium.IEEE_802_15_4:
            return
        now = capture.timestamp
        self._timestamps.append(now)
        horizon = now - self.window
        while self._timestamps and self._timestamps[0] < horizon:
            self._timestamps.pop(0)
        live_rate = len(self._timestamps) / self.window

        if self._baseline_rate is None:
            self._baseline_rate = live_rate
            return
        baseline = self._baseline_rate
        # Update the baseline slowly — and never *down* toward a
        # collapse, or the anomaly would teach itself to ignore jamming.
        if live_rate >= baseline * self.collapse_ratio:
            self._baseline_rate = baseline + self.baseline_alpha * (
                live_rate - baseline
            )
        if baseline < self.min_baseline:
            return
        collapsed = live_rate < baseline * self.collapse_ratio
        # Publish the channel state as knowledge: watchdog-style modules
        # suspend their missing-frame reasoning while the channel is
        # being denied (their evidence is physically meaningless then).
        self.ctx.kb.put("ChannelDegraded", collapsed)
        if not collapsed:
            return
        # One cooldown for the whole channel, and no suspects: a sniffer
        # cannot localise a jammer.
        self.alert(
            None,
            now,
            confidence=0.7,
            details={
                "live_rate_pps": round(live_rate, 2),
                "baseline_rate_pps": round(baseline, 2),
                "collapse_ratio": self.collapse_ratio,
            },
        )
