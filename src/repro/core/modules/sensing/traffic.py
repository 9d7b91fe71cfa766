"""Traffic Statistics Collection sensing module.

"Maintains statistics about the frequency of the various types of
traffic overheard in the network, both on a global and
per-monitored-device level ... for several different types of traffic,
including TCP SYN, TCP ACK, ICMP Requests, ICMP Responses, ZigBee plain
packets, and Collection Tree Protocol packets.  For each traffic type,
the module records the number of packets per unit of time (configurable
but set to 5 seconds by default)" (§V).

Knowggets written (multilevel, dot-flattened exactly as in the paper's
Figure 5)::

    TrafficFrequency.<kind>             -- network-wide rate, pkts/s
    TrafficOut.<kind>@<entity>          -- rate by link-layer sender
    TrafficIn.<kind>@<entity>           -- rate by link-layer receiver

The per-receiver view is what "support[s] an accurate detection of
targeted DoS-like attacks": a flood victim shows up as an extreme
``TrafficIn.ICMPReply@victim`` long before any global rate moves.
"""

from __future__ import annotations

import functools

from repro.core.knowledge import encode_value
from repro.core.modules.base import SensingModule
from repro.core.modules.common import (
    SlidingWindowCounter,
    link_destination,
    link_source,
)
from repro.core.modules.registry import register_module
from repro.sim.capture import Capture

#: The paper's default statistics window.
DEFAULT_WINDOW_S = 5.0


@functools.lru_cache(maxsize=4096)
def rate_text(count: int, window: float, precision: int) -> str:
    """The stored form of a rate: ``count`` packets over ``window`` seconds.

    A pure function of its arguments, so each (count, window, precision)
    is rounded and rendered once per process.  The cache is module-level
    on purpose: the RAM proxy sizes each module's instance state, which
    a per-module cache would inflate.
    """
    return encode_value(round(count / window, precision))


@register_module
class TrafficStatsModule(SensingModule):
    """Per-kind traffic frequency knowggets over a sliding window.

    Parameters (config file):

    - ``window`` (default 5.0): statistics window in seconds;
    - ``precision`` (default 2): decimals kept when publishing rates
      (coarser precision means fewer knowledge-change events).
    """

    NAME = "TrafficStatsModule"
    COST_WEIGHT = 1.0

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.window = self.param("window", DEFAULT_WINDOW_S)
        self.precision = self.param("precision", 2)
        self._global = SlidingWindowCounter(self.window)
        self._by_sender = SlidingWindowCounter(self.window)
        self._by_receiver = SlidingWindowCounter(self.window)

    def process(self, capture: Capture) -> None:
        kind = capture.packet.traffic_kind().value
        now = capture.timestamp
        kb = self.ctx.kb
        window = self.window
        precision = self.precision
        count = self._global.record(now, kind)
        kb.put(f"TrafficFrequency.{kind}", rate_text(count, window, precision))

        sender = link_source(capture.packet)
        if sender is not None:
            count = self._by_sender.record(now, (kind, sender))
            kb.put(
                f"TrafficOut.{kind}", rate_text(count, window, precision), entity=sender
            )
        receiver = link_destination(capture.packet)
        if receiver is not None:
            count = self._by_receiver.record(now, (kind, receiver))
            kb.put(
                f"TrafficIn.{kind}", rate_text(count, window, precision), entity=receiver
            )

    # -- programmatic access for detection modules --------------------------------

    def global_rate(self, kind: str) -> float:
        return self._global.rate(kind)
