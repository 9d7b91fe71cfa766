"""Forwarding-misbehaviour detection (selective forwarding / blackhole).

Required knowledge: the 802.15.4 segment is **multi-hop** — "a
selective forwarding attack cannot be carried out in a single-hop
network" (§III), the paper's canonical feature/attack relationship.

Technique: the classic promiscuous watchdog (Marti et al., the paper's
overhearing references [13], [29]).  For every data frame addressed to
a forwarder F, the module expects to overhear F retransmitting the same
flow-identified frame within ``timeout`` seconds.  Misses accumulate
per forwarder; past ``detectionThresh`` misses in the window the module
alerts — classifying **blackhole** when F's observed drop ratio exceeds
``blackholeRatio``, else **selective forwarding** (the paper notes the
technique "could be generalized to detect attacks with similar symptoms
but different severity", naming exactly this pair).

Works on both CTP (flow key = origin/seqno) and ZigBee mesh traffic
(flow key = NWK src/seq).  Each confirmed misbehaviour also publishes a
collective ``ForwardingAnomaly@F`` knowgget — one half of the wormhole
correlation (§VI-D).
"""

from __future__ import annotations

import math

from collections import OrderedDict
from typing import Set, Tuple

from repro.core.modules.base import DetectionModule, Requirement
from repro.core.modules.common import EwmaTracker, SlidingWindowCounter
from repro.core.modules.registry import register_module
from repro.net.packets.ctp import CtpDataFrame, CtpRoutingFrame
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.net.packets.zigbee import ZigbeeKind, ZigbeePacket
from repro.sim.capture import Capture
from repro.util.ids import NodeId

#: (forwarder, protocol, flow_source, flow_seq)
PendingKey = Tuple[NodeId, str, NodeId, int]


@register_module
class ForwardingMisbehaviorModule(DetectionModule):
    """Watchdog for dropped relays in multi-hop 802.15.4 networks.

    Parameters: ``timeout`` (default 1.0 s to overhear the relay),
    ``detectionThresh`` (default 3 misses), ``window`` (default 30 s),
    ``blackholeRatio`` (default 0.9), ``minDropRatio`` (default 0.2),
    ``minAmbientRate`` (default 0.1: the irreducible miss probability
    assumed even on a clean channel), ``significance`` (default 0.02:
    the binomial-tail p-value below which misses cannot be explained by
    ambient loss), ``monitorRssi`` (default -82 dBm), ``cooldown``
    (default 20 s per forwarder), ``rootWindow`` (default 15 s: the
    initial grace period for learning collection-tree roots before
    accusing them of sinking traffic).
    """

    NAME = "ForwardingMisbehaviorModule"
    REQUIREMENTS = (Requirement(label="Multihop.802154", equals=True),)
    DETECTS = ("selective_forwarding", "blackhole")
    COST_WEIGHT = 1.6

    def __init__(self, params=None) -> None:
        super().__init__(params)
        self.timeout = self.param("timeout", 1.0)
        self.detection_thresh = self.param("detectionThresh", 3)
        self.window = self.param("window", 30.0)
        self.blackhole_ratio = self.param("blackholeRatio", 0.9)
        self.min_drop_ratio = self.param("minDropRatio", 0.2)
        self.min_ambient_rate = self.param("minAmbientRate", 0.1)
        self.significance = self.param("significance", 0.02)
        self.monitor_rssi = self.param("monitorRssi", -82.0)
        self.cooldown = self.param("cooldown", 20.0)
        self.root_window = self.param("rootWindow", 15.0)
        self._pending: "OrderedDict[PendingKey, float]" = OrderedDict()
        self._drops = SlidingWindowCounter(self.window)
        self._forwards = SlidingWindowCounter(self.window)
        self._roots: Set[NodeId] = set()
        self._first_capture_at: float = float("inf")
        self._heard_rssi = EwmaTracker(alpha=0.3)

    def on_deactivate(self) -> None:
        self._pending.clear()
        self._drops = SlidingWindowCounter(self.window)
        self._forwards = SlidingWindowCounter(self.window)
        self._last_alert_at.clear()

    # -- stream processing ---------------------------------------------------

    def process(self, capture: Capture) -> None:
        now = capture.timestamp
        self._first_capture_at = min(self._first_capture_at, now)
        mac = capture.packet.find_layer(Ieee802154Frame)
        if mac is not None:
            self._heard_rssi.observe(mac.src, capture.rssi)
            self._observe_mac(mac, now)
        if self.ctx.kb.get("ChannelDegraded", bool, default=False):
            # The channel is being jammed (the JammingModule's verdict):
            # missing retransmissions prove nothing right now.  Drop the
            # expectations — and the evidence gathered during the jam's
            # onset — rather than convert radio denial into blackhole
            # accusations.
            self._pending.clear()
            self._drops = SlidingWindowCounter(self.window)
            return
        self._expire_pending(now)

    def _monitorable(self, node: NodeId) -> bool:
        """Can this sniffer reliably overhear ``node`` transmitting?

        A watchdog must not judge nodes at the edge of (or beyond) its
        radio range — missing their retransmissions is the sniffer's
        fault, not theirs.  Only nodes whose transmissions arrive
        comfortably above the sensitivity floor are monitored; this is
        the locality the paper leans on ("the view of the network
        portions surrounding the Kalis node", §IV-B3).
        """
        mean = self._heard_rssi.mean(node)
        return (
            mean is not None
            and mean >= self.monitor_rssi
            and self._heard_rssi.samples(node) >= 2
        )

    def _observe_mac(self, mac: Ieee802154Frame, now: float) -> None:
        inner = mac.payload
        if isinstance(inner, CtpRoutingFrame):
            if inner.etx == 0:
                # The collection root never forwards; exempt it.  But a
                # root identity is only *learned* early: a node that
                # begins claiming ETX 0 into an established tree is a
                # sinkhole exploiting its own lie, and must not buy
                # itself a watchdog exemption with it.
                learning = now - self._first_capture_at <= self.root_window
                if learning or mac.src in self._roots:
                    self._roots.add(mac.src)
            return
        if isinstance(inner, CtpDataFrame):
            flow = ("ctp", inner.origin, inner.seqno)
            self._observe_relay(mac, flow, now, final_hop=mac.dst in self._roots)
            return
        if isinstance(inner, ZigbeePacket) and inner.zigbee_kind is ZigbeeKind.DATA:
            flow = ("mesh", inner.src, inner.seq)
            self._observe_relay(mac, flow, now, final_hop=mac.dst == inner.dst)

    def _observe_relay(
        self,
        mac: Ieee802154Frame,
        flow: Tuple[str, NodeId, int],
        now: float,
        final_hop: bool,
    ) -> None:
        protocol, flow_source, flow_seq = flow
        # The transmission satisfies any pending expectation on the
        # transmitter: F relayed the flow onward.
        outbound_key: PendingKey = (mac.src, protocol, flow_source, flow_seq)
        if self._pending.pop(outbound_key, None) is not None:
            self._forwards.record(now, mac.src)
        # The reception creates an expectation on the receiver, unless
        # this hop terminates the flow (delivery to root/destination) or
        # the receiver is outside our reliable listening range.
        if not final_hop and mac.dst != flow_source and self._monitorable(mac.dst):
            inbound_key: PendingKey = (mac.dst, protocol, flow_source, flow_seq)
            self._pending[inbound_key] = now + self.timeout

    def _expire_pending(self, now: float) -> None:
        expired = []
        for key, deadline in self._pending.items():
            if deadline > now:
                break  # OrderedDict keeps insertion (≈deadline) order
            expired.append(key)
        for key in expired:
            del self._pending[key]
            forwarder = key[0]
            self._drops.record(now, forwarder)
            self._evaluate(forwarder, now)

    # -- verdicts ------------------------------------------------------------------

    def _ambient_miss_rate(self, forwarder: NodeId) -> float:
        """Estimated probability of missing an honest relay.

        Uniform channel loss (a noisy radio, a half-deaf sniffer) makes
        *every* forwarder appear to drop: estimate the rate from the
        other forwarders' windows, floored at a small irreducible miss
        probability so a clean channel does not produce a degenerate
        null hypothesis.
        """
        others_drops = self._drops.total() - self._drops.count(forwarder)
        others_forwards = self._forwards.total() - self._forwards.count(forwarder)
        observed = others_drops + others_forwards
        ambient = others_drops / observed if observed >= 5 else 0.0
        return max(ambient, self.min_ambient_rate)

    def _evaluate(self, forwarder: NodeId, now: float) -> None:
        drops = self._drops.count(forwarder)
        if drops < self.detection_thresh:
            return
        if self.cooling(forwarder, now):
            return
        forwards = self._forwards.count(forwarder)
        ratio = drops / max(drops + forwards, 1)
        if ratio < self.min_drop_ratio:
            return  # sporadic misses on a mostly-honest relay
        # Significance: could ambient loss alone explain these misses?
        # One-sided binomial tail, P[X >= drops | n, p_ambient].
        ambient = self._ambient_miss_rate(forwarder)
        if _binomial_tail(drops + forwards, drops, ambient) > self.significance:
            return  # consistent with channel loss, not misbehaviour
        if self.ctx.kb.get("WormholeInvolving", bool, entity=forwarder, default=False):
            # Collective knowledge already explained this node's silence
            # as a wormhole entry; a blackhole verdict would be wrong.
            return
        attack = "blackhole" if ratio >= self.blackhole_ratio else "selective_forwarding"
        self.ctx.kb.put("ForwardingAnomaly", True, entity=forwarder, collective=True)
        self.alert(
            forwarder,
            now,
            suspects=(forwarder,),
            confidence=min(0.6 + 0.4 * ratio, 1.0),
            details={
                "drops_in_window": drops,
                "forwards_in_window": forwards,
                "drop_ratio": round(ratio, 3),
            },
            attack=attack,
        )


def _binomial_tail(n: int, k: int, p: float) -> float:
    """One-sided binomial tail P[X >= k] for X ~ Binomial(n, p).

    Exact summation; the watchdog's windows hold at most a few dozen
    relays, so this is both cheap and free of approximation error.
    """
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    tail = 0.0
    for successes in range(k, n + 1):
        tail += (
            math.comb(n, successes)
            * p**successes
            * (1.0 - p) ** (n - successes)
        )
    return min(tail, 1.0)
