"""ICMP Flood attack.

"A single attacker node sends many ICMP Echo Reply messages to the
victim, using several different identities as sender" (§III-A1).  The
attacker forges a fresh source IP per reply so the victim (and any IDS)
sees a crowd of senders — but every frame radiates from one physical
transmitter, so all replies share one RSSI signature, which is what
Kalis' one-hop disambiguation exploits.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ip import IpPacket
from repro.net.packets.wifi import WifiFrame
from repro.attacks.base import RecurringAttack
from repro.proto.iphost import IpHost, LanDirectory
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class IcmpFloodAttacker(RecurringAttack, IpHost):
    """Floods a victim with spoofed-source ICMP Echo Replies.

    :param victim_ip: the target's IP address.
    :param victim_link: the target's link-layer id (the attacker sends
        frames straight at the victim — it is within one hop, which is
        precisely the property distinguishing this from a Smurf).
    :param burst_size: Echo Replies per burst (one burst = one symptom
        instance).
    :param burst_interval: seconds between bursts.
    """

    ATTACK_NAME = "icmp_flood"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        victim_ip: str,
        victim_link: NodeId,
        burst_size: int = 20,
        burst_interval: float = 5.0,
        start_delay: float = 10.0,
        max_bursts: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(
            node_id, position, directory, respond_to_ping=False
        )
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        self._init_recurring(burst_interval, start_delay, max_bursts, rng)
        self.victim_ip = victim_ip
        self.victim_link = victim_link
        self.burst_size = burst_size
        self._spoof_counter = 0

    def _spoofed_source(self) -> str:
        """A fresh forged source address per reply."""
        self._spoof_counter += 1
        return f"172.16.{(self._spoof_counter // 250) % 250}.{self._spoof_counter % 250 + 1}"

    def fire(self) -> None:
        """Send one burst of forged Echo Replies at the victim."""
        start = self.sim.clock.now
        for index in range(self.burst_size):
            reply = IpPacket(
                src_ip=self._spoofed_source(),
                dst_ip=self.victim_ip,
                payload=IcmpMessage(
                    icmp_type=IcmpType.ECHO_REPLY,
                    identifier=self._rng.integer(1, 0xFFFF),
                    sequence=index,
                    data_length=32,
                ),
            )
            frame = WifiFrame(src=self.node_id, dst=self.victim_link, payload=reply)
            self.send(self.ip_medium, frame)
        self.log.record(start, self.sim.clock.now)
