"""TCP SYN flood.

The attacker pours connection-opening SYNs with forged source addresses
at a victim service, exhausting its half-open connection table.  The
observable signature is a SYN rate wildly out of proportion to the
completing-handshake (ACK) rate — which is exactly the ratio the
Traffic Statistics module tracks as separate ``TCPSYN``/``TCPACK``
knowggets.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.packets.ip import IpPacket
from repro.net.packets.tcp import TcpFlags, TcpSegment
from repro.net.packets.wifi import WifiFrame
from repro.attacks.base import RecurringAttack
from repro.proto.iphost import IpHost, LanDirectory
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class SynFloodAttacker(RecurringAttack, IpHost):
    """Floods a victim port with spoofed-source SYNs.

    :param victim_ip: target address.
    :param victim_link: target link-layer id.
    :param victim_port: target port.
    :param burst_size: SYNs per burst (one burst = one symptom instance).
    """

    ATTACK_NAME = "syn_flood"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        victim_ip: str,
        victim_link: NodeId,
        victim_port: int = 443,
        burst_size: int = 30,
        burst_interval: float = 5.0,
        start_delay: float = 10.0,
        max_bursts: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, directory, respond_to_ping=False)
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {burst_size}")
        self._init_recurring(burst_interval, start_delay, max_bursts, rng)
        self.victim_ip = victim_ip
        self.victim_link = victim_link
        self.victim_port = victim_port
        self.burst_size = burst_size
        self._spoof_counter = 0

    def _spoofed_source(self) -> str:
        self._spoof_counter += 1
        return f"192.168.{(self._spoof_counter // 250) % 250}.{self._spoof_counter % 250 + 1}"

    def fire(self) -> None:
        start = self.sim.clock.now
        for _ in range(self.burst_size):
            syn = TcpSegment(
                sport=self._rng.integer(1024, 65535),
                dport=self.victim_port,
                flags=TcpFlags.SYN,
                seq=self._rng.integer(0, 2**31),
            )
            packet = IpPacket(
                src_ip=self._spoofed_source(), dst_ip=self.victim_ip, payload=syn
            )
            frame = WifiFrame(src=self.node_id, dst=self.victim_link, payload=packet)
            self.send(self.ip_medium, frame)
        self.log.record(start, self.sim.clock.now)
