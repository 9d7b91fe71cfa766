"""Smurf attack.

"The attacker sends ICMP Echo Request messages to several neighbors of
the victim using the victim's identity as sender; those neighbors will
thus respond with ICMP Echo Reply messages directed to the victim"
(§III-A1).  The symptom at the victim — a burst of Echo Replies — is
identical to an ICMP Flood; the difference is structural: the replies
come from genuine neighbours (2-hop reflection), which is impossible in
a single-hop network.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.addressing import BROADCAST
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ip import IpPacket
from repro.net.packets.wifi import WifiFrame
from repro.attacks.base import RecurringAttack
from repro.proto.iphost import BROADCAST_IP, IpHost, LanDirectory
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class SmurfAttacker(RecurringAttack, IpHost):
    """Reflects ping replies off the victim's neighbours.

    :param victim_ip: forged as the Echo Request source, so every
        neighbour's reply lands on the victim.
    :param requests_per_burst: spoofed broadcast requests per burst (one
        burst = one symptom instance; each request triggers replies from
        every ping-answering host on the LAN).
    """

    ATTACK_NAME = "smurf"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        directory: LanDirectory,
        victim_ip: str,
        requests_per_burst: int = 4,
        burst_interval: float = 5.0,
        start_delay: float = 10.0,
        max_bursts: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, directory, respond_to_ping=False)
        if requests_per_burst < 1:
            raise ValueError(
                f"requests_per_burst must be >= 1, got {requests_per_burst}"
            )
        self._init_recurring(burst_interval, start_delay, max_bursts, rng)
        self.victim_ip = victim_ip
        self.requests_per_burst = requests_per_burst

    def fire(self) -> None:
        """Broadcast spoofed Echo Requests; neighbours do the flooding."""
        start = self.sim.clock.now
        for index in range(self.requests_per_burst):
            request = IpPacket(
                src_ip=self.victim_ip,  # the forgery at the heart of Smurf
                dst_ip=BROADCAST_IP,
                payload=IcmpMessage(
                    icmp_type=IcmpType.ECHO_REQUEST,
                    identifier=self._rng.integer(1, 0xFFFF),
                    sequence=index,
                    data_length=32,
                ),
            )
            frame = WifiFrame(src=self.node_id, dst=BROADCAST, payload=request)
            self.send(self.ip_medium, frame)
        self.log.record(start, self.sim.clock.now)
