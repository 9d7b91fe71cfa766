"""Radio jamming attack.

The attacker floods the 802.15.4 channel with interference, destroying
a fraction of all frames in the air.  Unlike every other attack in the
library it produces no packets of its own — its symptom is *absence*:
the traffic rate collapses while the network's senders keep trying.

Physically the jammer raises the medium's interference loss
probability during each burst (see
:meth:`repro.sim.medium.RadioMedium.set_interference`), which hits
benign receivers and the IDS's sniffer alike — detection must work
from a *degraded* capture stream, as it would in reality.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.attacks.base import SymptomLog
from repro.net.packets.base import Medium
from repro.sim.node import SimNode
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


class JammingNode(SimNode):
    """Periodically saturates the 802.15.4 channel.

    :param loss_probability: fraction of frames destroyed while a burst
        is active (1.0 = complete denial).
    :param burst_duration: seconds of jamming per burst (one burst =
        one symptom instance).
    :param burst_interval: seconds between burst starts.
    """

    ATTACK_NAME = "jamming"

    def __init__(
        self,
        node_id: NodeId,
        position: Tuple[float, float],
        medium: Medium = Medium.IEEE_802_15_4,
        loss_probability: float = 0.9,
        burst_duration: float = 10.0,
        burst_interval: float = 30.0,
        start_delay: float = 20.0,
        max_bursts: Optional[int] = None,
        rng: Optional[SeededRng] = None,
    ) -> None:
        super().__init__(node_id, position, mediums=(medium,))
        if not 0.0 < loss_probability <= 1.0:
            raise ValueError(
                f"loss_probability must be in (0, 1], got {loss_probability}"
            )
        if burst_duration <= 0 or burst_interval <= burst_duration:
            raise ValueError(
                "burst_interval must exceed burst_duration, both positive"
            )
        self.jam_medium = medium
        self.loss_probability = loss_probability
        self.burst_duration = burst_duration
        self.burst_interval = burst_interval
        self.start_delay = start_delay
        self.max_bursts = max_bursts
        self._rng = rng if rng is not None else SeededRng(0, "attack", node_id.value)
        self.log = SymptomLog(self.ATTACK_NAME, node_id)
        self.jamming_now = False
        #: Start time of the burst in progress (read when it ends).
        self._burst_begun = 0.0

    def start(self) -> None:
        self.sim.schedule_in(self.start_delay, self._burst_start)

    def _burst_start(self) -> None:
        if not self.attached:
            return
        if self.max_bursts is not None and len(self.log) >= self.max_bursts:
            return
        self.jamming_now = True
        self._burst_begun = self.sim.clock.now
        self.sim.medium(self.jam_medium).set_interference(self.loss_probability)
        self.sim.schedule_in(self.burst_duration, self._burst_end)

    def _burst_end(self) -> None:
        if not self.jamming_now:
            return  # revoked mid-burst: detach() already closed it
        self.jamming_now = False
        self.sim.medium(self.jam_medium).set_interference(0.0)
        begun = self._burst_begun
        self.log.record(begun, begun + self.burst_duration)
        self.sim.schedule_in(
            self._rng.jitter(self.burst_interval - self.burst_duration, 0.1),
            self._burst_start,
        )

    def detach(self) -> None:
        # Revoking the jammer silences the interference it generates and
        # closes the burst in progress at the revocation instant.
        if self.jamming_now and self.sim is not None:
            self.sim.medium(self.jam_medium).set_interference(0.0)
            self.jamming_now = False
            self.log.record(self._burst_begun, self.sim.clock.now)
        super().detach()
