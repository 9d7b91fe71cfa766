"""Test-only reference for frame delivery: the per-pair scalar radio model.

:meth:`repro.sim.engine.Simulator.transmit` culls candidates through a
spatial grid and computes the link budget with numpy over a whole
neighbourhood at once.  :func:`reference_receptions` computes the same
outcome the slow, obvious way: scan every node in id order and give
each (sender, receiver, sequence) pair its own scalar draw budget.  The
engine must match it bit for bit — receivers, RSSI values, arrival
times and dispatch order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.sim.engine import BITS_PER_SECOND, TRANSMIT_LATENCY_S
from repro.sim.medium import SHADOWING_CULL_SIGMAS, PathLossParams
from repro.sim.node import SimNode
from repro.util.rng import HashedDraws, HashedStream


@dataclass(frozen=True)
class Station:
    """One node as the reference sees it at transmit time."""

    position: Tuple[float, float]
    alive: bool = True
    #: Equipped with the medium and the interface administratively up.
    usable: bool = True


def pair_rssi(params: PathLossParams, distance: float, draws: HashedDraws) -> float:
    """RSSI for one pair; shadowing takes draw words 0-1, clamped to ±6σ."""
    rssi = params.mean_rssi(distance)
    sigma = params.shadowing_sigma_db
    if sigma > 0:
        shadowing = min(max(draws.normal(), -SHADOWING_CULL_SIGMAS), SHADOWING_CULL_SIGMAS)
        rssi += shadowing * sigma
    return rssi


def pair_lost(loss: float, draws: HashedDraws) -> bool:
    """Loss for one pair, drawn after shadowing; certain loss draws nothing."""
    if loss <= 0.0:
        return False
    return loss >= 1.0 or draws.chance(loss)


def reference_receptions(
    stations: Mapping[str, Station],
    params: PathLossParams,
    loss: float,
    pairwise_seed: int,
    sender: str,
    sequence: int,
) -> Dict[str, float]:
    """``{receiver: rssi}`` for one transmission, in dispatch (id) order."""
    stream = HashedStream(pairwise_seed)
    cull_range = params.max_range_m(
        margin_db=SHADOWING_CULL_SIGMAS * params.shadowing_sigma_db
    )
    sender_x, sender_y = stations[sender].position
    heard: Dict[str, float] = {}
    for receiver in sorted(stations):
        station = stations[receiver]
        if receiver == sender or not (station.alive and station.usable):
            continue
        dx = sender_x - station.position[0]
        dy = sender_y - station.position[1]
        distance = math.sqrt(dx * dx + dy * dy)
        if distance > cull_range:
            continue
        draws = stream.sample(sender, sequence, receiver)
        rssi = pair_rssi(params, distance, draws)
        if rssi >= params.sensitivity_dbm and not pair_lost(loss, draws):
            heard[receiver] = rssi
    return heard


class RecordingNode(SimNode):
    """Appends every delivery to a shared log as (receiver, rssi, time)."""

    def __init__(self, node_id, position, mediums, log: List[tuple]) -> None:
        super().__init__(node_id, position, mediums=mediums)
        self.log = log

    def handle_frame(self, packet, medium, rssi, timestamp):
        super().handle_frame(packet, medium, rssi, timestamp)
        self.log.append((str(self.node_id), rssi, timestamp))


def send_expecting(sim, sender: SimNode, medium, packet) -> List[tuple]:
    """Send ``packet`` from ``sender`` and return what the reference
    says the shared log gains if nothing changes in flight."""
    model = sim.medium(medium)
    stations = {
        str(node.node_id): Station(node.position, node.alive, medium in node.mediums)
        for node in sim.nodes()
        if medium in node.equipped
    }
    heard = reference_receptions(
        stations,
        model.params,
        model.base_loss_probability + model.interference_loss_probability,
        model._pairwise.seed,
        str(sender.node_id),
        sim.transmissions + 1,
    )
    arrival = sim.now + TRANSMIT_LATENCY_S + packet.size_bytes * 8.0 / BITS_PER_SECOND[medium]
    assert sender.send(medium, packet) == len(heard)
    return [(receiver, rssi, arrival) for receiver, rssi in heard.items()]
