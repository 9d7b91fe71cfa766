"""E12 (extension) — scalability through locality (§IV-B4).

"Because of the locality of the knowledge acquired by each Kalis node,
different IDS nodes can load different (and locally-optimal) sets of
modules depending on their surroundings, thus allowing the system to
scale to arbitrarily large networks just by means of adding new IDS
nodes throughout the network."

The scenario builds a site out of repeating *blocks*, alternating two
kinds placed far apart (out of radio range of each other):

- a **home block**: a single-hop WiFi LAN with commodity devices;
- a **field block**: a multi-hop CTP WSN.

One Kalis node guards each block.  The measurements:

1. each Kalis node's active module set is the locally-optimal one —
   flood modules in home blocks, watchdog modules in field blocks,
   never the union;
2. as the site grows from 1 to N blocks of each kind, the *per-node*
   work stays flat: knowledge and traffic are local, so new blocks cost
   only their own IDS node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.kalis import KalisNode
from repro.devices.commodity import CloudService, LifxBulb, NestThermostat
from repro.devices.wsn import build_wsn
from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.proto.iphost import IpRouter, LanDirectory
from repro.sim.engine import Simulator
from repro.sim.node import SimNode
from repro.sim.topology import line_positions, random_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng

#: Physical separation between blocks — beyond every radio's range.
BLOCK_SPACING_M = 2000.0

RUN_DURATION_S = 60.0


@dataclass
class ScalabilityPoint:
    """Measurements for one site size."""

    blocks: int
    kalis_nodes: int
    per_node_work: List[float]
    per_node_active: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def max_node_work(self) -> float:
        return max(self.per_node_work) if self.per_node_work else 0.0

    @property
    def mean_node_work(self) -> float:
        if not self.per_node_work:
            return 0.0
        return sum(self.per_node_work) / len(self.per_node_work)


def _build_home_block(sim, rng: SeededRng, origin_x: float, index: int) -> KalisNode:
    lan, wan = LanDirectory(), LanDirectory()
    router = IpRouter(
        NodeId(f"router-{index}"), (origin_x, 0.0), lan, wan
    )
    sim.add_node(router)
    cloud = CloudService(
        NodeId(f"cloud-{index}"), (origin_x + 500.0, 0.0), wan,
        gateway=router.node_id,
    )
    sim.add_node(cloud)
    sim.add_node(
        NestThermostat(
            NodeId(f"nest-{index}"), (origin_x + 6.0, 2.0), lan, cloud.ip,
            router.node_id, rng=rng.substream("nest", str(index)),
        )
    )
    sim.add_node(
        LifxBulb(
            NodeId(f"lifx-{index}"), (origin_x + 4.0, 6.0), lan, cloud.ip,
            router.node_id, rng=rng.substream("lifx", str(index)),
        )
    )
    kalis = KalisNode(NodeId(f"kalis-home-{index}"))
    kalis.deploy(sim, position=(origin_x + 5.0, 4.0))
    return kalis


def _build_field_block(sim, origin_x: float, index: int) -> KalisNode:
    positions = [
        (origin_x + x, y) for x, y in line_positions(4, 25.0)
    ]
    build_wsn(sim, positions, id_prefix=f"mote{index}")
    kalis = KalisNode(NodeId(f"kalis-field-{index}"))
    kalis.deploy(sim, position=(origin_x + 40.0, 8.0))
    return kalis


def run_site(seed: int, block_pairs: int) -> ScalabilityPoint:
    """Build and run a site with ``block_pairs`` home+field block pairs."""
    sim = Simulator(seed=seed)
    rng = SeededRng(seed, "scalability")
    nodes: Dict[str, KalisNode] = {}
    for index in range(block_pairs):
        home = _build_home_block(
            sim, rng, origin_x=2 * index * BLOCK_SPACING_M, index=index
        )
        field_node = _build_field_block(
            sim, origin_x=(2 * index + 1) * BLOCK_SPACING_M, index=index
        )
        nodes[home.node_id.value] = home
        nodes[field_node.node_id.value] = field_node
    sim.run(RUN_DURATION_S)

    return ScalabilityPoint(
        blocks=2 * block_pairs,
        kalis_nodes=len(nodes),
        per_node_work=[node.cpu_work_units() for node in nodes.values()],
        per_node_active={
            name: node.active_module_names() for name, node in nodes.items()
        },
    )


def run(seed: int = 41, sizes=(1, 2, 3)) -> List[ScalabilityPoint]:
    """Run the scaling sweep over site sizes."""
    return [run_site(seed + index, block_pairs=size)
            for index, size in enumerate(sizes)]


def render(points: List[ScalabilityPoint]) -> str:
    """Render the sweep as an aligned text table."""
    lines = [
        f"{'blocks':>7} {'IDS nodes':>10} {'mean work/node':>15} {'max work/node':>14}"
    ]
    for point in points:
        lines.append(
            f"{point.blocks:>7} {point.kalis_nodes:>10} "
            f"{point.mean_node_work:>15,.0f} {point.max_node_work:>14,.0f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Transmit-cost microbench: the frame-delivery path.
#
# A flat 802.15.4 site at *constant density* (area grows with the node
# count), driven with broadcast frames.  Each transmission should only
# pay for the ~constant number of candidates in the sender's grid
# neighborhood — O(N * density) total, not O(N^2).
# --------------------------------------------------------------------------

#: Mean spacing of the flat site — the site side is ``sqrt(N) * spacing``,
#: keeping density constant as N grows.
NODE_SPACING_M = 40.0


@dataclass
class TransmitCostPoint:
    """Transmit cost of one timed broadcast pass at one network size.

    Counters cover the timed pass only, not the warm-up before it.
    """

    nodes: int
    frames: int
    wall_s: float
    candidate_evaluations: int
    deliveries: int
    #: Receptions scheduled per timed frame, in send order.
    receptions: List[int]

    @property
    def candidates_per_frame(self) -> float:
        return self.candidate_evaluations / self.frames if self.frames else 0.0

    @property
    def receptions_per_frame(self) -> float:
        return sum(self.receptions) / self.frames if self.frames else 0.0


def build_flat_site(seed: int, node_count: int) -> Tuple[Simulator, List[SimNode]]:
    """The constant-density site, started and ready to broadcast.

    Node ``i`` is ``n{i:04d}``; frame ``k`` of :func:`run_transmit_point`
    is sent by node ``k % node_count``.
    """
    side = math.sqrt(node_count) * NODE_SPACING_M
    positions = random_positions(
        node_count, (0.0, 0.0, side, side),
        rng=SeededRng(seed, "transmit-bench"),
    )
    sim = Simulator(seed=seed)
    nodes = [
        sim.add_node(
            SimNode(
                NodeId(f"n{index:04d}"), position,
                mediums=(Medium.IEEE_802_15_4,),
            )
        )
        for index, position in enumerate(positions)
    ]
    sim.run_until(0.001)
    return sim, nodes


def _drive(
    sim: Simulator, nodes: List[SimNode], frames: int
) -> Tuple[float, List[int]]:
    """Broadcast ``frames`` frames round-robin; return (wall s, receptions)."""
    receptions = []
    started = time.perf_counter()
    for sequence in range(frames):
        sender = nodes[sequence % len(nodes)]
        receptions.append(
            sender.send(
                Medium.IEEE_802_15_4,
                Ieee802154Frame(
                    pan_id=1, seq=sequence % 256, src=sender.node_id, dst=None
                ),
            )
        )
        sim.run(0.05)
    return time.perf_counter() - started, receptions


def run_transmit_point(
    seed: int, node_count: int, frames: int
) -> TransmitCostPoint:
    """Time ``frames`` broadcasts at one network size.

    The same sender rotation runs once untimed first, so the lazy
    one-time setup (grid build, packed-cell and neighborhood caches)
    doesn't smear into the steady-state timing.  The timed frames are
    therefore transmissions ``frames + 1`` to ``2 * frames``.
    """
    sim, nodes = build_flat_site(seed, node_count)
    _drive(sim, nodes, frames)
    candidates, deliveries = sim.candidate_evaluations, sim.deliveries
    wall_s, receptions = _drive(sim, nodes, frames)
    return TransmitCostPoint(
        nodes=node_count,
        frames=frames,
        wall_s=wall_s,
        candidate_evaluations=sim.candidate_evaluations - candidates,
        deliveries=sim.deliveries - deliveries,
        receptions=receptions,
    )


def run_transmit_bench(
    seed: int = 47, sizes: Sequence[int] = (200, 800, 8000), frames: int = 400
) -> List[TransmitCostPoint]:
    """Run the transmit-cost sweep over network sizes."""
    return [run_transmit_point(seed, node_count, frames) for node_count in sizes]


def render_transmit(points: List[TransmitCostPoint]) -> str:
    """Render the transmit-cost sweep as an aligned text table."""
    lines = [
        f"{'nodes':>6} {'frames':>7} {'wall s':>8} {'cand/frame':>11} "
        f"{'recv/frame':>11} {'deliveries':>11}"
    ]
    for point in points:
        lines.append(
            f"{point.nodes:>6} {point.frames:>7} {point.wall_s:>8.3f} "
            f"{point.candidates_per_frame:>11.1f} "
            f"{point.receptions_per_frame:>11.1f} {point.deliveries:>11}"
        )
    return "\n".join(lines)
