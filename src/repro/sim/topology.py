"""Topology generators: physical node placements.

A topology here is a mapping from node index to (x, y) position.  Radio
range (see :mod:`repro.sim.medium`) then determines connectivity, so a
"single-hop" network is one where every node is within range of every
other, and a "multi-hop" one forces intermediate forwarders.  The
``networkx`` helpers let scenarios and tests verify connectivity
properties of a placement before using it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.util.ids import NodeId
from repro.util.rng import SeededRng

Position = Tuple[float, float]


def star_positions(count: int, radius: float) -> List[Position]:
    """``count`` nodes on a circle around the origin — a single-hop star.

    With ``2 * radius`` below radio range, every node hears every other.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    positions: List[Position] = []
    for index in range(count):
        angle = 2.0 * math.pi * index / count
        positions.append((radius * math.cos(angle), radius * math.sin(angle)))
    return positions


def line_positions(count: int, spacing: float) -> List[Position]:
    """``count`` nodes on a line — the canonical multi-hop chain.

    With ``spacing`` below radio range but ``2 * spacing`` above it, each
    node only hears its immediate neighbours.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return [(index * spacing, 0.0) for index in range(count)]


def grid_positions(rows: int, cols: int, spacing: float) -> List[Position]:
    """A ``rows x cols`` grid, row-major order."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
    return [
        (col * spacing, row * spacing) for row in range(rows) for col in range(cols)
    ]


def random_positions(
    count: int,
    area: Tuple[float, float, float, float],
    rng: Optional[SeededRng] = None,
    min_separation: float = 0.0,
    max_attempts: int = 10_000,
) -> List[Position]:
    """``count`` uniform-random positions in ``area``.

    With ``min_separation`` set, performs simple rejection sampling so no
    two nodes are closer than the separation.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    x_min, y_min, x_max, y_max = area
    if x_max <= x_min or y_max <= y_min:
        raise ValueError(f"degenerate area {area}")
    generator = rng if rng is not None else SeededRng(0, "topology")
    positions: List[Position] = []
    attempts = 0
    while len(positions) < count:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"could not place {count} nodes with separation "
                f"{min_separation} in {area}"
            )
        candidate = (generator.uniform(x_min, x_max), generator.uniform(y_min, y_max))
        if min_separation > 0 and any(
            math.hypot(candidate[0] - p[0], candidate[1] - p[1]) < min_separation
            for p in positions
        ):
            continue
        positions.append(candidate)
    return positions


def connectivity_graph(
    placements: Dict[NodeId, Position], radio_range: float
) -> nx.Graph:
    """Build the graph whose edges are pairs within ``radio_range``.

    Uses the same uniform-grid neighbor lookup as the delivery fast
    path (:mod:`repro.sim.spatial`), so connectivity checks on large
    placements cost O(N * density) instead of O(N^2).
    """
    from repro.sim.spatial import SpatialGrid

    graph = nx.Graph()
    graph.add_nodes_from(placements)
    grid = SpatialGrid(cell_size=radio_range if radio_range > 0 else None)
    for node, position in sorted(placements.items()):
        grid.insert(node, position)
    for node_a, pos_a in sorted(placements.items()):
        for node_b in sorted(grid.near_arrays(pos_a)[0]):
            if node_b <= node_a:
                continue
            pos_b = placements[node_b]
            if math.hypot(pos_a[0] - pos_b[0], pos_a[1] - pos_b[1]) <= radio_range:
                graph.add_edge(node_a, node_b)
    return graph


def is_single_hop(placements: Dict[NodeId, Position], radio_range: float) -> bool:
    """True when every node can hear every other directly."""
    graph = connectivity_graph(placements, radio_range)
    node_count = graph.number_of_nodes()
    expected_edges = node_count * (node_count - 1) // 2
    return graph.number_of_edges() == expected_edges


def is_connected(placements: Dict[NodeId, Position], radio_range: float) -> bool:
    """True when the connectivity graph has a single component."""
    graph = connectivity_graph(placements, radio_range)
    if graph.number_of_nodes() == 0:
        return True
    return nx.is_connected(graph)


def hop_distance(
    placements: Dict[NodeId, Position],
    radio_range: float,
    source: NodeId,
    target: NodeId,
) -> Optional[int]:
    """Shortest hop count between two nodes, or None if disconnected."""
    graph = connectivity_graph(placements, radio_range)
    try:
        return nx.shortest_path_length(graph, source, target)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
