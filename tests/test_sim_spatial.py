"""Tests for the spatial grid index and grid-culled frame delivery.

The load-bearing property: routing transmissions through the spatial
grid yields the *identical* reception set — receiver for receiver,
RSSI for RSSI — as the test reference's scan of every node, because
draws are keyed per (sender, receiver, transmission) and culled
candidates can never be receivable (clamped shadowing margin).
"""

import math

import pytest

from repro.net.packets.base import Medium
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.sim.engine import Simulator
from repro.sim.medium import (
    DEFAULT_PARAMS,
    SHADOWING_CULL_SIGMAS,
    RadioMedium,
    receiver_tail,
)
from repro.sim.spatial import SpatialGrid
from repro.sim.topology import random_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from tests.sim_reference import RecordingNode, send_expecting


def _near(grid, position):
    return set(grid.near_arrays(position)[0])


class TestSpatialGrid:
    def test_insert_remove_contains(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert("a", (1.0, 1.0))
        assert "a" in grid
        assert len(grid) == 1
        grid.remove("a")
        assert "a" not in grid
        assert _near(grid, (0.0, 0.0)) == set()

    def test_duplicate_insert_rejected(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert("a", (0.0, 0.0))
        with pytest.raises(ValueError):
            grid.insert("a", (5.0, 5.0))

    def test_invalid_cell_size_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=0.0)
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=-1.0)

    def test_near_covers_radius_within_cell_size(self):
        """Everything within cell_size of a query point is in the 3x3
        neighborhood — including members straddling cell boundaries."""
        cell = 10.0
        grid = SpatialGrid(cell_size=cell)
        rng = SeededRng(5, "grid")
        members = {}
        for index in range(200):
            position = (rng.uniform(-50, 50), rng.uniform(-50, 50))
            members[index] = position
            grid.insert(index, position)
        # Exact-boundary members: x or y an integer multiple of the cell.
        for index, position in (
            (900, (10.0, 10.0)),
            (901, (20.0, 0.0)),
            (902, (-10.0, 9.999999)),
        ):
            members[index] = position
            grid.insert(index, position)
        for query in [(0.0, 0.0), (10.0, 10.0), (-9.99, 29.99), (49.0, -49.0)]:
            near = _near(grid, query)
            for key, position in members.items():
                if math.hypot(position[0] - query[0], position[1] - query[1]) <= cell:
                    assert key in near, (key, position, query)

    def test_move_across_cells(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert("a", (1.0, 1.0))
        grid.move("a", (55.0, 55.0))
        assert "a" not in _near(grid, (0.0, 0.0))
        assert "a" in _near(grid, (50.0, 50.0))
        # In-cell move keeps the member findable.
        grid.move("a", (56.0, 56.0))
        assert "a" in _near(grid, (50.0, 50.0))

    def test_unbounded_grid_returns_everyone(self):
        for size in (None, math.inf, 1.0e9):
            grid = SpatialGrid(cell_size=size)
            assert grid.unbounded
            grid.insert("a", (0.0, 0.0))
            grid.insert("b", (1.0e6, -1.0e6))
            assert _near(grid, (123.0, 456.0)) == {"a", "b"}


def _build(seed, positions):
    sim = Simulator(seed=seed)
    log = []
    nodes = [
        sim.add_node(
            RecordingNode(
                NodeId(f"n{index:03d}"), position, (Medium.IEEE_802_15_4,), log
            )
        )
        for index, position in enumerate(positions)
    ]
    sim.run_until(0.001)
    return sim, nodes, log


def _broadcast_all(sim, nodes, frames):
    """Round-robin broadcasts; the reference's expected delivery log."""
    expected = []
    for sequence in range(frames):
        sender = nodes[sequence % len(nodes)]
        frame = Ieee802154Frame(pan_id=1, seq=sequence, src=sender.node_id, dst=None)
        expected += send_expecting(sim, sender, Medium.IEEE_802_15_4, frame)
        sim.run(0.05)
    return expected


class TestFastPathEquivalence:
    """Grid-culled transmit == the reference's full scan, draw for draw."""

    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_random_topology_identical_receptions(self, seed):
        # Wide enough that the 3x3 cell neighborhood is a strict
        # subset of the site — the index must actually cull.
        span = Simulator().medium(Medium.IEEE_802_15_4).cull_range_m() * 8
        positions = random_positions(
            40, (0, 0, span, span), rng=SeededRng(seed, "topo")
        )
        sim, nodes, log = _build(seed, positions)
        expected = _broadcast_all(sim, nodes, frames=30)
        assert log == expected and expected
        assert sim.deliveries == len(expected)
        # ...and the index did real culling work along the way.
        assert sim.candidate_evaluations < 30 * (len(nodes) - 1)

    def test_cell_boundary_straddlers(self):
        """Senders and receivers pinned to exact cell-boundary
        coordinates of the 802.15.4 grid."""
        cell = Simulator().medium(Medium.IEEE_802_15_4).cull_range_m()
        positions = [
            (0.0, 0.0),
            (cell, 0.0),
            (cell, cell),
            (2 * cell, 2 * cell),
            (cell / 2, cell / 2),
            (cell * 0.999, cell * 1.001),
        ]
        sim, nodes, log = _build(7, positions)
        expected = _broadcast_all(sim, nodes, frames=len(positions) * 2)
        assert log == expected and expected

    def test_equivalence_survives_moves_and_removal(self):
        span = DEFAULT_PARAMS[Medium.IEEE_802_15_4].max_range_m() * 3
        positions = random_positions(
            20, (0, 0, span, span), rng=SeededRng(11, "topo")
        )
        sim, nodes, log = _build(11, positions)
        move_rng = SeededRng(11, "moves")
        expected = []
        for round_index in range(6):
            mover = nodes[round_index % len(nodes)]
            mover.move_to((move_rng.uniform(0, span), move_rng.uniform(0, span)))
            expected += _broadcast_all(sim, nodes, frames=5)
        sim.remove_node(nodes[3].node_id)
        expected += _broadcast_all(sim, [n for n in nodes if n.attached], frames=8)
        assert log == expected and expected

    def test_only_in_range_pairs_are_hashed(self, monkeypatch):
        """The distance mask keeps per-frame draw work to the candidates
        within the cull range (the sender included), however many the
        3x3 neighborhood holds."""
        hashed = []
        block = RadioMedium.pair_sample_block

        def spy(model, sender_id, sequence, encoded_tails):
            hashed.append(len(encoded_tails))
            return block(model, sender_id, sequence, encoded_tails)

        monkeypatch.setattr(RadioMedium, "pair_sample_block", spy)
        cull = Simulator().medium(Medium.IEEE_802_15_4).cull_range_m()
        positions = random_positions(
            40, (0, 0, cull * 3, cull * 3), rng=SeededRng(5, "topo")
        )
        sim, nodes, _ = _build(5, positions)
        _broadcast_all(sim, nodes, frames=40)
        in_range = [
            sum(math.dist(sender.position, node.position) <= cull for node in nodes)
            for sender in nodes
        ]
        assert hashed == in_range
        assert sum(in_range) < sim.candidate_evaluations + len(nodes)

    def test_order_independent_draws(self):
        """Adding an unrelated node must not perturb an existing pair's
        RSSI — the property the per-pair substreams exist for."""

        def first_rssi(extra_node):
            positions = [(0.0, 0.0), (15.0, 0.0)]
            sim, nodes, log = _build(21, positions)
            if extra_node:
                sim.add_node(
                    RecordingNode(
                        NodeId("zzz-extra"), (5.0, 5.0), (Medium.IEEE_802_15_4,), []
                    )
                )
                sim.run(0.001)
            _broadcast_all(sim, nodes[:1], frames=1)
            return [(receiver, rssi) for receiver, rssi, _ in log]

        lonely = first_rssi(extra_node=False)
        crowded = first_rssi(extra_node=True)
        assert lonely and lonely == crowded

    def test_shadowing_margin_in_cell_size(self):
        """Grid cells must be wider than the mean-RSSI range by the
        k-sigma shadowing margin, or probabilistic edge receivers
        straddling the boundary could be culled."""
        medium = Simulator().medium(Medium.IEEE_802_15_4)
        params = medium.params
        assert medium.cull_range_m() > params.max_range_m()
        expected = params.max_range_m(
            margin_db=SHADOWING_CULL_SIGMAS * params.shadowing_sigma_db
        )
        assert medium.cull_range_m() == pytest.approx(expected)

    def test_wired_medium_unbounded(self):
        assert Simulator().medium(Medium.WIRED).cull_range_m() == math.inf


class TestSenderSnapshot:
    """Each (medium, sender) candidate snapshot keeps its rows in node-id
    order, with tails and mean RSSI aligned, through every change that
    rebuilds it: survivors then come out in dispatch order unsorted."""

    MEDIUM = Medium.IEEE_802_15_4

    def _rows(self, sim, sender, log):
        """Send one frame (rebuilding the snapshot if stale) and check
        its rows against the reference and the sender's neighbours."""
        log_before = len(log)
        frame = Ieee802154Frame(pan_id=1, seq=0, src=sender.node_id, dst=None)
        expected = send_expecting(sim, sender, self.MEDIUM, frame)
        sim.run(0.05)
        assert log[log_before:] == expected and expected
        entry = sim._sender_cache[(self.MEDIUM, sender.node_id)]
        nodes, tails, mean = entry[4], entry[5], entry[6]
        ids = [str(node.node_id) for node in nodes]
        assert ids == sorted(ids)
        assert tails == [receiver_tail(node.node_id) for node in nodes]
        model = sim.medium(self.MEDIUM)
        in_range = []
        for node in sim.nodes():
            dx = node.position[0] - sender.position[0]
            dy = node.position[1] - sender.position[1]
            distance = math.sqrt(dx * dx + dy * dy)
            if distance <= model.cull_range_m():
                in_range.append(str(node.node_id))
                row = ids.index(str(node.node_id))
                assert mean[row] == model.params.mean_rssi(distance)
        assert ids == in_range
        return ids

    def test_rows_in_id_order_across_insert_moves_and_remove(self):
        cull = Simulator().medium(self.MEDIUM).cull_range_m()
        sim = Simulator(seed=4)
        log = []
        # Inserted out of id order and straddling four grid cells, so
        # neither insertion nor the neighbourhood's cell order is id
        # order ("n10" < "n2" < "n9").
        placed = [
            ("n9", (cull - 3.0, cull - 4.0)),
            ("n10", (cull + 2.0, cull - 1.0)),
            ("n2", (cull - 1.0, cull + 5.0)),
            ("n11", (cull + 4.0, cull + 3.0)),
            ("n1", (cull - 6.0, cull + 1.0)),
            ("far", (5.0 * cull, 5.0 * cull)),
        ]
        nodes = {
            name: sim.add_node(
                RecordingNode(NodeId(name), position, (self.MEDIUM,), log)
            )
            for name, position in placed
        }
        sim.run_until(0.001)
        sender = nodes["n9"]
        assert self._rows(sim, sender, log) == ["n1", "n10", "n11", "n2", "n9"]
        sim.add_node(
            RecordingNode(NodeId("n0"), (cull + 1.0, cull + 1.0), (self.MEDIUM,), log)
        )
        sim.run(0.001)
        assert self._rows(sim, sender, log) == ["n0", "n1", "n10", "n11", "n2", "n9"]
        sender.move_to((cull + 6.0, cull - 2.0))  # the sender changes cell
        assert self._rows(sim, sender, log) == ["n0", "n1", "n10", "n11", "n2", "n9"]
        nodes["far"].move_to((cull + 2.0, cull + 6.0))  # a receiver comes in
        assert self._rows(sim, sender, log) == [
            "far", "n0", "n1", "n10", "n11", "n2", "n9"
        ]
        sim.remove_node(NodeId("n10"))
        assert self._rows(sim, sender, log) == ["far", "n0", "n1", "n11", "n2", "n9"]
