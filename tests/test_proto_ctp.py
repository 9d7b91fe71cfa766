"""Tests for the CTP protocol behaviour."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.wsn import build_wsn
from repro.proto.ctp import NO_ROUTE_ETX, CtpNode
from repro.sim.engine import Simulator
from repro.sim.topology import line_positions
from repro.util.ids import NodeId


def chain(sim, count=4, spacing=25.0):
    return build_wsn(sim, line_positions(count, spacing))


class TestTreeFormation:
    def test_nodes_learn_parents_from_beacons(self):
        sim = Simulator(seed=1)
        base, motes = chain(sim)
        sim.run(30.0)
        for mote in motes:
            assert mote.parent is not None
            assert mote.etx < NO_ROUTE_ETX

    def test_etx_increases_along_the_chain(self):
        sim = Simulator(seed=1)
        base, motes = chain(sim)
        sim.run(30.0)
        etx_values = [m.etx for m in motes]
        assert etx_values == sorted(etx_values)
        assert etx_values[0] == 1  # direct child of the root

    def test_parents_point_toward_root(self):
        sim = Simulator(seed=1)
        base, motes = chain(sim)
        sim.run(30.0)
        assert motes[0].parent == base.node_id
        assert motes[1].parent == motes[0].node_id

    def test_root_keeps_etx_zero(self):
        sim = Simulator(seed=1)
        base, motes = chain(sim)
        sim.run(30.0)
        assert base.etx == 0
        assert base.is_root


class TestDataCollection:
    def test_samples_reach_root(self):
        sim = Simulator(seed=2)
        base, motes = chain(sim)
        sim.run(60.0)
        origins = {origin for origin, _, _, _ in base.collected}
        assert origins == {m.node_id for m in motes}

    def test_thl_reflects_hop_count(self):
        sim = Simulator(seed=2)
        base, motes = chain(sim)
        sim.run(60.0)
        thl_by_origin = {}
        for origin, _seq, thl, _t in base.collected:
            thl_by_origin.setdefault(origin, set()).add(thl)
        # The farthest mote's samples travelled count-2 forwarders.
        assert max(thl_by_origin[motes[-1].node_id]) == len(motes) - 1

    def test_no_route_means_no_send(self):
        sim = Simulator(seed=3)
        lonely = CtpNode(NodeId("lonely"), (0.0, 0.0), data_interval=1.0)
        sim.add_node(lonely)
        sim.run(10.0)
        assert lonely.parent is None
        # Samples are silently dropped without a route; nothing crashes.

    def test_paper_reporting_period(self):
        sim = Simulator(seed=4)
        base, motes = chain(sim, count=2, spacing=20.0)
        sim.run(31.0)
        sent_by_first = [
            (origin, seq) for origin, seq, _, _ in base.collected
            if origin == motes[0].node_id
        ]
        # ~3 s period over 30 s => about 10 samples.
        assert 8 <= len(sent_by_first) <= 12

    def test_forwarded_count_increments(self):
        sim = Simulator(seed=5)
        base, motes = chain(sim, count=3, spacing=25.0)
        sim.run(40.0)
        # The middle mote forwards the far mote's traffic.
        assert motes[0].forwarded_count > 0


def _sorted_scan(table):
    """The reference route choice: scan the neighbour table in id order,
    keeping the first strictly lowest ``etx + 1`` below NO_ROUTE_ETX."""
    best_parent, best_etx = None, NO_ROUTE_ETX
    for neighbor, neighbor_etx in sorted(table.items()):
        if neighbor_etx + 1 < best_etx:
            best_parent, best_etx = neighbor, neighbor_etx + 1
    return best_parent, best_etx


#: Ids whose string order differs from their numeric order, so a table
#: filled in numeric order is not in id order (``n10`` < ``n2``).
_ROUTE_IDS = [f"n{index}" for index in range(12)] + ["a", "m9", "z0"]

_ROUTE_ETX = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from([NO_ROUTE_ETX, 0xFFFE, NO_ROUTE_ETX - 2]),
)


class TestRouteChoice:
    """One pass over the neighbour table picks the sorted scan's parent."""

    def _choose(self, entries):
        mote = CtpNode(NodeId("self"))
        prior = (NodeId("prior"), 7)
        mote.parent, mote.etx = prior
        mote.neighbor_etx = {NodeId(value): etx for value, etx in entries}
        expected = _sorted_scan(mote.neighbor_etx)
        mote._update_route()
        if expected[0] is None:
            expected = prior  # no usable route: the old one stands
        assert (mote.parent, mote.etx) == expected
        return mote

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.sampled_from(_ROUTE_IDS), _ROUTE_ETX),
            unique_by=lambda entry: entry[0],
            max_size=len(_ROUTE_IDS),
        )
    )
    @example(entries=[("n2", 2), ("n10", 2), ("n1", 3)])
    @example(entries=[("n3", 0xFFFE), ("n10", NO_ROUTE_ETX)])
    @example(entries=[("z0", 1), ("n2", 0xFFFE), ("a", 1), ("n10", 1)])
    @example(entries=[])
    def test_one_pass_matches_sorted_scan(self, entries):
        self._choose(entries)

    def test_tie_goes_to_smallest_id_not_first_inserted(self):
        mote = self._choose([("n2", 1), ("n10", 1)])
        assert mote.parent == NodeId("n10") and mote.etx == 2

    def test_no_route_entries_never_become_parent(self):
        mote = self._choose([("n1", 0xFFFE), ("n2", NO_ROUTE_ETX)])
        assert mote.parent == NodeId("prior")
