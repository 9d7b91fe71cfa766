"""Frame delivery against the test reference.

The engine's one delivery path — spatial cull, one numpy link budget per
frame, one batched heap entry — must reproduce the per-pair scalar model
in :mod:`tests.sim_reference` bit for bit: same receivers, same RSSI
values, same arrival times, same dispatch order.  The sweep covers
random topologies, seeds and medium parameters, the degenerate branches
(certain drop, zero shadowing, wired medium) and membership churn.  The
reference itself is pinned by hand-computed cases first.
"""

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packets.base import Medium, Packet
from repro.obs import Telemetry
from repro.sim.engine import Simulator
from repro.sim.medium import DEFAULT_PARAMS, PathLossParams, RadioMedium
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from tests.sim_reference import (
    RecordingNode,
    Station,
    reference_receptions,
    send_expecting,
)


@dataclass(frozen=True)
class _Probe(Packet):
    """A bare frame with a fixed wire size."""

    HEADER_BYTES = 24


def _build_world(seed, node_count, area, medium, params, loss, telemetry=False):
    sim = Simulator(seed=seed, telemetry=Telemetry() if telemetry else None)
    model = RadioMedium(
        medium,
        params=params,
        rng=SeededRng(seed, "equiv-medium"),
        base_loss_probability=loss if loss < 1.0 else 0.0,
    )
    if loss >= 1.0:
        # base_loss_probability must be < 1; a certain drop is a
        # saturating jammer's interference.
        model.set_interference(1.0)
    sim.set_medium(model)
    placer = SeededRng(seed, "equiv-topo")
    log = []
    nodes = [
        sim.add_node(
            RecordingNode(
                NodeId(f"n{index}"),
                (placer.uniform(0.0, area), placer.uniform(0.0, area)),
                [medium],
                log,
            )
        )
        for index in range(node_count)
    ]
    sim.run_until(0.0)
    return sim, nodes, log


def _drive(sim, nodes, medium, senders):
    """Send one probe per sender index; the reference's expected log."""
    expected = []
    for index in senders:
        expected += send_expecting(sim, nodes[index % len(nodes)], medium, _Probe())
        sim.run(0.05)
    return expected


def _check(sim, log, expected, frames, node_count):
    assert log == expected  # receivers, exact RSSI bits, times, order
    assert sim.deliveries == len(expected)
    assert sim.candidate_evaluations <= frames * (node_count - 1)


class TestReference:
    """Hand-computed cases pin the reference before it judges the engine."""

    PARAMS = DEFAULT_PARAMS[Medium.IEEE_802_15_4]

    def _heard(self, stations, params=PARAMS, loss=0.0):
        return reference_receptions(stations, params, loss, 7, "s", 1)

    def test_zero_sigma_is_exactly_mean_rssi(self):
        params = PathLossParams(shadowing_sigma_db=0.0)
        heard = self._heard(
            {"s": Station((0.0, 0.0)), "r": Station((12.0, 16.0))}, params
        )
        assert heard == {"r": params.mean_rssi(20.0)}
        assert heard["r"] == pytest.approx(-40.0 - 30.0 * math.log10(20.0))

    def test_node_beyond_cull_range_is_absent(self):
        cull = RadioMedium(Medium.IEEE_802_15_4).cull_range_m()
        heard = self._heard(
            {
                "s": Station((0.0, 0.0)),
                "near": Station((10.0, 0.0)),
                "far": Station((cull * 1.0001, 0.0)),
            }
        )
        assert list(heard) == ["near"]

    def test_saturating_interference_hears_nothing(self):
        sim, nodes, log = _build_world(
            5, 6, 20.0, Medium.IEEE_802_15_4, self.PARAMS, 0.0
        )
        sim.medium(Medium.IEEE_802_15_4).set_interference(1.0)
        assert send_expecting(sim, nodes[0], Medium.IEEE_802_15_4, _Probe()) == []

    def test_crashed_and_interface_down_nodes_are_absent(self):
        heard = self._heard(
            {
                "s": Station((0.0, 0.0)),
                "crashed": Station((5.0, 0.0), alive=False),
                "down": Station((0.0, 5.0), usable=False),
                "up": Station((5.0, 5.0)),
            }
        )
        assert list(heard) == ["up"]


class TestBatchedEqualsScalar:
    """The engine's batched delivery equals the reference's scalar
    per-pair model."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        node_count=st.integers(min_value=2, max_value=40),
        area=st.floats(min_value=10.0, max_value=400.0),
        exponent=st.floats(min_value=2.0, max_value=4.0),
        sigma=st.floats(min_value=0.0, max_value=4.0),
        loss=st.sampled_from([0.0, 0.15, 0.5, 0.97, 1.0]),
    )
    def test_property_sweep(self, seed, node_count, area, exponent, sigma, loss):
        """Random topology/seed/params: every delivery, RSSI bit,
        arrival time and the dispatch order match the reference."""
        params = PathLossParams(
            tx_power_dbm=0.0,
            pl_d0_db=40.0,
            exponent=exponent,
            sensitivity_dbm=-90.0,
            shadowing_sigma_db=sigma,
        )
        sim, nodes, log = _build_world(
            seed, node_count, area, Medium.IEEE_802_15_4, params, loss
        )
        senders = range(0, node_count * 3, max(1, node_count // 4))
        expected = _drive(sim, nodes, Medium.IEEE_802_15_4, senders)
        _check(sim, log, expected, len(senders), node_count)

    @pytest.mark.parametrize("telemetry", [True, False])
    def test_certain_drop_jammer(self, telemetry):
        """loss >= 1.0 (saturating jammer): zero receptions, and
        candidate accounting still runs."""
        params = PathLossParams(shadowing_sigma_db=1.5)
        sim, nodes, log = _build_world(
            7, 10, 60.0, Medium.IEEE_802_15_4, params, 0.0, telemetry
        )
        sim.medium(Medium.IEEE_802_15_4).set_interference(1.0)
        expected = _drive(sim, nodes, Medium.IEEE_802_15_4, range(10))
        assert expected == [] and log == []
        assert sim.deliveries == 0
        assert sim.candidate_evaluations > 0

    @pytest.mark.parametrize("telemetry", [True, False])
    def test_zero_sigma_deterministic_rssi(self, telemetry):
        """sigma == 0 consumes no shadowing draws; the loss uniform
        shifts to draw word 0."""
        params = PathLossParams(shadowing_sigma_db=0.0)
        sim, nodes, log = _build_world(
            11, 12, 80.0, Medium.IEEE_802_15_4, params, 0.3, telemetry
        )
        expected = _drive(sim, nodes, Medium.IEEE_802_15_4, range(12))
        _check(sim, log, expected, 12, 12)
        assert 0 < len(log)
        # With zero shadowing each heard RSSI is exactly the mean.
        for _, rssi, _ in log:
            assert rssi <= params.tx_power_dbm - params.pl_d0_db + 1e-9

    def test_wired_medium_degenerate(self):
        """The wired pseudo-medium has an unbounded cull range (single
        grid bucket) and zero sigma — everything hears everything."""
        params = PathLossParams(
            pl_d0_db=0.0, exponent=0.01, sensitivity_dbm=-100.0,
            shadowing_sigma_db=0.0,
        )
        sim, nodes, log = _build_world(3, 8, 5000.0, Medium.WIRED, params, 0.0)
        expected = _drive(sim, nodes, Medium.WIRED, range(8))
        assert len(expected) == 8 * 7  # full mesh, no losses
        _check(sim, log, expected, 8, 8)


class TestChurn:
    def test_reception_sets_unchanged_across_membership_churn(self):
        """Remove, add and crash nodes mid-run, crash a receiver and take
        another's interface down while a frame is in flight: the engine
        still matches the reference at every transmission."""
        medium = Medium.IEEE_802_15_4
        sim, nodes, log = _build_world(
            19, 14, 90.0, medium, PathLossParams(shadowing_sigma_db=1.5), 0.1
        )
        expected = _drive(sim, nodes, medium, range(4))
        sim.remove_node(nodes[5].node_id)
        late = RecordingNode(NodeId("late"), (45.0, 45.0), [medium], log)
        sim.add_node(late)
        nodes[7].crash()
        sim.run(0.1)
        expected += _drive(sim, nodes, medium, [0, 1, 2, 3, 6, 8, 9])

        in_flight = send_expecting(sim, nodes[0], medium, _Probe())
        crashed, downed = in_flight[1][0], in_flight[-1][0]
        assert {crashed, downed}.isdisjoint({"late", "n0", "n2"})
        sim.node(NodeId(crashed)).crash()
        sim.node(NodeId(downed)).disable_medium(medium)
        sim.run(0.05)
        expected += [entry for entry in in_flight if entry[0] not in (crashed, downed)]
        expected += _drive(sim, [late, nodes[2]], medium, [0, 1])
        assert log == expected
        assert sim.deliveries == len(expected)
