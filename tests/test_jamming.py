"""Tests for the jamming attack and its anomaly-based detector."""

import pytest

from repro.attacks.jamming import JammingNode
from repro.core.datastore import DataStore
from repro.core.kalis import KalisNode
from repro.core.knowledge import KnowledgeBase
from repro.core.modules.base import ModuleContext
from repro.core.modules.detection.jamming import JammingModule
from repro.devices.wsn import build_wsn
from repro.eventbus.bus import EventBus
from repro.net.packets.base import Medium
from repro.sim.engine import Simulator
from repro.sim.topology import line_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from tests.conftest import ctp_data_capture


def bind(module):
    bus = EventBus()
    kb = KnowledgeBase(NodeId("kalis-1"), bus)
    alerts = []
    bus.subscribe("alert", lambda e: alerts.append(e.payload))
    module.bind(ModuleContext(kb=kb, datastore=DataStore(), bus=bus,
                              node_id=NodeId("kalis-1")))
    module.active = True
    return kb, alerts


class TestJammingNode:
    def test_bursts_raise_and_clear_interference(self):
        sim = Simulator(seed=71)
        jammer = sim.add_node(
            JammingNode(NodeId("jam"), (0.0, 0.0), loss_probability=0.95,
                        burst_duration=5.0, burst_interval=20.0,
                        start_delay=2.0, max_bursts=2, rng=SeededRng(1))
        )
        medium = sim.medium(Medium.IEEE_802_15_4)
        sim.run(4.0)
        assert jammer.jamming_now
        assert medium.interference_loss_probability == 0.95
        sim.run(5.0)  # past burst end
        assert not jammer.jamming_now
        assert medium.interference_loss_probability == 0.0
        sim.run(60.0)
        assert len(jammer.log) == 2

    def test_revocation_silences_the_jammer(self):
        sim = Simulator(seed=72)
        sim.add_node(
            JammingNode(NodeId("jam"), (0.0, 0.0), burst_duration=10.0,
                        burst_interval=30.0, start_delay=1.0, rng=SeededRng(2))
        )
        sim.run(3.0)
        assert sim.medium(Medium.IEEE_802_15_4).interference_loss_probability > 0
        sim.remove_node(NodeId("jam"))
        assert sim.medium(Medium.IEEE_802_15_4).interference_loss_probability == 0.0

    def test_revocation_mid_burst_closes_the_logged_burst(self):
        sim = Simulator(seed=72)
        jammer = sim.add_node(
            JammingNode(NodeId("jam"), (0.0, 0.0), burst_duration=10.0,
                        burst_interval=30.0, start_delay=1.0, rng=SeededRng(2))
        )
        sim.run(3.0)
        sim.remove_node(NodeId("jam"))
        sim.run(60.0)  # past the revoked burst's scheduled end
        assert [(i.start, i.end) for i in jammer.log.instances] == [(1.0, 3.0)]

    def test_jamming_actually_destroys_traffic(self):
        def delivered(with_jammer):
            sim = Simulator(seed=73)
            base, motes = build_wsn(sim, line_positions(3, 20.0))
            if with_jammer:
                sim.add_node(
                    JammingNode(NodeId("jam"), (20.0, 5.0),
                                loss_probability=0.95, burst_duration=25.0,
                                burst_interval=60.0, start_delay=10.0,
                                rng=SeededRng(3))
                )
            sim.run(40.0)
            return len(base.collected)

        assert delivered(with_jammer=True) < delivered(with_jammer=False) * 0.7

    def test_saturating_jammer_is_a_total_blackout(self):
        """loss_probability=1.0 is a certain drop — zero frames land
        during the burst, with no ~0.1% clamp leak."""
        sim = Simulator(seed=75)
        base, motes = build_wsn(sim, line_positions(3, 20.0))
        sim.add_node(
            JammingNode(NodeId("jam"), (20.0, 5.0), loss_probability=1.0,
                        burst_duration=30.0, burst_interval=120.0,
                        start_delay=30.0, max_bursts=1, rng=SeededRng(5))
        )
        sim.run(30.0)
        deliveries_before = sim.deliveries
        collected_before = len(base.collected)
        sim.run(30.0)  # the entire burst window
        assert sim.deliveries == deliveries_before
        assert len(base.collected) == collected_before
        sim.run(30.0)  # burst over: traffic resumes
        assert sim.deliveries > deliveries_before

    def test_validation(self):
        with pytest.raises(ValueError):
            JammingNode(NodeId("j"), (0, 0), loss_probability=0.0)
        with pytest.raises(ValueError):
            JammingNode(NodeId("j"), (0, 0), burst_duration=10.0,
                        burst_interval=5.0)


class TestJammingModule:
    @staticmethod
    def _steady(module, start, count, rate=4.0):
        source, sink = NodeId("a"), NodeId("b")
        for i in range(count):
            module.handle(
                ctp_data_capture(source, sink, origin=source, seqno=i,
                                 timestamp=start + i / rate)
            )

    def test_rate_collapse_alerts(self):
        module = JammingModule(params={"window": 10.0, "cooldown": 5.0})
        _, alerts = bind(module)
        self._steady(module, start=0.0, count=120, rate=4.0)  # 30 s baseline
        # Collapse: the next capture arrives 30 s later (jammer ate the rest).
        self._steady(module, start=60.0, count=2, rate=0.05)
        assert alerts
        assert alerts[0].attack == "jamming"
        assert alerts[0].suspects == ()

    def test_steady_traffic_never_alerts(self):
        module = JammingModule()
        _, alerts = bind(module)
        self._steady(module, start=0.0, count=400, rate=4.0)
        assert alerts == []

    def test_no_baseline_no_alert(self):
        """A sparse network that was always quiet is not being jammed."""
        module = JammingModule(params={"minBaseline": 1.0})
        _, alerts = bind(module)
        self._steady(module, start=0.0, count=20, rate=0.1)
        assert alerts == []

    def test_end_to_end_live(self):
        sim = Simulator(seed=74)
        base, motes = build_wsn(sim, line_positions(4, 20.0))
        sim.add_node(
            JammingNode(NodeId("jam"), (30.0, 5.0), loss_probability=0.92,
                        burst_duration=20.0, burst_interval=60.0,
                        start_delay=40.0, max_bursts=1, rng=SeededRng(4))
        )
        kalis = KalisNode(NodeId("kalis-1"))
        kalis.deploy(sim, position=(30.0, 8.0))
        sim.run(70.0)
        assert "JammingModule" in kalis.active_module_names()
        jamming_alerts = kalis.alerts.by_attack("jamming")
        assert jamming_alerts, "the rate collapse must be noticed"
        assert 40.0 <= jamming_alerts[0].timestamp <= 62.0


class TestTaxonomyIntegration:
    def test_jamming_in_matrix_and_map(self):
        from repro.taxonomy.by_feature import ATTACKS, applicability, Applicability
        from repro.taxonomy.modules_map import MODULES_FOR_ATTACK

        assert "jamming" in ATTACKS
        assert applicability("jamming", "single_hop") is Applicability.POSSIBLE
        assert MODULES_FOR_ATTACK["jamming"] == ["JammingModule"]

    def test_registered_in_default_library(self):
        kalis = KalisNode(NodeId("kalis-1"))
        assert "JammingModule" in {m.NAME for m in kalis.manager.modules()}
