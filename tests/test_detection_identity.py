"""Tests for identity-abuse detectors: replication (static + mobile),
sybil, spoofing — including the pure analysis functions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastore import DataStore
from repro.core.knowledge import KnowledgeBase
from repro.core.modules.base import ModuleContext
from repro.core.modules.common import mostly_monotone
from repro.core.modules.detection.replication_mobile import (
    ReplicationMobileModule,
    _dual_stream,
)
from repro.core.modules.detection.replication_static import (
    ReplicationStaticModule,
    _bimodal_interleaved,
)
from repro.core.modules.detection.spoofing import SpoofingModule
from repro.core.modules.detection.sybil import SybilModule
from repro.eventbus.bus import EventBus
from repro.util.ids import NodeId
from tests.conftest import ctp_data_capture

IDENTITY = NodeId("mote-7")
KALIS = NodeId("kalis-1")


def bind(module):
    bus = EventBus()
    kb = KnowledgeBase(KALIS, bus)
    alerts = []
    bus.subscribe("alert", lambda e: alerts.append(e.payload))
    module.bind(ModuleContext(kb=kb, datastore=DataStore(), bus=bus, node_id=KALIS))
    module.active = True
    return kb, alerts


def feed_identity(module, samples):
    """samples: iterable of (timestamp, rssi, seqno)."""
    for timestamp, rssi, seqno in samples:
        module.handle(
            ctp_data_capture(
                IDENTITY, NodeId("parent"), origin=IDENTITY, seqno=seqno,
                timestamp=timestamp, rssi=rssi,
            )
        )


def interleaved_replica_samples(count=16):
    """Legit at -55 (seq 1,2,..) alternating with replica at -75 (5001,...)."""
    samples = []
    legit_seq, clone_seq = 0, 5000
    for index in range(count):
        if index % 2 == 0:
            legit_seq += 1
            samples.append((index * 1.0, -55.0 + (index % 3) * 0.4, legit_seq))
        else:
            clone_seq += 1
            samples.append((index * 1.0, -75.0 + (index % 3) * 0.4, clone_seq))
    return samples


class TestReplicationStatic:
    def test_requires_static_network(self):
        module = ReplicationStaticModule()
        kb, _ = bind(module)
        assert not module.required(kb)
        kb.put("Mobility", False)
        assert module.required(kb)
        kb.put("Mobility", True)
        assert not module.required(kb)

    def test_interleaved_clusters_detected(self):
        module = ReplicationStaticModule()
        _, alerts = bind(module)
        feed_identity(module, interleaved_replica_samples())
        assert alerts
        assert alerts[0].attack == "replication"
        assert alerts[0].suspects == (IDENTITY,)

    def test_stable_identity_not_flagged(self):
        module = ReplicationStaticModule()
        _, alerts = bind(module)
        samples = [(i * 1.0, -60.0 + (i % 4) * 0.5, i + 1) for i in range(20)]
        feed_identity(module, samples)
        assert alerts == []

    def test_level_shift_is_not_replication(self):
        """A device moved once: two clusters but no interleaving."""
        module = ReplicationStaticModule()
        _, alerts = bind(module)
        samples = [(i * 1.0, -55.0, i + 1) for i in range(8)]
        samples += [(8.0 + i * 1.0, -75.0, 9 + i) for i in range(8)]
        feed_identity(module, samples)
        assert alerts == []

    def test_random_seqno_injections_not_replication(self):
        """Incoherent streams are spoofing territory, not a live clone."""
        module = ReplicationStaticModule()
        _, alerts = bind(module)
        samples = []
        randoms = [91234, 4, 70000, 812, 55555, 13, 99999, 123]
        for index in range(16):
            if index % 2 == 0:
                samples.append((index * 1.0, -55.0, index // 2 + 1))
            else:
                samples.append((index * 1.0, -75.0, randoms[index // 2]))
        feed_identity(module, samples)
        assert alerts == []


class TestBimodalFunction:
    def test_detects_textbook_case(self):
        samples = [
            (float(i), -55.0 if i % 2 == 0 else -72.0, i + 1) for i in range(12)
        ]
        verdict = _bimodal_interleaved(samples, gap=6.0, min_each=4, min_flips=3)
        assert verdict is not None
        low_mean, high_mean, flips = verdict
        assert low_mean < high_mean
        assert flips >= 3

    def test_rejects_small_gap(self):
        samples = [
            (float(i), -55.0 if i % 2 == 0 else -58.0, i + 1) for i in range(12)
        ]
        assert _bimodal_interleaved(samples, gap=6.0, min_each=4, min_flips=3) is None

    def test_rejects_smeared_cluster(self):
        """Mobile-phase smear: one side spans far more than cluster_width."""
        samples = []
        for i in range(16):
            if i % 2 == 0:
                samples.append((float(i), -50.0 - 2.5 * i, i + 1))  # smeared
            else:
                samples.append((float(i), -90.0, 100 + i))
        assert (
            _bimodal_interleaved(samples, gap=6.0, min_each=4, min_flips=3,
                                 cluster_width=8.0)
            is None
        )

    def test_mostly_monotone(self):
        assert mostly_monotone([1, 2, 3, 4])
        assert mostly_monotone([])
        assert mostly_monotone([5])
        assert not mostly_monotone([5, 1, 4, 2, 3, 1])

    @settings(max_examples=50)
    @given(st.lists(st.floats(-90, -30, allow_nan=False), min_size=0, max_size=30))
    def test_never_crashes_on_arbitrary_rssi(self, rssis):
        samples = [(float(i), rssi, i) for i, rssi in enumerate(rssis)]
        _bimodal_interleaved(samples, gap=6.0, min_each=4, min_flips=3)


class TestReplicationMobile:
    def test_requires_mobile_network(self):
        module = ReplicationMobileModule()
        kb, _ = bind(module)
        kb.put("Mobility", True)
        assert module.required(kb)
        kb.put("Mobility", False)
        assert not module.required(kb)

    def test_dual_streams_detected(self):
        module = ReplicationMobileModule()
        _, alerts = bind(module)
        feed_identity(module, interleaved_replica_samples())
        assert alerts
        assert alerts[0].attack == "replication"

    def test_single_stream_not_flagged(self):
        module = ReplicationMobileModule()
        _, alerts = bind(module)
        samples = [(i * 1.0, -60.0 - i, i + 1) for i in range(20)]
        feed_identity(module, samples)
        assert alerts == []

    def test_dual_stream_function(self):
        sequence = [1, 5001, 2, 5002, 3, 5003, 4, 5004]
        assert _dual_stream(sequence, jump=100, min_alternations=3) >= 3
        assert _dual_stream([1, 2, 3, 4, 5, 6], jump=100, min_alternations=3) is None
        assert _dual_stream([1, 5001], jump=100, min_alternations=3) is None

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 10_000), max_size=40))
    def test_dual_stream_never_crashes(self, sequence):
        _dual_stream(sequence, jump=100, min_alternations=3)


class TestSybil:
    def test_correlated_identities_detected(self):
        module = SybilModule(params={"minBursts": 3})
        _, alerts = bind(module)
        fakes = [NodeId(f"fake-{i}") for i in range(4)]
        for burst in range(4):
            base_time = burst * 6.0
            for index, identity in enumerate(fakes):
                module.handle(
                    ctp_data_capture(
                        identity, NodeId("coord"), origin=identity,
                        seqno=burst, timestamp=base_time + index * 0.02,
                        rssi=-62.0 + index * 0.3,
                    )
                )
        assert alerts
        assert alerts[0].attack == "sybil"
        assert len(alerts[0].suspects) >= 3

    def test_independent_nodes_not_clustered(self):
        """Equidistant nodes transmit on their own schedules — no sybil."""
        module = SybilModule()
        _, alerts = bind(module)
        identities = [NodeId(f"real-{i}") for i in range(4)]
        for round_index in range(10):
            for index, identity in enumerate(identities):
                module.handle(
                    ctp_data_capture(
                        identity, NodeId("coord"), origin=identity,
                        seqno=round_index,
                        timestamp=round_index * 4.0 + index * 0.9,
                        rssi=-62.0,
                    )
                )
        assert alerts == []

    def test_rssi_spread_breaks_cluster(self):
        module = SybilModule(params={"minBursts": 2})
        _, alerts = bind(module)
        identities = [NodeId(f"n-{i}") for i in range(4)]
        for burst in range(5):
            for index, identity in enumerate(identities):
                module.handle(
                    ctp_data_capture(
                        identity, NodeId("coord"), origin=identity,
                        seqno=burst, timestamp=burst * 6.0 + index * 0.02,
                        rssi=-50.0 - 8.0 * index,  # distinct signatures
                    )
                )
        assert alerts == []


class TestSpoofing:
    def test_incoherent_outliers_detected(self):
        module = SpoofingModule(params={"minOutliers": 3})
        _, alerts = bind(module)
        samples = []
        # Non-monotone injected seqnos, all far from the legit stream.
        randoms = [83121, 40777, 67777, 21205, 90909]
        legit_seq = 0
        for index in range(20):
            if index % 4 == 3:
                samples.append((index * 1.0, -78.0, randoms[index // 4]))
            else:
                legit_seq += 1
                samples.append((index * 1.0, -55.0, legit_seq))
        feed_identity(module, samples)
        assert alerts
        assert alerts[0].attack == "spoofing"
        assert alerts[0].suspects == (IDENTITY,)

    def test_coherent_second_stream_left_to_replication(self):
        module = SpoofingModule(params={"minOutliers": 3})
        _, alerts = bind(module)
        feed_identity(module, interleaved_replica_samples())
        assert alerts == []

    def test_honest_identity_not_flagged(self):
        module = SpoofingModule()
        _, alerts = bind(module)
        samples = [(i * 1.0, -60.0, i + 1) for i in range(20)]
        feed_identity(module, samples)
        assert alerts == []

    def test_rssi_consistent_outlier_not_flagged(self):
        """A seqno glitch at the node's own RSSI is a bug, not spoofing."""
        module = SpoofingModule(params={"minOutliers": 2})
        _, alerts = bind(module)
        samples = [(i * 1.0, -60.0, i + 1) for i in range(8)]
        samples.append((8.0, -60.0, 99999))  # right RSSI, weird seqno
        samples += [(9.0 + i, -60.0, 9 + i) for i in range(4)]
        feed_identity(module, samples)
        assert alerts == []
