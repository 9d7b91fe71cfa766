"""Whole-deployment capture/restore and the canonical-output oracle."""

import json
import pickle
import struct

import pytest

from repro.attacks import JammingNode, WormholePair
from repro.ckpt import (
    MAGIC,
    Deployment,
    SnapshotCorrupt,
    SnapshotStore,
    canonical_outputs,
    capture,
    restore,
    restore_latest,
)
from repro.core.kalis import KalisNode
from repro.devices.wsn import build_wsn
from repro.experiments.soak_scenario import build_e1_deployment
from repro.faults import FaultPlan, ModuleCrash
from repro.obs import Telemetry
from repro.proto.mesh import ZigbeeMeshNode
from repro.sim.engine import Simulator
from repro.sim.topology import line_positions
from repro.util.ids import NodeId
from repro.util.rng import SeededRng


def _run_plain(seed=7, instances=6):
    deployment = build_e1_deployment(seed=seed, symptom_instances=instances)
    deployment.run_to(deployment.end_time)
    return canonical_outputs(deployment)


class TestCaptureRestore:
    def test_mid_run_round_trip_preserves_outputs(self):
        baseline = _run_plain()

        deployment = build_e1_deployment(seed=7, symptom_instances=6)
        deployment.run_to(deployment.end_time / 2)
        payload = capture(deployment)
        # Drop the live graph; only the bytes continue.
        restored = restore(payload)
        restored.run_to(restored.end_time)
        assert canonical_outputs(restored) == baseline

    def test_restore_at_every_interval_checkpoint(self):
        """Restoring from any checkpoint instant reproduces the run."""
        baseline = _run_plain()
        deployment = build_e1_deployment(seed=7, symptom_instances=6)
        payloads = []
        step = deployment.end_time / 4
        while not deployment.done:
            deployment.run_to(deployment.now + step)
            payloads.append(capture(deployment))
        assert len(payloads) >= 4
        for payload in payloads:
            restored = restore(payload)
            restored.run_to(restored.end_time)
            assert canonical_outputs(restored) == baseline

    def test_telemetry_rides_inside_the_snapshot(self):
        deployment = build_e1_deployment(
            seed=7, symptom_instances=6, telemetry=Telemetry()
        )
        deployment.run_to(deployment.end_time / 2)
        restored = restore(capture(deployment))
        assert restored.telemetry is not None
        restored.run_to(restored.end_time)
        assert any(
            line.startswith("telemetry ")
            for line in canonical_outputs(restored)
        )

    def test_capture_refuses_inside_event_loop(self):
        deployment = build_e1_deployment(seed=7, symptom_instances=4)
        seen = {}

        def probe():
            try:
                capture(deployment)
            except RuntimeError as error:
                seen["error"] = error

        deployment.sim.schedule_at(1.0, probe)
        deployment.run_to(2.0)
        assert "event loop" in str(seen["error"])

    def test_capture_refuses_open_telemetry_span(self):
        telemetry = Telemetry()
        deployment = build_e1_deployment(
            seed=7, symptom_instances=4, telemetry=telemetry
        )
        active = telemetry.span("dangling")  # pushed on the span stack
        with pytest.raises(RuntimeError, match="open telemetry spans"):
            capture(deployment)
        with active:
            pass  # close it so teardown state is clean

    def test_restore_rejects_non_pickle_payload(self):
        with pytest.raises(SnapshotCorrupt, match="does not unpickle"):
            restore(b"certainly not a pickle")

    def test_restore_rejects_wrong_object_type(self):
        payload = pickle.dumps({"not": "a deployment"})
        with pytest.raises(SnapshotCorrupt, match="expected Deployment"):
            restore(payload)


def _crashing_e1_deployment():
    """E1 with IcmpFloodModule crashing until t=14: quarantined ~13-43 s."""
    deployment = build_e1_deployment(seed=7, symptom_instances=12)
    plan = FaultPlan(
        seed=7,
        events=[ModuleCrash(NodeId("kalis-1"), "IcmpFloodModule", start=0.0, end=14.0)],
    )
    plan.apply(deployment.sim, deployment.kalis_nodes)
    return deployment


def _node_tables(deployment):
    node = deployment.kalis_nodes[0]
    return (
        canonical_outputs(deployment),
        node.manager.activation_table(),
        node.manager.health_table(),
    )


class TestRestoreSeams:
    def test_restore_while_module_quarantined(self):
        """A knowledge-driven node killed while a crash plan holds a module
        quarantined resumes with the supervisor's records in its routes:
        the module stays skipped until its probe, then alerts as in the
        uninterrupted run."""
        uninterrupted = _crashing_e1_deployment()
        uninterrupted.run_to(uninterrupted.end_time)
        expected = _node_tables(uninterrupted)

        deployment = _crashing_e1_deployment()
        deployment.run_to(25.0)
        manager = deployment.kalis_nodes[0].manager
        assert manager.module("IcmpFloodModule").active
        assert manager.health_table()["IcmpFloodModule"] == "quarantined"
        restored = restore(capture(deployment))
        restored.run_to(restored.end_time)
        assert _node_tables(restored) == expected
        assert expected[2]["IcmpFloodModule"] == "healthy"
        assert any("icmp_flood by=IcmpFloodModule" in line for line in expected[0])

    def test_snapshot_without_requirement_index_still_activates(self):
        """A node pickled without the manager's requirement index
        rebuilds it on restore; without that, every requirement change
        would dead-letter in the manager's handler and activation would
        silently freeze."""
        node = KalisNode(NodeId("kalis-1"))
        del node.manager._index_cache  # the older snapshot layout
        deployment = Deployment(sim=Simulator(seed=7), kalis_nodes=[node], end_time=1.0)
        restored = restore(capture(deployment)).kalis_nodes[0]
        restored.kb.put("Multihop.wifi", False)
        assert restored.manager.module("IcmpFloodModule").active
        assert restored.deadletters == []

    def test_v3_snapshot_is_skipped_as_version_skewed(self, tmp_path):
        """Schema 3 pickled ``Knowgget`` and ``Event`` as dataclasses, whose
        state the tuple forms cannot load.  A v3 file is refused before
        its payload is read, and the walk resumes from the older current
        one."""
        _assert_latest_skipped_as(tmp_path, 3)

    def test_v4_snapshot_is_skipped_as_version_skewed(self, tmp_path):
        """Schema 4 pickled each ``NodeId`` by its instance state, which
        the interning constructor cannot load (``NodeId.__new__()`` needs
        the value).  A v4 file is refused the same way."""
        _assert_latest_skipped_as(tmp_path, 4)

    def test_snapshot_with_delivery_switches_restores_same_outputs(self):
        """A simulator pickled when it still had the brute-force and
        scalar delivery switches carries three extra attributes.  Nothing
        reads them, so such a snapshot restores under the same schema
        version and finishes the run exactly like an uninterrupted one."""
        baseline = _run_plain()
        deployment = build_e1_deployment(seed=7, symptom_instances=6)
        deployment.run_to(deployment.end_time / 2)
        deployment.sim.use_spatial_index = True
        deployment.sim.use_batched_delivery = True
        deployment.sim._member_order_cache = {}
        restored = restore(capture(deployment))
        assert restored.sim.use_batched_delivery is True  # the old layout
        restored.run_to(restored.end_time)
        assert canonical_outputs(restored) == baseline


def _assert_latest_skipped_as(tmp_path, version):
    """Re-stamp the later of two E1 snapshots as ``version``; restore must
    skip it as version-skewed and resume from the earlier one."""
    store = SnapshotStore(tmp_path)
    deployment = build_e1_deployment(seed=7, symptom_instances=4)
    deployment.run_to(8.0)
    store.save(capture(deployment), deployment.meta())
    deployment.run_to(16.0)
    skewed = store.save(capture(deployment), deployment.meta())
    _rewrite_version(skewed, version)

    restored = restore_latest(store)
    assert restored.now == pytest.approx(8.0)
    assert [path for path, _reason in store.skipped] == [skewed]
    assert f"schema version {version}" in store.skipped[0][1]


def _rewrite_version(path, version):
    """Re-stamp a snapshot file's header with another schema version."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack(">I", raw[len(MAGIC):start])
    header = json.loads(raw[start:start + length])
    header["version"] = version
    encoded = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
    path.write_bytes(
        MAGIC + struct.pack(">I", len(encoded)) + encoded + raw[start + length:]
    )


def _jamming_deployment():
    """A CTP line watched by Kalis, with a jammer bursting 10-18 s and 30-38 s."""
    sim = Simulator(seed=29)
    base, _motes = build_wsn(sim, line_positions(4, 20.0))
    jammer = sim.add_node(
        JammingNode(NodeId("jammer"), (30.0, 5.0), loss_probability=0.92,
                    burst_duration=8.0, burst_interval=20.0, start_delay=10.0,
                    max_bursts=2, rng=SeededRng(29, "jammer"))
    )
    kalis = KalisNode(NodeId("kalis-1"))
    kalis.deploy(sim, position=(30.0, 8.0))
    return Deployment(sim=sim, kalis_nodes=[kalis], end_time=50.0,
                      extras={"attacker": jammer, "sink": base})


def _wormhole_deployment():
    """One packet on its way into a wormhole's out-of-band tunnel."""
    sim = Simulator(seed=43)
    source = ZigbeeMeshNode(NodeId("src"), (0.0, 0.0))
    pair = WormholePair(NodeId("B1"), (25.0, 0.0), NodeId("B2"), (300.0, 0.0))
    destination = ZigbeeMeshNode(NodeId("dst"), (325.0, 0.0))
    source.set_routes({destination.node_id: pair.entry.node_id})
    pair.exit.set_routes({destination.node_id: destination.node_id})
    sim.add_node(source)
    pair.add_to(sim)
    sim.add_node(destination)
    deployment = Deployment(sim=sim, end_time=2.0,
                            extras={"attacker": pair.entry, "sink": destination})
    deployment.run_to(0.01)
    source.send_app(destination.node_id)
    return deployment


def _observed(deployment, received):
    """Canonical outputs, ground truth, and what reached the sink."""
    extras = deployment.extras
    return (
        canonical_outputs(deployment),
        extras["attacker"].log.instances,
        getattr(extras["sink"], received),
    )


class TestAttackerCallbacks:
    """Attackers queue bound methods, never closures, so a checkpoint
    can land while a jamming burst or a wormhole tunnel is in flight."""

    def test_capture_mid_jamming_burst_restores_same_run(self):
        baseline = _jamming_deployment()
        baseline.run_to(baseline.end_time)

        deployment = _jamming_deployment()
        deployment.run_to(14.0)
        assert deployment.extras["attacker"].jamming_now
        restored = restore(capture(deployment))
        restored.run_to(restored.end_time)
        assert len(restored.extras["attacker"].log) == 2
        assert _observed(restored, "collected") == _observed(baseline, "collected")

    def test_capture_mid_tunnel_restores_same_run(self):
        baseline = _wormhole_deployment()
        baseline.run_to(baseline.end_time)

        deployment = _wormhole_deployment()
        entry = deployment.extras["attacker"]
        while not entry.log:
            deployment.run_to(deployment.now + 0.0005)
        # Swallowed by the entry, not yet re-emitted by the exit.
        assert entry.exit_node.emitted_count == 0
        restored = restore(capture(deployment))
        restored.run_to(restored.end_time)
        assert len(restored.extras["sink"].delivered) == 1
        assert _observed(restored, "delivered") == _observed(baseline, "delivered")


class TestDeployment:
    def test_done_tracks_clock(self):
        deployment = build_e1_deployment(seed=7, symptom_instances=4)
        assert not deployment.done
        deployment.run_to(deployment.end_time)
        assert deployment.done
        assert deployment.now == pytest.approx(deployment.end_time)

    def test_run_to_is_capped_at_end_time(self):
        deployment = build_e1_deployment(seed=7, symptom_instances=4)
        deployment.run_to(deployment.end_time * 100)
        assert deployment.now == pytest.approx(deployment.end_time)

    def test_meta_is_json_safe(self):
        import json

        deployment = build_e1_deployment(seed=7, symptom_instances=4)
        meta = deployment.meta()
        assert json.loads(json.dumps(meta)) == meta
        assert meta["nodes"] == ["kalis-1"]


class TestRestoredGraphCensus:
    """The static state inventory covers the *restored* object graph.

    A restore that materialized attributes the state graph does not
    know about would mean the checkpoint carries (or rebuilds) state
    outside the audited surface.
    """

    def test_census_covers_restored_e1_graph(self):
        from pathlib import Path

        from repro.analysis.census import run_census
        from repro.analysis.project import Project
        from repro.analysis.stategraph import derive_stategraph

        root = Path(__file__).resolve().parents[1]
        project = Project.load([root / "src" / "repro"], root=root)
        state = derive_stategraph(project)
        index = state.inventory_index()
        injected = state.injected_attribute_names()

        deployment = build_e1_deployment(seed=7, symptom_instances=4)
        deployment.run_to(deployment.end_time / 2)
        restored = restore(capture(deployment))
        restored.run_to(restored.end_time)

        report = run_census(
            [restored.sim] + list(restored.kalis_nodes), index, injected
        )
        assert report.objects > 100
        assert report.missing_classes == []
        assert report.missing == []
