"""Checkpointing service, daemon resume, and restore-time listeners."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.ckpt import (
    COMPLETED,
    KILLED,
    STOPPED,
    CheckpointService,
    SnapshotStore,
    build_trace_deployment,
    canonical_outputs,
    restore,
    serve,
)
from repro.core.manager import TOPIC_MODULE_QUARANTINE, ModuleHealth
from repro.experiments import icmp_flood_scenario
from repro.experiments.soak_scenario import build_e1_deployment
from repro.faults import FaultPlan, ProcessKill
from repro.obs import Telemetry

ROOT = Path(__file__).resolve().parents[1]


def _builder(seed=7, instances=6, telemetry=None):
    return lambda: build_e1_deployment(
        seed=seed, symptom_instances=instances, telemetry=telemetry
    )


class TestCheckpointService:
    def test_uninterrupted_run_completes_and_checkpoints(self, tmp_path):
        store = SnapshotStore(tmp_path)
        service = CheckpointService(
            store, _builder()(), checkpoint_interval=10.0
        )
        assert service.run() == COMPLETED
        assert service.checkpoints_written >= 2
        assert store.latest() is not None

    def test_chunked_run_equals_single_run(self, tmp_path):
        """Checkpoint boundaries are invisible to the simulation."""
        single = _builder()()
        single.run_to(single.end_time)

        chunked = _builder()()
        service = CheckpointService(
            SnapshotStore(tmp_path), chunked, checkpoint_interval=7.0
        )
        assert service.run() == COMPLETED
        assert canonical_outputs(chunked) == canonical_outputs(single)

    def test_kill_then_restore_continues_equivalently(self, tmp_path):
        baseline = _builder()()
        baseline.run_to(baseline.end_time)

        deployment = _builder()()
        kill_at = deployment.end_time / 2
        FaultPlan(seed=0, events=(ProcessKill(at=kill_at),)).apply(
            deployment.sim
        )
        store = SnapshotStore(tmp_path)
        service = CheckpointService(store, deployment, checkpoint_interval=5.0)
        assert service.run() == KILLED
        assert service.last_kill_at == pytest.approx(kill_at)

        restored = restore(store.latest()[1])
        resumed = CheckpointService(store, restored, checkpoint_interval=5.0)
        assert resumed.run() == COMPLETED
        assert canonical_outputs(restored) == canonical_outputs(baseline)

    def test_cooperative_stop_checkpoints_and_exits(self, tmp_path):
        store = SnapshotStore(tmp_path)
        service = CheckpointService(
            store, _builder()(), checkpoint_interval=5.0
        )
        service.request_stop()
        assert service.run() == STOPPED
        assert service.checkpoints_written == 1
        restored = restore(store.latest()[1])
        assert not restored.done

    def test_resume_or_build_builds_when_store_empty(self, tmp_path):
        service = CheckpointService.resume_or_build(
            SnapshotStore(tmp_path), _builder()
        )
        assert service.deployment.now == 0.0

    def test_resume_or_build_restores_latest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = CheckpointService(store, _builder()(), checkpoint_interval=5.0)
        first.deployment.run_to(12.0)
        first.checkpoint()

        def exploding_builder():
            raise AssertionError("must restore, not rebuild")

        resumed = CheckpointService.resume_or_build(store, exploding_builder)
        assert resumed.deployment.now == pytest.approx(12.0)

    def test_resume_or_build_skips_corrupt_latest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        service = CheckpointService(store, _builder()(), checkpoint_interval=5.0)
        service.deployment.run_to(8.0)
        good = service.checkpoint()
        service.deployment.run_to(16.0)
        bad = service.checkpoint()
        data = bytearray(bad.read_bytes())
        data[-3] ^= 0xFF
        bad.write_bytes(bytes(data))

        resumed = CheckpointService.resume_or_build(
            store, lambda: pytest.fail("previous snapshot was usable")
        )
        assert resumed.deployment.now == pytest.approx(8.0)
        assert good.exists()

    def test_resume_or_build_skips_snapshot_that_will_not_restore(self, tmp_path):
        """A newer snapshot whose digest verifies but whose payload does
        not unpickle costs one interval: the older one is restored."""
        store = SnapshotStore(tmp_path)
        service = CheckpointService(store, _builder()(), checkpoint_interval=5.0)
        service.deployment.run_to(8.0)
        service.checkpoint()
        bad = store.save(b"not a pickle", service.deployment.meta())

        resumed = CheckpointService.resume_or_build(
            store, lambda: pytest.fail("the older snapshot restores")
        )
        assert resumed.resumed
        assert resumed.deployment.now == pytest.approx(8.0)
        assert [path for path, _reason in store.skipped] == [bad]
        assert "does not unpickle" in store.skipped[0][1]

    def test_resume_or_build_builds_when_no_snapshot_restores(self, tmp_path):
        store = SnapshotStore(tmp_path)
        first = store.save(b"not a pickle")
        second = store.save(b"still not a pickle")

        service = CheckpointService.resume_or_build(store, _builder())
        assert not service.resumed
        assert service.deployment.now == 0.0
        assert [path for path, _reason in store.skipped] == [second, first]

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointService(
                SnapshotStore(tmp_path), _builder()(), checkpoint_interval=0
            )


class TestRestoredListeners:
    """Event-bus and telemetry wiring must survive a restore."""

    def _restored(self, telemetry=True):
        deployment = build_e1_deployment(
            seed=7, symptom_instances=6,
            telemetry=Telemetry() if telemetry else None,
        )
        deployment.run_to(deployment.end_time / 2)
        from repro.ckpt import capture

        return restore(capture(deployment))

    def test_quarantine_after_restore_fires_flight_dump(self):
        restored = self._restored()
        node = restored.kalis_nodes[0]
        dumps_before = len(restored.telemetry.recorder.dumps)
        node.bus.publish(
            TOPIC_MODULE_QUARANTINE,
            ModuleHealth(module="TrafficStatsModule", quarantine_count=1),
        )
        dumps = restored.telemetry.recorder.dumps
        assert len(dumps) == dumps_before + 1
        assert dumps[-1]["reason"] == "module.quarantine"
        assert dumps[-1]["attrs"]["module"] == "TrafficStatsModule"

    def test_deadletter_listener_survives_restore(self):
        restored = self._restored()
        node = restored.kalis_nodes[0]
        before = len(node.deadletters)

        def explode(event):
            raise RuntimeError("restored handler failure")

        node.bus.subscribe("ckpt.test.topic", explode)
        node.bus.publish("ckpt.test.topic", None)
        assert len(node.deadletters) == before + 1
        assert node.deadletters[-1].handler.endswith("explode")

    def test_attach_telemetry_after_uninstrumented_restore(self):
        """A node snapshotted without telemetry can gain it on restore."""
        restored = self._restored(telemetry=False)
        node = restored.kalis_nodes[0]
        assert node.telemetry is None
        telemetry = Telemetry()
        node.attach_telemetry(telemetry)
        node.bus.publish(
            TOPIC_MODULE_QUARANTINE,
            ModuleHealth(module="TrafficStatsModule", quarantine_count=2),
        )
        assert telemetry.recorder.dumps
        assert telemetry.recorder.dumps[-1]["reason"] == "module.quarantine"

    def test_attach_telemetry_is_idempotent(self):
        restored = self._restored()
        node = restored.kalis_nodes[0]
        subscribers = node.bus.subscriber_count(TOPIC_MODULE_QUARANTINE)
        node.attach_telemetry(restored.telemetry)
        assert node.bus.subscriber_count(TOPIC_MODULE_QUARANTINE) == subscribers


class TestServe:
    def test_serve_completes_and_writes_canonical_log(self, tmp_path):
        report = serve(tmp_path, _builder(), checkpoint_interval=10.0)
        assert report.outcome == COMPLETED
        assert not report.resumed
        assert report.canonical_path is not None
        assert Path(report.canonical_path).read_text().startswith("t=")

    def test_serve_reports_fresh_when_no_snapshot_restores(self, tmp_path):
        SnapshotStore(tmp_path).save(b"not a pickle")
        report = serve(tmp_path, _builder(), checkpoint_interval=10.0)
        assert report.outcome == COMPLETED
        assert not report.resumed

    def test_serve_kill_then_resume_matches_uninterrupted(self, tmp_path):
        plain = serve(tmp_path / "plain", _builder(), checkpoint_interval=8.0)

        kill = serve(
            tmp_path / "drill", _builder(),
            checkpoint_interval=8.0, kill_at=30.0,
        )
        assert kill.outcome == KILLED
        resumed = serve(
            tmp_path / "drill", _builder(),
            checkpoint_interval=8.0, kill_at=30.0,  # past resume point: ignored
        )
        assert resumed.outcome == COMPLETED
        assert resumed.resumed
        assert (
            Path(resumed.canonical_path).read_bytes()
            == Path(plain.canonical_path).read_bytes()
        )

    def test_serve_trace_kill_then_resume_matches_uninterrupted(self, tmp_path):
        """``kalis-repro serve --trace``: the checkpoint pickles the
        streamer's whole loaded trace, so the restored run must see the
        same captures, shared ``NodeId`` objects and all."""
        trace_path = tmp_path / "e1.jsonl"
        icmp_flood_scenario.build(seed=7, symptom_instances=6).trace.save(trace_path)

        def builder():
            return build_trace_deployment(trace_path)

        plain = serve(tmp_path / "plain", builder, checkpoint_interval=8.0)
        kill = serve(tmp_path / "drill", builder, checkpoint_interval=8.0, kill_at=30.0)
        assert kill.outcome == KILLED
        resumed = serve(tmp_path / "drill", builder, checkpoint_interval=8.0, kill_at=30.0)
        assert resumed.outcome == COMPLETED
        assert resumed.resumed
        baseline = Path(plain.canonical_path).read_bytes()
        assert b"icmp_flood" in baseline
        assert Path(resumed.canonical_path).read_bytes() == baseline


class TestDaemonProcess:
    """End-to-end: the real CLI process killed and re-exec'd."""

    def _serve(self, store, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--workload", "e1", "--seed", "7", "--instances", "6",
             "--checkpoint-interval", "8", *extra],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_kill_resume_across_processes(self, tmp_path):
        plain = self._serve(tmp_path / "plain")
        assert plain.returncode == 0, plain.stderr

        drill = self._serve(tmp_path / "drill", "--kill-at", "25.0")
        assert drill.returncode == 3, drill.stderr  # crashed by the drill
        resumed = self._serve(tmp_path / "drill")
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stdout

        baseline = (tmp_path / "plain" / "canonical.log").read_bytes()
        recovered = (tmp_path / "drill" / "canonical.log").read_bytes()
        assert recovered == baseline

    def test_sigterm_checkpoints_and_resumes(self, tmp_path):
        """SIGTERM mid-run stops cleanly; a restart finishes the job."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        store = tmp_path / "sig"
        # A large workload so the process is still running when signalled.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--workload", "e1", "--seed", "7", "--instances", "4000",
             "--checkpoint-interval", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not list(store.glob("*.ksnap")):
                time.sleep(0.1)
            assert list(store.glob("*.ksnap")), "no checkpoint before signal"
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, stderr
        assert "stopped" in stdout

        # The final checkpoint is restorable and mid-run (cross-process
        # resume-to-completion is covered above with a small workload).
        store_obj = SnapshotStore(store)
        header, payload = store_obj.latest()
        restored = restore(payload)
        assert 0.0 < restored.now < restored.end_time
        assert restored.now == pytest.approx(header["sim_time"])

    def test_sigkill_resumes_from_last_interval_checkpoint(self, tmp_path):
        """An abrupt SIGKILL loses at most one checkpoint interval; a
        restart resumes from the last snapshot and finishes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        store = tmp_path / "kill9"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(store),
             "--workload", "e1", "--seed", "7", "--instances", "400",
             "--checkpoint-interval", "5"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline and not list(store.glob("*.ksnap")):
                time.sleep(0.1)
            assert list(store.glob("*.ksnap")), "no checkpoint before kill"
            process.kill()  # SIGKILL: no chance to checkpoint
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode != 0

        resumed = self._serve(store)
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stdout
        assert (store / "canonical.log").exists()
