"""The output check, and BENCHMARK.json against what the runs report."""

import json
import shutil
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.layers import PER_LAYER
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, TimedIntake, isolated_failures
from repro.core.kalis import KalisNode
from repro.net.packets.base import Medium
from repro.net.packets.icmp import IcmpMessage, IcmpType
from repro.net.packets.ip import IpPacket
from repro.net.packets.wifi import WifiFrame
from repro.sim.capture import Capture
from repro.util.ids import NodeId

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """Generated inputs under tmp_path; references copied there."""
    references = tmp_path / "reference"
    shutil.copytree(harness.REFERENCE_DIR, references)
    monkeypatch.setattr(harness, "WORKDIR", tmp_path / "work")
    monkeypatch.setattr(harness, "REFERENCE_DIR", references)
    return references


def test_benchmark_json_matches_the_reported_metrics(isolated):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)

    result = harness.timed_run(WORKLOADS["replay-allon"](), DEFAULT_SEED, 0.0)
    assert result["correct"], result["details"]["problems"]
    assert result["metrics"]["success_rate"][0] == 1.0
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert result["details"]["passes"] == harness.MIN_PASSES


def test_perturbed_reference_drives_success_rate_to_zero(isolated):
    path = isolated / "replay-allon.json"
    reference = json.loads(path.read_text())
    reference["digest"] = "0" * 64
    reference["summary"]["alerts"]["smurf"] += 1
    path.write_text(json.dumps(reference))

    result = harness.timed_run(WORKLOADS["replay-allon"](), DEFAULT_SEED, 0.0)
    assert not result["correct"]
    assert result["metrics"]["success_rate"][0] == 0.0
    problems = result["details"]["problems"]
    assert any("digest differs" in problem for problem in problems)
    assert any(problem.startswith("alerts:") for problem in problems)


def test_a_failing_capture_counts_once():
    """Two raising consumers give each failing capture two intake errors
    and two dead-letters; the capture still counts as one failure."""
    node = KalisNode(NodeId("kalis-1"))
    failing = {1.0, 4.0}

    def picky(capture):
        if capture.timestamp in failing:
            raise RuntimeError("rejected")

    node.comm.add_listener(picky)
    node.comm.add_listener(picky)
    intake = TimedIntake(node, [])
    packet = WifiFrame(
        src=NodeId("node-a"),
        dst=NodeId("node-b"),
        payload=IpPacket(src_ip="10.23.1.1", dst_ip="10.23.1.2",
                         payload=IcmpMessage(icmp_type=IcmpType.ECHO_REPLY,
                                             identifier=1, sequence=0)),
    )
    for second in range(6):
        intake(Capture(packet=packet, timestamp=float(second), medium=Medium.WIFI, rssi=-55.0))

    assert isolated_failures(node) == 4 * len(failing)
    assert intake.failed == len(failing)
    assert len(intake.samples) == 6
