"""The kill/restore soak harness: the E15 equivalence engine.

Runs one deployment twice from the same builder:

1. **baseline** — a single uninterrupted ``run_until`` to the end;
2. **interrupted** — the same build with :class:`~repro.faults.
   ProcessKill` events layered on, driven by a
   :class:`~repro.ckpt.service.CheckpointService`; at every kill the
   live object graph is *discarded* and the run continues from the
   snapshot store, exactly as a restarted daemon would.

The two runs' :func:`~repro.ckpt.snapshot.canonical_outputs` must be
byte-identical — alerts, knowggets, module health, delivery stats and
wall-stripped telemetry all included.  Any divergence is reported with
the first differing line, so a violation names the surface that broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.ckpt.format import SnapshotStore
from repro.ckpt.service import COMPLETED, KILLED, CheckpointService
from repro.ckpt.snapshot import Deployment, canonical_outputs, restore_latest
from repro.faults import FaultPlan, ProcessKill


@dataclass
class SoakReport:
    """Everything one soak run measured and asserted."""

    label: str
    kill_times: List[float]
    cycles: int = 0
    checkpoints: int = 0
    packets: int = 0
    captures: int = 0
    equivalent: bool = False
    first_divergence: Optional[str] = None
    baseline_lines: List[str] = field(default_factory=list)
    restored_lines: List[str] = field(default_factory=list)
    snapshot_bytes: int = 0

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else (
            f"DIVERGED at: {self.first_divergence}"
        )
        return (
            f"{self.label}: {self.cycles} kill/restore cycles, "
            f"{self.checkpoints} checkpoints, {self.packets} packets "
            f"delivered ({self.captures} captured) -> {verdict}"
        )


def run_with_kills(
    deployment: Deployment,
    store: SnapshotStore,
    kill_times: List[float],
    checkpoint_interval: float = 10.0,
    max_cycles: int = 1000,
    snapshot_on_kill: bool = True,
) -> tuple:
    """Drive a deployment through scheduled kills and store restores.

    Returns ``(final_deployment, cycles, checkpoints)``.  After each
    kill the in-memory deployment is dropped and the run continues from
    the newest snapshot that restores — the same code path a freshly
    exec'd daemon takes — so the continuation can only depend on what
    the snapshot actually carried.
    """
    if kill_times:
        plan = FaultPlan(
            seed=0, events=tuple(ProcessKill(at=at) for at in sorted(kill_times))
        )
        plan.apply(deployment.sim)
    service = CheckpointService(
        store,
        deployment,
        checkpoint_interval=checkpoint_interval,
        snapshot_on_kill=snapshot_on_kill,
    )
    cycles = 0
    checkpoints = 0
    while True:
        status = service.run()
        checkpoints += service.checkpoints_written
        if status == COMPLETED:
            return service.deployment, cycles, checkpoints
        if status != KILLED:
            raise RuntimeError(f"unexpected service status {status!r}")
        cycles += 1
        if cycles > max_cycles:
            raise RuntimeError(f"soak exceeded {max_cycles} kill cycles")
        # Process death: the live graph is gone; only the store remains.
        restored = restore_latest(store)
        if restored is None:
            raise RuntimeError("kill fired before any snapshot restores")
        service = CheckpointService(
            store,
            restored,
            checkpoint_interval=checkpoint_interval,
            snapshot_on_kill=snapshot_on_kill,
        )


def soak(
    builder: Callable[[], Deployment],
    store_dir,
    kill_times: List[float],
    checkpoint_interval: float = 10.0,
    label: str = "soak",
) -> SoakReport:
    """Run baseline vs kill/restore and compare canonical outputs.

    :param builder: zero-arg callable producing a *fresh* same-seed
        deployment per call (builds must not share mutable state).
    :param store_dir: directory for the interrupted run's snapshots.
    """
    baseline = builder()
    baseline.run_to(baseline.end_time)
    baseline_lines = canonical_outputs(baseline)

    store = SnapshotStore(store_dir)
    final, cycles, checkpoints = run_with_kills(
        builder(),
        store,
        kill_times,
        checkpoint_interval=checkpoint_interval,
    )
    restored_lines = canonical_outputs(final)

    report = SoakReport(
        label=label,
        kill_times=sorted(kill_times),
        cycles=cycles,
        checkpoints=checkpoints,
        packets=final.sim.deliveries,
        captures=sum(node.comm.total_captures for node in final.kalis_nodes),
        equivalent=restored_lines == baseline_lines,
        baseline_lines=baseline_lines,
        restored_lines=restored_lines,
    )
    latest = store.latest()
    if latest is not None:
        report.snapshot_bytes = latest[0].get("payload_len", 0)
    if not report.equivalent:
        report.first_divergence = _first_divergence(
            baseline_lines, restored_lines
        )
    return report


def _first_divergence(baseline: List[str], restored: List[str]) -> str:
    for index, (expected, got) in enumerate(zip(baseline, restored)):
        if expected != got:
            return f"line {index}: baseline={expected!r} restored={got!r}"
    return (
        f"length mismatch: baseline={len(baseline)} restored={len(restored)}"
    )
