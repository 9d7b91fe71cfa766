"""Service mode: the ``kalis-repro serve`` run loop.

Wraps :class:`~repro.ckpt.service.CheckpointService` in the
process-level plumbing a long-running Kalis node needs:

- **resume-or-build**: a fresh process pointed at a populated snapshot
  store picks up exactly where the previous one stopped (snapshots that
  fail to read or to restore are skipped fail-soft);
- **workloads**: the live E15 builders (``e1``, ``chaos``) or a stored
  traffic trace ingested incrementally through
  :class:`~repro.trace.TraceStreamer` — O(chunk) queue depth, safe to
  checkpoint mid-stream;
- **signals**: SIGTERM/SIGINT request a cooperative stop; the service
  checkpoints at the next interval boundary and exits cleanly;
- **drills**: ``kill_at`` schedules a :class:`~repro.faults.ProcessKill`
  so operators (and the cross-process tests) can crash the daemon at a
  deterministic instant and verify the restore;
- **evidence**: on completion the canonical alert/knowgget/telemetry
  outputs are written next to the snapshots, so two store directories —
  one served uninterrupted, one killed and resumed — can be diffed
  byte for byte.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from repro.ckpt.format import SnapshotStore
from repro.ckpt.service import COMPLETED, CheckpointService
from repro.ckpt.snapshot import Deployment, canonical_outputs
from repro.faults import FaultPlan, ProcessKill

#: File name (inside the store directory) of the completion evidence.
CANONICAL_LOG = "canonical.log"


def build_trace_deployment(
    trace_path,
    telemetry=None,
    chunk_size: int = 256,
    tail: float = 5.0,
) -> Deployment:
    """A deployment that streams a stored trace into one Kalis node.

    The trace is loaded from disk and fed to the node's Communication
    System through a :class:`~repro.trace.TraceStreamer`, so the event
    queue holds at most one chunk of pending captures at a time.
    ``tail`` extends the run past the last capture so window-based
    detectors can finish evaluating.
    """
    from repro.core.kalis import KalisNode
    from repro.sim.engine import Simulator
    from repro.trace import Trace, TraceStreamer
    from repro.util.ids import NodeId

    trace = Trace.load(trace_path)
    sim = Simulator(seed=0, telemetry=telemetry)
    kalis = KalisNode(NodeId("kalis-serve"), telemetry=telemetry)
    streamer = TraceStreamer(trace, kalis.comm.on_capture, chunk_size=chunk_size)
    streamer.start(sim, time_offset=0.0)
    return Deployment(
        sim=sim,
        kalis_nodes=[kalis],
        telemetry=telemetry,
        end_time=streamer.end_time() + tail,
        label=f"serve-trace:{Path(trace_path).name}",
        extras={"streamer": streamer},
    )


@dataclass
class ServeReport:
    """What one ``serve`` invocation did, for logs and tests."""

    outcome: str
    checkpoints_written: int
    resumed: bool
    now: float
    end_time: float
    snapshots: List[str]
    canonical_path: Optional[str] = None

    def summary(self) -> str:
        resumed = "resumed" if self.resumed else "fresh"
        lines = [
            f"serve: {self.outcome} ({resumed}) at t={self.now:.3f}/"
            f"{self.end_time:.3f}s, {self.checkpoints_written} checkpoints "
            f"written, {len(self.snapshots)} snapshots retained"
        ]
        if self.canonical_path is not None:
            lines.append(f"canonical outputs: {self.canonical_path}")
        return "\n".join(lines)


def serve(
    store_dir,
    builder: Callable[[], Deployment],
    checkpoint_interval: float = 10.0,
    kill_at: Optional[float] = None,
    snapshot_on_kill: bool = True,
    handle_signals: bool = False,
    keep: int = 5,
) -> ServeReport:
    """Run (or resume) a deployment as a checkpointing service.

    :param builder: zero-arg deployment factory, used only when the
        store holds no usable snapshot.
    :param kill_at: simulated time at which to raise
        :class:`~repro.faults.ProcessKilled` (crash drill); ignored when
        resuming past that instant, so a restarted daemon does not
        re-crash.
    :param handle_signals: install SIGTERM/SIGINT handlers that request
        a cooperative stop (only from the main thread of a process).
    """
    store = SnapshotStore(Path(store_dir), keep=keep)
    service = CheckpointService.resume_or_build(
        store,
        builder,
        checkpoint_interval=checkpoint_interval,
        snapshot_on_kill=snapshot_on_kill,
    )
    deployment = service.deployment
    if kill_at is not None and deployment.now < kill_at:
        FaultPlan(seed=0, events=(ProcessKill(at=kill_at),)).apply(deployment.sim)

    previous_handlers = {}
    if handle_signals:
        def _on_signal(signum, frame):
            service.request_stop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _on_signal)
    try:
        outcome = service.run()
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)

    canonical_path = None
    if outcome == COMPLETED:
        canonical_path = Path(store_dir) / CANONICAL_LOG
        canonical_path.write_text(
            "\n".join(canonical_outputs(deployment)) + "\n", encoding="utf-8"
        )
        canonical_path = str(canonical_path)
    return ServeReport(
        outcome=outcome,
        checkpoints_written=service.checkpoints_written,
        resumed=service.resumed,
        now=deployment.now,
        end_time=deployment.end_time,
        snapshots=[path.name for path in store.paths()],
        canonical_path=canonical_path,
    )
