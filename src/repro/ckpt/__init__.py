"""``repro.ckpt`` — checkpoint/restore for resumable Kalis deployments.

Turns the one-shot experiment runner into an operable service
(DESIGN.md §9): a whole deployment — simulator clock and event
queue, Kalis nodes (knowledge base, data-store ring, module
activation/health tables, supervisor breaker state), peer-link retry
budgets/outage windows, RNG substreams, telemetry — snapshots to an
atomic, checksummed, schema-versioned file
(:mod:`~repro.ckpt.format`), restores with derived caches re-derived
(:mod:`~repro.ckpt.snapshot`), and runs under a checkpointing loop
that survives kills (:mod:`~repro.ckpt.service`).  The E15 soak
harness (:mod:`~repro.ckpt.soak`) enforces the restore invariant:
kill/restore cycles leave the canonical alert/knowgget/telemetry
outputs byte-identical to an uninterrupted same-seed run.
"""

from repro.ckpt.format import (
    MAGIC,
    SCHEMA_VERSION,
    SnapshotCorrupt,
    SnapshotError,
    SnapshotStore,
    SnapshotTruncated,
    SnapshotVersionSkew,
    read_header,
    read_snapshot,
    write_snapshot,
)
from repro.ckpt.daemon import (
    CANONICAL_LOG,
    ServeReport,
    build_trace_deployment,
    serve,
)
from repro.ckpt.service import COMPLETED, KILLED, STOPPED, CheckpointService
from repro.ckpt.snapshot import (
    Deployment,
    alert_lines,
    canonical_outputs,
    capture,
    restore,
    restore_latest,
)
from repro.ckpt.soak import SoakReport, run_with_kills, soak

__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "CANONICAL_LOG",
    "COMPLETED",
    "KILLED",
    "STOPPED",
    "CheckpointService",
    "Deployment",
    "ServeReport",
    "SnapshotCorrupt",
    "SnapshotError",
    "SnapshotStore",
    "SnapshotTruncated",
    "SnapshotVersionSkew",
    "SoakReport",
    "alert_lines",
    "build_trace_deployment",
    "canonical_outputs",
    "capture",
    "serve",
    "read_header",
    "read_snapshot",
    "restore",
    "restore_latest",
    "run_with_kills",
    "soak",
    "write_snapshot",
]
