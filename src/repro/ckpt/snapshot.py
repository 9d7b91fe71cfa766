"""Capturing and restoring a whole Kalis deployment.

A :class:`Deployment` bundles the object graph of one run — simulator
(clock, event queue, mediums, RNG substreams), every
:class:`~repro.core.kalis.KalisNode` (knowledge base, data-store ring,
module activation/health tables, supervisor breaker state), the
collective-knowledge network (peer-link retry budgets and outage
windows) and the shared telemetry sink — plus the run's end time and
any scenario-specific extras.  Because PR 6's reification pass made
every scheduled queue entry a plain record, the whole graph pickles:
:func:`capture` serializes it, :func:`restore` deserializes and then
re-derives every cache flagged by kalis-lint's KL204 through the
``rebuild_derived_state`` seams.

**What is captured**: everything reachable from the deployment —
including in-flight frame deliveries, pending retries, periodic-task
cadences and fault-plan actions sitting on the event queue, and the
RNG substream registry (hashed draws are positionless, so substreams
serialize as just their key material).

**What is not**: derived caches (spatial grids, bound telemetry
counters, the data-store timestamp ring) are dropped and rebuilt on
restore; OS-level resources (open files, sockets, signal handlers)
are never part of the graph by construction.

The restore invariant (the E15 oracle): *run → kill → restore →
continue* produces byte-identical :func:`canonical_outputs` to the
same-seed uninterrupted run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.ckpt.format import SnapshotCorrupt, SnapshotError, SnapshotStore

#: Pickle protocol pinned for cross-version snapshot stability.
PICKLE_PROTOCOL = 4


@dataclass
class Deployment:
    """One resumable Kalis deployment: the checkpoint unit.

    :param sim: the live simulator (owns clock, queue, mediums).
    :param kalis_nodes: every deployed Kalis node, in a stable order.
    :param network: the collective-knowledge network, if any.
    :param telemetry: the shared telemetry sink, if instrumented.
    :param end_time: sim time at which the run is complete.
    :param label: free-form tag recorded in snapshot headers.
    :param extras: scenario objects that must survive a restore
        (attackers, subscriber records, fault plans...).  Anything the
        canonical outputs depend on belongs here or on a node.
    """

    sim: Any
    kalis_nodes: List[Any] = field(default_factory=list)
    network: Optional[Any] = None
    telemetry: Optional[Any] = None
    end_time: float = 0.0
    label: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def now(self) -> float:
        return self.sim.clock.now

    @property
    def done(self) -> bool:
        return self.sim.clock.now >= self.end_time

    def rebuild_derived_state(self) -> None:
        """Re-derive every cache after a restore (the KL204 seams)."""
        self.sim.rebuild_derived_state()
        for node in self.kalis_nodes:
            node.rebuild_derived_state()

    def run_to(self, end_time: float) -> None:
        """Advance the deployment to ``end_time`` (capped at the end)."""
        self.sim.run_until(min(end_time, self.end_time))

    def meta(self) -> Dict[str, Any]:
        """JSON-safe header fields describing this deployment."""
        return {
            "sim_time": self.sim.clock.now,
            "end_time": self.end_time,
            "label": self.label,
            "nodes": [str(node.node_id) for node in self.kalis_nodes],
        }


def capture(deployment: Deployment) -> bytes:
    """Serialize a deployment to snapshot payload bytes.

    Refuses to capture mid-dispatch state: the simulator must be
    between events and the telemetry span stack empty — both always
    true between ``run_until`` calls, which is where checkpoints are
    taken.
    """
    if deployment.sim._running:
        raise RuntimeError(
            "cannot capture a deployment from inside the event loop; "
            "checkpoint between run_until calls"
        )
    telemetry = deployment.telemetry
    if telemetry is not None and telemetry._stack:
        raise RuntimeError(
            "cannot capture with open telemetry spans; checkpoint "
            "between run_until calls"
        )
    return pickle.dumps(deployment, protocol=PICKLE_PROTOCOL)


def restore(payload: bytes) -> Deployment:
    """Deserialize a snapshot payload and rebuild derived state.

    The payload's integrity was already verified by
    :func:`repro.ckpt.format.read_snapshot`; an unpicklable payload
    that nonetheless passed the digest (e.g. written by foreign code)
    still fails soft as :class:`SnapshotCorrupt`.
    """
    try:
        deployment = pickle.loads(payload)
    except Exception as error:
        raise SnapshotCorrupt(f"payload does not unpickle: {error}") from error
    if not isinstance(deployment, Deployment):
        raise SnapshotCorrupt(
            f"payload is {type(deployment).__name__}, expected Deployment"
        )
    deployment.rebuild_derived_state()
    return deployment


def restore_latest(store: SnapshotStore) -> Optional[Deployment]:
    """Restore the newest snapshot that reads *and* restores, or None.

    A snapshot can verify (header and digest) and still not restore: a
    payload pickled from classes this code no longer has.  Such a file
    joins the unreadable ones in ``store.skipped`` and the walk goes on
    to the next older snapshot.
    """
    for path, _header, payload in store.readable():
        try:
            return restore(payload)
        except SnapshotError as error:
            store.skipped.append((path, str(error)))
    return None


def alert_lines(node) -> List[str]:
    """Canonical one-line-per-alert serialization for one Kalis node."""
    return [
        f"{alert.timestamp:.6f} {alert.kalis_node.value} {alert.attack} "
        f"by={alert.detected_by} "
        f"suspects={','.join(sorted(s.value for s in alert.suspects))}"
        for alert in node.alerts.alerts
    ]


def canonical_outputs(deployment: Deployment) -> List[str]:
    """The deployment's deterministic identity: the equivalence oracle.

    Byte-comparable lines covering every observable surface — per-node
    alert logs, knowledge-base contents (local and collective
    knowggets), intake/dead-letter accounting, network delivery stats,
    and the wall-stripped telemetry export.  Two same-seed runs — one
    uninterrupted, one killed and restored arbitrarily often — must
    produce identical lists.
    """
    lines: List[str] = [f"t={deployment.sim.clock.now:.6f}"]
    for node in sorted(deployment.kalis_nodes, key=lambda n: str(n.node_id)):
        node_id = str(node.node_id)
        lines.append(f"node {node_id} captures={node.comm.total_captures} "
                     f"deadletters={len(node.deadletters)}")
        lines.extend(f"{node_id} alert {line}" for line in alert_lines(node))
        for key, value in node.kb.snapshot().items():
            lines.append(f"{node_id} kb {key}={value}")
        for module, health in sorted(node.manager.health_table().items()):
            lines.append(f"{node_id} module {module}={health}")
    if deployment.network is not None:
        stats = deployment.network.delivery_stats()
        stat_text = " ".join(f"{key}={stats[key]}" for key in sorted(stats))
        lines.append(f"network {stat_text}")
    if deployment.telemetry is not None:
        from repro.obs.export import canonical_telemetry_lines

        lines.extend(
            f"telemetry {line}"
            for line in canonical_telemetry_lines(deployment.telemetry)
        )
    return lines
