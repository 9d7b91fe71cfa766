"""The checkpointing run loop: resumable execution of a deployment.

:class:`CheckpointService` drives a :class:`~repro.ckpt.snapshot.
Deployment` in checkpoint-interval chunks of simulated time, saving a
snapshot into a :class:`~repro.ckpt.format.SnapshotStore` after each
chunk.  Chunk boundaries are invisible to the simulation — the clock
advances through them without dispatching anything — so a checkpointed
run's canonical outputs are byte-identical to one executed in a single
``run_until``.

Two interruption shapes are handled:

- a :class:`~repro.faults.ProcessKilled` raised from the event loop by
  a scheduled :class:`~repro.faults.ProcessKill` fault (the chaos
  drill).  With ``snapshot_on_kill`` (the SIGTERM analogy) a final
  snapshot is taken at the kill instant; without it (the SIGKILL
  analogy) the run resumes from the last interval checkpoint instead —
  either way the restored run replays deterministically;
- a cooperative stop flag (:meth:`request_stop`, wired to SIGTERM by
  the daemon), honored at the next chunk boundary with a final
  snapshot.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ckpt.format import SnapshotStore
from repro.ckpt.snapshot import Deployment, capture, restore_latest
from repro.faults import ProcessKilled

#: Terminal states :meth:`CheckpointService.run` can return.
COMPLETED = "completed"
KILLED = "killed"
STOPPED = "stopped"


class CheckpointService:
    """Runs a deployment with periodic snapshots into a store.

    :param checkpoint_interval: simulated seconds between snapshots.
    :param snapshot_on_kill: take a final snapshot when a
        :class:`ProcessKilled` escapes the event loop (SIGTERM-like);
        ``False`` models an abrupt kill that keeps only the last
        interval checkpoint.
    :param on_checkpoint: optional callback invoked with the deployment
        after every snapshot is written (fleet workers stream the
        events that became visible during the chunk from here, so
        emission and durability advance together).
    """

    def __init__(
        self,
        store: SnapshotStore,
        deployment: Deployment,
        checkpoint_interval: float = 10.0,
        snapshot_on_kill: bool = True,
        on_checkpoint: Optional[Callable[[Deployment], None]] = None,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {checkpoint_interval}"
            )
        self.store = store
        self.deployment = deployment
        self.checkpoint_interval = checkpoint_interval
        self.snapshot_on_kill = snapshot_on_kill
        self.on_checkpoint = on_checkpoint
        self.checkpoints_written = 0
        self.last_kill_at: Optional[float] = None
        #: True when :meth:`resume_or_build` restored a snapshot.
        self.resumed = False
        self._stop_requested = False

    @classmethod
    def resume_or_build(
        cls,
        store: SnapshotStore,
        builder: Callable[[], Deployment],
        checkpoint_interval: float = 10.0,
        snapshot_on_kill: bool = True,
        on_checkpoint: Optional[Callable[[Deployment], None]] = None,
    ) -> "CheckpointService":
        """Restore the newest usable snapshot, or build a fresh deployment.

        Snapshots that fail to read or to restore are skipped fail-soft
        (see :func:`~repro.ckpt.snapshot.restore_latest`); only if none
        restores does ``builder`` run.
        """
        restored = restore_latest(store)
        service = cls(
            store,
            restored if restored is not None else builder(),
            checkpoint_interval=checkpoint_interval,
            snapshot_on_kill=snapshot_on_kill,
            on_checkpoint=on_checkpoint,
        )
        service.resumed = restored is not None
        return service

    def request_stop(self) -> None:
        """Ask the run loop to checkpoint and exit at the next boundary."""
        self._stop_requested = True

    def checkpoint(self):
        """Snapshot the deployment into the store now."""
        path = self.store.save(capture(self.deployment), self.deployment.meta())
        self.checkpoints_written += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(self.deployment)
        return path

    def run(self) -> str:
        """Advance to the deployment's end time, checkpointing en route.

        Returns :data:`COMPLETED`, :data:`KILLED` (a ProcessKill fired;
        the caller restores from the store and calls :meth:`run` on a
        new service) or :data:`STOPPED` (cooperative stop honored).
        """
        deployment = self.deployment
        while not deployment.done:
            if self._stop_requested:
                self.checkpoint()
                return STOPPED
            target = min(
                deployment.sim.clock.now + self.checkpoint_interval,
                deployment.end_time,
            )
            try:
                deployment.run_to(target)
            except ProcessKilled as killed:
                self.last_kill_at = killed.at
                if self.snapshot_on_kill:
                    self.checkpoint()
                return KILLED
            self.checkpoint()
        return COMPLETED
