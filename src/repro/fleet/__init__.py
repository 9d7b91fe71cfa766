"""``repro.fleet`` — sharded multi-site fleet runs.

The production side of the fleet pipeline (DESIGN.md §10): shard N
independent site simulations (:mod:`repro.fleet.sites`) across worker
processes (:mod:`repro.fleet.worker`), each checkpointing through
:mod:`repro.ckpt` so a killed worker resumes instead of rerunning, and
stream their versioned event batches through a bounded queue into the
central SIEM (:mod:`repro.siem`).  :func:`run_fleet` is the entry
point; ``kalis-repro fleet run`` wraps it.
"""

from repro.fleet.runner import (
    FleetConfig,
    FleetResult,
    run_fleet,
    shard_specs,
)
from repro.fleet.sites import (
    SiteSpec,
    build_site,
    completion_events,
    site_specs,
)
from repro.fleet.worker import (
    KILL_EXIT_CODE,
    KillSpec,
    ShardProgress,
    ShardRunner,
    WorkerOptions,
    stream_path,
    worker_main,
)

__all__ = [
    "KILL_EXIT_CODE",
    "FleetConfig",
    "FleetResult",
    "KillSpec",
    "ShardProgress",
    "ShardRunner",
    "SiteSpec",
    "WorkerOptions",
    "build_site",
    "completion_events",
    "run_fleet",
    "shard_specs",
    "site_specs",
    "stream_path",
    "worker_main",
]
