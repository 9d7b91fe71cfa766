"""E16 — Fleet-scale SIEM aggregation.

The fleet pipeline's named experiment (DESIGN.md §10): N independent
sites — each the live E1 flood topology under its own derived seed —
sharded across worker processes, streaming versioned event batches
into the central SIEM aggregator.  The experiment's claims:

- **merge determinism** — the merged canonical log is byte-identical
  across worker counts and across a worker kill/resume cycle;
- **cross-site correlation** — the icmp-flood signature fires at many
  sites inside one correlation window (every site's attack schedule
  starts at the same sim offset), so the aggregator must emit at least
  one fleet-level alert at the default ``k_sites=3``;
- **observability** — the fleet report names the noisy sites (the 3x
  burst profile) and accounts for every duplicate the at-least-once
  transport produced.

Defaults are CI-smoke sized (20 sites, 2 workers); the acceptance run
scales the same code path to 1,000 sites on an 8-worker pool (see
``benchmarks/test_bench_fleet.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.fleet import FleetConfig, FleetResult, run_fleet

#: E16 defaults: small enough for CI, rich enough to correlate.
DEFAULT_SITES = 20
DEFAULT_WORKERS = 2
DEFAULT_SEED = 16
DEFAULT_INSTANCES = 4


def config(
    out_dir: str,
    sites: int = DEFAULT_SITES,
    workers: int = DEFAULT_WORKERS,
    seed: int = DEFAULT_SEED,
    symptom_instances: int = DEFAULT_INSTANCES,
    k_sites: int = 3,
    window_s: float = 30.0,
    checkpoint_interval: float = 30.0,
    kill: Optional[Dict[str, Any]] = None,
) -> FleetConfig:
    """The E16 cell as a :class:`FleetConfig`."""
    return FleetConfig(
        sites=sites,
        workers=workers,
        fleet_seed=seed,
        out_dir=out_dir,
        symptom_instances=symptom_instances,
        k_sites=k_sites,
        window_s=window_s,
        checkpoint_interval=checkpoint_interval,
        kill=kill,
    )


def run(out_dir: str, **overrides) -> FleetResult:
    """Run E16 into ``out_dir``; keyword overrides mirror :func:`config`."""
    return run_fleet(config(out_dir, **overrides))
