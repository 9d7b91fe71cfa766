"""Site shards: what one fleet cell is and which events it emits.

A **site** is one independent Kalis deployment — the §VI-B1 single-hop
flood topology with a live Kalis node — whose entire behaviour is a
pure function of ``(fleet_seed, site_id)``:

- its seed is ``derive_seed(fleet_seed, "fleet-site", site_id)``, a
  keyed substream, so sites are mutually independent and adding or
  removing a site never perturbs another's draws;
- its profile (quiet / attacked / noisy) is a
  :class:`~repro.util.rng.HashedStream` draw on the site id —
  order-independent, so sharding the site list across any number of
  workers assigns the same profile to the same site.

:func:`site_events` turns the deployment's observable surfaces into
SIEM events (:mod:`repro.siem.events`): alerts stream incrementally as
they appear; knowggets, module health, deterministic counters and the
``site-done`` record are emitted once at completion.  Sequence numbers
are assigned in each site's own deterministic order per ``(site,
kind)``, which is what lets re-emission after a kill/resume collapse
at the aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.ckpt.snapshot import Deployment
from repro.experiments.soak_scenario import build_e1_deployment
from repro.siem.events import make_event
from repro.util.rng import HashedStream, derive_seed

#: Site profiles, in draw order.
PROFILE_QUIET = "quiet"
PROFILE_ATTACKED = "attacked"
PROFILE_NOISY = "noisy"


@dataclass(frozen=True)
class SiteSpec:
    """One site's deterministic identity: everything a worker needs.

    :param site_id: stable id (``site-0042``) — the dedup qualifier.
    :param seed: the site's derived seed.
    :param profile: quiet / attacked / noisy.
    :param instances: attack bursts for this site (0 = quiet).
    """

    site_id: str
    seed: int
    profile: str
    instances: int

    @property
    def attacked(self) -> bool:
        return self.instances > 0


def site_specs(
    fleet_seed: int,
    sites: int,
    attacked_fraction: float = 0.45,
    noisy_fraction: float = 0.10,
    symptom_instances: int = 6,
) -> List[SiteSpec]:
    """The fleet's site list — a pure function of the fleet seed.

    Profiles are drawn per site id from a :class:`HashedStream`:
    ``noisy`` sites (3x the attack bursts — the report's top-K rows),
    then ``attacked`` sites (the cross-site correlation signal), the
    rest ``quiet`` (background chatter only).
    """
    profile_draws = HashedStream(fleet_seed, "fleet-profile")
    specs: List[SiteSpec] = []
    for index in range(sites):
        site_id = f"site-{index:04d}"
        draw = profile_draws.uniform((site_id,))
        if draw < noisy_fraction:
            profile, instances = PROFILE_NOISY, symptom_instances * 3
        elif draw < noisy_fraction + attacked_fraction:
            profile, instances = PROFILE_ATTACKED, symptom_instances
        else:
            profile, instances = PROFILE_QUIET, 0
        specs.append(
            SiteSpec(
                site_id=site_id,
                seed=derive_seed(fleet_seed, "fleet-site", site_id),
                profile=profile,
                instances=instances,
            )
        )
    return specs


def build_site(spec: SiteSpec) -> Deployment:
    """Build one site's deployment from its spec alone.

    Reuses the E15 live-E1 topology; a quiet site keeps the same node
    graph with ``max_instances=0`` (the attacker's first strike is a no-op),
    so every site's background chatter draws stay comparable.  The run
    length still covers one instance-slot of chatter so quiet sites
    produce real traffic.
    """
    instances = max(spec.instances, 1)
    deployment = build_e1_deployment(seed=spec.seed, symptom_instances=instances)
    if not spec.attacked:
        deployment.extras["attacker"].max_instances = 0
    deployment.label = f"fleet/{spec.site_id}"
    deployment.extras["site_spec"] = spec
    return deployment


def _node(deployment: Deployment):
    return deployment.kalis_nodes[0]


def alert_events(
    spec: SiteSpec, deployment: Deployment, start_index: int = 0
) -> List[Dict[str, Any]]:
    """SIEM alert events for ``alerts[start_index:]``.

    ``seq`` is the alert's index in the site's own alert log — stable
    across kill/resume because the restored log replays identically.
    """
    alerts = _node(deployment).alerts.alerts
    return [
        make_event(
            site=spec.site_id,
            kind="alert",
            t=alert.timestamp,
            seq=index,
            body={
                "attack": alert.attack,
                "detected_by": alert.detected_by,
                "suspects": sorted(s.value for s in alert.suspects),
            },
        )
        for index, alert in enumerate(alerts)
        if index >= start_index
    ]


def completion_events(
    spec: SiteSpec, deployment: Deployment
) -> List[Dict[str, Any]]:
    """The one-shot events a finished site contributes to the merge.

    All stamped at the site's end time: knowledge-base contents, module
    health, deterministic counters, and the ``site-done`` terminator
    carrying the packet count the fleet report aggregates.
    """
    node = _node(deployment)
    end = deployment.end_time
    events: List[Dict[str, Any]] = []
    for seq, (key, value) in enumerate(sorted(node.kb.snapshot().items())):
        events.append(
            make_event(
                site=spec.site_id,
                kind="knowgget",
                t=end,
                seq=seq,
                body={"key": key, "value": str(value)},
            )
        )
    for seq, (module, health) in enumerate(
        sorted(node.manager.health_table().items())
    ):
        events.append(
            make_event(
                site=spec.site_id,
                kind="health",
                t=end,
                seq=seq,
                body={"module": module, "health": str(health)},
            )
        )
    events.append(
        make_event(
            site=spec.site_id,
            kind="metrics",
            t=end,
            seq=0,
            body={
                "packets": deployment.sim.deliveries,
                "captures": node.comm.total_captures,
                "deadletters": len(node.deadletters),
                "knowggets": len(node.kb.snapshot()),
            },
        )
    )
    events.append(
        make_event(
            site=spec.site_id,
            kind="site-done",
            t=end,
            seq=0,
            body={
                "packets": deployment.sim.deliveries,
                "alerts": len(node.alerts),
                "profile": spec.profile,
                "seed": spec.seed,
            },
        )
    )
    return events
