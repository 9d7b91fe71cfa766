"""E15 — Kill/restore soak: service-mode durability under churn.

The robustness experiment for checkpoint/restore (DESIGN.md §9): a
deployment is repeatedly killed mid-run by scheduled
:class:`~repro.faults.ProcessKill` faults and restored from its
snapshot store, while the oracle asserts that the canonical
alert/knowgget/telemetry outputs stay **byte-identical** to an
uninterrupted same-seed run.  Two workloads:

- **e1** — the §VI-B1 single-hop flood topology running *live* against
  a deployed Kalis node (continuous device chatter plus attack bursts:
  the packet mill for the million-packet soak);
- **chaos** — the full E14 world (two Kalis nodes, collective
  knowledge over a lossy retrying channel, module crashes, node
  reboots, interface flaps, link partitions) with process kills
  layered on top of the existing fault plan — every subsystem's state
  crosses the snapshot boundary at once.

Scale knobs: ``symptom_instances`` stretches the run (each instance is
one attack burst plus ~5 s of background chatter) and ``kills`` sets
the number of evenly-spaced kill/restore cycles, so CI smoke and the
million-packet acceptance run share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.ckpt import Deployment, SoakReport, soak
from repro.experiments import chaos_scenario, icmp_flood_scenario
from repro.experiments.common import strike_horizon
from repro.sim.engine import Simulator
from repro.util.ids import NodeId

from repro.core.kalis import KalisNode


def build_e1_deployment(
    seed: int = 7,
    symptom_instances: int = 20,
    telemetry=None,
) -> Deployment:
    """The live E1 flood topology with a deployed Kalis node.

    The world of :func:`repro.experiments.icmp_flood_scenario.build`,
    observed by a live :class:`KalisNode` instead of a passive trace
    recorder — this is the deployment the daemon serves and the soak
    kills.
    """
    sim = Simulator(seed=seed, telemetry=telemetry)
    attacker = icmp_flood_scenario.build_world(sim, seed, symptom_instances)
    kalis = KalisNode(NodeId("kalis-1"), telemetry=telemetry)
    kalis.deploy(sim, position=icmp_flood_scenario.OBSERVER_POSITION)

    duration = strike_horizon(attacker)
    return Deployment(
        sim=sim,
        kalis_nodes=[kalis],
        telemetry=telemetry,
        end_time=duration,
        label="e15-e1",
        extras={"attacker": attacker},
    )


def build_chaos_deployment(
    seed: int = 23,
    symptom_instances: int = 20,
    telemetry=None,
) -> Deployment:
    """The full E14 chaos world wrapped as a resumable deployment."""
    world = chaos_scenario.build_world(
        seed=seed, symptom_instances=symptom_instances, telemetry=telemetry
    )
    return Deployment(
        sim=world.sim,
        kalis_nodes=[world.primary, world.remote],
        network=world.network,
        telemetry=telemetry,
        end_time=world.duration_s,
        label="e15-chaos",
        extras={"world": world},
    )


WORKLOAD_BUILDERS = {
    "e1": build_e1_deployment,
    "chaos": build_chaos_deployment,
}


def default_kill_times(duration: float, kills: int) -> List[float]:
    """Evenly spaced kill points strictly inside the run."""
    return [duration * (index + 1) / (kills + 1) for index in range(kills)]


@dataclass
class SoakResult:
    """E15's aggregate: one SoakReport per (workload, seed) cell."""

    reports: List[SoakReport] = field(default_factory=list)

    @property
    def total_packets(self) -> int:
        return sum(report.packets for report in self.reports)

    @property
    def total_cycles(self) -> int:
        return sum(report.cycles for report in self.reports)

    @property
    def violations(self) -> List[SoakReport]:
        return [report for report in self.reports if not report.equivalent]

    @property
    def completed(self) -> bool:
        return bool(self.reports) and not self.violations

    def summary(self) -> str:
        lines = [report.summary() for report in self.reports]
        lines.append(
            f"total: {self.total_packets} packets through "
            f"{self.total_cycles} kill/restore cycles, "
            f"{len(self.violations)} equivalence violations"
        )
        return "\n".join(lines)


def run(
    store_dir,
    seeds=(7, 23, 47),
    workloads=("e1", "chaos"),
    symptom_instances: int = 20,
    kills: int = 3,
    checkpoint_interval: float = 10.0,
    telemetry_factory=None,
) -> SoakResult:
    """Run the E15 matrix: every workload at every seed, kills layered.

    :param store_dir: base directory; each cell gets its own snapshot
        subdirectory so restores can never cross cells.
    :param telemetry_factory: zero-arg callable producing a fresh
        telemetry sink per *build* (baseline and interrupted runs must
        not share one), or None to run uninstrumented.
    """
    from pathlib import Path

    result = SoakResult()
    for workload in workloads:
        build = WORKLOAD_BUILDERS[workload]
        for seed in seeds:
            def builder(build=build, seed=seed):
                telemetry = (
                    telemetry_factory() if telemetry_factory is not None else None
                )
                return build(
                    seed=seed,
                    symptom_instances=symptom_instances,
                    telemetry=telemetry,
                )
            probe = builder()
            kill_times = default_kill_times(probe.end_time, kills)
            report = soak(
                builder,
                Path(store_dir) / f"{workload}-seed{seed}",
                kill_times,
                checkpoint_interval=checkpoint_interval,
                label=f"E15/{workload} seed={seed}",
            )
            result.reports.append(report)
    return result
