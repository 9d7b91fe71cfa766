"""E6 — Figure 8: breadth of attack detection (§VI-E).

"Overall, we consider 8 attack scenarios ... Snort is not shown as it
could not run on any of the ZigBee-based attack scenarios. ... we
observe that Kalis is always more effective than traditional IDS
approaches and, on average, achieves significant improvements."

The eight scenarios: ICMP flood, Smurf, SYN flood, selective
forwarding, blackhole, wormhole, replication, sybil.  For each, the
same recorded trace is scored for Kalis (knowledge-driven) and the
traditional baseline (everything always on; for replication, a random
static module choice; for wormhole, a single non-collaborating box).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.experiments import worlds
from repro.experiments.common import EngineRun

SCENARIOS: Tuple[str, ...] = worlds.BREADTH


@dataclass
class BreadthResult:
    """Per-scenario and average effectiveness for Kalis vs traditional."""

    per_scenario: Dict[str, Dict[str, EngineRun]] = field(default_factory=dict)

    def average(self, engine: str, metric: str) -> float:
        values = []
        for runs in self.per_scenario.values():
            run = runs.get(engine)
            if run is None:
                continue
            values.append(getattr(run.score, metric))
        return sum(values) / len(values) if values else 0.0

    def render(self) -> str:
        lines = [
            f"{'scenario':>22}  {'Kalis DR':>9} {'Trad DR':>9}  "
            f"{'Kalis acc':>9} {'Trad acc':>9}"
        ]
        for scenario in SCENARIOS:
            runs = self.per_scenario.get(scenario, {})
            kalis = runs.get("kalis")
            trad = runs.get("traditional")

            def fmt(run: Optional[EngineRun], metric: str) -> str:
                if run is None:
                    return "      n/a"
                return f"{getattr(run.score, metric) * 100:>8.0f}%"

            lines.append(
                f"{scenario:>22}  {fmt(kalis, 'detection_rate')} "
                f"{fmt(trad, 'detection_rate')}  "
                f"{fmt(kalis, 'classification_accuracy')} "
                f"{fmt(trad, 'classification_accuracy')}"
            )
        lines.append(
            f"{'AVERAGE':>22}  "
            f"{self.average('kalis', 'detection_rate') * 100:>8.0f}% "
            f"{self.average('traditional', 'detection_rate') * 100:>8.0f}%  "
            f"{self.average('kalis', 'classification_accuracy') * 100:>8.0f}% "
            f"{self.average('traditional', 'classification_accuracy') * 100:>8.0f}%"
        )
        return "\n".join(lines)


def run(
    seed: int = 23, instances_per_scenario: int = 12, telemetry=None
) -> BreadthResult:
    """Run all eight Figure 8 scenarios: scenario ``i`` at ``seed + i``.

    :param instances_per_scenario: symptom instances per burst-style
        scenario (the paper uses 50; smaller keeps tests quick).
    """
    result = BreadthResult()
    for index, attack in enumerate(SCENARIOS):
        result.per_scenario[attack] = worlds.score(
            worlds.world_for(attack), seed + index, instances_per_scenario,
            telemetry=telemetry,
        )
    return result
