"""E13 (extension) — full-library breadth.

Figure 8 evaluates eight attack scenarios; the module library covers
thirteen attacks.  This extension closes the gap: one live scenario per
remaining attack — sinkhole, HELLO flood, data alteration, spoofing,
jamming — each scored for Kalis exactly like the Figure 8 scenarios, so
every detection module in the library is demonstrated end-to-end
against its attack (not just unit-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.experiments import worlds
from repro.metrics.detection import DetectionScore

EXTENDED_SCENARIOS: Tuple[str, ...] = worlds.EXTENDED_BREADTH


@dataclass
class ExtendedBreadthResult:
    """Per-scenario Kalis scores for the extended attack set."""

    scores: Dict[str, DetectionScore] = field(default_factory=dict)
    suspects_correct: Dict[str, bool] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"{'scenario':>17}  {'Kalis DR':>9} {'Kalis acc':>10} "
            f"{'FP':>4} {'culprit named':>14}"
        ]
        for name in EXTENDED_SCENARIOS:
            score = self.scores[name]
            lines.append(
                f"{name:>17}  {score.detection_rate * 100:>8.0f}% "
                f"{score.classification_accuracy * 100:>9.0f}% "
                f"{score.false_positive_alerts:>4} "
                f"{'yes' if self.suspects_correct[name] else 'NO':>14}"
            )
        return "\n".join(lines)


def run(seed: int = 47) -> ExtendedBreadthResult:
    """Run all five extended scenarios: scenario ``i`` at ``seed + i``."""
    result = ExtendedBreadthResult()
    for index, attack in enumerate(EXTENDED_SCENARIOS):
        world = worlds.world_for(attack)
        kalis = worlds.score(world, seed + index, engines=("kalis",))["kalis"]
        result.scores[attack] = kalis.score
        result.suspects_correct[attack] = worlds.names_culprit(world, kalis)
    return result
