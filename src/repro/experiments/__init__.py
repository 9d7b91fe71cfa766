"""Experiment harnesses — one module per paper experiment.

Each harness builds its scenario, records one labelled trace (the
paper's record-and-replay methodology, §VI-A), replays the identical
captures into every engine under comparison, and scores the results.
Benchmarks in ``benchmarks/`` are thin wrappers that run these and
print the paper-shaped tables.

=====  ==========================  ====================================
Exp    Paper reference             Harness
=====  ==========================  ====================================
E1     §VI-B1                      :mod:`~repro.experiments.icmp_flood_scenario`
E2     §VI-B2                      :mod:`~repro.experiments.replication_scenario`
E3     Table II                    :mod:`~repro.experiments.table2`
E4     §VI-C (reactivity)          :mod:`~repro.experiments.reactivity_scenario`
E5     §VI-D (knowledge sharing)   :mod:`~repro.experiments.wormhole_scenario`
E6     Figure 8 (breadth)          :mod:`~repro.experiments.breadth`
E9/10  ablations                   :mod:`~repro.experiments.ablations`
E11    jamming (extension)         :mod:`~repro.experiments.jamming_scenario`
E12    scalability (extension)     :mod:`~repro.experiments.scalability_scenario`
E13    full-library breadth        :mod:`~repro.experiments.extended_breadth`
E14    chaos (extension)           :mod:`~repro.experiments.chaos_scenario`
E15    kill/restore soak           :mod:`~repro.experiments.soak_scenario`
E16    fleet SIEM (extension)      :mod:`~repro.experiments.fleet_scenario`
=====  ==========================  ====================================

:mod:`~repro.experiments.worlds` is the scenario table that E6 and E13
view: one world per attack, keyed by (attack, topology).
:mod:`~repro.experiments.common` holds the plumbing every harness shares.
"""

from repro.experiments import (
    ablations,
    breadth,
    extended_breadth,
    icmp_flood_scenario,
    jamming_scenario,
    reactivity_scenario,
    replication_scenario,
    scalability_scenario,
    table2,
    worlds,
    wormhole_scenario,
)
from repro.experiments.common import EngineRun, ScenarioResult

__all__ = [
    "ablations",
    "breadth",
    "extended_breadth",
    "icmp_flood_scenario",
    "jamming_scenario",
    "reactivity_scenario",
    "replication_scenario",
    "scalability_scenario",
    "table2",
    "worlds",
    "wormhole_scenario",
    "EngineRun",
    "ScenarioResult",
]
