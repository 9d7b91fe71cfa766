"""``repro.siem`` — the fleet-wide SIEM aggregation service.

The intake side of the fleet pipeline (DESIGN.md §10, the paper's S16
SIEM-export extension point taken to fleet scale): workers stream
versioned NDJSON event batches (:mod:`repro.siem.events`) into a
:class:`SiemAggregator` that deduplicates across sites and re-emission
cycles, correlates the same attack signature across sites into
fleet-level alerts, and merges everything into one byte-deterministic
canonical log ordered by ``(sim_time, site_id, kind, seq)``.  A
:class:`FleetRollup` keeps the Prometheus-style per-site and aggregate
series, and :mod:`repro.siem.report` renders ``kalis-repro fleet
report``.
"""

from repro.siem.aggregator import (
    AggregatorStats,
    FleetAlert,
    SiemAggregator,
    correlate_alerts,
)
from repro.siem.events import (
    BATCH_VERSION,
    EVENT_KINDS,
    SiemSchemaError,
    batch_line,
    event_dedup_key,
    event_sort_key,
    make_batch,
    make_event,
    validate_batch,
)
from repro.siem.report import fleet_report_data, render_fleet_report
from repro.siem.rollup import FleetRollup

__all__ = [
    "AggregatorStats",
    "BATCH_VERSION",
    "EVENT_KINDS",
    "FleetAlert",
    "FleetRollup",
    "SiemAggregator",
    "SiemSchemaError",
    "batch_line",
    "correlate_alerts",
    "event_dedup_key",
    "event_sort_key",
    "fleet_report_data",
    "make_batch",
    "make_event",
    "render_fleet_report",
    "validate_batch",
]
