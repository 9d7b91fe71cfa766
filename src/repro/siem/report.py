"""``kalis-repro fleet report`` — the fleet-wide observability surface.

:func:`fleet_report_data` reduces one finished
:class:`~repro.siem.aggregator.SiemAggregator` (plus optional run info
from the runner) to a JSON-safe dict; :func:`render_fleet_report` turns
that dict into the operator tables: fleet summary, top-K noisy sites,
per-attack fleet detection table, cross-site correlated alerts, dedup
and intake statistics, and the per-worker straggler table (batches,
RSS, queue depth).  The runner persists the dict as ``report.json`` so
``fleet report`` re-renders without re-running anything.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.report import text_table


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def fleet_report_data(
    aggregator,
    run: Optional[Dict[str, Any]] = None,
    top: int = 10,
) -> Dict[str, Any]:
    """Reduce a finalized aggregator to the report's JSON-safe dict."""
    events = aggregator.finalize()
    stats = aggregator.stats

    per_site: Dict[str, Dict[str, Any]] = {}
    per_attack: Dict[str, Dict[str, Any]] = {}
    for event in events:
        site = per_site.setdefault(
            event["site"],
            {"site": event["site"], "alerts": 0, "packets": 0, "attacks": set()},
        )
        if event["kind"] == "alert":
            site["alerts"] += 1
            attack_name = event.get("body", {}).get("attack", "?")
            site["attacks"].add(attack_name)
            attack = per_attack.setdefault(
                attack_name,
                {"attack": attack_name, "sites": set(), "alerts": 0},
            )
            attack["sites"].add(event["site"])
            attack["alerts"] += 1
        elif event["kind"] == "site-done":
            site["packets"] = event.get("body", {}).get("packets", 0)

    fleet_alerts = aggregator.fleet_alerts
    fleet_alerts_by_attack: Dict[str, int] = {}
    for alert in fleet_alerts:
        fleet_alerts_by_attack[alert.attack] = (
            fleet_alerts_by_attack.get(alert.attack, 0) + 1
        )

    noisy = sorted(
        per_site.values(),
        key=lambda row: (-row["alerts"], -row["packets"], row["site"]),
    )[:top]
    detection = [
        {
            "attack": row["attack"],
            "sites": len(row["sites"]),
            "alerts": row["alerts"],
            "fleet_alerts": fleet_alerts_by_attack.get(row["attack"], 0),
        }
        for row in sorted(
            per_attack.values(), key=lambda row: (-row["alerts"], row["attack"])
        )
    ]

    latencies = stats.batch_latencies_ms
    stragglers = [
        {key: value for key, value in row.items()}
        for _, row in sorted(stats.workers.items())
    ]
    return {
        "v": 1,
        "top": top,
        "summary": {
            "sites_done": aggregator.sites_done,
            "events": len(aggregator.merged_events()),
            "total_packets": aggregator.total_packets,
            "fleet_alerts": len(fleet_alerts),
            "k_sites": aggregator.k_sites,
            "window_s": aggregator.window_s,
            "duplicates_dropped": stats.duplicates_dropped,
            "batches": stats.batches,
            "partial_lines_skipped": stats.partial_lines_skipped,
            "schema_errors": stats.schema_errors,
        },
        "run": run or {},
        "noisy_sites": [
            {
                "site": row["site"],
                "alerts": row["alerts"],
                "packets": row["packets"],
                "attacks": sorted(row["attacks"]),
            }
            for row in noisy
        ],
        "detection": detection,
        "fleet_alerts": [
            {
                "attack": alert.attack,
                "t_first": alert.t_first,
                "t_last": alert.t_last,
                "sites": list(alert.sites),
                "alerts": alert.alerts,
            }
            for alert in fleet_alerts
        ],
        "stragglers": stragglers,
        "latency_ms": {
            "count": len(latencies),
            "p50": round(_percentile(latencies, 0.50), 3),
            "p95": round(_percentile(latencies, 0.95), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "max": round(max(latencies), 3) if latencies else 0.0,
        },
    }


def render_fleet_report(data: Dict[str, Any]) -> str:
    """Render the operator tables from :func:`fleet_report_data` output."""
    summary = data["summary"]
    run = data.get("run", {})
    top = data.get("top", 10)

    lines: List[str] = ["fleet report"]
    run_bits = []
    if run.get("sites") is not None:
        run_bits.append(f"{run['sites']} sites")
    if run.get("workers") is not None:
        run_bits.append(f"{run['workers']} workers")
    if run.get("seed") is not None:
        run_bits.append(f"seed={run['seed']}")
    if run.get("wall_s") is not None:
        run_bits.append(f"{run['wall_s']:.1f}s wall")
    if run.get("respawns"):
        run_bits.append(f"{run['respawns']} worker respawns")
    if run_bits:
        lines.append("  run: " + ", ".join(run_bits))
    lines.append(
        f"  {summary['sites_done']} sites reported | "
        f"{summary['events']} merged events | "
        f"{summary['total_packets']:,} simulated packets | "
        f"{summary['fleet_alerts']} fleet alerts "
        f"(k={summary['k_sites']}, window={summary['window_s']:g}s)"
    )
    if run.get("packets_per_sec") is not None:
        lines.append(
            f"  throughput: {run['packets_per_sec']:,.0f} packets/s, "
            f"{run.get('sites_per_sec', 0):.1f} sites/s"
        )

    lines.append("")
    lines.append(f"top {top} noisy sites (by alerts)")
    if data["noisy_sites"]:
        lines.extend(
            text_table(
                ["site", "alerts", "packets", "attacks"],
                [
                    [
                        row["site"],
                        str(row["alerts"]),
                        str(row["packets"]),
                        ",".join(row["attacks"]) or "-",
                    ]
                    for row in data["noisy_sites"]
                ],
            )
        )
    else:
        lines.append("  (no site events)")

    lines.append("")
    lines.append("fleet detection table")
    if data["detection"]:
        lines.extend(
            text_table(
                ["attack", "sites", "alerts", "fleet_alerts"],
                [
                    [
                        row["attack"],
                        str(row["sites"]),
                        str(row["alerts"]),
                        str(row["fleet_alerts"]),
                    ]
                    for row in data["detection"]
                ],
            )
        )
    else:
        lines.append("  (no alerts anywhere in the fleet)")

    lines.append("")
    lines.append("cross-site correlated alerts")
    if data["fleet_alerts"]:
        for row in data["fleet_alerts"]:
            sites = row["sites"]
            shown = ", ".join(sites[:5]) + ("…" if len(sites) > 5 else "")
            lines.append(
                f"  {row['attack']}: {len(sites)} sites ({shown}) "
                f"t={row['t_first']:.2f}..{row['t_last']:.2f}s, "
                f"{row['alerts']} site alerts"
            )
    else:
        lines.append(
            f"  (none — no signature reached {summary['k_sites']} sites "
            f"within {summary['window_s']:g}s)"
        )

    latency = data["latency_ms"]
    lines.append("")
    lines.append(
        "intake: "
        f"{summary['batches']} batches, "
        f"{summary['duplicates_dropped']} duplicates dropped, "
        f"{summary['partial_lines_skipped']} partial lines skipped, "
        f"{summary['schema_errors']} schema errors | "
        f"batch latency ms p50={latency['p50']:g} "
        f"p95={latency['p95']:g} p99={latency['p99']:g}"
    )

    lines.append("")
    lines.append("worker stragglers")
    if data["stragglers"]:
        lines.extend(
            text_table(
                [
                    "worker",
                    "sites_done",
                    "batches",
                    "events",
                    "last_site",
                    "rss_kb",
                    "queue_depth",
                    "done",
                ],
                [
                    [
                        str(row["worker"]),
                        str(row["sites_done"]),
                        str(row["batches"]),
                        str(row["events"]),
                        str(row["last_site"] or "-"),
                        "-" if row["rss_kb"] is None else f"{row['rss_kb']:,.0f}",
                        "-"
                        if row.get("queue_depth") is None
                        else str(row["queue_depth"]),
                        "yes" if row["done"] else "NO",
                    ]
                    for row in data["stragglers"]
                ],
            )
        )
    else:
        lines.append("  (no workers reported)")

    return "\n".join(lines)
