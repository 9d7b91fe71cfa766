"""``kalis-repro obs report`` — summarize a telemetry export.

Renders the per-run answers an operator asks first, from the export
alone (no source, no rerun): the hottest modules (invocations, isolated
failures, wall time when present), the busiest/noisiest bus topics, the
collective-sync retry tails, and every flight-recorder dump — which
names the quarantined module and the dead-lettered topic directly.

:func:`report_data` exposes the same sections as a plain dict
(``kalis-repro obs report --format json``) so fleet rollups and CI
assertions can consume single-site reports without screen-scraping the
rendered tables.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import load_export_with_stats


def text_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    """Left-aligned fixed-width text table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


class _MetricView:
    """Index metric records by name for cheap joins."""

    def __init__(self, records: List[Dict[str, Any]]) -> None:
        self._by_name: Dict[str, List[Dict[str, Any]]] = {}
        for record in records:
            if record.get("type") == "metric":
                self._by_name.setdefault(record["name"], []).append(record)

    def series(self, name: str) -> List[Dict[str, Any]]:
        return self._by_name.get(name, [])

    def lookup(self, name: str, **labels: str) -> Optional[Dict[str, Any]]:
        wanted = {key: str(value) for key, value in labels.items()}
        for record in self.series(name):
            if record.get("labels", {}) == wanted:
                return record
        return None


def _module_entries(view: _MetricView, top: int) -> List[Dict[str, Any]]:
    rows: List[Tuple[float, Dict[str, Any]]] = []
    for record in view.series("module_invocations_total"):
        labels = record.get("labels", {})
        node, module = labels.get("node", "?"), labels.get("module", "?")
        invocations = record.get("value", 0)
        failures = view.lookup(
            "module_failures_total", node=node, module=module
        )
        latency = view.lookup("module_handle_wall_us", node=node, module=module)
        wall_ms = None
        if latency is not None and "wall" in latency:
            wall_ms = latency["wall"].get("sum", 0.0) / 1000.0
        rows.append(
            (
                invocations,
                {
                    "module": module,
                    "node": node,
                    "invocations": invocations,
                    "failures": failures.get("value", 0) if failures else 0,
                    "wall_ms": wall_ms,
                },
            )
        )
    rows.sort(key=lambda item: (-item[0], item[1]["module"], item[1]["node"]))
    return [row for _, row in rows[:top]]


def _topic_entries(view: _MetricView, top: int) -> List[Dict[str, Any]]:
    rows: List[Tuple[float, float, Dict[str, Any]]] = []
    for record in view.series("bus_published_total"):
        labels = record.get("labels", {})
        node, topic = labels.get("node", "?"), labels.get("topic", "?")
        published = record.get("value", 0)

        def count(name: str) -> float:
            found = view.lookup(name, node=node, topic=topic)
            return found.get("value", 0) if found else 0

        errors = count("bus_errors_total")
        deadletters = count("bus_deadletters_total")
        rows.append(
            (
                errors + deadletters,
                published,
                {
                    "topic": topic,
                    "node": node,
                    "published": published,
                    "delivered": count("bus_delivered_total"),
                    "errors": errors,
                    "deadletters": deadletters,
                },
            )
        )
    # Noisiest first (errors/deadletters), then busiest.
    rows.sort(
        key=lambda item: (-item[0], -item[1], item[2]["topic"], item[2]["node"])
    )
    return [row for _, _, row in rows[:top]]


def _link_entries(view: _MetricView) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for record in view.series("peerlink_sent_total"):
        link = record.get("labels", {}).get("link", "?")

        def count(name: str) -> float:
            found = view.lookup(name, link=link)
            return found.get("value", 0) if found else 0

        rows.append(
            {
                "link": link,
                "sent": record.get("value", 0),
                "delivered": count("peerlink_delivered_total"),
                "attempts": count("peerlink_attempts_total"),
                "retries": count("peerlink_retries_total"),
                "gave_up": count("peerlink_gave_up_total"),
            }
        )
    rows.sort(key=lambda row: row["link"])
    return rows


def _dump_entries(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    for record in records:
        if record.get("type") != "flight-dump":
            continue
        entries.append(
            {
                "t": record.get("t", 0),
                "reason": record.get("reason", "?"),
                "attrs": record.get("attrs", {}),
                "ring_entries": sum(
                    len(ring) for ring in record.get("rings", {}).values()
                ),
            }
        )
    return entries


def report_data(path, top: int = 10) -> Dict[str, Any]:
    """The report's sections as one JSON-safe dict (``--format json``)."""
    records, partial_skipped = load_export_with_stats(path)
    meta = records[0]
    view = _MetricView(records)
    return {
        "path": str(path),
        "meta": {
            "sim_end": meta.get("sim_end", 0),
            "spans_finished": meta.get("spans_finished", 0),
            "events_recorded": meta.get("events_recorded", 0),
            "dumps": meta.get("dumps", 0),
            "dumps_suppressed": meta.get("dumps_suppressed", 0),
            "version": meta.get("v", meta.get("version")),
        },
        "partial_lines_skipped": partial_skipped,
        "top": top,
        "modules": _module_entries(view, top),
        "topics": _topic_entries(view, top),
        "links": _link_entries(view),
        "dumps": _dump_entries(records),
    }


def _dump_lines(dumps: List[Dict[str, Any]]) -> List[str]:
    lines: List[str] = []
    for entry in dumps:
        attrs = entry["attrs"]
        attr_text = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        lines.append(
            f"t={entry['t']:.3f}s  {entry['reason']}"
            f"  {attr_text}  ({entry['ring_entries']} ring entries)".rstrip()
        )
    return lines


def render_report(path, top: int = 10) -> str:
    """Render the per-run summary for one telemetry export file."""
    data = report_data(path, top=top)
    meta = data["meta"]

    lines: List[str] = [f"telemetry report: {path}"]
    lines.append(
        f"  sim end t={meta['sim_end']:.2f}s | "
        f"{meta['spans_finished']} spans, "
        f"{meta['events_recorded']} events, "
        f"{meta['dumps']} flight dumps"
        + (
            f" (+{meta['dumps_suppressed']} suppressed)"
            if meta["dumps_suppressed"]
            else ""
        )
    )

    module_rows = [
        [
            row["module"],
            row["node"],
            f"{row['invocations']:g}",
            f"{row['failures']:g}",
            "-" if row["wall_ms"] is None else f"{row['wall_ms']:.1f}",
        ]
        for row in data["modules"]
    ]
    lines.append("")
    lines.append(f"hottest modules (top {top} by invocations)")
    if module_rows:
        lines.extend(
            text_table(
                ["module", "node", "invocations", "failures", "wall_ms"],
                module_rows,
            )
        )
    else:
        lines.append("  (no module metrics in export)")

    topic_rows = [
        [
            row["topic"],
            row["node"],
            f"{row['published']:g}",
            f"{row['delivered']:g}",
            f"{row['errors']:g}",
            f"{row['deadletters']:g}",
        ]
        for row in data["topics"]
    ]
    lines.append("")
    lines.append(f"bus topics (top {top}, noisiest first)")
    if topic_rows:
        lines.extend(
            text_table(
                ["topic", "node", "published", "delivered", "errors", "deadletters"],
                topic_rows,
            )
        )
    else:
        lines.append("  (no bus metrics in export)")

    link_rows = [
        [
            row["link"],
            f"{row['sent']:g}",
            f"{row['delivered']:g}",
            f"{row['attempts']:g}",
            f"{row['retries']:g}",
            f"{row['gave_up']:g}",
        ]
        for row in data["links"]
    ]
    lines.append("")
    lines.append("collective sync retry tails")
    if link_rows:
        lines.extend(
            text_table(
                ["link", "sent", "delivered", "attempts", "retries", "gave_up"],
                link_rows,
            )
        )
    else:
        lines.append("  (no peer-link metrics in export)")

    dump_lines = _dump_lines(data["dumps"])
    lines.append("")
    lines.append("flight-recorder dumps")
    if dump_lines:
        lines.extend(f"  {line}" for line in dump_lines)
    else:
        lines.append("  (none — no quarantine or dead-letter fired)")

    return "\n".join(lines)
