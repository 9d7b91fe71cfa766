"""Per-layer metrics from a traced pass.

``_us`` metrics are self time per capture for the Kalis core layers and
per simulated frame for the simulator layers, scaled by the traced pass's
speed-probe factor like the end-to-end times.  Counts come from the same
span boundaries, and from the program's own counters where it keeps one
(work units, activation changes, knowledge changes, bus deliveries,
simulator candidates and deliveries).  Layers a workload bypasses read 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from perfbench.tracing import Attribution, SpanRecorder, attribute, spearman
from perfbench.workloads import is_true_positive
from repro.core.kalis import DEFAULT_DETECTION_MODULES, DEFAULT_SENSING_MODULES
from repro.core.modules.registry import module_class

#: The modules every workload's Kalis nodes register (the default library).
MODULES = DEFAULT_SENSING_MODULES + DEFAULT_DETECTION_MODULES

#: Every per-layer metric, in report order: (name, unit, better).  The
#: useful-work ratios and the proxy correlation read better when higher.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("trace.load_s", "s", "lower"),
    ("packets.decode_per_capture", "count", "lower"),
    ("comm.self_us", "us", "lower"),
    ("datastore.add_self_us", "us", "lower"),
    ("manager.route_self_us", "us", "lower"),
    ("manager.work_units_per_capture", "count", "lower"),
    ("manager.reevaluate_per_capture", "count", "lower"),
    ("manager.reevaluate_self_us", "us", "lower"),
    ("manager.required_per_capture", "count", "lower"),
    ("manager.required_useful_ratio", "ratio", "higher"),
    ("modules.handle_per_capture", "count", "lower"),
    ("modules.handle_self_us", "us", "lower"),
    ("modules.required_self_us", "us", "lower"),
    *((f"modules.{name}.handle_self_us", "us", "lower") for name in MODULES),
    ("modules.cost_weight_rank_corr", "ratio", "higher"),
    ("knowledge.put_per_capture", "count", "lower"),
    ("knowledge.change_per_put", "ratio", "higher"),
    ("knowledge.get_per_capture", "count", "lower"),
    ("knowledge.encode_key_per_capture", "count", "lower"),
    ("knowledge.self_us", "us", "lower"),
    ("bus.publish_per_capture", "count", "lower"),
    ("bus.delivered_per_publish", "ratio", "lower"),
    ("bus.publish_self_us", "us", "lower"),
    ("packets.find_layer_per_capture", "count", "lower"),
    ("packets.find_layer_self_us", "us", "lower"),
    ("sim.dispatch_self_us", "us", "lower"),
    ("sim.transmit_self_us", "us", "lower"),
    ("sim.candidates_per_frame", "count", "lower"),
    ("sim.deliveries_per_candidate", "ratio", "higher"),
    ("sim.schedule_per_frame", "count", "lower"),
    ("spatial.near_arrays_per_frame", "count", "lower"),
    ("medium.block_self_us", "us", "lower"),
    ("rng.sample_block_self_us", "us", "lower"),
    ("proto.handle_frame_per_frame", "count", "lower"),
    ("proto.handle_frame_self_us", "us", "lower"),
    ("kalis.captures_per_frame", "count", "lower"),
    ("alerts.true_positive", "count", "higher"),
    ("alerts.false_positive", "count", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
    ("tracing.unattributed_share", "ratio", "lower"),
)

#: Rounding slack on a span name's summed self time.  Each span's own time
#: is a difference of ``perf_counter`` readings, so rounding stays far
#: below this; a misattributed child span shows as microseconds or more.
SELF_TIME_TOLERANCE_S = 1e-6

_KNOWLEDGE_SPANS = ("knowledge.put", "knowledge.get", "knowledge.get_knowgget",
                    "knowledge.encode_key")


def counters(workload, state) -> Dict[str, float]:
    """The program's own counters, summed over the workload's Kalis nodes."""
    totals = dict.fromkeys(
        ("work_units", "state_changes", "kb_changes", "published", "delivered",
         "true_alerts", "false_alerts", "transmissions", "deliveries", "candidates"), 0.0)
    for node in workload.kalis_nodes(state):
        manager = node.manager
        totals["work_units"] += manager.work_units
        totals["state_changes"] += manager.activation_events + manager.deactivation_events
        totals["kb_changes"] += node.kb.change_count
        totals["published"] += node.bus.published_count
        totals["delivered"] += node.bus.delivered_count
        for alert in node.alerts.alerts:
            hit = is_true_positive(alert, workload.attack, workload.attacker)
            totals["true_alerts" if hit else "false_alerts"] += 1
    sim = getattr(state, "sim", None)
    if sim is not None:
        totals["transmissions"] = sim.transmissions
        totals["deliveries"] = sim.deliveries
        totals["candidates"] = sim.candidate_evaluations
    return totals


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Report:
    metrics: Dict[str, Tuple[float, str]]
    details: Dict[str, object]


def cost_weight_correlation(attribution: Attribution) -> Tuple[float, List[list]]:
    """Spearman(COST_WEIGHT, measured handle self time per call) over the
    modules that handled at least one capture."""
    rows = []
    for name in MODULES:
        calls = attribution.calls.get(f"modules.handle:{name}", 0)
        if calls:
            per_call_us = attribution.self_s[f"modules.handle:{name}"] / calls * 1e6
            rows.append([name, module_class(name).COST_WEIGHT, per_call_us])
    try:
        value = spearman([row[1] for row in rows], [row[2] for row in rows])
    except ValueError:
        value = 0.0
    return value, rows


def per_layer(
    recorder: SpanRecorder,
    setup_spans: int,
    setup_raw_s: float,
    setup_factor: float,
    pass_raw_s: float,
    pass_scaled_s: float,
    plain_per_item_scaled: float,
    stats,
    delta: Dict[str, float],
    loaded: int,
) -> Report:
    setup = attribute(recorder, 0, setup_spans)
    run = attribute(recorder, setup_spans)
    captures = stats.attempted
    frames = delta["transmissions"]
    factor = pass_scaled_s / pass_raw_s
    us = 1e6 * factor

    def core_us(*names: str) -> float:
        return _ratio(sum(run.self_of(name) for name in names), captures) * us

    def sim_us(*names: str) -> float:
        return _ratio(sum(run.self_of(name) for name in names), frames) * us

    def per_capture(*names: str) -> float:
        return _ratio(sum(run.calls_of(name) for name in names), captures)

    def per_frame(*names: str) -> float:
        return _ratio(sum(run.calls_of(name) for name in names), frames)

    required_calls = run.calls_of("modules.required")
    puts = run.calls_of("knowledge.put")
    correlation, correlation_rows = cost_weight_correlation(run)
    wall = setup_raw_s + pass_raw_s
    covered = setup.root_s + run.root_s
    values = {
        "trace.load_s": setup.total_s.get("trace.load", 0.0) * setup_factor,
        "packets.decode_per_capture": _ratio(setup.calls_of("packets.decode"), loaded),
        "comm.self_us": core_us("comm.on_capture"),
        "datastore.add_self_us": core_us("datastore.add"),
        "manager.route_self_us": core_us("manager.route"),
        "manager.work_units_per_capture": _ratio(delta["work_units"], captures),
        "manager.reevaluate_per_capture": per_capture("manager.reevaluate"),
        "manager.reevaluate_self_us": core_us("manager.reevaluate"),
        "manager.required_per_capture": per_capture("modules.required"),
        "manager.required_useful_ratio": _ratio(delta["state_changes"], required_calls),
        "modules.handle_per_capture": per_capture("modules.handle"),
        "modules.handle_self_us": core_us("modules.handle"),
        "modules.required_self_us": core_us("modules.required"),
        **{
            f"modules.{name}.handle_self_us": _ratio(
                run.self_s.get(f"modules.handle:{name}", 0.0), captures) * us
            for name in MODULES
        },
        "modules.cost_weight_rank_corr": correlation,
        "knowledge.put_per_capture": _ratio(puts, captures),
        "knowledge.change_per_put": _ratio(delta["kb_changes"], puts),
        "knowledge.get_per_capture": per_capture("knowledge.get", "knowledge.get_knowgget"),
        "knowledge.encode_key_per_capture": per_capture("knowledge.encode_key"),
        "knowledge.self_us": core_us(*_KNOWLEDGE_SPANS),
        "bus.publish_per_capture": per_capture("bus.publish"),
        "bus.delivered_per_publish": _ratio(delta["delivered"], delta["published"]),
        "bus.publish_self_us": core_us("bus.publish"),
        "packets.find_layer_per_capture": per_capture("packets.find_layer"),
        "packets.find_layer_self_us": core_us("packets.find_layer"),
        "sim.dispatch_self_us": sim_us("sim.run_until"),
        "sim.transmit_self_us": sim_us("sim.transmit"),
        "sim.candidates_per_frame": _ratio(delta["candidates"], frames),
        "sim.deliveries_per_candidate": _ratio(delta["deliveries"], delta["candidates"]),
        "sim.schedule_per_frame": per_frame("sim.schedule_at"),
        "spatial.near_arrays_per_frame": per_frame("spatial.near_arrays"),
        "medium.block_self_us": sim_us("medium.block"),
        "rng.sample_block_self_us": sim_us("rng.sample_block"),
        "proto.handle_frame_per_frame": per_frame("proto.handle_frame"),
        "proto.handle_frame_self_us": sim_us("proto.handle_frame"),
        "kalis.captures_per_frame": _ratio(captures, frames),
        "alerts.true_positive": delta["true_alerts"],
        "alerts.false_positive": delta["false_alerts"],
        "tracing.overhead_ratio": (pass_scaled_s / stats.items) / plain_per_item_scaled - 1.0,
        "tracing.unattributed_share": (wall - covered) / wall,
    }
    metrics = {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER}

    # Wall-time split of the whole traced run: every span name's self time
    # as a share of the measured segments, plus the unattributed rest.
    # Self times add up to the root spans' time by construction, so the
    # split is sound only if the root spans fit inside the measured
    # segments and no span's children outlast it.
    if not 0.0 <= covered <= wall:
        raise AssertionError(f"root spans cover {covered} s of a {wall} s traced wall")
    shares: Dict[str, float] = {}
    for attribution in (setup, run):
        for name, seconds in attribution.self_s.items():
            if seconds < -SELF_TIME_TOLERANCE_S:
                raise AssertionError(f"{name} has negative self time {seconds} s")
            layer = name.split(":", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + seconds / wall
    details = {
        "traced_wall_s": wall,
        "setup_wall_s": setup_raw_s,
        "pass_wall_s": pass_raw_s,
        "pass_factor": factor,
        "frames": frames,
        "wall_shares": dict(sorted(shares.items(), key=lambda item: -item[1])),
        "cost_weight_rows": correlation_rows,
    }
    return Report(metrics=metrics, details=details)
