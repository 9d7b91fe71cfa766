"""Timed and traced runs of one workload, and the output check.

``timed_run`` measures the end-to-end metrics; ``traced_run`` makes one
untraced and one traced pass and derives the per-layer metrics.  Both
check every pass's outputs: the scripted attack must be reported and,
on the knowledge-driven nodes, ``SmurfModule`` must stay dormant; all
passes of a run must agree; and on the default seed the outputs must
match the reference recorded under ``perfbench/reference``.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from pathlib import Path

import numpy as np

from perfbench import layers
from perfbench.probe import (
    SETUP_PROBE_REPS,
    ChunkClock,
    SpeedProbe,
    highest_tail_percentile,
    percentile,
    tail,
)
from perfbench.tracing import SpanRecorder, install
from perfbench.workloads import DEFAULT_SEED, Workload, digest

#: Passes a timed run makes at least, so ``setup_s`` is a median of several.
MIN_PASSES = 3
#: Where generated inputs and span files go, relative to the checkout.
WORKDIR = Path(".perfbench")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def check_reference(workload: Workload, lines, summary) -> list:
    """Compare a default-seed pass's outputs with the recorded reference."""
    path = reference_path(workload.name)
    if not path.exists():
        return [f"no reference recorded at {path}"]
    reference = json.loads(path.read_text(encoding="utf-8"))
    if reference["digest"] == digest(lines):
        return []
    problems = [f"output digest differs from {path.name}"]
    for key, expected in reference["summary"].items():
        if summary.get(key) != expected:
            problems.append(f"{key}: expected {expected!r}, got {summary.get(key)!r}")
    return problems


def check_pass(workload: Workload, state, seed: int) -> tuple:
    """Output check of one pass: (digest, problems)."""
    lines = workload.outputs(state)
    problems = list(workload.problems(state))
    if seed == DEFAULT_SEED:
        problems += check_reference(workload, lines, workload.summary(state))
    return digest(lines), problems


def timed_setup(workload: Workload, probe: SpeedProbe):
    """Set up one pass; returns ``(state, clock)`` with the set-up's time."""
    clock = ChunkClock(probe, SETUP_PROBE_REPS)
    clock.start()
    return workload.setup(clock), clock


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    """Passes of set-up + timed work until ``seconds`` of timed work."""
    probe = SpeedProbe()
    clock = ChunkClock(probe)
    setup_raw, setup_scaled, digests, problems = [], [], [], []
    items = attempted = failed = 0
    try:
        workload.prepare(seed, WORKDIR)
        while len(setup_raw) < MIN_PASSES or clock.raw_s < seconds:
            gc.collect()
            state, setup_clock = timed_setup(workload, probe)
            setup_raw.append(setup_clock.raw_s)
            setup_scaled.append(setup_clock.scaled_s)
            clock.start()
            stats = workload.run_pass(state, clock)
            items += stats.items
            attempted += stats.attempted
            failed += stats.failed
            pass_digest, pass_problems = check_pass(workload, state, seed)
            digests.append(pass_digest)
            problems.extend(p for p in pass_problems if p not in problems)
            state = None
            if len(setup_raw) == MIN_PASSES:
                # After a fixed amount of work: the latency samples grow
                # with every pass, and a faster program fits more passes.
                peak_rss = peak_rss_mb()
    finally:
        workload.cleanup()
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: {len(set(digests))} distinct output digests")

    scaled = np.sort(np.frombuffer(clock.scaled_samples))
    raw_samples = np.sort(np.frombuffer(clock.raw_samples))
    p50, _ = percentile(scaled, 50.0)
    p99, beyond = tail(scaled, 99.0)
    correct = not problems
    success = (attempted - failed) / attempted if correct else 0.0
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "rate_per_s": (items / clock.scaled_s, "1/s"),
        "p50_ms": (p50 * 1e3, "ms"),
        "tail_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
        "success_rate": (success, "ratio"),
    }
    top = highest_tail_percentile(len(scaled))
    details = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(setup_raw),
        "items": items,
        "item_unit": workload.item_unit,
        "samples": len(scaled),
        "tail_percentile": 99.0,
        "tail_beyond": beyond,
        "highest_tail_percentile": top,
        "highest_tail_ms": percentile(scaled, top)[0] * 1e3,
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "rate_per_s": items / clock.raw_s,
            "p50_ms": percentile(raw_samples, 50.0)[0] * 1e3,
            "tail_ms": percentile(raw_samples, 99.0)[0] * 1e3,
        },
        "timed_raw_s": clock.raw_s,
        "factor_median": statistics.median(clock.factors),
        "factor_min": min(clock.factors),
        "factor_max": max(clock.factors),
        "digest": digests[0],
        "problems": problems,
    }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def traced_run(workload: Workload, seed: int) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics."""
    probe = SpeedProbe()
    plain = ChunkClock(probe)
    recorder = SpanRecorder()
    traced = ChunkClock(probe)
    try:
        workload.prepare(seed, WORKDIR)
        gc.collect()
        state, _ = timed_setup(workload, probe)
        plain.start()
        plain_stats = workload.run_pass(state, plain)
        plain_digest, problems = check_pass(workload, state, seed)
        state = None
        gc.collect()
        with install(recorder):
            state, setup_clock = timed_setup(workload, probe)
            setup_spans = len(recorder)
            start_counts = layers.counters(workload, state)
            traced.start()
            stats = workload.run_pass(state, traced)
    finally:
        workload.cleanup()
    end_counts = layers.counters(workload, state)
    traced_digest, traced_problems = check_pass(workload, state, seed)
    problems.extend(p for p in traced_problems if p not in problems)
    if traced_digest != plain_digest:
        problems.append("traced pass outputs differ from the untraced pass")

    WORKDIR.mkdir(parents=True, exist_ok=True)
    # One file per workload (the latest traced run) keeps disk use bounded.
    span_path = WORKDIR / f"spans-{workload.name}.npz"
    recorder.save(span_path, seed=seed)

    report = layers.per_layer(
        recorder,
        setup_spans=setup_spans,
        setup_raw_s=setup_clock.raw_s,
        setup_factor=setup_clock.scaled_s / setup_clock.raw_s,
        pass_raw_s=traced.raw_s,
        pass_scaled_s=traced.scaled_s,
        plain_per_item_scaled=plain.scaled_s / plain_stats.items,
        stats=stats,
        delta=layers.delta(start_counts, end_counts),
        loaded=len(getattr(state, "trace", ())),
    )
    correct = not problems
    details = {
        "workload": workload.name,
        "seed": seed,
        "items": stats.items,
        "item_unit": workload.item_unit,
        "captures": stats.attempted,
        "spans": len(recorder),
        "span_file": str(span_path),
        "digest": traced_digest,
        "problems": problems,
        **report.details,
    }
    return {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": report.metrics,
        "details": details,
    }


def write_reference(workload: Workload) -> Path:
    """Record the default seed's canonical outputs as the reference."""
    try:
        workload.prepare(DEFAULT_SEED, WORKDIR)
        probe = SpeedProbe()
        state, _ = timed_setup(workload, probe)
        clock = ChunkClock(probe)
        clock.start()
        workload.run_pass(state, clock)
    finally:
        workload.cleanup()
    lines = workload.outputs(state)
    problems = workload.problems(state)
    if problems:
        raise SystemExit(f"refusing to record a failing reference: {problems}")
    path = reference_path(workload.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload.name,
        "seed": DEFAULT_SEED,
        "lines": len(lines),
        "digest": digest(lines),
        "summary": workload.summary(state),
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
