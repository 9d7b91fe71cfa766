"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload replay --seed 7 --seconds 25 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics in
``BENCHMARK.json``; with ``--trace 1`` it makes one untraced and one
traced pass and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it holds the
details (raw values, sample counts, percentiles, output digests).
``--write-reference`` re-records a workload's default-seed outputs.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
WORKLOAD_NAMES = ("live-wsn", "replay", "replay-allon")


def emit(result: dict) -> None:
    print(json.dumps({"details": result["details"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's outputs for --workload")
    parser.add_argument("--generate-trace", metavar="PATH",
                        help="(internal) write the replay trace for --seed to PATH")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import harness, workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.generate_trace:
        workloads.generate_trace(seed, Path(args.generate_trace))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = workloads.WORKLOADS[args.workload]()
    if args.write_reference:
        print(harness.write_reference(workload))
    elif args.trace:
        emit(harness.traced_run(workload, seed))
    else:
        emit(harness.timed_run(workload, seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
