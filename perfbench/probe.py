"""Machine-speed probe, chunk scaling and percentile rules.

Raw wall times on a small shared VM swing by tens of percent between
one-second windows, far more than the gains a change to one layer can
show.  The benchmark therefore times its work in chunks and runs a fixed
speed probe between consecutive chunks, never inside one.  A chunk's
*scale factor* is ``REFERENCE_PROBE_S`` divided by the mean of the probe
times taken just before and just after it, so a chunk that ran while the
machine was slow is scaled down by the same ratio the probe was.  Scaled
values read as "seconds on the reference machine state"; raw values are
always reported beside them.

The probe and its reference constant are part of the benchmark and must
not change between the commits being compared.
"""

from __future__ import annotations

import difflib
import io
import math
import time
import tokenize
from array import array
from typing import List, Sequence, Tuple

#: Mean seconds of one probe kernel run on the reference machine state
#: (a 2-core VM).  Any fixed value works for comparisons; this one keeps
#: scaled numbers close to raw ones there.
REFERENCE_PROBE_S = 0.00025

#: Kernel runs per probe between timed chunks, and between set-up pieces.
#: Timed chunks are a few milliseconds long, shorter than the machine's
#: speed states (see :class:`SpeedProbe`), so one kernel run on each side
#: reads the state the chunk ran in.  Set-up pieces run for tens to
#: hundreds of milliseconds across many states, so their probes average
#: more runs.
PROBE_REPS = 1
SETUP_PROBE_REPS = 8

#: Minimum samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Percentiles the tail rule chooses from, highest last.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99, 99.999)

_LEFT = "def foo(x):\n    return [y * 2 for y in range(x) if y % 3]\n"
_RIGHT = _LEFT.replace("3", "5").replace("foo", "bar")


class SpeedProbe:
    """A fixed pure-Python kernel whose run time tracks interpreter speed.

    The 2-core VM this benchmark was tuned on flips between a full-speed
    state and one about 1.85x slower in bursts of 5-30 ms, and the share
    of time spent slow drifts over seconds.  A probe only corrects for
    that if it slows down by the same ratio as the workload.  Tight
    arithmetic loops and strided memory walks overreact; object-heavy
    library code reacts like the Kalis pipeline does, so the kernel
    (about 0.2 ms) is a ``difflib`` sequence match plus a ``tokenize``
    pass over a fixed snippet, both pure Python in the standard library.
    """

    @staticmethod
    def _kernel() -> int:
        ratio = difflib.SequenceMatcher(None, _LEFT, _RIGHT).ratio()
        tokens = tokenize.generate_tokens(io.StringIO(_LEFT).readline)
        return int(ratio * 1000) + sum(1 for _ in tokens)

    def measure(self, reps: int = PROBE_REPS) -> float:
        """Mean seconds per kernel run over ``reps`` timed runs.

        One untimed run goes first: right after a chunk the kernel's code
        and data are out of cache and a garbage collection the chunk's
        allocations made due may fire, which would charge the chunk's
        side effects to the machine's speed.
        """
        self._kernel()
        clock = time.perf_counter
        start = clock()
        for _ in range(reps):
            self._kernel()
        return (clock() - start) / reps


def chunk_factor(probe_before: float, probe_after: float) -> float:
    """Scale factor for one chunk from the probes on either side of it."""
    mean = (probe_before + probe_after) / 2.0
    if mean <= 0.0:
        raise ValueError(f"probe times must be positive, got {probe_before}, {probe_after}")
    return REFERENCE_PROBE_S / mean


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` values.

    The product is rounded first so that, e.g., p99.9 of 10,000 values is
    rank 9,990 rather than 9,991 from floating-point error.
    """
    return max(1, math.ceil(round(q / 100.0 * count, 9)))


def percentile(sorted_values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile of pre-sorted values.

    Returns ``(value, beyond)`` where ``beyond`` counts the samples that
    lie strictly after the chosen rank.
    """
    count = len(sorted_values)
    if count == 0:
        raise ValueError("no samples")
    rank = _rank(q, count)
    return sorted_values[rank - 1], count - rank


def tail(sorted_values: Sequence[float], q: float = 99.0) -> Tuple[float, int]:
    """The ``q`` percentile, refusing one with too few samples beyond it."""
    value, beyond = percentile(sorted_values, q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(sorted_values)} samples has only {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return value, beyond


def highest_tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond."""
    best = None
    for q in TAIL_LADDER:
        if count - _rank(q, count) >= MIN_BEYOND:
            best = q
    if best is None:
        raise ValueError(f"{count} samples are too few for any tail percentile")
    return best


class ChunkClock:
    """Accumulates raw and scaled time over probe-delimited chunks.

    Usage: call :meth:`start` once, then :meth:`close_chunk` after each
    chunk with that chunk's raw seconds and samples.  The probe that ends
    one chunk also opens the next, so each boundary costs one probe.
    """

    def __init__(self, probe: SpeedProbe, reps: int = PROBE_REPS) -> None:
        self.probe = probe
        self.reps = reps
        self._last_probe = None
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.factors: List[float] = []
        # Flat float arrays: the samples live for the whole run.
        self.raw_samples = array("d")
        self.scaled_samples = array("d")

    def start(self) -> None:
        """Open the first chunk with a probe."""
        self._last_probe = self.probe.measure(self.reps)

    def close_chunk(self, raw_seconds: float, samples: Sequence[float] = ()) -> float:
        """Probe, scale the finished chunk, and return its factor."""
        if self._last_probe is None:
            raise RuntimeError("ChunkClock.start() was not called")
        after = self.probe.measure(self.reps)
        factor = chunk_factor(self._last_probe, after)
        self._last_probe = after
        self.factors.append(factor)
        self.raw_s += raw_seconds
        self.scaled_s += raw_seconds * factor
        self.raw_samples.extend(samples)
        self.scaled_samples.extend(sample * factor for sample in samples)
        return factor
