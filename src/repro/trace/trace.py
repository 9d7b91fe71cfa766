"""An ordered collection of trace records with persistence and merging."""

from __future__ import annotations

import gzip
import json
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Set

from repro.sim.capture import Capture
from repro.trace.record import TraceRecord

#: Sort key of a record: its capture's timestamp, read without a Python
#: call per record (``sort`` is stable, so equal timestamps keep order).
_BY_TIME = attrgetter("capture.timestamp")


class Trace:
    """A time-ordered traffic trace.

    Records are kept sorted by timestamp; appends that respect time
    order are O(1) and out-of-order batches are sorted on demand.
    """

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None) -> None:
        self._records: List[TraceRecord] = list(records) if records else []
        self._records.sort(key=_BY_TIME)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    # -- building ----------------------------------------------------------------

    def append(self, record: TraceRecord) -> None:
        if self._records and record.timestamp < self._records[-1].timestamp:
            # Insert keeping order; rare path (injected symptoms).
            self._records.append(record)
            self._records.sort(key=_BY_TIME)
        else:
            self._records.append(record)

    def merged_with(self, other: "Trace") -> "Trace":
        """A new trace interleaving this one with another by time."""
        return Trace(list(self._records) + list(other._records))

    def shifted(self, delta: float) -> "Trace":
        """A copy with every timestamp shifted by ``delta``."""
        return Trace(record.shifted(delta) for record in self._records)

    # -- queries ---------------------------------------------------------------

    @property
    def duration(self) -> float:
        if not self._records:
            return 0.0
        return self._records[-1].timestamp - self._records[0].timestamp

    def between(self, start: float, end: float) -> "Trace":
        """Records with ``start <= timestamp < end``."""
        return Trace(
            record
            for record in self._records
            if start <= record.timestamp < end
        )

    def filtered(self, predicate: Callable[[TraceRecord], bool]) -> "Trace":
        return Trace(record for record in self._records if predicate(record))

    def attack_records(self) -> "Trace":
        return self.filtered(lambda record: record.is_attack)

    def benign_records(self) -> "Trace":
        return self.filtered(lambda record: not record.is_attack)

    def attack_instances(self) -> Set[tuple]:
        """Distinct ground-truth adverse events: (attack, instance) pairs."""
        return {
            (record.attack, record.instance)
            for record in self._records
            if record.is_attack
        }

    def captures(self) -> List[Capture]:
        """The observable view: captures only, no ground truth."""
        return [record.capture for record in self._records]

    # -- persistence --------------------------------------------------------------

    def save(self, path) -> None:
        """Write the trace as JSONL; ``.gz`` suffix enables gzip."""
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(json.dumps(record.to_dict(), separators=(",", ":")))
                handle.write("\n")

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a trace written by :meth:`save`.

        A malformed record raises ``ValueError`` naming ``path:line``.
        """
        path = Path(path)
        opener = gzip.open if path.suffix == ".gz" else open
        records = []
        with opener(path, "rt", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(TraceRecord.from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as error:
                    raise ValueError(
                        f"{path}:{line_number}: malformed trace record: {error}"
                    ) from error
        return cls(records)
