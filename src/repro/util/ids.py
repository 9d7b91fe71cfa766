"""Node and entity identifiers.

Every simulated entity (IoT device, WSN mote, router, Kalis node, cloud
service) is addressed by a :class:`NodeId` — a lightweight, hashable,
totally-ordered wrapper around a string identifier.  Using a dedicated
type rather than bare strings makes interfaces self-documenting and lets
us validate identifiers at construction time.
"""

from __future__ import annotations

import itertools
import re
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator

_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.:\-]*$")


@dataclass(frozen=True, order=True)
class NodeId:
    """An identifier for a node, device, or IDS instance.

    Identifiers must be non-empty, start with an alphanumeric character
    and contain only alphanumerics, ``_``, ``.``, ``:`` and ``-``.  The
    ``$`` and ``@`` characters are reserved because the Kalis knowledge
    base uses them as separators in knowgget keys (see
    :mod:`repro.core.knowledge`).
    """

    value: str

    def __post_init__(self) -> None:
        if not isinstance(self.value, str):
            raise TypeError(f"NodeId value must be str, got {type(self.value).__name__}")
        if not _ID_PATTERN.match(self.value):
            raise ValueError(
                f"invalid node id {self.value!r}: must match {_ID_PATTERN.pattern}"
            )

    # Hand-written rather than generated: the generated pair builds a
    # one-element tuple on every dict lookup keyed by a NodeId.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeId):
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        return self.value

    def with_suffix(self, suffix: str) -> "NodeId":
        """Return a derived id, e.g. ``NodeId('mote1').with_suffix('clone')``."""
        return NodeId(f"{self.value}-{suffix}")


def interned_node_id(value: str, table: Dict[str, NodeId]) -> NodeId:
    """The one ``NodeId`` for ``value`` in ``table``, built and validated on first use.

    Decoders share a table across everything they read at once (a whole
    trace file), so equal ids become one object: validation runs once
    per distinct id, and dict lookups keyed by the id hit on identity.
    """
    node = table.get(value)
    if node is None:
        node = table[value] = NodeId(value)
    return node


def stable_hash(node: NodeId) -> int:
    """A process-independent hash of a node id.

    Python's built-in ``hash`` for strings is salted per process, so
    anything that must be reproducible across runs (e.g. per-node timing
    jitter) uses this instead.
    """
    return zlib.crc32(node.value.encode("utf-8"))


def make_node_id(prefix: str, index: int) -> NodeId:
    """Build a conventional id like ``mote-3`` from a prefix and an index."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return NodeId(f"{prefix}-{index}")


def node_id_sequence(prefix: str, start: int = 0) -> Iterator[NodeId]:
    """Yield an unbounded sequence of ids ``prefix-start``, ``prefix-start+1``, ..."""
    for index in itertools.count(start):
        yield make_node_id(prefix, index)
