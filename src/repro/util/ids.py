"""Node and entity identifiers.

Every simulated entity (IoT device, WSN mote, router, Kalis node, cloud
service) is addressed by a :class:`NodeId` — a lightweight, hashable,
totally-ordered wrapper around a string identifier.  Using a dedicated
type rather than bare strings makes interfaces self-documenting and lets
us validate identifiers at construction time.
"""

from __future__ import annotations

import functools
import itertools
import re
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.:\-]*$")


#: The one ``NodeId`` per id string, so equality and hashing are identity.
_INTERNED: Dict[str, "NodeId"] = {}


@functools.total_ordering
@dataclass(frozen=True, eq=False, init=False)
class NodeId:
    """An identifier for a node, device, or IDS instance.

    Identifiers must be non-empty, start with an alphanumeric character
    and contain only alphanumerics, ``_``, ``.``, ``:`` and ``-``.  The
    ``$`` and ``@`` characters are reserved because the Kalis knowledge
    base uses them as separators in knowgget keys (see
    :mod:`repro.core.knowledge`).

    ``NodeId(value)`` returns the one instance for ``value`` in this
    process, validated on first use; copying or unpickling goes through
    it too.  Equal ids are therefore one object, so equality and hashing
    are object identity (run in C), and ordering is by value.
    """

    value: str

    def __new__(cls, value: str) -> "NodeId":
        try:
            return _INTERNED[value]
        except (KeyError, TypeError):  # a new id, or an unhashable value
            pass
        if not isinstance(value, str):
            raise TypeError(f"NodeId value must be str, got {type(value).__name__}")
        if not _ID_PATTERN.match(value):
            raise ValueError(f"invalid node id {value!r}: must match {_ID_PATTERN.pattern}")
        value = str.__str__(value)  # a plain copy of a str subclass
        node = object.__new__(cls)
        object.__setattr__(node, "value", value)
        # A str subclass with its own hash can miss the lookup above;
        # setdefault never replaces the id interned first.
        return _INTERNED.setdefault(value, node)

    def __reduce__(self) -> Tuple[type, Tuple[str]]:
        return NodeId, (self.value,)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, NodeId):
            return self.value < other.value
        return NotImplemented

    def __str__(self) -> str:
        return self.value

    def with_suffix(self, suffix: str) -> "NodeId":
        """Return a derived id, e.g. ``NodeId('mote1').with_suffix('clone')``."""
        return NodeId(f"{self.value}-{suffix}")


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
