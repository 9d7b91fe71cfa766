"""The Knowledge Base and knowggets.

A *knowgget* ("knowledge nugget") is the paper's unit of knowledge: a
tuple ``k = <label, value, creator, entity>`` (§IV-B3).  Following the
paper's implementation (§V, Figure 5b), the Knowledge Base stores each
knowgget as a string key-value pair with the key encoded as::

    creator$label@entity        (the @entity part only when present)

Multilevel knowggets flatten their label hierarchy in dot notation, so
the TCP SYN sub-frequency created by Kalis node T1 lives under the key
``T1$TrafficFrequency.TCPSYN``.

Lookup patterns the encoding supports (all from the paper):

- *local vs collective*: prefix match on the creator segment;
- *per-entity*: suffix match on the ``@entity`` segment;
- *exact*: full key match.

The Knowledge Base publishes every change on an event bus so the Module
Manager and subscribed modules react immediately (the paper's
publish-subscribe dynamic module configuration), and it enforces the
collective-update rule: a remote node may only update knowggets it
originally created.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from repro.eventbus.bus import EventBus
from repro.util.ids import NodeId

#: Bus topic prefix for knowledge-change events; the full topic is
#: ``knowledge.<encoded key>`` and the payload is the Knowgget.
KNOWLEDGE_TOPIC_PREFIX = "knowledge."

PrimitiveValue = Union[bool, int, float, str]


def encode_value(value: PrimitiveValue) -> str:
    """Render a primitive knowgget value as its stored string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_bool(raw: str) -> bool:
    """Parse the stored string form of a boolean knowgget value."""
    lowered = raw.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"not a boolean knowgget value: {raw!r}")


_PARSERS: Dict[type, Callable[[str], Any]] = {
    bool: parse_bool,
    int: lambda raw: int(raw.strip()),
    float: lambda raw: float(raw.strip()),
    str: lambda raw: raw,
}


def encode_key(creator: NodeId, label: str, entity: Optional[NodeId] = None) -> str:
    """Encode ``creator$label@entity`` per the paper's scheme."""
    if not label:
        raise ValueError("knowgget label must be non-empty")
    if "$" in label or "@" in label:
        raise ValueError(f"label may not contain '$' or '@': {label!r}")
    key = f"{creator.value}${label}"
    if entity is not None:
        key += f"@{entity.value}"
    return key


def decode_key(key: str) -> Tuple[NodeId, str, Optional[NodeId]]:
    """Invert :func:`encode_key`; returns (creator, label, entity)."""
    creator_part, separator, remainder = key.partition("$")
    if not separator or not creator_part or not remainder:
        raise ValueError(f"malformed knowgget key: {key!r}")
    label, at, entity_part = remainder.partition("@")
    if not label:
        raise ValueError(f"malformed knowgget key (empty label): {key!r}")
    entity = NodeId(entity_part) if at and entity_part else None
    if at and not entity_part:
        raise ValueError(f"malformed knowgget key (empty entity): {key!r}")
    return NodeId(creator_part), label, entity


class Knowgget(NamedTuple):
    """One piece of knowledge: ``<label, value, creator, entity>``."""

    label: str
    value: str
    creator: NodeId
    entity: Optional[NodeId] = None
    collective: bool = False

    @property
    def key(self) -> str:
        return encode_key(self.creator, self.label, self.entity)

    def parsed(self, expect: type) -> Any:
        """The value parsed as ``expect`` (bool, int, float or str)."""
        parser = _PARSERS.get(expect)
        if parser is None:
            raise TypeError(f"unsupported knowgget type {expect!r}")
        return parser(self.value)

    @property
    def root_label(self) -> str:
        """The first segment of a multilevel label."""
        return self.label.split(".", 1)[0]


#: Builds a :class:`Knowgget` in C, skipping the Python-level ``__new__``
#: NamedTuple generates; the tuple must hold every field, defaults too.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class LabelFilter:
    """Knowledge topics whose knowgget has one of ``labels``.

    A bus ``where`` predicate: any creator, any entity.  A topic that is
    not a well-formed knowledge key matches nothing.
    """

    labels: FrozenSet[str]

    def __call__(self, topic: str) -> bool:
        remainder = topic[len(KNOWLEDGE_TOPIC_PREFIX):].partition("$")[2]
        return remainder.partition("@")[0] in self.labels


class KnowledgeBase:
    """The centralized store of knowggets for one Kalis node.

    :param owner: the local Kalis node's identity (the default creator).
    :param bus: event bus on which change events are published.
    """

    def __init__(self, owner: NodeId, bus: Optional[EventBus] = None) -> None:
        self.owner = owner
        self.bus = bus if bus is not None else EventBus()
        self._store: Dict[str, Knowgget] = {}
        #: (label, entity) -> the encoded key of a local knowgget, filled
        #: by :meth:`put` once the pair has been validated.
        self._key_memo: Dict[Tuple[str, Optional[NodeId]], str] = {}
        #: Callbacks invoked with every locally-created collective
        #: knowgget change; the collective-sync layer registers here.
        self._collective_listeners: List[Callable[[Knowgget], None]] = []
        self.change_count = 0

    # -- writing ---------------------------------------------------------------

    def put(
        self,
        label: str,
        value: PrimitiveValue,
        entity: Optional[NodeId] = None,
        collective: bool = False,
    ) -> Knowgget:
        """Insert or update a locally-created knowgget.

        Publishing is change-driven: writing an identical value is a
        no-op (no event), which keeps periodic sensing modules from
        flooding the bus.  Each (label, entity) pair is encoded and
        validated on its first write only; an invalid label is never
        memoised, so it raises on every attempt.  A value that is
        exactly a ``str`` is already its stored form (a subclass may
        render differently, so it is encoded like any other value).
        """
        pair = (label, entity)
        key = self._key_memo.get(pair)
        if key is None:
            key = self._key_memo[pair] = encode_key(self.owner, label, entity)
        encoded = value if type(value) is str else encode_value(value)
        existing = self._store.get(key)
        if existing is not None and existing.value == encoded:
            return existing  # unchanged; no event
        knowgget = _new_tuple(
            Knowgget, (label, encoded, self.owner, entity, collective)
        )
        return self._commit(key, knowgget, from_remote=False)

    def put_static(self, label: str, value: PrimitiveValue,
                   entity: Optional[NodeId] = None) -> Knowgget:
        """Insert an a-priori knowgget from a configuration file.

        Per the paper, static knowggets "might specify an 'entity'
        field, but not a 'creator' field" — the local node's identity is
        assigned automatically, which :meth:`put` already does.
        """
        return self.put(label, value, entity=entity)

    def apply_remote(self, knowgget: Knowgget, sender: NodeId) -> bool:
        """Accept a collective knowgget from another Kalis node.

        Enforces the paper's rule: the sender "can only update those
        knowggets ... that were originally generated by itself" — the
        knowgget's creator must be the sender, and any existing entry
        under the same key must share that creator (which the key
        encoding already guarantees).  Returns True if accepted.
        """
        if knowgget.creator != sender:
            return False
        if knowgget.creator == self.owner:
            return False  # nobody may overwrite our own knowledge
        key = knowgget.key
        existing = self._store.get(key)
        if existing is None or existing.value != knowgget.value:
            self._commit(key, knowgget, from_remote=True)
        return True

    def remove(self, label: str, entity: Optional[NodeId] = None) -> bool:
        """Delete a local knowgget; returns True if it existed."""
        key = encode_key(self.owner, label, entity)
        existing = self._store.pop(key, None)
        if existing is None:
            return False
        self.change_count += 1
        self.bus.publish(KNOWLEDGE_TOPIC_PREFIX + key, None)
        return True

    def _commit(self, key: str, knowgget: Knowgget, from_remote: bool) -> Knowgget:
        self._store[key] = knowgget
        self.change_count += 1
        self.bus.publish(KNOWLEDGE_TOPIC_PREFIX + key, knowgget)
        if knowgget.collective and not from_remote:
            for listener in self._collective_listeners:
                listener(knowgget)
        return knowgget

    # -- reading -----------------------------------------------------------------

    def get(
        self,
        label: str,
        expect: type = str,
        creator: Optional[NodeId] = None,
        entity: Optional[NodeId] = None,
        default: Any = None,
    ) -> Any:
        """Fetch and parse one knowgget's value, or ``default``."""
        key = encode_key(creator if creator is not None else self.owner, label, entity)
        knowgget = self._store.get(key)
        if knowgget is None:
            return default
        return knowgget.parsed(expect)

    def get_knowgget(
        self,
        label: str,
        creator: Optional[NodeId] = None,
        entity: Optional[NodeId] = None,
    ) -> Optional[Knowgget]:
        key = encode_key(creator if creator is not None else self.owner, label, entity)
        return self._store.get(key)

    def local_knowggets(self) -> List[Knowgget]:
        """Knowggets created by this node (prefix match on creator)."""
        prefix = f"{self.owner.value}$"
        return [
            self._store[key] for key in sorted(self._store) if key.startswith(prefix)
        ]

    def remote_knowggets(self) -> List[Knowgget]:
        """Knowggets received from other Kalis nodes."""
        prefix = f"{self.owner.value}$"
        return [
            self._store[key]
            for key in sorted(self._store)
            if not key.startswith(prefix)
        ]

    def about_entity(self, entity: NodeId) -> List[Knowgget]:
        """All knowggets about one entity (suffix match), any creator."""
        suffix = f"@{entity.value}"
        return [
            self._store[key] for key in sorted(self._store) if key.endswith(suffix)
        ]

    def with_label(self, label: str) -> List[Knowgget]:
        """All knowggets with an exact label, from any creator/entity."""
        return [
            knowgget
            for key, knowgget in sorted(self._store.items())
            if knowgget.label == label
        ]

    def sublabels(self, root_label: str, creator: Optional[NodeId] = None) -> Dict[str, Knowgget]:
        """A multilevel knowgget's children: ``root.<sub>`` entries.

        Returns a map from the sub-label (the part after the first dot)
        to the knowgget.
        """
        chosen_creator = creator if creator is not None else self.owner
        prefix = f"{root_label}."
        result: Dict[str, Knowgget] = {}
        for key in sorted(self._store):
            knowgget = self._store[key]
            if knowgget.creator != chosen_creator:
                continue
            if knowgget.label.startswith(prefix):
                result[knowgget.label[len(prefix):]] = knowgget
        return result

    def snapshot(self) -> Dict[str, str]:
        """The raw key-value view (paper Figure 5b), for display/tests."""
        return {key: self._store[key].value for key in sorted(self._store)}

    def __len__(self) -> int:
        return len(self._store)

    def rebuild_derived_state(self) -> None:
        """Restore hook: drop the memoised keys; puts re-encode them."""
        self._key_memo = {}

    # -- change notification --------------------------------------------------------

    def subscribe(self, label: str, handler, creator: Optional[NodeId] = None,
                  entity: Optional[NodeId] = None):
        """Subscribe to changes of one exact knowgget."""
        key = encode_key(creator if creator is not None else self.owner, label, entity)
        return self.bus.subscribe(KNOWLEDGE_TOPIC_PREFIX + key, handler)

    def subscribe_all(self, handler):
        """Subscribe to every knowledge change."""
        return self.bus.subscribe_prefix(KNOWLEDGE_TOPIC_PREFIX, handler)

    def subscribe_labels(self, labels: Iterable[str], handler):
        """Subscribe to changes of knowggets with any of ``labels``, from
        any creator and about any entity, remote updates included.

        The bus resolves the label test once per topic, so a change of
        any other knowgget costs this subscription nothing.
        """
        return self.bus.subscribe_prefix(
            KNOWLEDGE_TOPIC_PREFIX, handler, where=LabelFilter(frozenset(labels))
        )

    def add_collective_listener(self, listener: Callable[[Knowgget], None]) -> None:
        self._collective_listeners.append(listener)

    # -- memory accounting (RAM-proxy input) ------------------------------------------

    def approximate_bytes(self) -> int:
        """Rough in-memory footprint of the stored key-value strings."""
        total = 0
        for key, knowgget in self._store.items():
            total += len(key) + len(knowgget.value) + 16
        return total
