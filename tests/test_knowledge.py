"""Tests for knowggets and the Knowledge Base (paper §IV-B3 / §V)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.knowledge import (
    KNOWLEDGE_TOPIC_PREFIX,
    Knowgget,
    KnowledgeBase,
    decode_key,
    encode_key,
    encode_value,
    parse_bool,
)
from repro.util.ids import NodeId

T1, T2 = NodeId("T1"), NodeId("T2")
SENSOR = NodeId("SensorA")


class TestKeyEncoding:
    def test_paper_figure5_examples(self):
        """The exact keys from the paper's Figure 5b."""
        assert encode_key(NodeId("K1"), "Multihop") == "K1$Multihop"
        assert (
            encode_key(NodeId("K1"), "SignalStrength", SENSOR)
            == "K1$SignalStrength@SensorA"
        )
        assert (
            encode_key(NodeId("K1"), "TrafficFrequency.TCPSYN")
            == "K1$TrafficFrequency.TCPSYN"
        )

    def test_decode_inverts_encode(self):
        creator, label, entity = decode_key("T1$TrafficFrequency.TCPSYN@SensorA")
        assert creator == T1
        assert label == "TrafficFrequency.TCPSYN"
        assert entity == SENSOR

    def test_decode_without_entity(self):
        assert decode_key("T1$Multihop") == (T1, "Multihop", None)

    def test_malformed_keys_rejected(self):
        for bad in ("nolabel", "$label", "T1$", "T1$label@"):
            with pytest.raises(ValueError):
                decode_key(bad)

    def test_label_may_not_contain_separators(self):
        with pytest.raises(ValueError):
            encode_key(T1, "a$b")
        with pytest.raises(ValueError):
            encode_key(T1, "a@b")
        with pytest.raises(ValueError):
            encode_key(T1, "")


class TestValueParsing:
    def test_bool_encoding(self):
        assert encode_value(True) == "true"
        assert encode_value(False) == "false"
        assert parse_bool("true") is True
        assert parse_bool(" FALSE ") is False

    def test_bad_bool(self):
        with pytest.raises(ValueError):
            parse_bool("maybe")

    def test_knowgget_typed_parsing(self):
        knowgget = Knowgget(label="MonitoredNodes", value="8", creator=T1)
        assert knowgget.parsed(int) == 8
        assert knowgget.parsed(str) == "8"
        assert knowgget.parsed(float) == 8.0

    def test_unsupported_type(self):
        knowgget = Knowgget(label="x", value="1", creator=T1)
        with pytest.raises(TypeError):
            knowgget.parsed(list)

    def test_root_label(self):
        knowgget = Knowgget(label="TrafficFrequency.TCPSYN", value="1", creator=T1)
        assert knowgget.root_label == "TrafficFrequency"


class TestKnowledgeBase:
    def test_put_and_get(self):
        kb = KnowledgeBase(T1)
        kb.put("Multihop", True)
        assert kb.get("Multihop", bool) is True

    def test_get_default_when_absent(self):
        kb = KnowledgeBase(T1)
        assert kb.get("Missing", bool, default=False) is False
        assert kb.get("Missing") is None

    def test_entity_scoping(self):
        kb = KnowledgeBase(T1)
        kb.put("SignalStrength", -67, entity=SENSOR)
        assert kb.get("SignalStrength", int, entity=SENSOR) == -67
        assert kb.get("SignalStrength", int) is None

    def test_snapshot_matches_paper_representation(self):
        kb = KnowledgeBase(NodeId("K1"))
        kb.put("Multihop", True)
        kb.put("SignalStrength", -67, entity=SENSOR)
        kb.put("TrafficFrequency.TCPSYN", 0.037)
        snapshot = kb.snapshot()
        assert snapshot["K1$Multihop"] == "true"
        assert snapshot["K1$SignalStrength@SensorA"] == "-67"
        assert snapshot["K1$TrafficFrequency.TCPSYN"] == "0.037"

    def test_change_events_published(self):
        kb = KnowledgeBase(T1)
        events = []
        kb.subscribe_all(lambda e: events.append(e.topic))
        kb.put("Multihop", True)
        assert events == [KNOWLEDGE_TOPIC_PREFIX + "T1$Multihop"]

    def test_identical_value_is_no_op(self):
        kb = KnowledgeBase(T1)
        events = []
        kb.subscribe_all(lambda e: events.append(e))
        kb.put("Multihop", True)
        kb.put("Multihop", True)
        assert len(events) == 1
        assert kb.change_count == 1

    def test_exact_subscription(self):
        kb = KnowledgeBase(T1)
        hits = []
        kb.subscribe("Mobility", lambda e: hits.append(e.payload.value))
        kb.put("Mobility", False)
        kb.put("Multihop", True)
        assert hits == ["false"]

    def test_remove(self):
        kb = KnowledgeBase(T1)
        kb.put("Multihop", True)
        assert kb.remove("Multihop")
        assert kb.get("Multihop", bool) is None
        assert not kb.remove("Multihop")

    def test_sublabels_of_multilevel_knowgget(self):
        kb = KnowledgeBase(T1)
        kb.put("TrafficFrequency.TCPSYN", 0.1)
        kb.put("TrafficFrequency.TCPACK", 0.2)
        kb.put("Other", 1)
        children = kb.sublabels("TrafficFrequency")
        assert set(children) == {"TCPSYN", "TCPACK"}

    def test_about_entity(self):
        kb = KnowledgeBase(T1)
        kb.put("SignalStrength", -67, entity=SENSOR)
        kb.put("TrafficOut.UDP", 0.5, entity=SENSOR)
        kb.put("Multihop", True)
        assert len(kb.about_entity(SENSOR)) == 2

    def test_with_label_across_creators(self):
        kb = KnowledgeBase(T1)
        kb.put("ForwardingAnomaly", True, entity=NodeId("B1"))
        remote = Knowgget(
            label="ForwardingAnomaly", value="true", creator=T2,
            entity=NodeId("B2"), collective=True,
        )
        kb.apply_remote(remote, sender=T2)
        assert len(kb.with_label("ForwardingAnomaly")) == 2

    def test_approximate_bytes_grows(self):
        kb = KnowledgeBase(T1)
        empty = kb.approximate_bytes()
        kb.put("Multihop", True)
        assert kb.approximate_bytes() > empty


class TestCollectiveRules:
    def test_remote_update_requires_creator_match(self):
        """T1 can only update knowggets that T1 itself created (paper)."""
        kb = KnowledgeBase(T1)
        forged = Knowgget(label="Mobility", value="true", creator=NodeId("T3"))
        assert not kb.apply_remote(forged, sender=T2)

    def test_remote_cannot_overwrite_local(self):
        kb = KnowledgeBase(T1)
        kb.put("Mobility", False)
        hostile = Knowgget(label="Mobility", value="true", creator=T1)
        assert not kb.apply_remote(hostile, sender=T1)
        assert kb.get("Mobility", bool) is False

    def test_accepted_remote_stored_under_remote_creator(self):
        kb = KnowledgeBase(T1)
        remote = Knowgget(label="Mobility", value="true", creator=T2)
        assert kb.apply_remote(remote, sender=T2)
        assert kb.get("Mobility", bool, creator=T2) is True
        assert kb.get("Mobility", bool) is None  # local view unchanged

    def test_local_and_remote_partition(self):
        kb = KnowledgeBase(T1)
        kb.put("Multihop", True)
        kb.apply_remote(
            Knowgget(label="Multihop", value="false", creator=T2), sender=T2
        )
        assert len(kb.local_knowggets()) == 1
        assert len(kb.remote_knowggets()) == 1

    def test_collective_listener_fires_for_local_collective_only(self):
        kb = KnowledgeBase(T1)
        shared = []
        kb.add_collective_listener(shared.append)
        kb.put("Private", 1)
        kb.put("Shared", 2, collective=True)
        kb.apply_remote(
            Knowgget(label="Shared", value="3", creator=T2, collective=True),
            sender=T2,
        )
        assert [k.label for k in shared] == ["Shared"]


class TestKnowggetValue:
    KNOWGGET = Knowgget("TrafficIn.ICMPReply", "4.5", T1, SENSOR, True)
    FIELDS = ("TrafficIn.ICMPReply", "4.5", T1, SENSOR, True)

    def test_fields_are_read_only(self):
        for name in ("label", "value", "creator", "entity", "collective"):
            with pytest.raises(AttributeError):
                setattr(self.KNOWGGET, name, None)

    def test_equality_and_hash_are_the_field_tuple(self):
        assert self.KNOWGGET == self.FIELDS
        assert hash(self.KNOWGGET) == hash(self.FIELDS)
        assert self.KNOWGGET == Knowgget(
            label="TrafficIn.ICMPReply", value="4.5", creator=T1,
            entity=SENSOR, collective=True,
        )
        assert Knowgget("Multihop", "true", T1) == ("Multihop", "true", T1, None, False)
        assert self.KNOWGGET != Knowgget("TrafficIn.ICMPReply", "4.5", T1, SENSOR)

    def test_repr_is_pinned(self):
        assert repr(self.KNOWGGET) == (
            "Knowgget(label='TrafficIn.ICMPReply', value='4.5', "
            "creator=NodeId(value='T1'), entity=NodeId(value='SensorA'), "
            "collective=True)"
        )
        assert repr(Knowgget("Multihop", "true", T1)) == (
            "Knowgget(label='Multihop', value='true', creator=NodeId(value='T1'), "
            "entity=None, collective=False)"
        )

    def test_pickle_round_trips(self):
        restored = pickle.loads(pickle.dumps(self.KNOWGGET, protocol=4))
        assert restored == self.KNOWGGET
        assert type(restored) is Knowgget
        assert restored.key == "T1$TrafficIn.ICMPReply@SensorA"


labels = st.from_regex(r"[A-Za-z][A-Za-z0-9_.]{0,15}", fullmatch=True).filter(
    lambda l: "$" not in l and "@" not in l and not l.startswith(".")
)
creators = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9\-]{0,8}", fullmatch=True).map(NodeId)
entities = st.one_of(st.none(), creators)


@given(creator=creators, label=labels, entity=entities)
def test_key_encoding_roundtrip_property(creator, label, entity):
    key = encode_key(creator, label, entity)
    assert decode_key(key) == (creator, label, entity)


# -- put against the reference put -------------------------------------------------


def reference_put(kb, label, value, entity=None, collective=False):
    """``KnowledgeBase.put`` written out plainly: encode the key on every
    call and build the knowgget before comparing values."""
    knowgget = Knowgget(
        label=label,
        value=encode_value(value),
        creator=kb.owner,
        entity=entity,
        collective=collective,
    )
    key = encode_key(kb.owner, label, entity)
    existing = kb._store.get(key)
    if existing is not None and existing.value == knowgget.value:
        return existing
    return kb._commit(key, knowgget, from_remote=False)


class RecordingKb:
    """A knowledge base whose bus events and collective updates are logged."""

    def __init__(self):
        self.kb = KnowledgeBase(T1)
        self.events = []
        self.shared = []
        self.kb.subscribe_all(lambda event: self.events.append((event.topic, event.payload)))
        self.kb.add_collective_listener(self.shared.append)


class _Shouting(str):
    """A str subclass that renders differently from its own text."""

    def __str__(self):
        return self.upper()


class _Plain(str):
    """A str subclass that renders as its own text."""


put_labels = st.sampled_from(
    ["Multihop", "Multihop.wifi", "TrafficIn.ICMPReply", "", "bad$label", "bad@label"]
)
put_values = st.one_of(
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.5, 2.0, 0.1 + 0.2, 1e16, -0.0]),
    st.sampled_from(["x", "y", "X", "0.5", "true", ""]),
    st.sampled_from([_Shouting("x"), _Plain("x"), _Plain("y")]),
)
# SENSOR and an equal but distinct NodeId: the memo must key by value.
put_entities = st.one_of(st.none(), st.sampled_from([SENSOR, T2, NodeId("SensorA")]))
puts = st.lists(st.tuples(put_labels, put_values, put_entities, st.booleans()), max_size=40)


@given(puts)
def test_put_matches_reference_put(script):
    """Memoised keys and the early value comparison change no store entry,
    count, event or collective update; an invalid label raises on every
    attempt, its first and any repeat."""
    actual, expected = RecordingKb(), RecordingKb()
    for label, value, entity, collective in script:
        outcomes = []
        for side, put in ((actual, KnowledgeBase.put), (expected, reference_put)):
            try:
                outcomes.append(put(side.kb, label, value, entity, collective))
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
    assert list(actual.kb._store.items()) == list(expected.kb._store.items())
    for knowgget in actual.kb._store.values():
        assert type(knowgget) is Knowgget
        assert type(knowgget.value) is str
    assert actual.kb.change_count == expected.kb.change_count
    assert actual.kb.bus.topic_counts() == expected.kb.bus.topic_counts()
    assert actual.events == expected.events
    assert actual.shared == expected.shared


def test_str_values_are_stored_as_given_and_subclasses_as_rendered():
    kb = KnowledgeBase(T1)
    assert kb.put("A", "2.5").value == "2.5"
    assert kb.put("B", _Shouting("x")).value == "X"
    plain = kb.put("C", _Plain("y")).value
    assert plain == "y" and type(plain) is str
    # The same text again is no change, so it publishes nothing.
    assert kb.put("C", "y") is kb.get_knowgget("C")
    assert kb.change_count == 3


def test_invalid_label_raises_on_every_put():
    kb = KnowledgeBase(T1)
    for _ in range(2):
        with pytest.raises(ValueError):
            kb.put("bad$label", 1)
    assert len(kb) == 0
    assert kb.change_count == 0
