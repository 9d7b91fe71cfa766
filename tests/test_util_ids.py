"""Tests for node identifiers."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packets.base import Medium, PacketKind
from repro.net.packets.codec import decode_packet, encode_packet
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.util import ids
from repro.util.ids import NodeId, make_node_id, node_id_sequence, stable_hash


class TestNodeId:
    def test_valid_id(self):
        node = NodeId("mote-1")
        assert node.value == "mote-1"
        assert str(node) == "mote-1"

    def test_allows_dots_colons_underscores(self):
        for value in ("a.b", "a:b", "a_b", "a-b", "A9"):
            assert NodeId(value).value == value

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            NodeId("")

    def test_rejects_reserved_knowgget_separators(self):
        with pytest.raises(ValueError):
            NodeId("a$b")
        with pytest.raises(ValueError):
            NodeId("a@b")

    def test_rejects_leading_punctuation(self):
        with pytest.raises(ValueError):
            NodeId("-leading")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            NodeId(17)

    def test_equality_and_hash(self):
        assert NodeId("x") == NodeId("x")
        assert NodeId("x") != NodeId("y")
        assert len({NodeId("x"), NodeId("x"), NodeId("y")}) == 2

        # Equal ids reached three ways (constructed, decoded from a packet,
        # unpickled) are one interned object, so they compare and hash
        # equal by identity.
        direct = NodeId("mote-7")
        frame = Ieee802154Frame(pan_id=1, seq=0, src=direct, dst=NodeId("sink"))
        decoded = decode_packet(encode_packet(frame)).src
        unpickled = pickle.loads(pickle.dumps(direct))
        for other in (decoded, unpickled):
            assert other is direct
            assert other == direct and direct == other
            assert hash(other) == hash(direct)

        # Tuple keys, as the sliding-window counters use them, hit for ids
        # reached any of those ways.
        counts = {(PacketKind.CTP_DATA, direct): 1}
        counts[(PacketKind.CTP_DATA, decoded)] += 1
        assert counts == {(PacketKind.CTP_DATA, unpickled): 2}
        assert (PacketKind.CTP_DATA, NodeId("mote-8")) not in counts

        # A NodeId never equals its bare string.
        assert NodeId("a") != "a" and "a" != NodeId("a")
        assert not NodeId("a") == "a"
        assert {NodeId("a"): 1}.get("a") is None

    def test_ordering_is_lexicographic(self):
        assert NodeId("a") < NodeId("b")
        assert sorted([NodeId("c"), NodeId("a")])[0] == NodeId("a")
        values = ["mote-10", "mote-2", "Mote-1", "a:b", "a.b", "a_b"]
        assert [n.value for n in sorted(map(NodeId, values))] == sorted(values)

    def test_with_suffix(self):
        assert NodeId("mote").with_suffix("clone") == NodeId("mote-clone")


class TestInterning:
    def test_every_path_to_an_id_yields_one_object(self):
        direct = NodeId("mote-9")
        frame = Ieee802154Frame(pan_id=1, seq=0, src=direct, dst=NodeId("sink"))
        reached = [
            NodeId("mote-9"),
            NodeId(value="mote-9"),
            NodeId("mote").with_suffix("9"),
            make_node_id("mote", 9),
            decode_packet(encode_packet(frame)).src,
            pickle.loads(pickle.dumps(direct)),
            pickle.loads(pickle.dumps(direct, protocol=0)),
            copy.copy(direct),
            copy.deepcopy(direct),
            copy.deepcopy({"key": [direct]})["key"][0],
            dataclasses.replace(direct),
        ]
        for other in reached:
            assert other is direct

    def test_str_subclass_value_returns_the_plain_strings_instance(self):
        class Tagged(str):
            pass

        plain = NodeId("tagged-1")
        assert NodeId(Tagged("tagged-1")) is plain
        assert type(plain.value) is str

        # A subclass with its own hash misses the table's lookup, and must
        # still get, and never replace, the id interned first.
        class Salted(str):
            def __hash__(self):
                return str.__hash__(self) + 1

        assert NodeId(Salted("tagged-1")) is plain
        assert NodeId("tagged-1") is plain

        # Interned first through a subclass, the id still holds a plain str
        # and the plain spelling finds it.
        fresh = NodeId(Tagged("tagged-2"))
        assert type(fresh.value) is str
        assert NodeId("tagged-2") is fresh

    def test_rejected_value_adds_no_table_entry(self):
        before = dict(ids._INTERNED)
        for bad in ("", "a$b", "a@b", "-leading", 17, None, b"bytes"):
            with pytest.raises((TypeError, ValueError)):
                NodeId(bad)
        assert ids._INTERNED == before

    def test_assignment_and_deletion_raise(self):
        node = NodeId("frozen-1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.value = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.value
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.extra = 1
        assert node.value == "frozen-1" and NodeId("frozen-1") is node

    def test_repr_is_pinned(self):
        assert repr(NodeId("a")) == "NodeId(value='a')"
        assert repr(NodeId("mote-1.x:y_z")) == "NodeId(value='mote-1.x:y_z')"

    def test_ordering_rejects_other_types(self):
        assert NodeId("a").__lt__("b") is NotImplemented
        with pytest.raises(TypeError):
            NodeId("a") < "b"
        with pytest.raises(TypeError):
            NodeId("a") >= 1
        assert NodeId("a") <= NodeId("a") and NodeId("b") > NodeId("a")


@pytest.mark.parametrize("member", [*Medium, *PacketKind])
def test_enum_members_survive_pickle_and_deepcopy_as_themselves(member):
    assert pickle.loads(pickle.dumps(member)) is member
    assert copy.deepcopy(member) is member
    assert {member: 1}[pickle.loads(pickle.dumps(member))] == 1


class TestHelpers:
    def test_make_node_id(self):
        assert make_node_id("mote", 3) == NodeId("mote-3")

    def test_make_node_id_rejects_negative(self):
        with pytest.raises(ValueError):
            make_node_id("mote", -1)

    def test_sequence(self):
        gen = node_id_sequence("n", start=5)
        assert next(gen) == NodeId("n-5")
        assert next(gen) == NodeId("n-6")

    def test_stable_hash_is_deterministic(self):
        assert stable_hash(NodeId("mote-1")) == stable_hash(NodeId("mote-1"))

    def test_stable_hash_differs_between_ids(self):
        assert stable_hash(NodeId("mote-1")) != stable_hash(NodeId("mote-2"))


@given(st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.:\-]{0,20}", fullmatch=True))
def test_any_valid_identifier_roundtrips(value):
    node = NodeId(value)
    assert node.value == value
    assert NodeId(str(node)) == node
