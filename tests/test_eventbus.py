"""Tests for the synchronous pub-sub bus."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eventbus.bus import (
    DEADLETTER_TOPIC,
    DeadLetter,
    Event,
    EventBus,
    Subscription,
)
from repro.obs import Telemetry
from repro.util.naming import callable_name


@pytest.fixture
def bus():
    return EventBus()


class TestSubscribe:
    def test_exact_topic_delivery(self, bus):
        received = []
        bus.subscribe("topic.a", lambda e: received.append(e.payload))
        bus.publish("topic.a", 1)
        bus.publish("topic.b", 2)
        assert received == [1]

    def test_prefix_delivery(self, bus):
        received = []
        bus.subscribe_prefix("topic.", lambda e: received.append(e.topic))
        bus.publish("topic.a")
        bus.publish("topic.b")
        bus.publish("other")
        assert received == ["topic.a", "topic.b"]

    def test_prefix_where_filters_the_family_once_per_topic(self, bus):
        received, asked = [], []

        def where(topic):
            asked.append(topic)
            return topic.endswith(".b")

        bus.subscribe_prefix("topic.", lambda e: received.append(e.topic), where=where)
        for topic in ("topic.a", "topic.b", "topic.a", "topic.b", "other.b"):
            bus.publish(topic)
        assert received == ["topic.b", "topic.b"]
        assert asked == ["topic.a", "topic.b"]
        assert bus.subscriber_count("topic.b") == 1
        assert bus.subscriber_count("topic.a") == 0
        assert bus.subscriber_count() == 1

    def test_publish_returns_handler_count(self, bus):
        bus.subscribe("t", lambda e: None)
        bus.subscribe("t", lambda e: None)
        bus.subscribe_prefix("t", lambda e: None)
        assert bus.publish("t") == 3

    def test_rejects_empty_topic(self, bus):
        with pytest.raises(ValueError):
            bus.subscribe("", lambda e: None)
        with pytest.raises(ValueError):
            bus.subscribe_prefix("", lambda e: None)

    def test_delivery_order_is_subscription_order(self, bus):
        order = []
        bus.subscribe("t", lambda e: order.append("first"))
        bus.subscribe("t", lambda e: order.append("second"))
        bus.publish("t")
        assert order == ["first", "second"]


class TestUnsubscribe:
    def test_unsubscribed_handler_not_called(self, bus):
        received = []
        sub = bus.subscribe("t", lambda e: received.append(1))
        bus.unsubscribe(sub)
        bus.publish("t")
        assert received == []

    def test_unsubscribe_during_dispatch_is_safe(self, bus):
        received = []
        subs = {}

        def handler(event):
            received.append(1)
            bus.unsubscribe(subs["self"])

        subs["self"] = bus.subscribe("t", handler)
        bus.publish("t")
        bus.publish("t")
        assert received == [1]

    def test_unsubscribing_peer_mid_dispatch(self, bus):
        received = []
        subs = {}

        def first(event):
            received.append("first")
            bus.unsubscribe(subs["second"])

        subs["first"] = bus.subscribe("t", first)
        subs["second"] = bus.subscribe("t", lambda e: received.append("second"))
        bus.publish("t")
        assert received == ["first"]

    def test_subscribe_during_dispatch_does_not_fire_immediately(self, bus):
        received = []

        def handler(event):
            received.append("outer")
            bus.subscribe("t", lambda e: received.append("inner"))

        bus.subscribe("t", handler)
        bus.publish("t")
        assert received == ["outer"]
        # A fresh publish finds both handlers (handler re-registers each time).
        bus.publish("t")
        assert "inner" in received


class TestStats:
    def test_counters(self, bus):
        bus.subscribe("t", lambda e: None)
        bus.publish("t")
        bus.publish("t")
        bus.publish("unheard")
        assert bus.published_count == 3
        assert bus.delivered_count == 2
        assert bus.topic_counts() == {"t": 2, "unheard": 1}

    def test_subscriber_count(self, bus):
        bus.subscribe("t", lambda e: None)
        bus.subscribe_prefix("t", lambda e: None)
        assert bus.subscriber_count("t") == 2
        assert bus.subscriber_count() == 2
        assert bus.subscriber_count("other") == 0

    def test_nested_publish_from_handler(self, bus):
        received = []
        bus.subscribe("inner", lambda e: received.append("inner"))
        bus.subscribe("outer", lambda e: bus.publish("inner"))
        bus.publish("outer")
        assert received == ["inner"]

    def test_unheard_publish_counts_in_telemetry(self, bus):
        """A topic with no handler is still published: ``obs report``
        lists it, with nothing delivered."""
        telemetry = Telemetry()
        bus.bind_telemetry(telemetry, node="k1")
        bus.subscribe("t", lambda e: None)
        bus.publish("t")
        bus.publish("unheard")
        bus.publish("unheard")
        metrics = telemetry.metrics
        published = metrics.get("bus_published_total")
        assert published.value(node="k1", topic="t") == 1
        assert published.value(node="k1", topic="unheard") == 2
        delivered = metrics.get("bus_delivered_total")
        assert delivered.value(node="k1", topic="t") == 1
        assert delivered.value(node="k1", topic="unheard") == 0


class TestEvent:
    EVENT = Event("knowledge.T1$Multihop", 3)

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            self.EVENT.topic = "other"
        with pytest.raises(AttributeError):
            self.EVENT.payload = None

    def test_equality_and_hash_are_the_field_tuple(self):
        fields = ("knowledge.T1$Multihop", 3)
        assert self.EVENT == Event(topic="knowledge.T1$Multihop", payload=3)
        assert self.EVENT == fields
        assert hash(self.EVENT) == hash(fields)
        assert Event("t") == Event("t", None) != Event("t", 0.5)

    def test_repr_is_pinned(self):
        assert repr(self.EVENT) == "Event(topic='knowledge.T1$Multihop', payload=3)"
        assert repr(Event("alert")) == "Event(topic='alert', payload=None)"

    def test_pickle_round_trips(self):
        restored = pickle.loads(pickle.dumps(self.EVENT, protocol=4))
        assert restored == self.EVENT
        assert type(restored) is Event


class TestExceptionSafety:
    def test_poisoned_middle_subscriber_does_not_block_later_ones(self, bus):
        """The regression this PR fixes: a raising handler used to abort
        the dispatch, silently skipping every later subscriber."""
        received = []

        def poisoned(event):
            raise RuntimeError("boom")

        bus.subscribe("t", lambda e: received.append("first"))
        bus.subscribe("t", poisoned)
        bus.subscribe("t", lambda e: received.append("third"))
        returned = bus.publish("t", "payload")
        assert received == ["first", "third"]
        assert returned == 2

    def test_delivered_stats_exact_under_failure(self, bus):
        bus.subscribe("t", lambda e: None)
        bus.subscribe("t", lambda e: (_ for _ in ()).throw(ValueError("bad")))
        bus.subscribe("t", lambda e: None)
        bus.publish("t")
        bus.publish("t")
        assert bus.delivered_count == 4  # 2 successes per publish
        assert bus.error_count == 2
        assert bus.error_counts() == {"t": 2}

    def test_failures_route_to_deadletter_topic(self, bus):
        dead = []
        bus.subscribe(DEADLETTER_TOPIC, lambda e: dead.append(e.payload))

        def poisoned(event):
            raise RuntimeError("boom")

        bus.subscribe("t", poisoned)
        bus.publish("t", {"k": 1})
        assert len(dead) == 1
        letter = dead[0]
        assert isinstance(letter, DeadLetter)
        assert letter.topic == "t"
        assert letter.event.payload == {"k": 1}
        assert isinstance(letter.error, RuntimeError)
        assert "poisoned" in letter.handler
        assert "boom" in letter.describe()

    def test_deadletter_handler_failures_do_not_recurse(self, bus):
        calls = []

        def bad_deadletter_handler(event):
            calls.append(event.topic)
            raise RuntimeError("the undertaker died too")

        bus.subscribe(DEADLETTER_TOPIC, bad_deadletter_handler)
        bus.subscribe("t", lambda e: (_ for _ in ()).throw(ValueError("bad")))
        bus.publish("t")
        # One dead letter dispatched, its own failure absorbed, no loop.
        assert calls == [DEADLETTER_TOPIC]
        assert bus.error_count == 2

    def test_unsubscribe_still_applied_after_handler_failure(self, bus):
        received = []
        subs = {}

        def failing_then_unsub(event):
            bus.unsubscribe(subs["self"])
            raise RuntimeError("boom")

        subs["self"] = bus.subscribe("t", failing_then_unsub)
        bus.subscribe("t", lambda e: received.append(1))
        bus.publish("t")
        bus.publish("t")
        assert received == [1, 1]
        assert bus.error_count == 1


# -- reference model --------------------------------------------------------------


class ReferenceBus:
    """The documented dispatch semantics, written as plainly as possible.

    A publish fixes its targets up front: the live exact subscribers,
    then the live matching prefix subscribers, each in subscription
    order.  A target unsubscribed before its turn is skipped.  Handler
    failures are re-published as dead letters after the dispatch, except
    failures of dead-letter handlers themselves.
    """

    def __init__(self):
        self.subscriptions = []
        self.published_count = 0
        self.delivered_count = 0
        self.error_count = 0
        self.per_topic = {}
        self.errors_per_topic = {}

    def subscribe(self, topic, handler):
        return self._add(Subscription(topic=topic, prefix=False, handler=handler))

    def subscribe_prefix(self, prefix, handler, where=None):
        return self._add(
            Subscription(topic=prefix, prefix=True, handler=handler, where=where)
        )

    def _add(self, subscription):
        self.subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription):
        subscription.active = False

    def subscriber_count(self):
        return sum(1 for s in self.subscriptions if s.active)

    def topic_counts(self):
        return dict(self.per_topic)

    def error_counts(self):
        return dict(self.errors_per_topic)

    def publish(self, topic, payload=None):
        self.published_count += 1
        self.per_topic[topic] = self.per_topic.get(topic, 0) + 1
        event = Event(topic=topic, payload=payload)
        live = [s for s in self.subscriptions if s.active]
        targets = [s for s in live if not s.prefix and s.topic == topic]
        targets += [
            s for s in live
            if s.prefix and topic.startswith(s.topic) and (s.where is None or s.where(topic))
        ]
        delivered = 0
        letters = []
        for subscription in targets:
            if not subscription.active:
                continue
            try:
                subscription.handler(event)
            except Exception as error:
                self.error_count += 1
                self.errors_per_topic[topic] = self.errors_per_topic.get(topic, 0) + 1
                letters.append(DeadLetter(
                    topic=topic, event=event,
                    handler=callable_name(subscription.handler), error=error,
                ))
            else:
                delivered += 1
        self.delivered_count += delivered
        if topic != DEADLETTER_TOPIC:
            for letter in letters:
                self.publish(DEADLETTER_TOPIC, letter)
        return delivered


class EndsWith:
    """A picklable ``where`` predicate: topics ending in ``suffix``."""

    def __init__(self, suffix):
        self.suffix = suffix

    def __call__(self, topic):
        return topic.endswith(self.suffix)


class ScriptHandler:
    """One scripted handler; a plain object, so a runner pickles whole.

    Its behaviour is ``(action, raises)``: the action runs on the bus
    mid-dispatch (subscribe a new handler, unsubscribe a peer, or publish
    again, three levels deep at most), then the handler raises if
    ``raises`` is set.
    """

    def __init__(self, runner, hid, behaviour):
        self.runner = runner
        self.hid = hid
        self.behaviour = behaviour

    def __call__(self, event):
        runner = self.runner
        (kind, *args), raises = self.behaviour
        payload = event.payload
        if isinstance(payload, DeadLetter):
            payload = (payload.topic, payload.event.topic, payload.handler,
                       str(payload.error))
        runner.log.append(("handled", self.hid, event.topic, payload))
        if kind in ("subscribe", "subscribe_prefix", "subscribe_where"):
            runner.subscribe(kind, args[0], (("record",), False))
        elif kind == "unsubscribe":
            runner.unsubscribe(args[0])
        elif kind == "publish" and runner.depth < runner.MAX_DEPTH:
            runner.publish(args[0])
        if raises:
            raise RuntimeError(f"handler {self.hid}")


class ScriptRunner:
    """Replays one operation script against a bus, logging what it saw."""

    MAX_DEPTH = 3

    def __init__(self, bus):
        self.bus = bus
        self.handles = []
        self.log = []
        self.depth = 0

    def subscribe(self, kind, topic, behaviour):
        handler = ScriptHandler(self, len(self.handles), behaviour)
        if kind == "subscribe_where":
            subscription = self.bus.subscribe_prefix(topic, handler, where=EndsWith("c"))
        else:
            subscription = getattr(self.bus, kind)(topic, handler)
        self.handles.append(subscription)

    def unsubscribe(self, index):
        if self.handles:
            self.bus.unsubscribe(self.handles[index % len(self.handles)])

    def publish(self, topic):
        self.depth += 1
        try:
            delivered = self.bus.publish(topic)
        finally:
            self.depth -= 1
        self.log.append(("delivered", topic, delivered))

    def run(self, script):
        for kind, *args in script:
            if kind == "publish":
                self.publish(*args)
            elif kind == "unsubscribe":
                self.unsubscribe(*args)
            else:
                self.subscribe(kind, *args)
        return self


topics = st.sampled_from(["a", "a.b", "a.c", "b", DEADLETTER_TOPIC])
prefixes = st.sampled_from(["a", "a.", "b", "bus."])
actions = st.one_of(
    st.just(("record",)),
    st.tuples(st.just("subscribe"), topics),
    st.tuples(st.just("subscribe_prefix"), prefixes),
    st.tuples(st.just("subscribe_where"), prefixes),
    st.tuples(st.just("unsubscribe"), st.integers(0, 30)),
    st.tuples(st.just("publish"), topics),
)
scripts = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), topics, st.tuples(actions, st.booleans())),
        st.tuples(st.just("subscribe_prefix"), prefixes, st.tuples(actions, st.booleans())),
        st.tuples(st.just("subscribe_where"), prefixes, st.tuples(actions, st.booleans())),
        st.tuples(st.just("unsubscribe"), st.integers(0, 30)),
        st.tuples(st.just("publish"), topics),
    ),
    max_size=40,
)


def round_tripped(runner):
    """The runner, its bus and every handler through one pickle."""
    return pickle.loads(pickle.dumps(runner))


@settings(max_examples=200, deadline=None)
@given(scripts, st.integers(0, 40))
def test_publish_matches_reference_model(script, cut):
    """The bus dispatches like the plain model, across a pickle round trip
    at a random point: a target tuple that misses a new subscription, or
    that a restore leaves out of step with the subscription lists, would
    deliver differently."""
    cut = min(cut, len(script))
    actual = round_tripped(ScriptRunner(EventBus()).run(script[:cut])).run(script[cut:])
    expected = round_tripped(ScriptRunner(ReferenceBus()).run(script[:cut])).run(
        script[cut:]
    )
    bus, reference = actual.bus, expected.bus
    assert actual.log == expected.log
    assert bus.published_count == reference.published_count
    assert bus.delivered_count == reference.delivered_count
    assert bus.error_count == reference.error_count
    assert bus.subscriber_count() == reference.subscriber_count()
    assert bus.topic_counts() == reference.topic_counts()
    assert bus.error_counts() == reference.error_counts()
