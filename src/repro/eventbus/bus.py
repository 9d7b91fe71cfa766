"""A minimal, deterministic, synchronous pub-sub bus.

The original Kalis implementation is event-driven across threads; for a
deterministic reproduction we dispatch synchronously, in subscription
order, on the publisher's call stack.  This preserves the architecture
(components communicate only through events) while keeping every run
reproducible.

Topics are plain strings.  A subscription may target an exact topic or a
topic prefix (``"packet."`` matches ``"packet.wifi"``), mirroring how
Kalis modules subscribe to families of knowgget keys.  A prefix
subscription may also carry a ``where`` predicate on the full topic, so
it hears only part of its family.  A topic's targets (its exact
subscribers, then the matching prefix subscribers, each in
subscription order) are resolved on its first publish, predicates
included, and kept until a subscription change drops them: subscribing
to a topic or removing one of its subscribers drops that topic's entry,
and any prefix subscription change drops them all.  A predicate must
therefore be a pure function of the topic.

Dispatch is exception-safe: a raising handler never prevents later
subscribers from seeing the event ("security-in-a-box" must keep
protecting while components degrade, §IV).  Each failure is counted
per topic and re-published as a :class:`DeadLetter` on
:data:`DEADLETTER_TOPIC`, where supervisors and diagnostics can pick it
up; failures raised *by* dead-letter handlers are counted but not
re-routed, so the bus can never recurse into itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.util.naming import callable_name

Handler = Callable[["Event"], None]

#: Topic on which handler failures are re-published as DeadLetter events.
DEADLETTER_TOPIC = "bus.deadletter"


class Event(NamedTuple):
    """An event published on a bus: a topic plus an arbitrary payload."""

    topic: str
    payload: Any = None


@dataclass(frozen=True)
class DeadLetter:
    """One handler failure, routed to :data:`DEADLETTER_TOPIC`.

    :param topic: topic of the event whose handler raised.
    :param event: the event that was being dispatched.
    :param handler: best-effort name of the failing handler.
    :param error: the exception the handler raised.
    """

    topic: str
    event: Event
    handler: str
    error: BaseException

    def describe(self) -> str:
        return (
            f"handler {self.handler!r} on topic {self.topic!r} raised "
            f"{type(self.error).__name__}: {self.error}"
        )


@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; use to unsubscribe."""

    topic: str
    prefix: bool
    handler: Handler
    active: bool = True
    #: Prefix subscriptions only: a pure predicate a topic in the family
    #: must also pass.  It must pickle, since snapshots carry the bus.
    where: Optional[Callable[[str], bool]] = None

    def matches(self, topic: str) -> bool:
        """Does a publish on ``topic`` reach this prefix subscription?"""
        return topic.startswith(self.topic) and (
            self.where is None or self.where(topic)
        )


@dataclass
class _BusStats:
    published: int = 0
    delivered: int = 0
    dropped: int = 0
    errors: int = 0
    per_topic: Dict[str, int] = field(default_factory=dict)
    errors_per_topic: Dict[str, int] = field(default_factory=dict)


class EventBus:
    """Synchronous pub-sub with exact-topic and prefix subscriptions."""

    def __init__(self) -> None:
        self._exact: Dict[str, List[Subscription]] = {}
        self._prefix: List[Subscription] = []
        #: Topic -> the subscriptions a publish on it dispatches to.
        #: Derived from ``_exact`` and ``_prefix``; see the module doc.
        self._targets_cache: Dict[str, Tuple[Subscription, ...]] = {}
        self._stats = _BusStats()
        self._dispatching = 0
        self._pending_unsubscribes: List[Subscription] = []
        self._telemetry = None
        self._telemetry_node: Optional[str] = None

    def bind_telemetry(self, telemetry, node: Optional[str] = None) -> None:
        """Attach a :class:`repro.obs.Telemetry` to this bus's dispatch."""
        self._telemetry = telemetry
        self._telemetry_node = node

    # -- subscription --------------------------------------------------------

    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Subscribe ``handler`` to events whose topic equals ``topic``."""
        if not topic:
            raise ValueError("topic must be non-empty")
        subscription = Subscription(topic=topic, prefix=False, handler=handler)
        self._exact.setdefault(topic, []).append(subscription)
        self._targets_cache.pop(topic, None)
        return subscription

    def subscribe_prefix(
        self,
        prefix: str,
        handler: Handler,
        where: Optional[Callable[[str], bool]] = None,
    ) -> Subscription:
        """Subscribe ``handler`` to all topics starting with ``prefix``.

        :param where: when given, only the topics for which it returns
            True; it is called when a topic's targets are resolved, not
            on every publish.
        """
        if not prefix:
            raise ValueError("prefix must be non-empty")
        subscription = Subscription(
            topic=prefix, prefix=True, handler=handler, where=where
        )
        self._prefix.append(subscription)
        self._targets_cache.clear()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Deactivate a subscription.

        Safe to call from inside a handler: the removal is deferred until
        the current dispatch completes, but the subscription stops
        receiving events immediately.
        """
        subscription.active = False
        if self._dispatching:
            self._pending_unsubscribes.append(subscription)
        else:
            self._remove(subscription)

    def _remove(self, subscription: Subscription) -> None:
        if subscription.prefix:
            if subscription in self._prefix:
                self._prefix.remove(subscription)
                self._targets_cache.clear()
        else:
            bucket = self._exact.get(subscription.topic)
            if bucket and subscription in bucket:
                bucket.remove(subscription)
                if not bucket:
                    del self._exact[subscription.topic]
                self._targets_cache.pop(subscription.topic, None)

    def _resolve(self, topic: str) -> Tuple[Subscription, ...]:
        """The exact then matching prefix subscriptions of ``topic``."""
        exact = self._exact.get(topic, ())
        targets = tuple(exact) + tuple(
            subscription
            for subscription in self._prefix
            if subscription.matches(topic)
        )
        self._targets_cache[topic] = targets
        return targets

    def rebuild_derived_state(self) -> None:
        """Restore hook: drop the resolved targets; publishes re-resolve."""
        self._targets_cache = {}

    # -- publication ---------------------------------------------------------

    def publish(self, topic: str, payload: Any = None) -> int:
        """Publish an event; returns the number of handlers that succeeded.

        A raising handler does not abort the dispatch: remaining
        subscribers still fire, the failure is counted, and a
        :class:`DeadLetter` is re-published on :data:`DEADLETTER_TOPIC`
        once the dispatch completes.  ``delivered`` accounting stays
        exact under failure — only handlers that returned normally count.
        A topic nobody subscribes to costs its counters only: the
        :class:`Event` is built once there is a handler to receive it.
        """
        stats = self._stats
        stats.published += 1
        stats.per_topic[topic] = stats.per_topic.get(topic, 0) + 1

        # Dispatch walks this tuple, so the target set is fixed at publish
        # time: handlers may subscribe or unsubscribe meanwhile.
        targets = self._targets_cache.get(topic)
        if targets is None:
            targets = self._resolve(topic)
        if not targets:
            stats.dropped += 1
            telemetry = self._telemetry
            if telemetry is not None:  # the topic is still listed by ``obs report``
                telemetry.metrics.counter("bus_published_total").inc(**self._topic_labels(topic))
            return 0

        event = Event(topic, payload)
        self._dispatching += 1
        delivered = 0
        failures: List[DeadLetter] = []
        try:
            for subscription in targets:
                if not subscription.active:
                    continue
                try:
                    subscription.handler(event)
                except Exception as error:
                    stats.errors += 1
                    stats.errors_per_topic[topic] = (
                        stats.errors_per_topic.get(topic, 0) + 1
                    )
                    failures.append(
                        DeadLetter(
                            topic=topic,
                            event=event,
                            handler=_handler_name(subscription.handler),
                            error=error,
                        )
                    )
                else:
                    delivered += 1
        finally:
            self._dispatching -= 1
            if not self._dispatching and self._pending_unsubscribes:
                for stale in self._pending_unsubscribes:
                    self._remove(stale)
                self._pending_unsubscribes.clear()
        stats.delivered += delivered
        telemetry = self._telemetry
        if telemetry is not None:
            labels = self._topic_labels(topic)
            metrics = telemetry.metrics
            metrics.counter("bus_published_total").inc(**labels)
            if delivered:
                metrics.counter("bus_delivered_total").inc(delivered, **labels)
            if failures:
                metrics.counter("bus_errors_total").inc(len(failures), **labels)
        if failures and topic != DEADLETTER_TOPIC:
            # Failures of dead-letter handlers are counted above but not
            # re-routed — the recursion must ground out somewhere.
            for deadletter in failures:
                if telemetry is not None:
                    telemetry.metrics.counter("bus_deadletters_total").inc(**labels)
                    telemetry.event(
                        "bus.deadletter",
                        node=self._telemetry_node,
                        topic=topic,
                        handler=deadletter.handler,
                        error=type(deadletter.error).__name__,
                    )
                self.publish(DEADLETTER_TOPIC, deadletter)
        return delivered

    def _topic_labels(self, topic: str) -> Dict[str, str]:
        """Telemetry labels of one topic's bus series."""
        labels = {"topic": topic}
        if self._telemetry_node is not None:
            labels["node"] = self._telemetry_node
        return labels

    # -- introspection -------------------------------------------------------

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        """Number of active subscriptions, optionally for one exact topic."""
        if topic is not None:
            exact = sum(1 for s in self._exact.get(topic, ()) if s.active)
            prefixed = sum(1 for s in self._prefix if s.active and s.matches(topic))
            return exact + prefixed
        exact_total = sum(
            1 for bucket in self._exact.values() for s in bucket if s.active
        )
        return exact_total + sum(1 for s in self._prefix if s.active)

    @property
    def published_count(self) -> int:
        return self._stats.published

    @property
    def delivered_count(self) -> int:
        return self._stats.delivered

    @property
    def error_count(self) -> int:
        """Total handler failures absorbed across all topics."""
        return self._stats.errors

    def topic_counts(self) -> Dict[str, int]:
        """Copy of per-topic publish counters (for diagnostics and tests)."""
        return dict(self._stats.per_topic)

    def error_counts(self) -> Dict[str, int]:
        """Copy of per-topic handler-failure counters."""
        return dict(self._stats.errors_per_topic)


def _handler_name(handler: Handler) -> str:
    """A stable, human-readable name for a subscribed callable."""
    return callable_name(handler)
