"""Tests for module-shared helpers (sliding counters, EWMA trackers)
and the validation utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modules.common import (
    EwmaTracker,
    SlidingWindowCounter,
    link_destination,
    link_source,
    medium_label,
)
from repro.net.packets.base import Medium, RawPayload
from repro.net.packets.ieee802154 import Ieee802154Frame
from repro.util.ids import NodeId
from repro.util.validation import (
    ValidationError,
    require,
    require_in_range,
    require_non_negative,
    require_positive,
    require_type,
)


class TestSlidingWindowCounter:
    def test_counts_within_window(self):
        counter = SlidingWindowCounter(window=5.0)
        counter.record(0.0, "a")
        counter.record(1.0, "a")
        counter.record(2.0, "b")
        assert counter.count("a") == 2
        assert counter.count("b") == 1
        assert counter.total() == 3

    def test_eviction(self):
        counter = SlidingWindowCounter(window=5.0)
        counter.record(0.0, "a")
        counter.record(10.0, "a")  # the first event is now stale
        assert counter.count("a") == 1

    def test_rate(self):
        counter = SlidingWindowCounter(window=10.0)
        for i in range(20):
            counter.record(i * 0.5, "x")
        assert counter.rate("x") == pytest.approx(2.0)

    def test_keys_and_items_sorted(self):
        counter = SlidingWindowCounter(window=10.0)
        counter.record(0.0, "b")
        counter.record(0.0, "a")
        assert counter.keys() == ["a", "b"]
        assert counter.items() == [("a", 1), ("b", 1)]

    def test_explicit_evict(self):
        counter = SlidingWindowCounter(window=5.0)
        counter.record(0.0, "a")
        counter.evict(now=100.0)
        assert counter.count("a") == 0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SlidingWindowCounter(window=0.0)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 4)),
            max_size=50,
        )
    )
    def test_invariants_property(self, events):
        counter = SlidingWindowCounter(window=10.0)
        for timestamp, key in sorted(events):
            counter.record(timestamp, key)
        # Total equals the sum of per-key counts, always.
        assert counter.total() == sum(count for _, count in counter.items())
        assert all(count > 0 for _, count in counter.items())

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 4)),
            max_size=50,
        )
    )
    def test_record_matches_evicting_on_every_event(self, events):
        """``record`` evicts only when its oldest event has expired; the
        counts match a counter that runs ``evict`` after every event."""
        counter = SlidingWindowCounter(window=10.0)
        reference = SlidingWindowCounter(window=10.0)
        for timestamp, key in sorted(events):
            counter.record(timestamp, key)
            reference._events.append((timestamp, key))
            reference._counts[key] = reference._counts.get(key, 0) + 1
            reference.evict(timestamp)
            assert counter.items() == reference.items()
            assert counter.total() == reference.total()

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.floats(0, 100, allow_nan=False), st.integers(0, 4)),
            max_size=50,
        )
    )
    def test_record_returns_the_count_and_keeps_the_old_counts(self, events):
        """``record`` returns ``count(key)`` after its eviction, and leaves
        the counts the earlier ``record`` (which returned nothing) left, in
        or out of time order."""
        counter = SlidingWindowCounter(window=10.0)
        reference = SlidingWindowCounter(window=10.0)
        for timestamp, key in events:
            returned = counter.record(timestamp, key)
            assert returned == counter.count(key)
            reference._events.append((timestamp, key))
            reference._counts[key] = reference._counts.get(key, 0) + 1
            if reference._events[0][0] < timestamp - reference.window:
                reference.evict(timestamp)
            assert counter.items() == reference.items()
            assert list(counter._events) == list(reference._events)


class TestEwmaTracker:
    def test_first_sample_sets_mean(self):
        tracker = EwmaTracker(alpha=0.5)
        deviation, samples = tracker.observe("a", -60.0)
        assert deviation == 0.0
        assert samples == 1
        assert tracker.mean("a") == -60.0

    def test_deviation_measured_before_update(self):
        tracker = EwmaTracker(alpha=0.5)
        tracker.observe("a", -60.0)
        deviation, _ = tracker.observe("a", -70.0)
        assert deviation == -10.0
        assert tracker.mean("a") == -65.0  # moved halfway at alpha=0.5

    def test_keys_independent(self):
        tracker = EwmaTracker()
        tracker.observe("a", -60.0)
        tracker.observe("b", -80.0)
        assert tracker.mean("a") == -60.0
        assert tracker.mean("b") == -80.0
        assert tracker.samples("a") == 1

    def test_unknown_key(self):
        tracker = EwmaTracker()
        assert tracker.mean("ghost") is None
        assert tracker.samples("ghost") == 0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            EwmaTracker(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaTracker(alpha=1.5)

    @settings(max_examples=40)
    @given(st.lists(st.floats(-100, 0, allow_nan=False), min_size=1, max_size=40))
    def test_mean_bounded_by_samples_property(self, values):
        tracker = EwmaTracker(alpha=0.3)
        for value in values:
            tracker.observe("k", value)
        assert min(values) - 1e-9 <= tracker.mean("k") <= max(values) + 1e-9


class TestLinkHelpers:
    def test_link_fields(self):
        frame = Ieee802154Frame(pan_id=1, seq=0, src=NodeId("a"), dst=NodeId("b"))
        assert link_source(frame) == NodeId("a")
        assert link_destination(frame) == NodeId("b")

    def test_unaddressed_packet(self):
        assert link_source(RawPayload(length=1)) is None
        assert link_destination(RawPayload(length=1)) is None

    def test_medium_labels_are_knowgget_safe(self):
        for medium in Medium:
            label = medium_label(medium)
            assert "." not in label
            assert "$" not in label and "@" not in label


class TestValidationHelpers:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValidationError, match="broken"):
            require(False, "broken")

    def test_require_type(self):
        require_type("x", str, "name")
        require_type(3, (int, float), "value")
        with pytest.raises(ValidationError, match="must be str"):
            require_type(3, str, "name")
        with pytest.raises(ValidationError, match="int | float"):
            require_type("x", (int, float), "value")

    def test_numeric_requirements(self):
        require_positive(1.0, "x")
        require_non_negative(0.0, "x")
        require_in_range(5, 0, 10, "x")
        with pytest.raises(ValidationError):
            require_positive(0.0, "x")
        with pytest.raises(ValidationError):
            require_non_negative(-0.1, "x")
        with pytest.raises(ValidationError):
            require_in_range(11, 0, 10, "x")
