"""Chunk scaling arithmetic and the tail-percentile rule."""

import pytest

from perfbench.probe import (
    MIN_BEYOND,
    REFERENCE_PROBE_S,
    ChunkClock,
    chunk_factor,
    highest_tail_percentile,
    percentile,
    tail,
)


class ScriptedProbe:
    """Returns preset probe times, one per measure() call."""

    def __init__(self, values):
        self.values = list(values)

    def measure(self, reps=1):
        return self.values.pop(0)


def test_chunk_factor_uses_mean_of_both_probes():
    ref = REFERENCE_PROBE_S
    assert chunk_factor(0.5 * ref, 1.5 * ref) == pytest.approx(1.0)
    assert chunk_factor(ref, 3 * ref) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        chunk_factor(0.0, 0.0)


def test_chunk_clock_scales_each_chunk_by_its_neighbouring_probes():
    ref = REFERENCE_PROBE_S
    # Probes: start, after chunk 1, after chunk 2.  Chunk 1 ran while the
    # probe read twice the reference time, chunk 2 at reference speed.
    clock = ChunkClock(ScriptedProbe([2 * ref, 2 * ref, ref]))
    clock.start()
    assert clock.close_chunk(0.4, [0.1, 0.3]) == pytest.approx(0.5)
    assert clock.close_chunk(0.3, [0.2]) == pytest.approx(ref / (1.5 * ref))
    assert clock.raw_s == pytest.approx(0.7)
    assert clock.scaled_s == pytest.approx(0.4 * 0.5 + 0.3 / 1.5)
    assert list(clock.raw_samples) == [0.1, 0.3, 0.2]
    assert list(clock.scaled_samples) == pytest.approx([0.05, 0.15, 0.2 / 1.5])
    with pytest.raises(RuntimeError):
        ChunkClock(ScriptedProbe([ref])).close_chunk(1.0)


def test_percentile_is_nearest_rank_with_beyond_count():
    values = list(range(1, 101))
    assert percentile(values, 50) == (50, 50)
    assert percentile(values, 99) == (99, 1)
    assert percentile(values, 100) == (100, 0)
    assert percentile([7.0], 50) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_requires_ten_samples_beyond():
    enough = list(range(1000))
    value, beyond = tail(enough, 99.0)
    assert (value, beyond) == (989, 10)
    with pytest.raises(ValueError):
        tail(list(range(999)), 99.0)


@pytest.mark.parametrize(
    "count, expected",
    [(100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_tail_percentile(count, expected):
    q = highest_tail_percentile(count)
    assert q == expected
    assert percentile(list(range(count)), q)[1] >= MIN_BEYOND


def test_highest_tail_percentile_refuses_tiny_samples():
    with pytest.raises(ValueError):
        highest_tail_percentile(10)
