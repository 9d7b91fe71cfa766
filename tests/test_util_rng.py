"""Tests for seeded randomness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import (
    DIGEST_BYTES,
    DRAWS_PER_DIGEST,
    HashedBlock,
    HashedDraws,
    HashedStream,
    SeededRng,
    derive_seed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    def test_result_is_63_bit(self):
        assert 0 <= derive_seed(7, "x") < 2**63


class TestSeededRng:
    def test_same_seed_same_stream(self):
        first = [SeededRng(5).uniform() for _ in range(5)]
        second = [SeededRng(5).uniform() for _ in range(5)]
        assert first == second

    def test_substreams_are_independent(self):
        root = SeededRng(5)
        a = root.substream("a").uniform()
        b = root.substream("b").uniform()
        assert a != b

    def test_substream_insensitive_to_sibling_consumption(self):
        root1 = SeededRng(5)
        root1.uniform()  # consume from the root
        root2 = SeededRng(5)
        assert root1.substream("x").uniform() == root2.substream("x").uniform()

    def test_integer_bounds_inclusive(self):
        rng = SeededRng(1)
        values = {rng.integer(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_integer_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SeededRng(1).integer(5, 4)

    def test_chance_extremes(self):
        rng = SeededRng(1)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))

    def test_chance_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SeededRng(1).chance(1.5)

    def test_choice_and_sample(self):
        rng = SeededRng(2)
        items = ["a", "b", "c", "d"]
        assert rng.choice(items) in items
        sampled = rng.sample(items, 3)
        assert len(sampled) == len(set(sampled)) == 3

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            SeededRng(1).choice([])

    def test_sample_rejects_oversized(self):
        with pytest.raises(ValueError):
            SeededRng(1).sample([1, 2], 3)

    def test_shuffled_is_permutation(self):
        rng = SeededRng(3)
        items = list(range(20))
        assert sorted(rng.shuffled(items)) == items

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            SeededRng(1).exponential(0.0)

    def test_jitter_bounds(self):
        rng = SeededRng(4)
        for _ in range(100):
            value = rng.jitter(10.0, 0.2)
            assert 8.0 <= value <= 12.0

    def test_jitter_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            SeededRng(1).jitter(1.0, -0.1)


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=10))
def test_derive_seed_always_in_range(seed, label):
    assert 0 <= derive_seed(seed, label) < 2**63


class TestHashedStream:
    """Order-independent keyed draws for the delivery fast path."""

    def test_pure_function_of_key(self):
        stream = HashedStream(7, "pairs")
        assert stream.sample("a", "b", 1).uniform() == stream.sample("a", "b", 1).uniform()

    def test_key_sensitivity(self):
        stream = HashedStream(7, "pairs")
        baseline = stream.sample("a", "b", 1).uniform()
        assert stream.sample("a", "b", 2).uniform() != baseline
        assert stream.sample("b", "a", 1).uniform() != baseline
        assert stream.sample("a", "c", 1).uniform() != baseline

    def test_seed_and_label_sensitivity(self):
        assert (
            HashedStream(7, "pairs").sample("k").uniform()
            != HashedStream(8, "pairs").sample("k").uniform()
        )
        assert (
            HashedStream(7, "a").sample("k").uniform()
            != HashedStream(7, "b").sample("k").uniform()
        )

    def test_order_independence(self):
        """Draw order and draw *set* cannot perturb other keys."""
        stream = HashedStream(7, "pairs")
        forward = [stream.sample("k", index).uniform() for index in range(10)]
        shuffled_stream = HashedStream(7, "pairs")
        backward = [
            shuffled_stream.sample("k", index).uniform()
            for index in reversed(range(10))
        ]
        assert forward == list(reversed(backward))
        sparse = HashedStream(7, "pairs")
        assert sparse.sample("k", 5).uniform() == forward[5]

    def test_uniform_bounds_and_distribution(self):
        stream = HashedStream(3, "u")
        values = [stream.sample(index).uniform(10.0, 20.0) for index in range(2000)]
        assert all(10.0 <= value < 20.0 for value in values)
        mean = sum(values) / len(values)
        assert 14.5 < mean < 15.5

    def test_normal_moments(self):
        stream = HashedStream(3, "n")
        values = [stream.sample(index).normal(5.0, 2.0) for index in range(4000)]
        mean = sum(values) / len(values)
        variance = sum((value - mean) ** 2 for value in values) / len(values)
        assert abs(mean - 5.0) < 0.15
        assert 3.4 < variance < 4.6

    def test_chance_rate_and_validation(self):
        stream = HashedStream(3, "c")
        hits = sum(stream.sample(index).chance(0.25) for index in range(4000))
        assert 850 < hits < 1150
        with pytest.raises(ValueError):
            stream.sample(0).chance(1.5)

    def test_draw_budget_exhaustion(self):
        draws = HashedStream(3, "b").sample("k")
        for _ in range(4):
            draws.uniform()
        with pytest.raises(RuntimeError):
            draws.uniform()

    def test_one_shot_conveniences(self):
        stream = HashedStream(3, "s")
        assert stream.uniform(("k", 1)) == stream.sample("k", 1).uniform()
        assert stream.normal(("k", 1)) == stream.sample("k", 1).normal()
        assert stream.chance(("k", 1), 0.5) == stream.sample("k", 1).chance(0.5)


def block_row(block, index):
    """Row ``index`` of a block as a scalar draw budget."""
    return HashedDraws(
        block.digests[index * DIGEST_BYTES : (index + 1) * DIGEST_BYTES]
    )


class TestHashedBlock:
    def test_block_rows_identical_to_sample(self):
        """Row i of a block is byte-identical to sample(*common, tails[i])."""
        stream = HashedStream(11, "pairs")
        tails = [f"recv-{index}" for index in range(17)]
        block = stream.sample_block(("sender-3", 42), tails)
        assert len(block) == len(tails)
        for index, tail in enumerate(tails):
            scalar = stream.sample("sender-3", 42, tail)
            row = block_row(block, index)
            for _ in range(DRAWS_PER_DIGEST):
                assert row.uniform() == scalar.uniform()

    def test_uniform_columns_match_scalar_draw_order(self):
        """uniforms(j) is the j-th scalar draw of every row, bit for bit,
        including the all-zero and all-0xFF digests at the edges."""
        stream = HashedStream(11, "pairs")
        hashed = stream.sample_block(("s", 1), [str(index) for index in range(32)])
        edges = bytes(DIGEST_BYTES) + b"\xff" * DIGEST_BYTES
        block = HashedBlock(edges + hashed.digests, len(hashed) + 2)
        columns = [block.uniforms(j) for j in range(DRAWS_PER_DIGEST)]
        for index in range(len(block)):
            scalar = block_row(block, index)
            for j in range(DRAWS_PER_DIGEST):
                assert columns[j][index] == scalar.uniform()
        assert all(column[0] == 0.0 for column in columns)
        assert all(column[1] == 1.0 - 2.0**-53 for column in columns)

    def test_draw_matrix_is_cached_and_read_only(self):
        block = HashedStream(11, "ro").sample_block(("k",), list(range(8)))
        units = block.units
        assert units.shape == (8, DRAWS_PER_DIGEST)
        assert block.units is units
        assert not units.flags.writeable
        with pytest.raises(ValueError):
            units[0, 0] = 0.5
        default = block.uniforms(2).copy()
        scaled = block.uniforms(2, -3.0, 5.0)
        assert ((scaled >= -3.0) & (scaled < 5.0)).all()
        assert (block.uniforms(2) == default).all()
        assert (units[:, 2] == default).all()

    def test_uniforms_range_and_bounds(self):
        stream = HashedStream(11, "u")
        block = stream.sample_block(("k",), list(range(100)))
        scaled = block.uniforms(0, 10.0, 20.0)
        assert ((scaled >= 10.0) & (scaled < 20.0)).all()
        with pytest.raises(ValueError):
            block.uniforms(DRAWS_PER_DIGEST)
        with pytest.raises(ValueError):
            block.uniforms(-1)

    def test_empty_block(self):
        block = HashedStream(11, "e").sample_block(("k",), [])
        assert len(block) == 0
        assert block.uniforms(0).shape == (0,)

    def test_key_parts_are_type_tagged(self):
        """"1" and 1 used to collide into the same digest; no longer."""
        stream = HashedStream(11, "tags")
        assert stream.sample("1").uniform() != stream.sample(1).uniform()
        # The tag also prevents boundary ambiguity across parts.
        assert stream.sample("a", 12).uniform() != stream.sample("a", "12").uniform()

    def test_key_parts_reject_other_types(self):
        stream = HashedStream(11, "tags")
        with pytest.raises(TypeError):
            stream.sample(1.5)
        with pytest.raises(TypeError):
            stream.sample_block((1.5,), ["x"])

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        common=st.lists(
            st.one_of(st.text(max_size=8), st.integers(-1000, 1000)),
            max_size=3,
        ),
        tails=st.lists(
            st.one_of(st.text(max_size=8), st.integers(-1000, 1000)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_block_vs_scalar_property(self, seed, common, tails):
        stream = HashedStream(seed, "prop")
        block = stream.sample_block(tuple(common), tails)
        for index, tail in enumerate(tails):
            assert (
                block_row(block, index).uniform()
                == stream.sample(*common, tail).uniform()
            )
