"""Unit tests for repro.stats.distributions."""

import pickle

import numpy as np
import pytest

from repro.stats.distributions import (
    allocate_counts,
    bounded_zipf_shares,
    categorical_sample,
    lognormal_sizes,
    seed_sequence_words,
    stable_rng,
    stable_rngs,
    stable_seed_sequences,
    stable_uniforms,
)


class TestStableRng:
    def test_same_parts_same_stream(self):
        a = stable_rng(1, "x").random(5)
        b = stable_rng(1, "x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_parts_different_stream(self):
        a = stable_rng(1, "x").random(5)
        b = stable_rng(1, "y").random(5)
        assert not np.array_equal(a, b)

    def test_part_order_matters(self):
        assert stable_rng("a", "b").random() != stable_rng("b", "a").random()

    def test_numeric_and_string_parts_mix(self):
        # Must not raise and must be deterministic.
        assert stable_rng(7, "geo", 3.5).random() == stable_rng(7, "geo", 3.5).random()


def _reference_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


# Keys shaped like the streams the world builder and BQT open, plus
# mixed part types; 1100 of them span three kernel chunks.
BATCH_KEYS = ([(130, "engine", "att", f"caf-att-{i:06d}") for i in range(1100)]
              + [(7, "churn-cell", "frontier", "550251234001", 3),
                 (0, "geo", 3.5), ("a", "b")])


class TestSeedSequenceKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_edge_seeds_match_seed_sequence(self, seed):
        words = seed_sequence_words(np.array([seed], dtype=np.uint64))
        assert words.shape == (1, 4)
        np.testing.assert_array_equal(words[0], _reference_words(seed))

    def test_random_seeds_match_seed_sequence(self):
        draw = np.random.default_rng(20240917)
        seeds = np.concatenate([
            draw.integers(0, 2**64 - 1, size=10_000, dtype=np.uint64,
                          endpoint=True),
            draw.integers(0, 2**32, size=500, dtype=np.uint64)])
        words = seed_sequence_words(seeds)
        expected = np.array([_reference_words(int(s)) for s in seeds])
        np.testing.assert_array_equal(words, expected)

    def test_empty_batch(self):
        assert seed_sequence_words(np.array([], dtype=np.uint64)).shape == (0, 4)


class TestBatchedTwins:
    def test_stable_rngs_state_and_draws_match(self):
        batched = list(stable_rngs(BATCH_KEYS))
        assert len(batched) == len(BATCH_KEYS)
        for key, rng in zip(BATCH_KEYS, batched):
            reference = stable_rng(*key)
            assert rng.bit_generator.state == reference.bit_generator.state
            for draw in (lambda g: g.random(3),
                         lambda g: g.integers(0, 1000, size=3),
                         lambda g: g.normal(size=2),
                         lambda g: g.lognormal(1.0, 0.5),
                         lambda g: g.dirichlet(np.full(4, 0.6))):
                np.testing.assert_array_equal(draw(rng), draw(reference))

    def test_stable_rngs_is_lazy_over_keys(self):
        keys = iter(BATCH_KEYS)
        first = next(stable_rngs(keys))
        assert first.random() == stable_rng(*BATCH_KEYS[0]).random()
        # One chunk was read ahead, not the whole stream.
        assert len(list(keys)) == len(BATCH_KEYS) - 512

    def test_stable_uniforms_match_scalar_reference(self):
        values = stable_uniforms(BATCH_KEYS)
        assert values == [float(stable_rng(*key).random()) for key in BATCH_KEYS]
        assert all(type(value) is float for value in values)

    def test_seed_sequences_seed_pcg64_like_the_scalar_path(self):
        for key, seq in zip(BATCH_KEYS[:50], stable_seed_sequences(BATCH_KEYS)):
            reference = stable_rng(*key).bit_generator.seed_seq
            assert seq.entropy == reference.entropy
            np.testing.assert_array_equal(
                seq.generate_state(4, np.uint64),
                reference.generate_state(4, np.uint64))
            # Any other request falls back to the real SeedSequence.
            np.testing.assert_array_equal(
                seq.generate_state(3), reference.generate_state(3))

    def test_kernel_built_generator_survives_pickle(self):
        rng = next(stable_rngs([(5, "pickle", "me")]))
        rng.random(7)
        clone = pickle.loads(pickle.dumps(rng))
        assert clone.bit_generator.state == rng.bit_generator.state
        np.testing.assert_array_equal(clone.random(5), rng.random(5))


class TestBoundedZipfShares:
    def test_sums_to_one(self):
        assert bounded_zipf_shares(10).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        shares = bounded_zipf_shares(20, exponent=1.1)
        assert np.all(np.diff(shares) < 0)

    def test_zero_exponent_is_uniform(self):
        shares = bounded_zipf_shares(4, exponent=0.0)
        np.testing.assert_allclose(shares, 0.25)

    def test_higher_exponent_more_concentrated(self):
        low = bounded_zipf_shares(50, exponent=0.5)
        high = bounded_zipf_shares(50, exponent=1.5)
        assert high[0] > low[0]

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            bounded_zipf_shares(0)
        with pytest.raises(ValueError):
            bounded_zipf_shares(5, exponent=-1.0)


class TestLognormalSizes:
    def test_median_roughly_on_target(self):
        rng = stable_rng(0, "test")
        sizes = lognormal_sizes(rng, 20_000, median=64.0, sigma=1.0)
        assert np.median(sizes) == pytest.approx(64.0, rel=0.1)

    def test_respects_bounds(self):
        rng = stable_rng(1, "test")
        sizes = lognormal_sizes(rng, 5_000, median=50.0, sigma=2.0,
                                minimum=1, maximum=300)
        assert sizes.min() >= 1
        assert sizes.max() <= 300

    def test_integer_output(self):
        rng = stable_rng(2, "test")
        assert lognormal_sizes(rng, 10, 10.0, 0.5).dtype == np.int64

    def test_invalid_parameters_raise(self):
        rng = stable_rng(3, "test")
        with pytest.raises(ValueError):
            lognormal_sizes(rng, -1, 10.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_sizes(rng, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_sizes(rng, 1, 10.0, -0.5)


class TestCategoricalSample:
    def test_respects_weights(self):
        rng = stable_rng(0, "cat")
        draws = categorical_sample(rng, {"a": 0.9, "b": 0.1}, 5_000)
        share_a = draws.count("a") / len(draws)
        assert share_a == pytest.approx(0.9, abs=0.03)

    def test_zero_weight_never_drawn(self):
        rng = stable_rng(1, "cat")
        draws = categorical_sample(rng, {"a": 1.0, "b": 0.0}, 500)
        assert set(draws) == {"a"}

    def test_size_zero_is_empty(self):
        rng = stable_rng(2, "cat")
        assert categorical_sample(rng, {"a": 1.0}, 0) == []

    def test_invalid_inputs_raise(self):
        rng = stable_rng(3, "cat")
        with pytest.raises(ValueError):
            categorical_sample(rng, {}, 1)
        with pytest.raises(ValueError):
            categorical_sample(rng, {"a": -1.0}, 1)
        with pytest.raises(ValueError):
            categorical_sample(rng, {"a": 0.0}, 1)
        with pytest.raises(ValueError):
            categorical_sample(rng, {"a": 1.0}, -1)


class TestAllocateCounts:
    def test_sums_exactly_to_total(self):
        counts = allocate_counts(1_000, [0.1, 0.2, 0.3, 0.4])
        assert counts.sum() == 1_000

    def test_proportionality(self):
        counts = allocate_counts(100, [1, 1, 2])
        assert list(counts) == [25, 25, 50]

    def test_largest_remainder_rounding(self):
        counts = allocate_counts(10, [1, 1, 1])
        assert counts.sum() == 10
        assert sorted(counts) == [3, 3, 4]

    def test_zero_total(self):
        assert allocate_counts(0, [0.5, 0.5]).sum() == 0

    def test_unnormalized_shares_accepted(self):
        np.testing.assert_array_equal(
            allocate_counts(10, [3, 7]), allocate_counts(10, [0.3, 0.7]))

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            allocate_counts(-1, [1.0])
        with pytest.raises(ValueError):
            allocate_counts(1, [])
        with pytest.raises(ValueError):
            allocate_counts(1, [-0.5, 1.5])
        with pytest.raises(ValueError):
            allocate_counts(1, [0.0, 0.0])
