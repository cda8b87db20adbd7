"""Tests for counting streams and the per-thread stream pool."""

from __future__ import annotations

import numpy as np

from repro.rng.philox import philox_uniform_premixed, premix_key
from repro.rng.streams import AdoptedStreamPool, BatchStreams, CountingStream, StreamPool


class TestCountingStream:
    def test_counts_scalar_draws(self):
        stream = CountingStream.from_seed(1)
        stream.uniform()
        stream.uniform()
        assert stream.draws == 2

    def test_counts_vector_draws_by_size(self):
        stream = CountingStream.from_seed(1)
        stream.uniform(10)
        stream.integers(0, 5, size=4)
        stream.exponential(3)
        assert stream.draws == 17

    def test_reset_count_only_resets_counter_not_stream(self):
        stream = CountingStream.from_seed(2)
        first = stream.uniform()
        stream.reset_count()
        second = stream.uniform()
        assert stream.draws == 1
        assert first != second

    def test_split_child_counts_independently(self):
        parent = CountingStream.from_seed(3)
        child = parent.split(0)
        parent.uniform(5)
        child.uniform(2)
        assert parent.draws == 5
        assert child.draws == 2

    def test_same_seed_same_sequence(self):
        a = CountingStream.from_seed(9)
        b = CountingStream.from_seed(9)
        assert np.array_equal(a.uniform(16), b.uniform(16))


class TestStreamPool:
    def test_streams_are_cached_per_thread(self):
        pool = StreamPool(0)
        assert pool.stream(3) is pool.stream(3)

    def test_different_threads_get_independent_streams(self):
        pool = StreamPool(0)
        a = pool.stream(0).uniform(50)
        b = pool.stream(1).uniform(50)
        assert not np.allclose(a, b)

    def test_total_draws_aggregates_all_streams(self):
        pool = StreamPool(0)
        pool.stream(0).uniform(4)
        pool.stream(1).uniform(6)
        assert pool.total_draws == 10

    def test_reset_counts(self):
        pool = StreamPool(0)
        pool.stream(0).uniform(4)
        pool.reset_counts()
        assert pool.total_draws == 0

    def test_pool_reproducible_across_instances(self):
        a = StreamPool(77).stream(5).uniform(8)
        b = StreamPool(77).stream(5).uniform(8)
        assert np.array_equal(a, b)


class TestDuplicateStreamsInOneBatch:
    """A thread index repeated in one batch must behave like one shared stream."""

    def test_duplicates_share_one_slot_and_draw_sequentially(self):
        pool = StreamPool(seed=4)
        batch = pool.batch([5, 5])
        values = batch.uniform_flat(np.array([1, 1]))
        reference = StreamPool(seed=4).stream(5).uniform(2)
        assert np.array_equal(values, np.asarray(reference))
        assert values[0] != values[1]
        assert pool.stream(5).draws == 2

    def test_duplicate_then_scalar_continues_the_stream(self):
        pool = StreamPool(seed=9)
        pool.batch([3, 3]).uniform_flat(np.array([2, 1]))
        tail = pool.stream(3).uniform()
        reference = StreamPool(seed=9).stream(3).uniform(4)
        assert tail == float(np.asarray(reference)[3])


class TestPremixedPoolKeys:
    def test_pools_store_the_premixed_key_of_every_stream(self):
        pool = StreamPool(seed=3)
        pool.batch([4, 9, 1])
        assert np.array_equal(pool._mixed_keys, premix_key(pool._keys))
        adopted = AdoptedStreamPool()
        adopted.adopt(3, [4, 9, 4])
        assert np.array_equal(adopted._mixed_keys, premix_key(adopted._keys))
        assert np.array_equal(adopted._keys, pool._keys[[0, 1, 0]])

    def test_pooled_stream_draws_like_a_plain_stream_with_its_key(self):
        pooled = StreamPool(seed=8).stream(6)
        plain = CountingStream.from_seed(8).split(6)
        assert pooled.uniform() == plain.uniform()
        assert np.array_equal(pooled.uniform(5), plain.uniform(5))


class TestReservation:
    def test_reserve_then_evaluate_equals_uniform_flat(self):
        counts = np.array([3, 0, 5, 1])
        drawn = StreamPool(seed=2).batch([7, 3, 12, 0]).uniform_flat(counts)
        pool = StreamPool(seed=2)
        batch = pool.batch([7, 3, 12, 0])
        starts = batch.reserve_flat(counts)
        keys = batch.mixed_keys
        replay = np.concatenate([
            philox_uniform_premixed(keys[i], starts[i] + np.arange(c, dtype=np.uint64))
            for i, c in enumerate(counts)
        ])
        assert np.array_equal(replay, drawn)
        reference = StreamPool(seed=2)
        reference.batch([7, 3, 12, 0]).uniform_flat(counts)
        assert all(np.array_equal(a, b) for a, b in
                   zip(pool.snapshot_counters(), reference.snapshot_counters(), strict=True))

    def test_reserve_flat_on_standalone_streams(self):
        streams = [CountingStream.from_seed(1, s) for s in range(3)]
        streams[1].uniform(4)
        starts = BatchStreams(streams).reserve_flat(np.array([2, 2, 0]))
        assert starts.tolist() == [0, 4, 0]
        assert [s.draws for s in streams] == [2, 6, 0]


class TestSlotUniquenessFlag:
    """Uniqueness is decided when a batch is minted, not on every draw."""

    def test_minted_batches(self):
        pool = StreamPool(seed=0)
        assert pool.batch([1, 2, 3])._unique
        assert not pool.batch([1, 2, 1])._unique
        adopted = AdoptedStreamPool()
        adopted.adopt(0, [5, 5])
        assert adopted.batch_all()._unique

    def test_increasing_subset_inherits_without_rechecking(self, monkeypatch):
        import repro.rng.streams as streams_module

        batch = StreamPool(seed=0).batch([1, 2, 3, 4])
        monkeypatch.setattr(streams_module, "_all_distinct", None)
        assert batch.subset(np.array([0, 2, 3]))._unique

    def test_other_subsets_recheck(self):
        batch = StreamPool(seed=0).batch([1, 2, 3, 1])
        assert not batch._unique
        assert batch.subset(np.array([0, 1, 2]))._unique
        assert not batch.subset(np.array([0, 3]))._unique
        unique = StreamPool(seed=0).batch([1, 2, 3])
        assert not unique.subset(np.array([2, 2]))._unique
        assert unique.subset(np.array([2, 0]))._unique

    def test_repeated_subset_draws_sequentially(self):
        pool = StreamPool(seed=4)
        values = pool.batch([5, 6]).subset(np.array([0, 0])).uniform_flat(np.array([1, 1]))
        reference = StreamPool(seed=4).stream(5).uniform(2)
        assert np.array_equal(values, np.asarray(reference))
