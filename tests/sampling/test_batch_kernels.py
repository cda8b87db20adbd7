"""Unit tests for the batched sampling infrastructure.

The parity suite (tests/runtime/test_execution_parity.py) checks the
end-to-end equivalence; these tests pin down the building blocks — segment
primitives, vectorised stream draws, the counter batch and the scalar
fallback of ``sample_batch``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.counters import CostCounters, CounterBatch
from repro.gpusim.device import A6000
from repro.rng.streams import BatchStreams, CountingStream, StreamPool
from repro.sampling.base import Sampler, all_weights_zero, is_dead_end
from repro.sampling.batch import (
    local_positions,
    padded_race,
    segment_any_positive,
    segment_bisect,
    segment_max,
    segment_offsets,
)


class TestSegmentPrimitives:
    def test_offsets_and_ids(self):
        lengths = np.array([2, 0, 3])
        assert segment_offsets(lengths).tolist() == [0, 2, 2, 5]
        assert local_positions(lengths).tolist() == [0, 1, 0, 1, 2]

    def test_segment_max_matches_numpy(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(1, 9, size=20)
        values = rng.normal(size=int(lengths.sum()))
        offsets = segment_offsets(lengths)
        expected = [values[offsets[i]:offsets[i + 1]].max() for i in range(20)]
        assert np.allclose(segment_max(values, lengths), expected)

    def test_padded_race_matches_numpy_tie_breaking(self):
        lengths = np.array([4, 3, 5])
        values = np.array([1.0, 3.0, 3.0, 0.0,
                           -np.inf, -np.inf, -np.inf,
                           2.0, 5.0, 5.0, 5.0, 1.0])
        offsets = segment_offsets(lengths)
        expected = [int(np.argmax(values[offsets[i]:offsets[i + 1]])) for i in range(3)]
        choice, records = padded_race(values, lengths)
        assert choice.tolist() == expected
        assert records.tolist() == [0, 0, 0]

    @pytest.mark.parametrize("record_from", [1, 2, 5])
    def test_padded_race_records_match_accumulate(self, record_from):
        rng = np.random.default_rng(1)
        lengths = rng.integers(1, 12, size=15)
        values = rng.normal(size=int(lengths.sum()))
        values[rng.random(values.size) < 0.2] = -np.inf
        offsets = segment_offsets(lengths)
        running = [
            np.maximum.accumulate(values[offsets[i]:offsets[i + 1]])
            for i in range(15)
        ]
        # A record is a rise of the running maximum at or after record_from.
        expected = [
            int(np.count_nonzero(run[record_from:] > run[record_from - 1:-1]))
            for run in running
        ]
        first_max = [int(np.argmax(run)) for run in running]
        choice, records = padded_race(values, lengths, record_from)
        assert records.tolist() == expected
        assert choice.tolist() == first_max

    def test_padded_race_by_length_class_matches_accumulate(self):
        # One long row makes a single padded matrix too costly, so the
        # segments are raced one power-of-two length class at a time.
        rng = np.random.default_rng(3)
        lengths = np.concatenate([rng.integers(1, 70, size=40), [5000], [1, 33]])
        values = rng.normal(size=int(lengths.sum()))
        values[rng.random(values.size) < 0.2] = -np.inf
        offsets = segment_offsets(lengths)
        running = [
            np.maximum.accumulate(values[offsets[i]:offsets[i + 1]])
            for i in range(lengths.size)
        ]
        expected = [int(np.count_nonzero(run[32:] > run[31:-1])) for run in running]
        choice, records = padded_race(values, lengths, 32)
        assert records.tolist() == expected
        assert choice.tolist() == [int(np.argmax(run)) for run in running]

    def test_padded_race_mixed_length_classes(self):
        # Rows of very different lengths land in different padded classes.
        lengths = np.array([1, 40, 3, 2, 33, 1])
        values = np.arange(lengths.sum(), dtype=np.float64)[::-1].copy()
        values[1 + 17] = 1e9  # row 1's maximum, a record at position 17
        choice, records = padded_race(values, lengths, record_from=8)
        assert choice.tolist() == [0, 17, 0, 0, 0, 0]
        assert records.tolist() == [0, 1, 0, 0, 0, 0]

    def test_segment_bisect_matches_searchsorted(self):
        rng = np.random.default_rng(2)
        flat = []
        lo, hi, queries, expected = [], [], [], []
        cursor = 0
        for _ in range(30):
            seg = np.sort(rng.integers(0, 50, size=rng.integers(1, 10)))
            q = int(rng.integers(0, 50))
            flat.append(seg)
            lo.append(cursor)
            hi.append(cursor + seg.size)
            queries.append(q)
            expected.append(int(np.searchsorted(seg, q)) + cursor)
            cursor += seg.size
        flat = np.concatenate(flat)
        out = segment_bisect(flat, np.array(lo), np.array(hi), np.array(queries), side="left")
        assert out.tolist() == expected

    def test_segment_any_positive(self):
        lengths = np.array([2, 2, 1])
        values = np.array([0.0, 0.0, 0.0, 1.0, 5.0])
        assert segment_any_positive(values, lengths).tolist() == [False, True, True]


class TestBatchStreams:
    def test_uniform_flat_matches_sequential_draws(self):
        pool_a = StreamPool(seed=9)
        pool_b = StreamPool(seed=9)
        ids = [3, 7, 11, 20]
        counts = np.array([4, 0, 2, 7])
        batched = pool_a.batch(ids).uniform_flat(counts)
        expected = np.concatenate([
            np.atleast_1d(pool_b.stream(i).uniform(int(c))) if c else np.zeros(0)
            for i, c in zip(ids, counts, strict=False)
        ])
        assert np.array_equal(batched, expected)
        # The draw accounting advanced identically too.
        assert pool_a.total_draws == pool_b.total_draws == int(counts.sum())

    def test_draws_resume_where_scalar_draws_stopped(self):
        stream = CountingStream.from_seed(5)
        first = stream.uniform(3)
        batch = BatchStreams([stream])
        second = batch.uniform_flat(np.array([3]))
        reference = CountingStream.from_seed(5).uniform(6)
        assert np.array_equal(np.concatenate([np.atleast_1d(first), second]), reference)

    def test_subset_preserves_stream_identity(self):
        pool = StreamPool(seed=1)
        batch = pool.batch([0, 1, 2])
        sub = batch.subset(np.array([2]))
        assert sub.stream(0) is batch.stream(2)


class TestCounterBatch:
    def test_totals_fold_every_slot(self):
        batch = CounterBatch(3, bytes_per_weight=1)
        batch.coalesced_accesses += np.array([1, 2, 3])
        batch.charge("rng_draws", np.array([0, 2]), 5)
        totals = batch.totals()
        assert totals.coalesced_accesses == 6
        assert totals.rng_draws == 10
        assert totals.bytes_per_weight == 1

    def test_absorb_scalar_counters(self):
        batch = CounterBatch(2)
        scalar = CostCounters(random_accesses=4, atomic_ops=1)
        batch.absorb(1, scalar)
        assert batch.random_accesses.tolist() == [0, 4]
        assert batch.atomic_ops.tolist() == [0, 1]

    def test_lane_times_match_scalar_pricing(self):
        rng = np.random.default_rng(3)
        batch = CounterBatch(5, bytes_per_weight=8)
        for name in CostCounters._COUNT_FIELDS:
            getattr(batch, name)[:] = rng.integers(0, 50, size=5)
        vector = A6000.lane_times_ns(batch)
        for i in range(5):
            scalar = CostCounters(bytes_per_weight=8)
            for name in CostCounters._COUNT_FIELDS:
                setattr(scalar, name, int(getattr(batch, name)[i]))
            assert vector[i] == A6000.lane_time_ns(scalar)


class TestDeadEndHelpers:
    def test_is_dead_end(self, tiny_graph):
        assert not is_dead_end(tiny_graph, 0)

    def test_all_weights_zero(self):
        assert all_weights_zero(np.zeros(4))
        assert all_weights_zero(np.zeros(0))
        assert not all_weights_zero(np.array([0.0, 0.5]))


class TestScalarFallback:
    def test_unported_sampler_runs_in_batched_engine(self, small_graph):
        """A custom sampler without sample_batch must work via the fallback."""
        from repro.runtime.engine import WalkEngine
        from repro.runtime.selector import FixedSelector
        from repro.sampling.base import StepContext, gather_transition_weights
        from repro.walks.spec import UniformWalkSpec
        from repro.walks.state import make_queries

        class FirstNeighborSampler(Sampler):
            name = "first"
            processing_unit = "thread"

            def sample(self, ctx: StepContext):
                if not self._check_nonempty(ctx):
                    return None
                weights = gather_transition_weights(ctx)
                if all_weights_zero(weights):
                    return None
                return int(ctx.neighbors()[0])

        queries = make_queries(small_graph.num_nodes, walk_length=4, num_queries=6)
        results = {}
        for mode in ("scalar", "batched"):
            engine = WalkEngine(
                graph=small_graph, spec=UniformWalkSpec(),
                selector=FixedSelector(FirstNeighborSampler()), execution=mode,
            )
            results[mode] = engine.run(queries)
        assert results["scalar"].paths == results["batched"].paths
        assert (results["scalar"].counters.as_dict()
                == results["batched"].counters.as_dict())
        assert results["batched"].sampler_usage == {"first": 24}
