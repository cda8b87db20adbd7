"""Tests for the kernel executor (query-to-lane scheduling)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.device import A6000
from repro.gpusim.executor import KernelExecutor


@pytest.fixture
def small_device():
    return dataclasses.replace(A6000, parallel_lanes=4, atomic_ns=0.0)


class TestExecuteBasics:
    def test_empty_batch(self, small_device):
        result = KernelExecutor(small_device).execute(np.array([]))
        assert result.time_ns == 0.0
        assert result.num_queries == 0

    def test_single_query_time_is_its_own_time(self, small_device):
        result = KernelExecutor(small_device).execute(np.array([42.0]))
        assert result.time_ns == pytest.approx(42.0)

    def test_total_work_is_sum(self, small_device):
        times = np.array([1.0, 2.0, 3.0])
        result = KernelExecutor(small_device).execute(times)
        assert result.total_work_ns == pytest.approx(6.0)

    def test_negative_times_rejected(self, small_device):
        with pytest.raises(SimulationError):
            KernelExecutor(small_device).execute(np.array([-1.0]))

    def test_unknown_scheduling_rejected(self, small_device):
        with pytest.raises(SimulationError):
            KernelExecutor(small_device).execute(np.array([1.0]), scheduling="magic")

    def test_two_dimensional_input_rejected(self, small_device):
        with pytest.raises(SimulationError):
            KernelExecutor(small_device).execute(np.ones((2, 2)))

    def test_time_units(self, small_device):
        result = KernelExecutor(small_device).execute(np.array([2_000_000.0]))
        assert result.time_ms == pytest.approx(2.0)
        assert result.time_s == pytest.approx(0.002)


class TestScheduling:
    def test_makespan_at_least_work_over_lanes(self, small_device):
        times = np.full(16, 10.0)
        result = KernelExecutor(small_device).execute(times, queue_atomic_ns=0.0)
        assert result.time_ns >= times.sum() / small_device.parallel_lanes

    def test_dynamic_beats_static_on_skewed_prefix(self, small_device):
        # All the heavy queries sit at the front: a static range split gives
        # the whole heavy block to lane 0, dynamic spreads them out.
        times = np.concatenate([np.full(4, 100.0), np.full(12, 1.0)])
        dynamic = KernelExecutor(small_device).execute(times, scheduling="dynamic", queue_atomic_ns=0.0)
        static = KernelExecutor(small_device).execute(times, scheduling="static")
        assert dynamic.time_ns < static.time_ns

    def test_dynamic_scheduling_charges_atomics(self):
        device = dataclasses.replace(A6000, parallel_lanes=2, atomic_ns=5.0)
        with_atomics = KernelExecutor(device).execute(np.full(8, 10.0), scheduling="dynamic")
        without = KernelExecutor(device).execute(np.full(8, 10.0), scheduling="dynamic", queue_atomic_ns=0.0)
        assert with_atomics.time_ns == pytest.approx(without.time_ns + 4 * 5.0)

    def test_lanes_capped_by_query_count(self, small_device):
        result = KernelExecutor(small_device).execute(np.array([5.0, 5.0]), queue_atomic_ns=0.0)
        assert result.lane_times_ns.size == 2

    def test_balanced_load_has_imbalance_one(self, small_device):
        result = KernelExecutor(small_device).execute(np.full(8, 10.0), queue_atomic_ns=0.0)
        assert result.load_imbalance == pytest.approx(1.0)
        assert result.utilization == pytest.approx(1.0)

    def test_imbalanced_load_detected(self, small_device):
        times = np.array([100.0] + [1.0] * 7)
        result = KernelExecutor(small_device).execute(times, queue_atomic_ns=0.0)
        assert result.load_imbalance > 1.5
        assert result.utilization < 1.0


def _reference_dynamic_lanes(per_query_ns: np.ndarray, lanes: int, atomic_ns: float) -> np.ndarray:
    """Brute-force global queue: each query goes to the earliest-free lane
    (``argmin``, so the lowest lane wins a tie)."""
    lane_times = np.zeros(lanes, dtype=np.float64)
    for t in per_query_ns:
        lane = int(np.argmin(lane_times))
        lane_times[lane] = lane_times[lane] + (float(t) + atomic_ns)
    return lane_times


class TestDynamicScheduleReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_byte_for_byte(self, seed):
        rng = np.random.default_rng(seed)
        lanes = int(rng.integers(2, 9))
        atomic_ns = float(rng.choice([0.0, 0.7, 3.0]))
        device = dataclasses.replace(A6000, parallel_lanes=lanes, atomic_ns=atomic_ns)
        num_queries = int(rng.integers(lanes + 1, 12 * lanes))
        times = rng.exponential(50.0, num_queries)
        # Repeated values force ties between lanes.
        times[rng.random(num_queries) < 0.4] = 25.0
        result = KernelExecutor(device).execute(times, scheduling="dynamic")
        reference = _reference_dynamic_lanes(times, lanes, atomic_ns)
        assert result.lane_times_ns.tobytes() == reference.tobytes()
        assert result.time_ns == float(reference.max())

    def test_equal_times_fill_lanes_in_order(self):
        device = dataclasses.replace(A6000, parallel_lanes=3, atomic_ns=1.0)
        times = np.full(10, 4.0)
        result = KernelExecutor(device).execute(times, scheduling="dynamic")
        reference = _reference_dynamic_lanes(times, 3, 1.0)
        assert result.lane_times_ns.tobytes() == reference.tobytes()
        # Lane 0 takes queries 0, 3, 6 and 9; lanes 1 and 2 take three each.
        assert result.lane_times_ns.tolist() == [20.0, 15.0, 15.0]
