"""Tests for multi-GPU partitioning and the per-device makespan model."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.device import A6000
from repro.gpusim.executor import KernelExecutor
from repro.gpusim.multigpu import occupied_load_imbalance, partition_queries


def partition_kernels(device, per_query_ns, start_nodes, gpus, policy="hash"):
    """Partition the queries and run each partition on its own device."""
    parts = partition_queries(start_nodes, gpus, policy, costs=per_query_ns)
    executor = KernelExecutor(device)
    return [executor.execute(per_query_ns[p], scheduling="dynamic") for p in parts]


def makespan(kernels) -> float:
    return max((k.time_ns for k in kernels), default=0.0)


@pytest.fixture
def device():
    return dataclasses.replace(A6000, parallel_lanes=8, atomic_ns=0.0)


class TestPartitioning:
    def test_partitions_cover_all_queries(self):
        starts = np.arange(100)
        parts = partition_queries(starts, 4, policy="hash")
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(100))

    def test_range_policy_contiguous_and_balanced(self):
        parts = partition_queries(np.arange(100), 4, policy="range")
        sizes = [p.size for p in parts]
        assert sizes == [25, 25, 25, 25]
        assert np.array_equal(parts[0], np.arange(25))

    def test_hash_policy_roughly_balanced(self):
        parts = partition_queries(np.arange(4000), 4, policy="hash")
        sizes = np.array([p.size for p in parts])
        assert sizes.min() > 800

    def test_hash_deterministic(self):
        a = partition_queries(np.arange(50), 3, policy="hash")
        b = partition_queries(np.arange(50), 3, policy="hash")
        for x, y in zip(a, b, strict=False):
            assert np.array_equal(x, y)

    def test_single_gpu_gets_everything(self):
        parts = partition_queries(np.arange(10), 1)
        assert parts[0].size == 10

    def test_invalid_policy_rejected(self):
        with pytest.raises(SimulationError):
            partition_queries(np.arange(10), 2, policy="round-robin")

    def test_zero_gpus_rejected(self):
        with pytest.raises(SimulationError):
            partition_queries(np.arange(10), 0)

    def test_balanced_policy_packs_by_cost(self):
        # One heavy query and seven light ones: LPT puts the heavy query
        # alone on one device and spreads the light ones over the other.
        costs = np.array([100.0, 1, 1, 1, 1, 1, 1, 1])
        parts = partition_queries(np.arange(8), 2, policy="balanced", costs=costs)
        loads = sorted(costs[p].sum() for p in parts)
        assert loads == [7.0, 100.0]

    def test_balanced_policy_deterministic(self):
        rng = np.random.default_rng(3)
        costs = rng.uniform(1, 50, size=64)
        a = partition_queries(np.arange(64), 4, policy="balanced", costs=costs)
        b = partition_queries(np.arange(64), 4, policy="balanced", costs=costs)
        for x, y in zip(a, b, strict=False):
            assert np.array_equal(x, y)

    def test_balanced_policy_requires_costs(self):
        with pytest.raises(SimulationError):
            partition_queries(np.arange(10), 2, policy="balanced")

    def test_balanced_policy_rejects_mismatched_costs(self):
        with pytest.raises(SimulationError):
            partition_queries(np.arange(10), 2, policy="balanced", costs=np.ones(4))

    def test_more_gpus_than_queries_yields_empty_partitions(self):
        """Defined behavior: surplus devices get zero-length index arrays."""
        for policy in ("hash", "range", "balanced"):
            parts = partition_queries(
                np.arange(3), 8, policy=policy, costs=np.ones(3)
            )
            assert len(parts) == 8
            combined = np.sort(np.concatenate(parts))
            assert np.array_equal(combined, np.arange(3))
            # At most 3 devices can be occupied (hash may collide onto fewer).
            assert sum(p.size == 0 for p in parts) >= 5


class TestPartitionedMakespan:
    def test_more_gpus_never_slower(self, device):
        per_query = np.random.default_rng(0).uniform(5, 15, size=200)
        starts = np.arange(200)
        times = [makespan(partition_kernels(device, per_query, starts, gpus)) for gpus in (1, 2, 4)]
        assert times[1] <= times[0]
        assert times[2] <= times[1]

    def test_speedup_roughly_linear_for_uniform_work(self, device):
        per_query = np.full(512, 10.0)
        starts = np.arange(512)
        single = makespan(partition_kernels(device, per_query, starts, 1))
        quad = makespan(partition_kernels(device, per_query, starts, 4))
        assert single / quad > 2.5

    def test_one_kernel_per_gpu(self, device):
        assert len(partition_kernels(device, np.ones(30), np.arange(30), 3)) == 3

    def test_load_imbalance_reported(self, device):
        kernels = partition_kernels(device, np.ones(64), np.arange(64), 4)
        assert occupied_load_imbalance(kernels) >= 1.0

    def test_load_imbalance_ignores_idle_devices(self, device):
        """Empty partitions must not inflate the imbalance statistic.

        Two uniform queries on eight devices: the two working devices are
        perfectly balanced, so the imbalance is 1.0 even though six devices
        idle (the old all-device mean reported 4.0 here).
        """
        kernels = partition_kernels(device, np.ones(2), np.arange(2), 8, policy="range")
        occupied = [k for k in kernels if k.num_queries > 0]
        assert len(occupied) == 2
        assert occupied_load_imbalance(kernels) == pytest.approx(1.0)

    def test_load_imbalance_all_idle_is_unity(self, device):
        kernels = partition_kernels(device, np.zeros(0), np.zeros(0, dtype=np.int64), 4)
        assert occupied_load_imbalance(kernels) == 1.0
        assert makespan(kernels) == 0.0

    def test_balanced_policy_packs_measured_times(self, device):
        """Given the real per-query times, 'balanced' beats 'range'."""
        per_query = np.array([100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        balanced = partition_kernels(device, per_query, np.arange(6), 2, policy="balanced")
        range_kernels = partition_kernels(device, per_query, np.arange(6), 2, policy="range")
        assert makespan(balanced) <= makespan(range_kernels)
        assert occupied_load_imbalance(balanced) <= occupied_load_imbalance(range_kernels)
