"""Device models: per-operation costs, capacity, and power envelopes.

The paper's testbed is up to four NVIDIA A6000 GPUs on an AMD EPYC 9124P host
(Section 6.1).  ``A6000`` and ``EPYC_9124P`` are the corresponding presets.
All per-operation costs are expressed in nanoseconds of device-occupancy per
*warp-wide lane of work*; only their ratios matter for the reproduction (the
random-to-coalesced access ratio is what the Flexi-Runtime cost model profiles
at startup), but the absolute values are chosen so simulated times land in a
plausible millisecond range for the scale-model datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.counters import COUNT_ROWS, CostCounters, CounterBatch


@dataclass(frozen=True)
class DeviceSpec:
    """Cost/capacity/power model of one execution device.

    Attributes
    ----------
    name:
        Human-readable device name.
    parallel_lanes:
        Number of concurrently executing hardware lanes (SMs x resident
        warps x warp size for a GPU; cores x threads for a CPU).  Kernel
        time is per-lane work divided across these lanes by the executor.
    coalesced_access_ns / random_access_ns:
        Cost of one word read through a coalesced / uncoalesced transaction.
    weight_compute_ns:
        Cost of one ``get_weight`` evaluation (a handful of FLOPs + a branch).
    rng_ns:
        Cost of one random variate (cuRAND Philox draw, or a CPU PRNG call).
    reduction_ns / prefix_sum_ns:
        Per-element cost of warp/block reductions and prefix sums.
    warp_sync_ns:
        Cost of one warp-synchronisation intrinsic.
    atomic_ns:
        Cost of one global atomic (query-queue counter bump).
    table_build_ns:
        Per-element cost of building auxiliary structures (alias/CDF tables).
    memory_bytes:
        Device memory capacity (used for the simulated OOM checks and the
        replicated-vs-sharded plan negotiation).
    idle_watts / peak_watts:
        Power envelope for the energy model (Fig. 16).
    interconnect_latency_ns:
        Fixed per-transfer latency of one device-to-device message (NVLink /
        PCIe peer-to-peer for the GPU preset, socket interconnect for the
        CPU preset).  Charged once per walker migration by the sharded
        execution mode.
    interconnect_bytes_per_ns:
        Device-to-device bandwidth in bytes per nanosecond (1 byte/ns ==
        1 GB/s).  Together with the latency this prices
        :meth:`migration_time_ns`.
    checkpoint_latency_ns:
        Fixed cost of initiating one walker-state checkpoint (the barrier
        plus copy-out initiation).  Charged once per checkpoint by the
        fault-tolerance runtime (:mod:`repro.runtime.faults`).  Scaled to
        the simulator's per-operation cost scale, like ``atomic_ns`` — not
        a wall-clock kernel-launch figure.
    checkpoint_bytes_per_ns:
        Per-lane drain bandwidth of the checkpoint copy-out, in bytes per
        nanosecond.  The copy-out is a lane-parallel kernel like every
        other cost in the simulator — each lane streams its resident
        walkers' records out — so :meth:`checkpoint_time_ns` divides the
        payload across ``parallel_lanes`` before applying this rate.
    """

    name: str
    parallel_lanes: int
    coalesced_access_ns: float
    random_access_ns: float
    weight_compute_ns: float
    rng_ns: float
    reduction_ns: float
    prefix_sum_ns: float
    warp_sync_ns: float
    atomic_ns: float
    table_build_ns: float
    memory_bytes: int
    idle_watts: float
    peak_watts: float
    interconnect_latency_ns: float = 1300.0
    interconnect_bytes_per_ns: float = 32.0
    checkpoint_latency_ns: float = 12.0
    checkpoint_bytes_per_ns: float = 4.0

    def __post_init__(self) -> None:
        if self.parallel_lanes < 1:
            raise SimulationError("a device needs at least one parallel lane")
        if min(
            self.coalesced_access_ns,
            self.random_access_ns,
            self.weight_compute_ns,
            self.rng_ns,
            self.reduction_ns,
            self.prefix_sum_ns,
            self.warp_sync_ns,
            self.atomic_ns,
            self.table_build_ns,
            self.interconnect_latency_ns,
            self.checkpoint_latency_ns,
        ) < 0:
            raise SimulationError("per-operation costs must be non-negative")
        if self.interconnect_bytes_per_ns <= 0:
            raise SimulationError("interconnect bandwidth must be positive")
        if self.checkpoint_bytes_per_ns <= 0:
            raise SimulationError("checkpoint bandwidth must be positive")

    # ------------------------------------------------------------------ #
    def lane_time_ns(self, counters: CostCounters) -> float:
        """Price a counter bundle: nanoseconds of work for a single lane.

        The INT8 extension (Section 7.2) reduces memory time proportionally
        to the stored weight width, which is modelled through
        ``counters.bytes_per_weight``.
        """
        width_scale = counters.bytes_per_weight / 8.0
        memory_ns = (
            counters.coalesced_accesses * self.coalesced_access_ns
            + counters.random_accesses * self.random_access_ns
        ) * width_scale
        compute_ns = (
            counters.weight_computations * self.weight_compute_ns
            + counters.rng_draws * self.rng_ns
            + counters.reduction_elements * self.reduction_ns
            + counters.prefix_sum_elements * self.prefix_sum_ns
            + counters.warp_syncs * self.warp_sync_ns
            + counters.atomic_ops * self.atomic_ns
            + counters.table_builds * self.table_build_ns
        )
        return memory_ns + compute_ns

    def lane_times_ns(self, batch: CounterBatch) -> np.ndarray:
        """Vectorised :meth:`lane_time_ns` over a :class:`CounterBatch`.

        The arithmetic mirrors the scalar method term for term and in the
        same association order, so slot ``i`` of the result is bit-identical
        to ``lane_time_ns`` of the equivalent scalar counter object — the
        property the batched engine relies on for exact timing parity.
        Counter rows that are zero in every slot are skipped: each of their
        terms is ``+0.0``, and ``x + 0.0 == x`` for lane times, which are
        never negative.
        """
        counts = batch.counts
        live = counts.any(axis=1).tolist()
        memory_ns = _priced(counts, live, (
            (COUNT_ROWS["coalesced_accesses"], self.coalesced_access_ns),
            (COUNT_ROWS["random_accesses"], self.random_access_ns),
        ))
        compute_ns = _priced(counts, live, (
            (COUNT_ROWS["weight_computations"], self.weight_compute_ns),
            (COUNT_ROWS["rng_draws"], self.rng_ns),
            (COUNT_ROWS["reduction_elements"], self.reduction_ns),
            (COUNT_ROWS["prefix_sum_elements"], self.prefix_sum_ns),
            (COUNT_ROWS["warp_syncs"], self.warp_sync_ns),
            (COUNT_ROWS["atomic_ops"], self.atomic_ns),
            (COUNT_ROWS["table_builds"], self.table_build_ns),
        ))
        if memory_ns is None:
            return np.zeros(batch.size) if compute_ns is None else compute_ns
        memory_ns *= batch.bytes_per_weight / 8.0
        return memory_ns if compute_ns is None else memory_ns + compute_ns

    def migration_time_ns(self, num_bytes: int) -> float:
        """Interconnect cost of shipping ``num_bytes`` to a peer device.

        The sharded execution mode charges one such transfer whenever a
        sampled step lands on a node owned by a remote shard and the walker
        record migrates to that shard's device (KnightKing-style walker
        migration).  Latency-plus-bandwidth model: small walker records are
        latency-dominated, exactly like real peer-to-peer messages.
        """
        return self.interconnect_latency_ns + num_bytes / self.interconnect_bytes_per_ns

    def checkpoint_time_ns(self, num_bytes: int) -> float:
        """Cost of draining ``num_bytes`` of walker state to checkpoint
        storage (and, symmetrically, of reading it back on restore).

        Latency plus a *lane-parallel* drain: the copy-out kernel streams
        each lane's resident walker records concurrently, exactly as the
        step kernels price their work per lane, so the payload divides
        across ``parallel_lanes``.  Checkpoints of a few walkers are
        latency-dominated, frontiers wider than the lane count pay the
        per-lane bandwidth on their surplus rows.
        """
        return self.checkpoint_latency_ns + num_bytes / (
            self.checkpoint_bytes_per_ns * self.parallel_lanes
        )

    @property
    def random_to_coalesced_ratio(self) -> float:
        """The EdgeCost_RJS / EdgeCost_RVS ratio of Eq. (11), from the spec."""
        if self.coalesced_access_ns == 0:
            return float("inf")
        return self.random_access_ns / self.coalesced_access_ns

    def scaled(self, factor: float, name: str | None = None) -> DeviceSpec:
        """Return a device with ``factor``x the parallel lanes (multi-GPU)."""
        return replace(
            self,
            name=name if name is not None else f"{self.name} x{factor:g}",
            parallel_lanes=max(1, int(self.parallel_lanes * factor)),
        )


def _priced(
    counts: np.ndarray, live: list[bool], terms: tuple[tuple[int, float], ...]
) -> np.ndarray | None:
    """``Σ counts[row] * price`` over the ``(row, price)`` terms whose row is
    ``live``, summed left to right; ``None`` when no row is."""
    total = None
    for row, price in terms:
        if live[row]:
            term = counts[row] * price
            if total is None:
                total = term
            else:
                total += term
    return total


#: NVIDIA RTX A6000 preset (84 SMs, 48 GB, 300 W TDP).
A6000 = DeviceSpec(
    name="NVIDIA A6000",
    parallel_lanes=84 * 48,           # SMs x resident warps
    coalesced_access_ns=0.55,
    random_access_ns=4.4,
    weight_compute_ns=0.12,
    rng_ns=0.9,
    reduction_ns=0.35,
    prefix_sum_ns=0.45,
    warp_sync_ns=1.5,
    atomic_ns=12.0,
    table_build_ns=1.6,
    memory_bytes=48 * 1024**3,
    idle_watts=70.0,
    peak_watts=300.0,
    interconnect_latency_ns=1300.0,   # NVLink peer-to-peer message latency
    interconnect_bytes_per_ns=112.0,  # NVLink 3 bridge, ~112 GB/s per direction
)

#: AMD EPYC 9124P preset (16 cores / 32 threads, 512 GB host memory, 200 W).
EPYC_9124P = DeviceSpec(
    name="AMD EPYC 9124P",
    parallel_lanes=32,
    coalesced_access_ns=1.2,
    random_access_ns=18.0,
    weight_compute_ns=0.9,
    rng_ns=4.5,
    reduction_ns=1.0,
    prefix_sum_ns=1.1,
    warp_sync_ns=0.0,
    atomic_ns=25.0,
    table_build_ns=3.0,
    memory_bytes=512 * 1024**3,
    idle_watts=90.0,
    peak_watts=200.0,
    interconnect_latency_ns=500.0,   # cross-socket / cross-CCD hop
    interconnect_bytes_per_ns=47.0,  # xGMI-class link, ~47 GB/s
)
