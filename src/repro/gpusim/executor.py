"""Kernel executor: maps per-query work onto parallel lanes.

A random-walk kernel launches one query per processing unit (a thread for
rejection sampling, a warp for reservoir sampling) and each unit grabs a new
query from a global queue when it finishes its current one (Section 5.3).
The executor reproduces that behaviour: given the simulated lane-time of each
query it distributes queries over the device's parallel lanes either
**dynamically** (greedy earliest-free-lane, modelling the atomic-counter
queue) or **statically** (contiguous ranges, the naive mapping), and the
kernel's simulated execution time is the makespan — the busiest lane.

This is where load imbalance, the dominant loss term in the paper's multi-GPU
experiment (Fig. 15), enters the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.counters import CostCounters
from repro.gpusim.device import DeviceSpec


@dataclass
class KernelResult:
    """Outcome of one simulated kernel launch.

    Attributes
    ----------
    time_ns:
        Simulated wall-clock time of the kernel (makespan over lanes).
    total_work_ns:
        Sum of all per-query lane times (the work a single lane would do).
    lane_times_ns:
        Busy time of each lane that received work.
    num_queries:
        Number of queries executed.
    counters:
        Aggregated operation counts over every query.
    scheduling:
        ``"dynamic"`` or ``"static"``.
    comm_ns:
        Modeled interconnect time charged to this kernel (walker migrations
        in the sharded execution mode).  Already accounted in ``time_ns`` —
        serialised after the lane makespan, or overlapped with compute when
        the kernel was executed with ``comm_overlap=True`` (then only the
        excess beyond the makespan shows up).  0 for replicated/
        single-device kernels.
    recovery_ns:
        Fault-tolerance time charged to this kernel: checkpoint copy-outs,
        transient-fault retries (with backoff) and replay-from-checkpoint
        after a permanent device failure.  Already accounted in ``time_ns``
        — recovery work never overlaps compute in the model.  0 for
        fault-free runs.
    """

    time_ns: float
    total_work_ns: float
    lane_times_ns: np.ndarray
    num_queries: int
    counters: CostCounters = field(default_factory=CostCounters)
    scheduling: str = "dynamic"
    comm_ns: float = 0.0
    recovery_ns: float = 0.0

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    @property
    def time_s(self) -> float:
        return self.time_ns / 1e9

    @property
    def utilization(self) -> float:
        """Average lane busy-fraction during the kernel (0..1)."""
        if self.time_ns <= 0 or self.lane_times_ns.size == 0:
            return 0.0
        return float(self.lane_times_ns.mean() / self.time_ns)

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean lane time; 1.0 is a perfectly balanced kernel."""
        if self.lane_times_ns.size == 0 or self.lane_times_ns.mean() == 0:
            return 1.0
        return float(self.lane_times_ns.max() / self.lane_times_ns.mean())


class KernelExecutor:
    """Distributes per-query work over the parallel lanes of one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # ------------------------------------------------------------------ #
    def execute(
        self,
        per_query_ns: np.ndarray,
        counters: CostCounters | None = None,
        scheduling: str = "dynamic",
        queue_atomic_ns: float | None = None,
        comm_ns: float = 0.0,
        comm_overlap: bool = False,
        recovery_ns: float = 0.0,
    ) -> KernelResult:
        """Simulate one kernel launch.

        Parameters
        ----------
        per_query_ns:
            Simulated lane-time of each query (already priced by the device).
        counters:
            Aggregated counters to attach to the result (optional).
        scheduling:
            ``"dynamic"`` — queries are pulled from a global atomic queue as
            lanes free up (the paper's design); ``"static"`` — queries are
            split into contiguous equal ranges up front.
        queue_atomic_ns:
            Cost of one queue fetch under dynamic scheduling; defaults to the
            device's atomic cost.
        comm_ns:
            Interconnect time to charge onto this kernel (the sharded
            mode's walker-migration traffic, priced by
            :meth:`~repro.gpusim.device.DeviceSpec.migration_time_ns`).
            Recorded on the result and included in its ``time_ns``.
        comm_overlap:
            How ``comm_ns`` combines with compute.  ``False`` (default):
            added after the lane makespan — the conservative no-overlap
            model.  ``True``: communication proceeds concurrently with the
            next steps' compute (double-buffered walker transfers), so the
            kernel time is ``max(makespan, comm_ns)`` — compute hides
            communication up to the makespan and only the excess
            serialises.
        recovery_ns:
            Fault-tolerance time (checkpoints, retries, replay) to charge
            onto this kernel.  Always serialised after compute and
            communication — a restore cannot overlap the work it is about
            to redo.
        """
        per_query_ns = np.asarray(per_query_ns, dtype=np.float64)
        if per_query_ns.ndim != 1:
            raise SimulationError("per_query_ns must be a one-dimensional array")
        if np.any(per_query_ns < 0):
            raise SimulationError("per-query times must be non-negative")
        if comm_ns < 0:
            raise SimulationError("communication time must be non-negative")
        if recovery_ns < 0:
            raise SimulationError("recovery time must be non-negative")
        num_queries = int(per_query_ns.size)
        lanes = min(self.device.parallel_lanes, max(num_queries, 1))

        if num_queries == 0:
            return KernelResult(
                time_ns=float(comm_ns) + float(recovery_ns),
                total_work_ns=0.0,
                lane_times_ns=np.zeros(0),
                num_queries=0,
                counters=counters or CostCounters(),
                scheduling=scheduling,
                comm_ns=float(comm_ns),
                recovery_ns=float(recovery_ns),
            )

        if scheduling == "dynamic":
            atomic = self.device.atomic_ns if queue_atomic_ns is None else queue_atomic_ns
            lane_times = self._dynamic_schedule(per_query_ns, lanes, atomic)
        elif scheduling == "static":
            lane_times = self._static_schedule(per_query_ns, lanes)
        else:
            raise SimulationError(f"unknown scheduling policy {scheduling!r}")

        makespan = float(lane_times.max())
        time_ns = max(makespan, float(comm_ns)) if comm_overlap else makespan + float(comm_ns)
        time_ns += float(recovery_ns)
        return KernelResult(
            time_ns=time_ns,
            total_work_ns=float(per_query_ns.sum()),
            lane_times_ns=lane_times,
            num_queries=num_queries,
            counters=counters or CostCounters(),
            scheduling=scheduling,
            comm_ns=float(comm_ns),
            recovery_ns=float(recovery_ns),
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _dynamic_schedule(per_query_ns: np.ndarray, lanes: int, atomic_ns: float) -> np.ndarray:
        """Earliest-free-lane assignment: models the global query queue.

        Each fetch pays one atomic operation.  Queries are consumed in their
        submission order, exactly like the global-counter queue in
        Section 5.3: query ``q`` goes to the lane with the smallest
        ``(busy time, lane)`` key, which becomes ``busy + (t_q + atomic)``.

        The greedy runs in rounds of whole-array work.  All lanes start
        idle, kept sorted by ``(busy, lane)``.  A round hands the next
        queries to the lanes in that order, one each, for as long as the
        queue would have: the prefix in which no lane's new time is at or
        below the old time of a lane later in the order (so an exact tie
        ends the round early; the next round re-sorts and resolves it).
        The moved lanes then merge back into the order, ties by lane.  Lane
        times come out bit-identical to popping a heap once per query
        (``tests/gpusim/test_executor.py`` checks them against a
        brute-force queue).
        """
        inc = per_query_ns + atomic_ns  # t + atomic: the heap's association
        num_queries = inc.size
        busy = np.zeros(lanes, dtype=np.float64)  # sorted by (busy, lane)
        order = np.arange(lanes, dtype=np.int64)  # lane of each busy entry
        done = 0
        while done < num_queries:
            r = min(lanes, num_queries - done)
            new = busy[:r] + inc[done : done + r]
            if r > 1:
                # Query j+1 goes to the next old lane only while every new
                # time so far lies strictly after that lane's old time.
                late = np.minimum.accumulate(new[:-1]) <= busy[1:r]
                if late.any():
                    r = int(late.argmax()) + 1
                    new = new[:r]
            done += r
            moved = order[:r]
            # The moved lanes in lane order, then stably by their new time:
            # with the untouched (sorted) rest, a stable float sort sees two
            # sorted runs, and equal times keep lane order within each run.
            by_lane = np.argsort(moved)
            moved, new = moved[by_lane], new[by_lane]
            by_time = np.argsort(new, kind="stable")
            keys = np.concatenate([new[by_time], busy[r:]])
            lanes_of = np.concatenate([moved[by_time], order[r:]])
            merged = np.argsort(keys, kind="stable")
            busy, order = keys[merged], lanes_of[merged]
            # A time shared by both runs lists the moved lanes first; only
            # such tie groups need a re-sort by (tie group, lane).
            from_moved = merged < r
            cross = from_moved[:-1] & ~from_moved[1:] & (busy[1:] == busy[:-1])
            if cross.any():
                group = np.cumsum(np.concatenate([[True], busy[1:] != busy[:-1]]))
                hit = np.zeros(int(group[-1]) + 1, dtype=bool)
                hit[group[:-1][cross]] = True
                tied = hit[group].nonzero()[0]
                order[tied] = order[tied][np.argsort(group[tied] * lanes + order[tied])]
        lane_times = np.empty(lanes, dtype=np.float64)
        lane_times[order] = busy
        return lane_times

    @staticmethod
    def _static_schedule(per_query_ns: np.ndarray, lanes: int) -> np.ndarray:
        """Contiguous range partitioning (the naive, imbalance-prone mapping)."""
        boundaries = np.linspace(0, per_query_ns.size, lanes + 1).astype(int)
        lane_times = np.zeros(lanes, dtype=np.float64)
        for lane in range(lanes):
            lane_times[lane] = per_query_ns[boundaries[lane]:boundaries[lane + 1]].sum()
        return lane_times
