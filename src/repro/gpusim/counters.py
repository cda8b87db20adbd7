"""Cost counters recorded by sampling kernels.

Every quantity the paper's first-order performance arguments rest on is an
explicit counter here.  Kernels *add* to a counter object while they execute;
the device model later prices each counter.  Counters are also the mechanism
behind the reproduction's ablation studies: e.g. the eRVS jump optimisation
shows up directly as a drop in ``rng_draws`` and ``flops``, and the eRJS bound
estimation as the disappearance of ``reduction_elements``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class CostCounters:
    """Accumulated operation counts for one kernel (or one query, or one step).

    Attributes
    ----------
    coalesced_accesses:
        Words read through warp-coalesced (sequential) global-memory
        transactions — e.g. a reservoir scan over a neighbour list.
    random_accesses:
        Words read through uncoalesced single-lane transactions — e.g. the
        probe of one candidate edge in rejection sampling.
    weight_computations:
        Evaluations of the user ``get_weight`` function (the dynamic part of
        the transition weight).
    rng_draws:
        Random variates generated (cuRAND calls on the real hardware).
    reduction_elements:
        Elements that participated in warp/block reductions (max/sum/argmax).
    prefix_sum_elements:
        Elements that participated in prefix-sum computations (ITS, baseline
        RVS).
    rejection_trials:
        Accepted + rejected trials performed by rejection-sampling kernels.
    warp_syncs:
        Warp-synchronisation intrinsics executed (``__ballot_sync``,
        ``__shfl_sync``) by the concurrent RJS/RVS kernel of Section 5.2.
    atomic_ops:
        Atomic operations (the dynamic query queue's global counter).
    table_builds:
        Elements written while building auxiliary structures (alias tables,
        CDF arrays) — the cost that makes ALS/ITS unattractive for dynamic
        walks.
    bytes_per_weight:
        Size of one stored property weight (8 for float64, 1 for the INT8
        extension); used by the memory model to convert accesses to bytes.
    """

    coalesced_accesses: int = 0
    random_accesses: int = 0
    weight_computations: int = 0
    rng_draws: int = 0
    reduction_elements: int = 0
    prefix_sum_elements: int = 0
    rejection_trials: int = 0
    warp_syncs: int = 0
    atomic_ops: int = 0
    table_builds: int = 0
    bytes_per_weight: int = field(default=8)

    _COUNT_FIELDS = (
        "coalesced_accesses",
        "random_accesses",
        "weight_computations",
        "rng_draws",
        "reduction_elements",
        "prefix_sum_elements",
        "rejection_trials",
        "warp_syncs",
        "atomic_ops",
        "table_builds",
    )

    def merge(self, other: CostCounters) -> CostCounters:
        """Add ``other``'s counts into this object (in place) and return self."""
        # Spelled out field by field: merges run several times per superstep.
        self.coalesced_accesses += other.coalesced_accesses
        self.random_accesses += other.random_accesses
        self.weight_computations += other.weight_computations
        self.rng_draws += other.rng_draws
        self.reduction_elements += other.reduction_elements
        self.prefix_sum_elements += other.prefix_sum_elements
        self.rejection_trials += other.rejection_trials
        self.warp_syncs += other.warp_syncs
        self.atomic_ops += other.atomic_ops
        self.table_builds += other.table_builds
        return self

    def copy(self) -> CostCounters:
        return CostCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def reset(self) -> None:
        for name in self._COUNT_FIELDS:
            setattr(self, name, 0)

    @property
    def total_memory_accesses(self) -> int:
        """All global-memory word accesses regardless of coalescing."""
        return self.coalesced_accesses + self.random_accesses

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._COUNT_FIELDS}

    def __add__(self, other: CostCounters) -> CostCounters:
        return self.copy().merge(other)


#: Row of each count field in :attr:`CounterBatch.counts`.
COUNT_ROWS = {name: row for row, name in enumerate(CostCounters._COUNT_FIELDS)}


class CounterBatch:
    """Vectorised cost accounting: one counter *array* per operation class.

    The batched (frontier) walk engine executes one step for many walkers at
    once; each walker still needs its own per-step operation counts so the
    device model can price its lane time exactly like the scalar engine
    does.  ``CounterBatch`` is the structure-of-arrays form of
    :class:`CostCounters`: slot ``i`` holds the counts of the ``i``-th walker
    in the current superstep.  Batch kernels add whole numpy vectors
    (``batch.coalesced_accesses[slots] += degrees``), and the totals fold
    back into an ordinary :class:`CostCounters` for aggregation.

    All counts live in one ``(fields, size)`` int64 matrix, :attr:`counts`
    (rows in :attr:`CostCounters._COUNT_FIELDS` order); each field attribute
    is a view of its row, so a batch costs one allocation and folds —
    :meth:`totals`, per-owner sums, ledger columns — are single array
    operations over the matrix.  Update the fields in place (``+=`` or
    slice assignment); rebinding one to a new array would detach it from
    the matrix.
    """

    __slots__ = ("size", "bytes_per_weight", "counts") + CostCounters._COUNT_FIELDS

    def __init__(self, size: int, bytes_per_weight: int = 8) -> None:
        self.size = int(size)
        self.bytes_per_weight = int(bytes_per_weight)
        self.counts = np.zeros((len(COUNT_ROWS), self.size), dtype=np.int64)
        (
            self.coalesced_accesses,
            self.random_accesses,
            self.weight_computations,
            self.rng_draws,
            self.reduction_elements,
            self.prefix_sum_elements,
            self.rejection_trials,
            self.warp_syncs,
            self.atomic_ops,
            self.table_builds,
        ) = self.counts

    # ------------------------------------------------------------------ #
    def charge(self, name: str, slots: np.ndarray, amount: np.ndarray | int) -> None:
        """Add ``amount`` to counter ``name`` at the given slots.

        ``slots`` must not contain duplicates (each walker occupies exactly
        one slot per superstep), which keeps this a plain fancy-index add.
        """
        getattr(self, name)[slots] += amount

    def absorb(self, slot: int, counters: CostCounters) -> None:
        """Add a scalar :class:`CostCounters` into one slot.

        Used by the scalar-fallback paths (per-walker ``sample()`` loops,
        baseline step-overhead hooks) so their accounting lands in the same
        per-walker slot the vectorised kernels use.
        """
        self.counts[:, slot] += list(counters.as_dict().values())

    def snapshot(self, slot: int) -> CostCounters:
        """One slot's counts as a scalar :class:`CostCounters` (a copy)."""
        return CostCounters(
            *self.counts[:, slot].tolist(), bytes_per_weight=self.bytes_per_weight
        )

    def write_back(self, slot: int, counters: CostCounters) -> None:
        """Overwrite one slot with a scalar :class:`CostCounters`.

        The counterpart of :meth:`snapshot` for code that must let scalar
        hooks *see and mutate* a walker's already-accumulated step counts
        (the scalar engine hands hooks the live step counters, so the
        batched engine round-trips the slot through a scalar object).
        """
        self.counts[:, slot] = list(counters.as_dict().values())

    def totals(self) -> CostCounters:
        """Fold every slot into one scalar :class:`CostCounters`."""
        return CostCounters(
            *np.add.reduce(self.counts, axis=1).tolist(),
            bytes_per_weight=self.bytes_per_weight,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CounterBatch(size={self.size})"
