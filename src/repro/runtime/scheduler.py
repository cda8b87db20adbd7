"""Dynamic query scheduling (Section 5.3).

FlexiWalker keeps all pending walk queries behind a single global counter:
whenever a processing unit finishes a query it atomically increments the
counter and uses the old value to index the array of start nodes.  The same
mechanism is reproduced here; the executor prices each fetch as one global
atomic operation, and the timing consequences of dynamic vs. static
assignment are modelled by :class:`~repro.gpusim.executor.KernelExecutor`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.counters import CostCounters
from repro.walks.state import QueryBatch, WalkQuery


class DynamicQueryQueue:
    """Global-counter work queue over a batch of walk queries.

    The batch is usually fixed at construction (one kernel launch), but the
    session layer (:mod:`repro.service`) also enqueues incrementally through
    :meth:`extend` — the hardware analogue is the host appending to the
    query array and bumping its length *before* publishing the new bound to
    the device, so already-running fetch loops simply observe more work.

    The queries are held as :class:`~repro.walks.state.QueryBatch` blocks,
    one per :meth:`extend`, joined into one batch the first time a fetch
    needs them: many small submissions cost one concatenation per launch,
    not one per submission.
    """

    def __init__(self, queries: QueryBatch | Sequence[WalkQuery] | None = None) -> None:
        self._blocks: list[QueryBatch] = []
        self._size = 0
        self._counter = 0
        self.atomic_ops = 0
        if queries is not None:
            self.extend(queries)

    def extend(self, queries: QueryBatch | Sequence[WalkQuery]) -> None:
        """Append queries to the tail of the queue (incremental enqueue).

        Appending never reorders or re-issues earlier queries: the global
        counter is untouched, so consumers keep fetching in submission
        order.
        """
        batch = QueryBatch.of(queries)
        if batch.query_ids.size:
            self._blocks.append(batch)
            self._size += batch.query_ids.size

    def _queries(self) -> QueryBatch:
        """Every query enqueued so far, as one batch."""
        if len(self._blocks) != 1:
            self._blocks = [QueryBatch.concat(self._blocks)]
        return self._blocks[0]

    def __len__(self) -> int:
        return self._size

    @property
    def remaining(self) -> int:
        return max(0, self._size - self._counter)

    @property
    def exhausted(self) -> bool:
        return self._counter >= self._size

    def fetch(self, counters: CostCounters | None = None) -> WalkQuery | None:
        """Atomically claim the next query, or ``None`` when the queue is empty.

        Each successful or failed claim costs one atomic increment, charged to
        ``counters`` when provided (and always tallied on the queue itself).
        """
        self.atomic_ops += 1
        if counters is not None:
            counters.atomic_ops += 1
        if self._counter >= self._size:
            return None
        query = self._queries()[self._counter]
        self._counter += 1
        return query

    def fetch_batch(self, max_count: int, counters: CostCounters | None = None) -> QueryBatch:
        """Atomically claim up to ``max_count`` queries in submission order.

        The batched engine's frontier launch: every claimed query still costs
        one atomic increment (the global counter is bumped once per query on
        the hardware, whether the claims happen staggered or back to back),
        so the accounting matches ``max_count`` scalar :meth:`fetch` calls.
        Returns the claimed queries as a :class:`~repro.walks.state.QueryBatch`
        (a sequence of :class:`~repro.walks.state.WalkQuery`).
        """
        if max_count < 0:
            raise SimulationError("cannot fetch a negative number of queries")
        count = min(int(max_count), self.remaining)
        self.atomic_ops += count
        if counters is not None:
            counters.atomic_ops += count
        if count == 0:
            return QueryBatch.concat([])
        claimed = self._queries()[self._counter : self._counter + count]
        self._counter += count
        return claimed

    def reset(self) -> None:
        """Rewind the queue (used when re-running the same batch)."""
        self._counter = 0
        self.atomic_ops = 0

    def drain(self) -> list[WalkQuery]:
        """Fetch every remaining query (convenience for tests)."""
        out: list[WalkQuery] = []
        while True:
            query = self.fetch()
            if query is None:
                return out
            out.append(query)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicQueryQueue({self.remaining}/{self._size} remaining)"


def split_for_devices(
    queries: QueryBatch | Sequence[WalkQuery],
    partitions: list[np.ndarray],
) -> list[QueryBatch]:
    """Materialise per-device query batches from partition index arrays.

    The multi-device driver partitions *indices* (cheap numpy work in
    :func:`repro.gpusim.multigpu.partition_queries`) and this helper turns
    them into the per-device query batches each device's
    :class:`DynamicQueryQueue` is built from.  It also enforces the
    scheduling-layer invariant the parity guarantee rests on: the partitions
    must assign every query index exactly once — a dropped query would
    silently shorten the result set, a duplicated one would double-consume
    its random stream.
    """
    batch = QueryBatch.of(queries)
    assigned = np.concatenate([np.asarray(p, dtype=np.int64) for p in partitions]) \
        if partitions else np.zeros(0, dtype=np.int64)
    if assigned.size != len(batch) or not np.array_equal(
        np.sort(assigned), np.arange(len(batch), dtype=np.int64)
    ):
        raise SimulationError(
            "device partitions must assign every query index exactly once "
            f"(got {assigned.size} assignments for {len(batch)} queries)"
        )
    return [batch[np.asarray(part, dtype=np.int64)] for part in partitions]


def validate_queries(
    queries: QueryBatch | Sequence[WalkQuery], num_nodes: int
) -> QueryBatch:
    """Sanity-check a query batch against the target graph; returns it as a
    :class:`~repro.walks.state.QueryBatch`.

    Query ids must be unique within a batch: each id owns one random stream,
    and two walks sharing a stream would consume it in execution-order —
    making the result depend on scheduling instead of only on the seed (and
    silently breaking the scalar/batched parity guarantee).

    Runs on every submit and every engine run, so the passing case makes
    no per-query call: the batch's start-node bounds, and for the ids a
    consecutive-range test (a sort only when they are not one).  Only a
    failing batch is searched for its first offender — the first query, in
    submission order, that fails either check (range checked before
    duplication at the same index).
    """
    batch = QueryBatch.of(queries)
    n = batch.query_ids.size
    lowest, highest = batch.start_bounds
    if not n or (
        lowest >= 0
        and highest < num_nodes
        and (batch.id_range is not None or np.unique(batch.query_ids).size == n)
    ):
        return batch
    starts, ids = batch.start_nodes, batch.query_ids
    out_of_range = (starts < 0) | (starts >= num_nodes)
    first_bad = int(np.argmax(out_of_range)) if out_of_range.any() else n

    first_dup = n
    # A stable sort keeps equal ids in submission order, so every element
    # equal to its sorted predecessor is a *repeat* of an earlier query; the
    # earliest such submission index is the first duplicate.
    order = np.argsort(ids, kind="stable")
    by_order = ids[order]
    repeats = order[1:][by_order[1:] == by_order[:-1]]
    if repeats.size:
        first_dup = int(repeats.min())

    if first_bad <= first_dup and first_bad < n:
        query = batch[first_bad]
        raise SimulationError(
            f"query {query.query_id} starts at node {query.start_node}, "
            f"which is outside the graph (num_nodes={num_nodes})"
        )
    query = batch[first_dup]
    raise SimulationError(
        f"duplicate query_id {query.query_id}: ids must be unique within "
        "a batch (each id owns one random stream)"
    )
