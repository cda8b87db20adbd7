"""Walker and query state.

A *query* is one requested random walk (start node + maximum length); a
*walker state* is the evolving position of that walk: current node, previous
node, step counter, the path so far and a small dict of workload-specific
fields (e.g. the MetaPath schema position).  Dynamic random walks are dynamic
precisely because ``get_weight`` reads this state.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import WalkSpecError
from repro.walks.paths import PathTable


@dataclass(frozen=True)
class WalkQuery:
    """One requested random walk."""

    query_id: int
    start_node: int
    max_length: int

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise WalkSpecError("walk length must be at least 1 step")
        if self.start_node < 0:
            raise WalkSpecError("start node must be non-negative")


@dataclass
class WalkerState:
    """Mutable per-walker state consulted by ``get_weight`` at every step.

    Attributes
    ----------
    query:
        The originating query.
    current_node:
        Node the walker currently sits on.
    prev_node:
        Node visited in the previous step, or ``-1`` before the first step.
        Node2Vec and 2nd-order PageRank read this to bias the next step.
    step:
        Zero-based index of the step about to be taken.
    path:
        Nodes visited so far (starts with the start node).
    params:
        Workload-specific mutable fields, e.g. ``{"schema_pos": 2}``.
    """

    query: WalkQuery
    current_node: int
    prev_node: int = -1
    step: int = 0
    path: list[int] = field(default_factory=list)
    params: dict[str, float | int] = field(default_factory=dict)

    @classmethod
    def start(cls, query: WalkQuery) -> WalkerState:
        """Fresh walker positioned on the query's start node."""
        return cls(query=query, current_node=query.start_node, path=[query.start_node])

    def advance(self, next_node: int) -> None:
        """Move the walker to ``next_node`` (called after the workload update)."""
        self.prev_node = self.current_node
        self.current_node = int(next_node)
        self.path.append(int(next_node))
        self.step += 1

    @property
    def finished(self) -> bool:
        return self.step >= self.query.max_length

    @property
    def walk_length(self) -> int:
        """Number of steps taken so far."""
        return len(self.path) - 1


class QueryBatch(Sequence):
    """Walk queries as three ``int64`` arrays: ids, start nodes and max lengths.

    The array form of a ``list[WalkQuery]``, field for field:
    ``QueryBatch(query_ids, start_nodes, max_lengths)``.  It is a read-only
    :class:`~collections.abc.Sequence` of :class:`WalkQuery`, so ``b[i]`` and
    iteration build query objects on demand, ``b[a:b]`` (or ``b[positions]``
    with an index array) is a batch of those queries and ``==`` compares
    with any sequence of queries.  The constructor copies its inputs into
    non-writeable arrays.

    Construction checks :class:`WalkQuery`'s contract for every query at
    once: integer columns of one length, start nodes non-negative, lengths
    at least one step.  Where a batch meets a graph,
    :func:`~repro.runtime.scheduler.validate_queries` adds the node range
    and the uniqueness of the ids.
    """

    __slots__ = ("query_ids", "start_nodes", "max_lengths", "_id_range", "_start_bounds",
                 "_longest")

    def __init__(self, query_ids, start_nodes, max_lengths) -> None:
        ids = _int_column(query_ids, "query_ids")
        starts = _int_column(start_nodes, "start_nodes")
        lengths = _int_column(max_lengths, "max_lengths")
        if ids.ndim != 1 or not ids.shape == starts.shape == lengths.shape:
            raise WalkSpecError(
                "query_ids, start_nodes and max_lengths must be one-dimensional "
                f"and of one length (got shapes {ids.shape}, {starts.shape}, "
                f"{lengths.shape})"
            )
        if ids.size and int(lengths.min()) < 1:
            raise WalkSpecError("walk length must be at least 1 step")
        if ids.size and int(starts.min()) < 0:
            raise WalkSpecError("start node must be non-negative")
        for column in (ids, starts, lengths):
            column.flags.writeable = False
        self._set(ids, starts, lengths)

    def _set(self, ids: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        self.query_ids = ids
        self.start_nodes = starts
        self.max_lengths = lengths
        self._id_range = self._start_bounds = self._longest = None  # computed on first use

    @classmethod
    def _of_arrays(cls, ids: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> QueryBatch:
        """A batch over ``int64`` columns that already meet the contract
        and that nothing writes to."""
        batch = cls.__new__(cls)
        batch._set(ids, starts, lengths)
        return batch

    @classmethod
    def of(cls, queries: QueryBatch | Sequence[WalkQuery]) -> QueryBatch:
        """``queries`` as a batch: a batch is returned as is, a sequence of
        :class:`WalkQuery` (which checked its own contract) is read once
        into the three columns."""
        if isinstance(queries, QueryBatch):
            return queries
        if not isinstance(queries, (list, tuple)):
            queries = list(queries)
        ids = [q.query_id for q in queries]
        starts = [q.start_node for q in queries]
        batch = cls.__new__(cls)
        batch.query_ids = np.array(ids, dtype=np.int64)
        batch.start_nodes = np.array(starts, dtype=np.int64)
        lengths = [q.max_length for q in queries]
        batch.max_lengths = np.array(lengths, dtype=np.int64)
        # The facts validation and registration read, taken from the lists
        # at hand: no numpy call for them on a small submission.
        first = ids[0] if ids else 0
        batch._id_range = (
            range(first, first + len(ids)) if ids == list(range(first, first + len(ids))) else ()
        )
        batch._start_bounds = (min(starts), max(starts)) if starts else (0, -1)
        batch._longest = max(lengths, default=0)
        return batch

    @classmethod
    def concat(cls, batches: Sequence[QueryBatch]) -> QueryBatch:
        """One batch holding ``batches`` back to back."""
        if len(batches) == 1:
            return batches[0]
        if not batches:
            return _EMPTY_BATCH
        return cls._of_arrays(
            np.concatenate([b.query_ids for b in batches]),
            np.concatenate([b.start_nodes for b in batches]),
            np.concatenate([b.max_lengths for b in batches]),
        )

    @property
    def id_range(self) -> range | None:
        """The ids as a ``range`` when they are consecutive and ascending
        (``first, first + 1, ...``), else ``None``; computed once."""
        if self._id_range is None:
            ids, n = self.query_ids, self.query_ids.size
            first = int(ids[0]) if n else 0
            consecutive = n < 2 or (
                int(ids[-1]) - first == n - 1
                and bool(np.logical_and.reduce(ids == np.arange(first, first + n)))
            )
            self._id_range = range(first, first + n) if consecutive else ()
        return self._id_range or None

    @property
    def start_bounds(self) -> tuple[int, int]:
        """The smallest and largest start node (``(0, -1)`` when empty);
        computed once."""
        if self._start_bounds is None:
            starts = self.start_nodes
            self._start_bounds = (
                (int(np.minimum.reduce(starts)), int(np.maximum.reduce(starts)))
                if starts.size else (0, -1)
            )
        return self._start_bounds

    @property
    def longest(self) -> int:
        """The largest ``max_length`` (0 when empty); computed once."""
        if self._longest is None:
            lengths = self.max_lengths
            self._longest = int(np.maximum.reduce(lengths)) if lengths.size else 0
        return self._longest

    def __len__(self) -> int:
        return self.query_ids.size

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return QueryBatch._of_arrays(
                self.query_ids[index], self.start_nodes[index], self.max_lengths[index]
            )
        return WalkQuery(
            int(self.query_ids[index]), int(self.start_nodes[index]), int(self.max_lengths[index])
        )

    def __iter__(self) -> Iterator[WalkQuery]:
        for qid, start, length in zip(
            self.query_ids.tolist(), self.start_nodes.tolist(), self.max_lengths.tolist(),
            strict=True,
        ):
            yield WalkQuery(qid, start, length)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryBatch):
            return (
                np.array_equal(self.query_ids, other.query_ids)
                and np.array_equal(self.start_nodes, other.start_nodes)
                and np.array_equal(self.max_lengths, other.max_lengths)
            )
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(other) == len(self) and all(
            mine == theirs for mine, theirs in zip(self, other, strict=True)
        )

    __hash__ = None  # equal to lists, which are unhashable

    def __repr__(self) -> str:
        head = ", ".join(repr(self[i]) for i in range(min(len(self), 2)))
        more = ", ..." if len(self) > 2 else ""
        return f"QueryBatch([{head}{more}], queries={len(self)})"


def _int_column(values, name: str) -> np.ndarray:
    """``values`` as an ``int64`` array of its own (the caller's array is
    never aliased); non-integer entries are refused."""
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise WalkSpecError(f"{name} must be integers, not {array.dtype}")
    return array.astype(np.int64)


_EMPTY_BATCH = QueryBatch((), (), ())


@dataclass
class FrontierSnapshot:
    """A decoupled copy of a :class:`WalkerFrontier`'s mutable state.

    Produced by :meth:`WalkerFrontier.snapshot` and consumed by
    :meth:`WalkerFrontier.restore`; every array is a private copy, so one
    snapshot survives any number of restores.  The query columns are
    immutable and shared.
    """

    query_ids: np.ndarray
    start_nodes: np.ndarray
    max_lengths: np.ndarray
    current: np.ndarray
    prev: np.ndarray
    steps: np.ndarray
    alive: np.ndarray
    path_buf: np.ndarray
    path_len: np.ndarray
    states: list["WalkerState | None"]

    @property
    def num_walkers(self) -> int:
        return self.query_ids.size


class WalkerFrontier:
    """Array-form (structure-of-arrays) state of a batch of walkers.

    The batched step-synchronous engine advances every active walker once per
    superstep, so the per-walker fields of :class:`WalkerState` are kept as
    parallel numpy arrays: ``current``, ``prev``, ``steps`` and a
    pre-allocated path matrix.  Workload code that still needs a real
    :class:`WalkerState` (custom ``update`` overrides, scalar-fallback
    sampling, compiler hint evaluation) obtains one through
    :meth:`state_view`, which lazily materialises the object and replays the
    missing steps from the path matrix — walkers on the fully vectorised hot
    path never pay for object-form state at all.

    Attributes
    ----------
    query_ids / start_nodes / max_lengths:
        The originating queries' columns, in submission order (read-only;
        :meth:`query` builds one :class:`WalkQuery`).
    current / prev / steps:
        Per-walker position, previous node (-1 before the first step) and
        number of steps taken, as ``int64`` arrays.
    alive:
        False once a walker terminated early (dead end / zero weights).
    path_buf / path_len:
        ``path_buf[i, :path_len[i]]`` is walker ``i``'s path so far.
    """

    def __init__(self, queries: QueryBatch | Sequence[WalkQuery] = ()) -> None:
        self._admit_into_empty(QueryBatch.of(queries))

    def _admit_into_empty(self, batch: QueryBatch) -> None:
        n = len(batch)
        self.query_ids = batch.query_ids
        self.start_nodes = batch.start_nodes
        self.max_lengths = batch.max_lengths
        self.current = batch.start_nodes.copy()
        self.prev = np.full(n, -1, dtype=np.int64)
        self.steps = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        width = int(self.max_lengths.max()) + 1 if n else 1
        self.path_buf = np.full((n, width), -1, dtype=np.int64)
        self.path_buf[:, 0] = self.current
        self.path_len = np.ones(n, dtype=np.int64)
        self._states: list[WalkerState | None] = [None] * n

    def __len__(self) -> int:
        return self.query_ids.size

    def query(self, index: int) -> WalkQuery:
        """The originating query of walker ``index``."""
        return WalkQuery(
            int(self.query_ids[index]), int(self.start_nodes[index]), int(self.max_lengths[index])
        )

    # ------------------------------------------------------------------ #
    def extend(self, queries: QueryBatch | Sequence[WalkQuery]) -> np.ndarray:
        """Append fresh walkers mid-flight and return their frontier positions.

        The continuous-batching scheduler admits newly submitted queries
        into a frontier whose earlier walkers are still running, so every
        per-walker array grows in place (the path buffer widens when a new
        query's ``max_length`` exceeds the current width).  Existing walker
        state is untouched — positions already handed out stay valid.  An
        empty frontier takes the batch's columns as they are.
        """
        batch = QueryBatch.of(queries)
        k = len(batch)
        old = len(self)
        positions = np.arange(old, old + k, dtype=np.int64)
        if k == 0:
            return positions
        if old == 0:
            self._admit_into_empty(batch)
            return positions
        starts = batch.start_nodes
        self.query_ids = np.concatenate([self.query_ids, batch.query_ids])
        self.start_nodes = np.concatenate([self.start_nodes, starts])
        self.max_lengths = np.concatenate([self.max_lengths, batch.max_lengths])
        self.current = np.concatenate([self.current, starts])
        self.prev = np.concatenate([self.prev, np.full(k, -1, dtype=np.int64)])
        self.steps = np.concatenate([self.steps, np.zeros(k, dtype=np.int64)])
        self.alive = np.concatenate([self.alive, np.ones(k, dtype=bool)])
        width = max(self.path_buf.shape[1], int(batch.max_lengths.max()) + 1)
        path_buf = np.full((old + k, width), -1, dtype=np.int64)
        path_buf[:old, : self.path_buf.shape[1]] = self.path_buf
        path_buf[old:, 0] = starts
        self.path_buf = path_buf
        self.path_len = np.concatenate([self.path_len, np.ones(k, dtype=np.int64)])
        self._states.extend([None] * k)
        return positions

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the walkers at the ascending positions ``keep``.

        The continuous-batching scheduler drops finished walkers at
        admission boundaries; the survivors are renumbered
        ``0..len(keep)-1`` in their old order, with their state (including
        materialised :class:`WalkerState` objects) unchanged.
        """
        self.query_ids = self.query_ids[keep]
        self.start_nodes = self.start_nodes[keep]
        self.max_lengths = self.max_lengths[keep]
        self.current = self.current[keep]
        self.prev = self.prev[keep]
        self.steps = self.steps[keep]
        self.alive = self.alive[keep]
        self.path_buf = self.path_buf[keep]
        self.path_len = self.path_len[keep]
        states = self._states
        self._states = [states[i] for i in keep.tolist()]

    # ------------------------------------------------------------------ #
    def active_indices(self) -> np.ndarray:
        """Walkers that are alive and have steps left to take."""
        return np.nonzero(self.alive & (self.steps < self.max_lengths))[0]

    def terminate(self, indices: np.ndarray) -> None:
        """Stop the given walkers (dead end or all-zero transition weights)."""
        self.alive[indices] = False

    def advance(self, indices: np.ndarray, next_nodes: np.ndarray) -> None:
        """Move the given walkers (ascending positions) to their sampled
        next nodes.  When they are every walker, the updates are
        whole-array passes, and the path write is one column when all
        walkers have taken as many steps."""
        if indices.size < self.steps.size:
            self.prev[indices] = self.current[indices]
            self.current[indices] = next_nodes
            self.steps[indices] += 1
            self.path_buf[indices, self.steps[indices]] = next_nodes
            self.path_len[indices] += 1
            return
        self.prev[:] = self.current
        self.current[:] = next_nodes
        steps = self.steps
        steps += 1
        column = int(steps[0])
        if np.logical_and.reduce(steps == column):
            self.path_buf[:, column] = next_nodes
        else:
            self.path_buf[np.arange(steps.size), steps] = next_nodes
        self.path_len += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> FrontierSnapshot:
        """Deep copy of every mutable per-walker field.

        The checkpoint half of the fault-tolerance story
        (:mod:`repro.runtime.faults`): the returned snapshot is fully
        decoupled from the live frontier, so it can be restored any number
        of times.  Materialised :class:`WalkerState` objects are copied too
        — :meth:`state_view`'s lazy replay only calls ``advance``, never the
        workload's ``update``, so spec-mutated ``params`` (e.g. the MetaPath
        schema position) would otherwise be unrecoverable.
        """
        return FrontierSnapshot(
            query_ids=self.query_ids,
            start_nodes=self.start_nodes,
            max_lengths=self.max_lengths,
            current=self.current.copy(),
            prev=self.prev.copy(),
            steps=self.steps.copy(),
            alive=self.alive.copy(),
            path_buf=self.path_buf.copy(),
            path_len=self.path_len.copy(),
            states=_copy_states(self._states),
        )

    def restore(self, snap: FrontierSnapshot) -> None:
        """Rewind the frontier to a :meth:`snapshot`.

        The snapshot must cover exactly the walkers the frontier currently
        holds — recovery policies checkpoint after every admission precisely
        so a restore never has to truncate live walkers.
        """
        if snap.num_walkers != len(self):
            raise WalkSpecError(
                f"snapshot covers {snap.num_walkers} walkers but the frontier "
                f"holds {len(self)}; checkpoint after admissions"
            )
        self.query_ids = snap.query_ids
        self.start_nodes = snap.start_nodes
        self.max_lengths = snap.max_lengths
        self.current = snap.current.copy()
        self.prev = snap.prev.copy()
        self.steps = snap.steps.copy()
        self.alive = snap.alive.copy()
        self.path_buf = snap.path_buf.copy()
        self.path_len = snap.path_len.copy()
        self._states = _copy_states(snap.states)

    # ------------------------------------------------------------------ #
    def state_view(self, index: int) -> WalkerState:
        """Object-form state of one walker, synced to the array state.

        The returned object is persistent, so workload-specific ``params``
        mutated by ``spec.update`` survive across supersteps exactly as they
        do in the scalar engine.
        """
        index = int(index)
        state = self._states[index]
        if state is None:
            state = WalkerState.start(self.query(index))
            self._states[index] = state
        while state.step < int(self.steps[index]):
            state.advance(int(self.path_buf[index, state.step + 1]))
        return state

    def paths(self) -> PathTable:
        """The walks so far, in submission order: a read-only view of the
        path buffer (``path_buf[i, :path_len[i]]``) that follows the walkers
        until the next :meth:`extend` or :meth:`compact`."""
        return PathTable(self.path_buf, self.path_len)


def _copy_states(states: list[WalkerState | None]) -> list[WalkerState | None]:
    """Independent copies of materialised walker states (``None`` stays)."""
    return [
        None
        if s is None
        else WalkerState(
            query=s.query,
            current_node=s.current_node,
            prev_node=s.prev_node,
            step=s.step,
            path=list(s.path),
            params=dict(s.params),
        )
        for s in states
    ]


def make_queries(
    num_nodes: int,
    walk_length: int,
    num_queries: int | None = None,
    start_nodes: np.ndarray | None = None,
    seed: int = 0,
) -> list[WalkQuery]:
    """Create walk queries, one per node by default (the paper's setting).

    Parameters
    ----------
    num_nodes:
        Number of nodes in the graph.
    walk_length:
        Maximum number of steps per walk (80 in the paper, 5 for MetaPath).
    num_queries:
        When smaller than ``num_nodes``, a deterministic subsample of start
        nodes is used (the benchmark harness uses this to keep the
        scale-model runs short).
    start_nodes:
        Explicit start nodes; overrides ``num_queries``.
    """
    if num_nodes < 1:
        raise WalkSpecError("graph must have at least one node")
    if start_nodes is not None:
        starts = np.asarray(start_nodes, dtype=np.int64)
    elif num_queries is None or num_queries >= num_nodes:
        starts = np.arange(num_nodes, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        starts = rng.choice(num_nodes, size=num_queries, replace=False).astype(np.int64)
        starts.sort()
    if starts.size and (starts.min() < 0 or starts.max() >= num_nodes):
        raise WalkSpecError("start nodes must be valid node ids")
    return [WalkQuery(query_id=i, start_node=int(s), max_length=walk_length) for i, s in enumerate(starts)]
