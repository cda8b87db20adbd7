"""Walker and query state.

A *query* is one requested random walk (start node + maximum length); a
*walker state* is the evolving position of that walk: current node, previous
node, step counter, the path so far and a small dict of workload-specific
fields (e.g. the MetaPath schema position).  Dynamic random walks are dynamic
precisely because ``get_weight`` reads this state.
"""

from __future__ import annotations

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


@dataclass
class FrontierSnapshot:
    """A decoupled copy of a :class:`WalkerFrontier`'s mutable state.

    Produced by :meth:`WalkerFrontier.snapshot` and consumed by
    :meth:`WalkerFrontier.restore`; every array is a private copy, so one
    snapshot survives any number of restores.
    """

    queries: list[WalkQuery]
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
        return len(self.queries)


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
    queries:
        The originating queries, in submission order.
    current / prev / steps:
        Per-walker position, previous node (-1 before the first step) and
        number of steps taken, as ``int64`` arrays.
    alive:
        False once a walker terminated early (dead end / zero weights).
    path_buf / path_len:
        ``path_buf[i, :path_len[i]]`` is walker ``i``'s path so far.
    """

    def __init__(self, queries: list[WalkQuery]) -> None:
        self.queries = list(queries)
        n = len(self.queries)
        starts = np.array([q.start_node for q in self.queries], dtype=np.int64)
        self.max_lengths = np.array([q.max_length for q in self.queries], dtype=np.int64)
        self.current = starts.copy()
        self.prev = np.full(n, -1, dtype=np.int64)
        self.steps = np.zeros(n, dtype=np.int64)
        self.alive = np.ones(n, dtype=bool)
        width = int(self.max_lengths.max()) + 1 if n else 1
        self.path_buf = np.full((n, width), -1, dtype=np.int64)
        if n:
            self.path_buf[:, 0] = starts
        self.path_len = np.ones(n, dtype=np.int64)
        self._states: list[WalkerState | None] = [None] * n

    def __len__(self) -> int:
        return len(self.queries)

    # ------------------------------------------------------------------ #
    def extend(self, queries: list[WalkQuery]) -> np.ndarray:
        """Append fresh walkers mid-flight and return their frontier positions.

        The continuous-batching scheduler admits newly submitted queries
        into a frontier whose earlier walkers are still running, so every
        per-walker array grows in place (the path buffer widens when a new
        query's ``max_length`` exceeds the current width).  Existing walker
        state is untouched — positions already handed out stay valid.
        """
        queries = list(queries)
        k = len(queries)
        if k == 0:
            return np.zeros(0, dtype=np.int64)
        old = len(self.queries)
        positions = np.arange(old, old + k, dtype=np.int64)
        starts = np.array([q.start_node for q in queries], dtype=np.int64)
        max_lengths = np.array([q.max_length for q in queries], dtype=np.int64)
        self.queries.extend(queries)
        self.max_lengths = np.concatenate([self.max_lengths, max_lengths])
        self.current = np.concatenate([self.current, starts])
        self.prev = np.concatenate([self.prev, np.full(k, -1, dtype=np.int64)])
        self.steps = np.concatenate([self.steps, np.zeros(k, dtype=np.int64)])
        self.alive = np.concatenate([self.alive, np.ones(k, dtype=bool)])
        width = max(self.path_buf.shape[1], int(max_lengths.max()) + 1)
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
        picks = keep.tolist()
        self.queries = [self.queries[i] for i in picks]
        self.max_lengths = self.max_lengths[keep]
        self.current = self.current[keep]
        self.prev = self.prev[keep]
        self.steps = self.steps[keep]
        self.alive = self.alive[keep]
        self.path_buf = self.path_buf[keep]
        self.path_len = self.path_len[keep]
        self._states = [self._states[i] for i in picks]

    # ------------------------------------------------------------------ #
    def active_indices(self) -> np.ndarray:
        """Walkers that are alive and have steps left to take."""
        return np.nonzero(self.alive & (self.steps < self.max_lengths))[0]

    def terminate(self, indices: np.ndarray) -> None:
        """Stop the given walkers (dead end or all-zero transition weights)."""
        self.alive[indices] = False

    def advance(self, indices: np.ndarray, next_nodes: np.ndarray) -> None:
        """Move the given walkers to their sampled next nodes."""
        self.prev[indices] = self.current[indices]
        self.current[indices] = next_nodes
        self.steps[indices] += 1
        self.path_buf[indices, self.steps[indices]] = next_nodes
        self.path_len[indices] += 1

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
        states = [
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
            for s in self._states
        ]
        return FrontierSnapshot(
            queries=list(self.queries),
            max_lengths=self.max_lengths.copy(),
            current=self.current.copy(),
            prev=self.prev.copy(),
            steps=self.steps.copy(),
            alive=self.alive.copy(),
            path_buf=self.path_buf.copy(),
            path_len=self.path_len.copy(),
            states=states,
        )

    def restore(self, snap: FrontierSnapshot) -> None:
        """Rewind the frontier to a :meth:`snapshot`.

        The snapshot must cover exactly the walkers the frontier currently
        holds — recovery policies checkpoint after every admission precisely
        so a restore never has to truncate live walkers.
        """
        if len(snap.queries) != len(self.queries):
            raise WalkSpecError(
                f"snapshot covers {len(snap.queries)} walkers but the frontier "
                f"holds {len(self.queries)}; checkpoint after admissions"
            )
        self.queries = list(snap.queries)
        self.max_lengths = snap.max_lengths.copy()
        self.current = snap.current.copy()
        self.prev = snap.prev.copy()
        self.steps = snap.steps.copy()
        self.alive = snap.alive.copy()
        self.path_buf = snap.path_buf.copy()
        self.path_len = snap.path_len.copy()
        self._states = [
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
            for s in snap.states
        ]

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
            state = WalkerState.start(self.queries[index])
            self._states[index] = state
        while state.step < int(self.steps[index]):
            state.advance(int(self.path_buf[index, state.step + 1]))
        return state

    def paths(self) -> PathTable:
        """The walks so far, in submission order: a read-only view of the
        path buffer (``path_buf[i, :path_len[i]]``) that follows the walkers
        until the next :meth:`extend` or :meth:`compact`."""
        return PathTable(self.path_buf, self.path_len)


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
