"""File-backed WalkSpec fixtures for the static-analysis tests.

The verifier resolves diagnostics to real source spans via
``inspect.getsourcelines``, so these specs must live in an importable file
(heredoc/exec-defined specs degrade to ``spec/source-unavailable``).  Each
class seeds exactly one rule family; the tests assert both the rule id and
the reported span, so keep the marker lines (tagged ``# MARK: ...``) stable
when editing.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.walks.spec import WalkSpec


class BadRngSpec(WalkSpec):
    """determinism/unseeded-rng: draws from the module-level random stream."""

    name = "fixture_bad_rng"

    def get_weight(self, graph, state, edge):
        return random.random() * graph.weights[edge]  # MARK: bad-rng


class UnseededFactorySpec(WalkSpec):
    """determinism/unseeded-rng: constructs a generator with no seed."""

    name = "fixture_unseeded_factory"

    def get_weight(self, graph, state, edge):
        rng = np.random.default_rng()  # MARK: unseeded-factory
        return float(rng.random()) + graph.weights[edge]


class WallClockSpec(WalkSpec):
    """determinism/wall-clock: weight depends on host time."""

    name = "fixture_wall_clock"

    def get_weight(self, graph, state, edge):
        return graph.weights[edge] * (time.time() % 1.0)  # MARK: wall-clock


class ClockCeilingSpec(WalkSpec):
    """determinism/wall-clock in the weight-ceiling hook, not get_weight."""

    name = "fixture_clock_ceiling"

    def get_weight(self, graph, state, edge):
        return graph.weights[edge]

    def weight_ceiling_batch(self, graph, batch):
        return np.full(batch.size, time.monotonic())  # MARK: clock-ceiling


class IdentitySpec(WalkSpec):
    """determinism/object-identity (ERROR): id() is a process address."""

    name = "fixture_identity"

    def get_weight(self, graph, state, edge):
        return float(id(state) % 7)  # MARK: identity


class HashSpec(WalkSpec):
    """determinism/object-identity (WARNING): hash() may be randomised."""

    name = "fixture_hash"

    def get_weight(self, graph, state, edge):
        return float(hash(state) % 7)  # MARK: hash


class MemoSpec(WalkSpec):
    """determinism/pure-hook-writes-self: a weight hook that mutates."""

    name = "fixture_memo"

    def get_weight(self, graph, state, edge):
        self.last_edge = edge  # MARK: memo-write
        return graph.weights[edge]


class GlobalStateSpec(WalkSpec):
    """determinism/global-state (WARNING): hook declares a global."""

    name = "fixture_global"

    def get_weight(self, graph, state, edge):
        global _GLOBAL_COUNTER  # MARK: global-state  # noqa: PLW0603
        return graph.weights[edge]


class StatefulBatchSpec(WalkSpec):
    """cache-safety/batch-state-divergence: the latent-cache-gap regression.

    ``get_weight`` is state-free (so the scalar proof alone would declare the
    weights node-only and enable the TransitionCache), but the batch override
    re-weights the edge back to the previous node — a per-walker signal the
    cache rows cannot represent.
    """

    name = "fixture_stateful_batch"

    def get_weight(self, graph, state, edge):
        return graph.weights[edge]

    def transition_weights_batch(self, graph, batch):
        w = graph.weights[batch.flat_edges].astype(np.float64)
        w[batch.neighbors_flat == batch.prev[batch.seg_ids]] *= 10.0  # MARK: batch-state
        return w


class StatefulEdgeWeightsSpec(WalkSpec):
    """cache-safety/batch-state-divergence through the on-demand edge hook."""

    name = "fixture_stateful_edge_weights"

    def get_weight(self, graph, state, edge):
        return graph.weights[edge]

    def edge_weights_batch(self, graph, batch, walkers, edges):
        w = graph.weights[edges].astype(np.float64)
        w[graph.indices[edges] == batch.prev[walkers]] *= 10.0  # MARK: edge-state
        return w


class StatefulVectorSpec(WalkSpec):
    """cache-safety/vector-state-divergence: scalar-free, vector stateful."""

    name = "fixture_stateful_vector"

    def get_weight(self, graph, state, edge):
        return graph.weights[edge]

    def transition_weights(self, graph, state):
        h = graph.edge_weights(state.current_node).astype(np.float64)
        if state.step % 2:  # MARK: vector-state
            return h * 2.0
        return h


class UpdateBatchOnlySpec(WalkSpec):
    """cache-safety/update-batch-divergence: batch mutation without scalar."""

    name = "fixture_update_batch_only"
    is_dynamic = True

    def get_weight(self, graph, state, edge):
        return graph.weights[edge]

    def update_batch(self, graph, frontier, indices, next_nodes):  # MARK: update-batch-only
        pass


class UnkeyedSpec(WalkSpec):
    """registry-keys/unkeyed-attribute: ``bias`` shapes weights, not keys."""

    name = "fixture_unkeyed"

    def __init__(self, bias: float = 2.0) -> None:
        self.bias = float(bias)
        super().__init__()

    def get_weight(self, graph, state, edge):
        return graph.weights[edge] * self.bias  # MARK: unkeyed-read


class KeyedSpec(WalkSpec):
    """Clean counterpart of UnkeyedSpec: ``bias`` is reflected in describe()."""

    name = "fixture_keyed"

    def __init__(self, bias: float = 2.0) -> None:
        self.bias = float(bias)
        super().__init__()

    def get_weight(self, graph, state, edge):
        return graph.weights[edge] * self.bias

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["bias"] = self.bias
        return info


class SuppressedRngSpec(WalkSpec):
    """Same defect as BadRngSpec, silenced with an inline suppression."""

    name = "fixture_suppressed_rng"

    def get_weight(self, graph, state, edge):
        return random.random() * graph.weights[edge]  # repro: ignore[determinism/unseeded-rng]


def make_selector():
    """A hint callable closing over a mutable list (determinism/closure-mutable)."""
    captured = [1, 2]

    def selector(n):
        return captured[0] + n

    return selector
