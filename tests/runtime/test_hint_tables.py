"""Per-node hint tables: filled when built, lazy only when the replay bails.

:class:`~repro.runtime.frontier.NodeHintTables` fills every node with one
vectorised replay of the compiled helpers when it is built, so a lookup is
two gathers.  The values must be exactly what the lazy, on-demand path
(:meth:`~repro.compiler.generator.CompiledWorkload.hint_nodes` on the nodes
walkers visit) and the scalar per-node helpers produce.  A spec whose replay
bails on the whole node set keeps the lazy path and its exact values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.generator import compile_workload
from repro.graph.builders import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.delta import DeltaCSRGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime.frontier import NodeHintTables
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.spec import WalkSpec
from repro.walks.state import WalkerState, WalkQuery


class InverseSpec(WalkSpec):
    """Weights ``1 / h``: the replay divides by a zero aggregate on
    zero-degree nodes, so it bails on any node set that holds one."""

    name = "inverse"

    def get_weight(self, graph: CSRGraph, state: WalkerState, edge: int) -> float:
        h = graph.weights[edge]
        return 1.0 / h


def scalar_hints(compiled, graph, node: int) -> tuple[float, float]:
    state = WalkerState(query=WalkQuery(0, 0, 1), current_node=node)
    bound = compiled.bound_hint(graph, state)
    total = compiled.sum_hint(graph, state)
    return (np.nan if bound is None else bound, np.nan if total is None else total)


def assert_exact(tables: NodeHintTables, compiled, graph) -> None:
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    bounds, sums = tables.lookup(nodes)
    want = np.array([scalar_hints(compiled, graph, int(v)) for v in nodes])
    assert np.array_equal(bounds, want[:, 0], equal_nan=True)
    assert np.array_equal(sums, want[:, 1], equal_nan=True)


@pytest.fixture(scope="module")
def graph():
    g = barabasi_albert_graph(120, 3, seed=9, name="hint-tables")
    g = g.with_weights(uniform_weights(g, seed=9))
    from repro.graph.labels import random_edge_labels

    return g.with_labels(random_edge_labels(g, num_labels=3, seed=9))


class TestCompleteTables:
    @pytest.mark.parametrize(
        "spec", [DeepWalkSpec(), Node2VecSpec(), MetaPathSpec()], ids=lambda s: s.name
    )
    def test_complete_table_equals_the_lazy_one(self, spec, graph):
        compiled = compile_workload(spec, graph)
        assert compiled.hints_node_only
        tables = NodeHintTables(compiled, graph)
        assert tables._complete and bool(tables._computed.all())
        # The lazy path: batches of visited nodes, in visiting order.
        rng = np.random.default_rng(4)
        for _ in range(5):
            visited = rng.integers(0, graph.num_nodes, 17)
            lazy_bounds, lazy_sums = compiled.hint_nodes(graph, np.unique(visited))
            bounds, sums = tables.lookup(visited)
            order = np.searchsorted(np.unique(visited), visited)
            assert np.array_equal(bounds, lazy_bounds[order], equal_nan=True)
            assert np.array_equal(sums, lazy_sums[order], equal_nan=True)
        assert_exact(tables, compiled, graph)


class TestBailingReplay:
    # Nodes 3 and 5 have no out-edges.
    EDGES = np.array([[0, 1], [1, 2], [2, 0], [2, 3], [4, 0], [1, 4]])
    WEIGHTS = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_bailing_spec_stays_lazy_and_exact(self):
        graph = from_edge_list(self.EDGES, num_nodes=6, weights=self.WEIGHTS)
        compiled = compile_workload(InverseSpec(), graph)
        assert compiled.supported and compiled.hints_node_only
        assert compiled.replay_hint_nodes(graph, np.arange(6)) is None
        tables = NodeHintTables(compiled, graph)
        assert not tables._complete
        assert not tables._computed.any()
        bounds, _ = tables.lookup(np.array([2, 0, 2]))
        assert tables._computed.tolist() == [True, False, True, False, False, False]
        assert bounds[0] == bounds[2]
        assert_exact(tables, compiled, graph)

    def test_rebind_that_bails_on_touched_rows_turns_lazy(self):
        """A complete table whose touched rows gain a zero degree refills
        them lazily, with exact values."""
        edges = np.concatenate([self.EDGES, [[3, 1], [5, 2]]])
        weights = np.concatenate([self.WEIGHTS, [7.0, 8.0]])
        dynamic = DeltaCSRGraph(from_edge_list(edges, num_nodes=6, weights=weights))
        old = dynamic.snapshot()
        tables = NodeHintTables(compile_workload(InverseSpec(), old), old)
        assert tables._complete
        dynamic = dynamic.apply_delta(np.zeros((0, 2), dtype=np.int64), np.array([[3, 1]]))
        new = dynamic.snapshot()
        compiled = compile_workload(InverseSpec(), new)
        tables.rebind(new, dynamic.delta.touched_nodes, compiled=compiled)
        assert not tables._complete
        assert not tables._computed[3] and bool(tables._computed[[0, 1, 2, 4, 5]].all())
        assert_exact(tables, compiled, new)
