"""Golden digests of small fixed-seed runs.

The parity suites compare the batched engine with the scalar oracle, so a
change to code both share — the RNG layout, the trial-block size, the cost
model — moves both sides together and passes them silently.  These tests pin
the SHA-256 of the paths, the exact counters and the simulated kernel times
of a few small runs instead.  A change that is *meant* to move simulated
results must declare it and re-pin the digests below.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import FlexiWalkerConfig
from repro.graph.generators import barabasi_albert_graph, rmat_graph
from repro.graph.weights import uniform_weights
from repro.runtime.engine import WalkEngine
from repro.runtime.selector import FixedSelector
from repro.sampling.rejection import RejectionSampler
from repro.service import WalkService
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import make_queries


def _ba_graph():
    graph = barabasi_albert_graph(600, 6, seed=5, name="golden-ba")
    return graph.with_weights(uniform_weights(graph, seed=5))


def _rmat_graph():
    # Skewed enough that the cost model sends some Node2Vec steps to eRJS.
    graph = rmat_graph(2048, 40_000, seed=5, name="golden-rmat")
    return graph.with_weights(uniform_weights(graph, seed=5))


def _digest(result) -> str:
    h = hashlib.sha256()
    lengths = np.array([len(p) for p in result.paths], dtype=np.int64)
    h.update(lengths.tobytes())
    h.update(np.array([v for p in result.paths for v in p], dtype=np.int64).tobytes())
    h.update(repr(sorted(result.counters.as_dict().items())).encode())
    h.update(repr(sorted(result.sampler_usage.items())).encode())
    h.update(np.asarray(result.per_query_ns, dtype=np.float64).tobytes())
    h.update(repr((result.kernel.time_ns, result.kernel.total_work_ns)).encode())
    return h.hexdigest()


def _session_run(graph, spec):
    """Compile + profile + cost-model selection through the serving API."""
    service = WalkService(graph)
    session = service.session(spec, FlexiWalkerConfig(seed=3))
    session.submit(make_queries(graph.num_nodes, walk_length=12, num_queries=400, seed=3))
    return session.collect()


GOLDEN = {
    "deepwalk": "65a0630ab7e4c6e88ba8023de2b20d7901021a61d5e9c5af0c34878dd159df5a",
    "node2vec": "a58d25cb8383d47814af5c917b9ac1e7d196fd3a4c730eb7044df021f7b8b09a",
    "rjs": "c47bb73a520dbfed98e2a101800e3935808e6d5634ea6db590710f72406c2d93",
}


@pytest.mark.parametrize(
    "name, run",
    [
        ("deepwalk", lambda: _session_run(_ba_graph(), DeepWalkSpec())),
        ("node2vec", lambda: _session_run(_rmat_graph(), Node2VecSpec(a=0.5, b=2.0))),
        (
            "rjs",
            lambda: WalkEngine(
                graph=_ba_graph(), spec=DeepWalkSpec(), seed=3,
                selector=FixedSelector(RejectionSampler()),
            ).run(make_queries(600, walk_length=12, num_queries=300, seed=4)),
        ),
    ],
)
def test_golden_digest(name, run):
    assert _digest(run()) == GOLDEN[name]
