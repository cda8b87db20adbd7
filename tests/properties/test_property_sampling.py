"""Property-based tests for the sampling kernels (hypothesis).

The invariants here hold for *any* non-negative weight vector:

* every kernel returns an index whose weight is strictly positive;
* kernels never return anything when every weight is zero;
* the alias table always redistributes the exact probability mass;
* the Efraimidis–Spirakis keys are monotone in the weight for a fixed
  uniform draw (the property that makes the argmax formulation correct);
* the cost model's selection rule agrees with comparing the two cost
  expressions it is derived from.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_list
from repro.rng.streams import CountingStream
from repro.runtime.cost_model import CostModel
from repro.sampling.alias import build_alias_table
from repro.sampling.base import StepContext
from repro.sampling.ervs import exponential_race_keys
from repro.sampling.registry import make_sampler
from repro.gpusim.counters import CostCounters
from repro.walks.spec import UniformWalkSpec
from repro.walks.state import WalkerState, WalkQuery

weight_vectors = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=24,
)

SAMPLER_NAMES = ["ALS", "ITS", "RJS", "RVS", "eRJS", "eRVS"]


def _context_for_weights(weights, seed=0, bound=None):
    """A star-shaped context: node 0's out-edges carry the given weights."""
    n = len(weights)
    edges = [(0, i + 1) for i in range(n)] + [(i + 1, 0) for i in range(n)]
    graph = from_edge_list(edges, num_nodes=n + 1, weights=list(weights) + [1.0] * n)
    state = WalkerState.start(WalkQuery(query_id=0, start_node=0, max_length=2))
    return graph, StepContext(
        graph=graph,
        state=state,
        spec=UniformWalkSpec(),
        rng=CountingStream.from_seed(seed),
        counters=CostCounters(),
        bound_hint=bound,
    )


@settings(max_examples=40, deadline=None)
@given(weights=weight_vectors, name=st.sampled_from(SAMPLER_NAMES), seed=st.integers(0, 1000))
# A subnormal weight: RVS's ``u * W < w`` test can round up to ``w``.
@example(weights=[5e-324], name="RVS", seed=1)
def test_samplers_only_choose_positive_weight_neighbors(weights, name, seed):
    graph, ctx = _context_for_weights(weights, seed=seed, bound=max(weights) if max(weights) > 0 else None)
    chosen = make_sampler(name).sample(ctx)
    if sum(weights) == 0:
        assert chosen is None
    else:
        assert chosen is not None
        # Neighbour i+1 carries weights[i].
        assert weights[int(chosen) - 1] > 0


@settings(max_examples=50, deadline=None)
@given(weights=weight_vectors)
# A subnormal total: n / total overflows to inf.
@example(weights=[0.0, 5e-324])
def test_alias_table_conserves_probability_mass(weights):
    w = np.asarray(weights)
    prob, alias = build_alias_table(w)
    if w.sum() == 0:
        return
    n = w.size
    mass = prob.copy()
    for i in range(n):
        if prob[i] < 1.0:
            mass[alias[i]] += 1.0 - prob[i]
    assert np.allclose(mass / n, w / w.sum(), atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    u=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    w_small=st.floats(min_value=0.01, max_value=50.0),
    w_delta=st.floats(min_value=0.01, max_value=50.0),
)
def test_exponential_keys_monotone_in_weight(u, w_small, w_delta):
    keys = exponential_race_keys(
        np.array([w_small, w_small + w_delta]), np.array([u, u])
    )
    assert keys[1] >= keys[0]


@settings(max_examples=80, deadline=None)
@given(
    ratio=st.floats(min_value=0.5, max_value=64.0),
    degree=st.integers(min_value=1, max_value=10_000),
    max_w=st.floats(min_value=1e-3, max_value=1e3),
    mean_w=st.floats(min_value=1e-3, max_value=1e3),
)
def test_cost_model_rule_matches_cost_comparison(ratio, degree, max_w, mean_w):
    model = CostModel(edge_cost_ratio=ratio)
    max_weight = max(max_w, mean_w)
    sum_weight = mean_w * degree
    prefer = model.prefer_rjs(max_weight, sum_weight)
    assert prefer == (model.cost_rjs(degree, max_weight, sum_weight) < model.cost_rvs(degree))
