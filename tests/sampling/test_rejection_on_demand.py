"""Batched rejection sampling draws on demand, yet matches the scalar oracle.

The batched trial loop reserves a full ``2·16``-counter block per walker and
round, like the scalar loop, but evaluates Philox only at the trials a walker
actually tries.  On hubs whose 64 (or 40) out-edges put nearly all the
weight on one edge, walkers need many rounds and, with a short trial budget,
many exhaust it and finish by inversion.  Every walker must then still pick the scalar
kernel's neighbour, be charged the scalar kernel's counts, and leave its
stream exactly where the scalar kernel leaves it.  The trial cases run at a
narrow and a wide frontier, so both the one-chunk and the chunked first
round meet the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.generator import compile_workload
from repro.compiler.preprocess import preprocess_graph
from repro.graph.builders import from_edge_list
from repro.gpusim.counters import CostCounters, CounterBatch
from repro.rng.streams import StreamPool
from repro.runtime.engine import WalkEngine
from repro.runtime.selector import FixedSelector
from repro.sampling.base import StepContext
from repro.sampling.batch import BatchStepContext
from repro.sampling.erjs import EnhancedRejectionSampler
from repro.sampling.rejection import (
    _ONE_SHOT_CELLS,
    _TRIAL_BATCH,
    _TRIAL_CHUNKS,
    RejectionSampler,
)
from repro.sampling.transition_cache import TransitionCache
from repro.walks.deepwalk import DeepWalkSpec
from repro.walks.node2vec import Node2VecSpec
from repro.walks.state import WalkerFrontier, WalkerState, WalkQuery

HUB_DEGREE = 64
SMALL_HUB_DEGREE = 40
SMALL_HUB = HUB_DEGREE + 1
HEAVY = 1000.0


def skewed_hub_graph():
    """Hubs 0 (-> leaves 1..64) and 65 (-> leaves 1..40); each hub's edge to
    leaf 1 weighs 1000 and the rest 0.01.  Every leaf points back to hub 0."""
    leaves = np.arange(1, HUB_DEGREE + 1)
    small = leaves[:SMALL_HUB_DEGREE]
    edges = np.concatenate([
        np.stack([np.zeros(HUB_DEGREE, dtype=np.int64), leaves], axis=1),
        np.stack([np.full(SMALL_HUB_DEGREE, SMALL_HUB), small], axis=1),
        np.stack([leaves, np.zeros(HUB_DEGREE, dtype=np.int64)], axis=1),
    ])
    weights = np.concatenate([
        np.where(leaves == 1, HEAVY, 0.01), np.where(small == 1, HEAVY, 0.01),
        np.ones(HUB_DEGREE),
    ])
    return from_edge_list(edges, num_nodes=SMALL_HUB + 1, weights=weights, name="hubs")


def start_node(qid) -> int:
    return SMALL_HUB if int(qid) % 2 else 0


def run_scalar(graph, sampler, hints, query_ids, seed, spec=None, prev=None):
    spec = spec or DeepWalkSpec()
    prev = np.full(len(query_ids), -1) if prev is None else prev
    pool = StreamPool(seed)
    choices, counters = [], []
    for qid, hint, before in zip(query_ids, hints, prev, strict=True):
        start = start_node(qid)
        query = WalkQuery(query_id=int(qid), start_node=start, max_length=4)
        state = WalkerState(query=query, current_node=start, prev_node=int(before))
        ctx = StepContext(
            graph=graph, state=state, spec=spec,
            rng=pool.stream(int(qid)), counters=CostCounters(),
            bound_hint=None if np.isnan(hint) else float(hint),
        )
        chosen = sampler.sample(ctx)
        choices.append(-1 if chosen is None else chosen)
        counters.append(ctx.counters)
    return np.array(choices), counters, pool


def run_batched(graph, sampler, hints, query_ids, seed, cached, spec=None, prev=None):
    spec = spec or DeepWalkSpec()
    pool = StreamPool(seed)
    queries = [WalkQuery(query_id=int(q), start_node=start_node(q), max_length=4)
               for q in query_ids]
    n = len(queries)
    frontier = WalkerFrontier(queries)
    if prev is not None:
        frontier.prev[:] = prev
    batch = BatchStepContext(
        graph=graph, spec=spec, frontier=frontier, walkers=np.arange(n),
        rng=pool.batch([int(q) for q in query_ids]), counters=CounterBatch(n),
        slots=np.arange(n), bound_hints=np.asarray(hints, dtype=np.float64),
        transition_cache=TransitionCache(graph, spec) if cached else None,
        node_aggregates=preprocess_graph(graph).aggregates,
    )
    return sampler.sample_batch(batch), batch.counters, pool


CASES = {
    # A loose hint (4x the true max): ~256 trials per step on average, so
    # walkers span many 16-trial rounds and a few exhaust the 1024 budget.
    "erjs_loose_hint": (EnhancedRejectionSampler, {}, 4 * HEAVY),
    # A 40-trial budget (rounds of 16, 16, 8): most walkers exhaust it.
    "erjs_short_budget": (
        EnhancedRejectionSampler, {"min_trials": 40, "max_trial_factor": 0}, 4 * HEAVY,
    ),
    # A hint below the true max is widened to the (cached) row maximum.
    "erjs_low_hint": (EnhancedRejectionSampler, {"min_trials": 40, "max_trial_factor": 0}, 10.0),
    # Half the walkers without a hint take the scan + max-reduction branch.
    "erjs_mixed": (EnhancedRejectionSampler, {"min_trials": 40, "max_trial_factor": 0}, None),
    "rjs_short_budget": (RejectionSampler, {"min_trials": 40, "max_trial_factor": 0}, np.nan),
    # Degree-proportional budgets (64 vs 40 trials): rounds where 16- and
    # 8-trial blocks run side by side.
    "erjs_mixed_budgets": (
        EnhancedRejectionSampler, {"min_trials": 0, "max_trial_factor": 1}, 4 * HEAVY,
    ),
    "rjs_mixed_budgets": (RejectionSampler, {"min_trials": 0, "max_trial_factor": 1}, np.nan),
}


@pytest.mark.parametrize("width", [8, 200], ids=["narrow", "wide"])
@pytest.mark.parametrize("cached", [False, True], ids=["flat", "cached"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_trials_match_scalar_oracle(case, cached, width):
    graph = skewed_hub_graph()
    factory, kwargs, hint = CASES[case]
    query_ids = np.arange(width) * 3 + 1
    # The narrow frontier runs each first round as one chunk, the wide one
    # in growing chunks.
    assert (width * _TRIAL_BATCH <= _ONE_SHOT_CELLS) == (width == 8)
    if hint is None:
        hints = np.where(np.arange(query_ids.size) % 2 == 0, 4 * HEAVY, np.nan)
    else:
        hints = np.full(query_ids.size, hint)
    seed = 11

    s_choice, s_counters, s_pool = run_scalar(graph, factory(**kwargs), hints, query_ids, seed)
    b_nodes, b_counters, b_pool = run_batched(
        graph, factory(**kwargs), hints, query_ids, seed, cached
    )

    assert np.array_equal(b_nodes, s_choice)
    for name in CostCounters._COUNT_FIELDS:
        expected = [getattr(c, name) for c in s_counters]
        assert getattr(b_counters, name).tolist() == expected, name
    # The reserved stream state is exactly the scalar loop's.
    for b_arr, s_arr in zip(b_pool.snapshot_counters(), s_pool.snapshot_counters(), strict=True):
        assert np.array_equal(b_arr, s_arr)

    # The scenario really exercises multi-round trials and budget exhaustion.
    trials = b_counters.rejection_trials
    assert trials.max() > 2 * _TRIAL_BATCH
    assert (b_counters.prefix_sum_elements > 0).any()
    assert (trials < trials.max()).any()


class RowSpyNode2Vec(Node2VecSpec):
    """Node2Vec whose full-row hook refuses the walkers meant to go on demand."""

    def __init__(self, on_demand):
        super().__init__(a=2.0, b=0.5)
        self.on_demand = on_demand
        self.full_rows = []

    def transition_weights_batch(self, graph, batch):
        if np.isin(batch.walkers, self.on_demand).any():
            raise AssertionError("an on-demand walker gathered its whole row")
        self.full_rows.extend(batch.walkers.tolist())
        return super().transition_weights_batch(graph, batch)


def test_node2vec_on_demand_matches_scalar_oracle():
    """One uncached Node2Vec superstep mixing every eRJS branch.

    Group 0 takes its first step (no previous node) with a hint equal to
    the ceiling; group 1 has a previous leaf and a loose hint (4x the
    ceiling); both go on demand.  Group 2's user bound sits below the
    ceiling, so it gathers its row and widens; group 3 has no hint and
    scans.  The 40-trial budget sends many on-demand walkers to the
    inversion fallback.
    """
    graph = skewed_hub_graph()
    n = 240
    query_ids = np.arange(n) * 3 + 1
    group = np.arange(n) % 4
    prev = np.where(group == 0, -1, 1 + np.arange(n) % SMALL_HUB_DEGREE)
    ceiling = 2.0 * HEAVY  # the 1/b factor times the heavy edge, on both hubs
    hints = np.select([group == 0, group == 1, group == 2], [ceiling, 4 * ceiling, 10.0], np.nan)
    on_demand = np.nonzero(group <= 1)[0]
    kwargs = {"min_trials": 40, "max_trial_factor": 0}
    seed = 13

    s_choice, s_counters, s_pool = run_scalar(
        graph, EnhancedRejectionSampler(**kwargs), hints, query_ids, seed,
        spec=Node2VecSpec(a=2.0, b=0.5), prev=prev,
    )
    spy = RowSpyNode2Vec(on_demand)
    b_nodes, b_counters, b_pool = run_batched(
        graph, EnhancedRejectionSampler(**kwargs), hints, query_ids, seed, cached=False,
        spec=spy, prev=prev,
    )

    assert np.array_equal(b_nodes, s_choice)
    for name in CostCounters._COUNT_FIELDS:
        expected = [getattr(c, name) for c in s_counters]
        assert getattr(b_counters, name).tolist() == expected, name
    for b_arr, s_arr in zip(b_pool.snapshot_counters(), s_pool.snapshot_counters(), strict=True):
        assert np.array_equal(b_arr, s_arr)

    # Only the widening and scanning walkers gathered rows.
    assert sorted(spy.full_rows) == np.nonzero(group >= 2)[0].tolist()
    # On-demand walkers both accepted by trial and fell back to inversion.
    fallback = b_counters.prefix_sum_elements[on_demand] > 0
    assert fallback.any() and not fallback.all()
    assert (b_counters.rejection_trials[on_demand] > 0).all()


def test_node2vec_engine_runs_match_scalar_oracle():
    """Compiled Node2Vec through the batched driver: hint tables, the
    compiler's aggregates and on-demand eRJS together, against the oracle."""
    graph = skewed_hub_graph()
    spec = Node2VecSpec(a=2.0, b=0.5)
    compiled = compile_workload(spec, graph)
    queries = [WalkQuery(query_id=q, start_node=start_node(q), max_length=9)
               for q in range(120)]
    results = {}
    for mode in ("scalar", "batched"):
        engine = WalkEngine(
            graph=graph, spec=spec, compiled=compiled, seed=5, execution=mode,
            selector=FixedSelector(EnhancedRejectionSampler(min_trials=0, max_trial_factor=1)),
        )
        results[mode] = engine.run(queries)
    scalar, batched = results["scalar"], results["batched"]
    assert batched.paths == scalar.paths
    assert batched.counters.as_dict() == scalar.counters.as_dict()
    assert np.array_equal(batched.per_query_ns, scalar.per_query_ns)
    assert batched.counters.prefix_sum_elements > 0


def test_trial_chunks_cover_one_block():
    assert sum(_TRIAL_CHUNKS) == _TRIAL_BATCH


@pytest.mark.parametrize("factory", [EnhancedRejectionSampler, RejectionSampler])
def test_engine_runs_match_scalar_oracle(factory):
    graph = skewed_hub_graph()
    spec = DeepWalkSpec()
    compiled = compile_workload(spec, graph)
    queries = [WalkQuery(query_id=q, start_node=start_node(q), max_length=9)
               for q in range(120)]
    results = {}
    for mode in ("scalar", "batched"):
        engine = WalkEngine(
            graph=graph, spec=spec, compiled=compiled, seed=5, execution=mode,
            selector=FixedSelector(factory(min_trials=0, max_trial_factor=1)),
        )
        results[mode] = engine.run(queries)
    scalar, batched = results["scalar"], results["batched"]
    assert batched.paths == scalar.paths
    assert batched.counters.as_dict() == scalar.counters.as_dict()
    assert np.array_equal(batched.per_query_ns, scalar.per_query_ns)
    assert batched.counters.rejection_trials > 2 * _TRIAL_BATCH * len(queries)
