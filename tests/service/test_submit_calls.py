"""``WalkSession.submit`` does whole-array work: no call per query.

Counts the calls one ``submit`` makes with ``sys.setprofile`` (as
``scripts/superstep_calls.py`` does for supersteps): a 1,000-query and a
50,000-query submission must make the same calls, whether they arrive as a
:class:`~repro.QueryBatch` or as a ``list[WalkQuery]`` (read once into
arrays: one comprehension per column, not one call per query).
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro import DeepWalkSpec, FlexiWalkerConfig, QueryBatch, WalkQuery, WalkService
from repro.graph.generators import barabasi_albert_graph

NODES, LENGTH = 2_000, 5


@pytest.fixture(scope="module")
def service():
    service = WalkService(barabasi_albert_graph(NODES, 3, seed=1))
    # Warm-up submits fill caches that only a first call pays for (the
    # session's compiled plan, abc's subclass checks).
    warm = _batch(10, False)
    for queries in (warm, list(warm)):
        service.session(DeepWalkSpec(), FlexiWalkerConfig(seed=3)).submit(queries)
    return service


def _batch(count: int, shuffled: bool) -> QueryBatch:
    rng = np.random.default_rng(count)
    ids = np.arange(10, 10 + count, dtype=np.int64)
    if shuffled:  # not one consecutive range: the sorted-id path
        ids = rng.permutation(ids)
    return QueryBatch(ids, rng.integers(0, NODES, count), np.full(count, LENGTH))


def _submit_calls(service, queries) -> Counter:
    """Python-level (``call``) and C (``c_call``) calls of one submit into
    a fresh session, by event and code site."""
    session = service.session(DeepWalkSpec(), FlexiWalkerConfig(seed=3))
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[("call", code.co_filename, code.co_firstlineno)] += 1
        elif event == "c_call":
            counts[("c_call", getattr(arg, "__qualname__", repr(arg)))] += 1

    sys.setprofile(profiler)
    try:
        ticket = session.submit(queries)
    finally:
        sys.setprofile(None)
    assert len(ticket.query_ids) == len(queries)
    session.close()
    return counts


def _calls(counts: Counter, event: str) -> int:
    return sum(n for key, n in counts.items() if key[0] == event)


@pytest.mark.parametrize("shuffled", [False, True], ids=["id-range", "shuffled-ids"])
def test_a_batch_submit_makes_as_many_calls_at_50k_as_at_1k(service, shuffled):
    small = _submit_calls(service, _batch(1_000, shuffled))
    large = _submit_calls(service, _batch(50_000, shuffled))
    assert _calls(large, "call") == _calls(small, "call"), large - small
    assert large == small, (large - small, small - large)


def test_a_query_list_submit_makes_no_call_per_query(service):
    def as_list(batch: QueryBatch) -> list[WalkQuery]:
        return list(batch)  # built before the profiler starts

    small = _submit_calls(service, as_list(_batch(1_000, False)))
    large = _submit_calls(service, as_list(_batch(50_000, False)))
    assert large == small, (large - small, small - large)
