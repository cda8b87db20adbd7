"""``QueryBatch``: the array form of a query list, at construction and
through ``WalkSession.submit``."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DeepWalkSpec, FlexiWalkerConfig, QueryBatch, WalkQuery, WalkService
from repro.errors import ServiceError, SimulationError, WalkSpecError
from repro.graph.generators import barabasi_albert_graph
from repro.runtime.frontier import OrdinalIndex
from repro.runtime.scheduler import validate_queries

NODES = 300


@pytest.fixture(scope="module")
def service():
    return WalkService(barabasi_albert_graph(NODES, 3, seed=5))


def _queries(ids, length=6):
    rng = np.random.default_rng(len(ids))
    starts = rng.integers(0, NODES, len(ids))
    return [WalkQuery(int(q), int(s), length) for q, s in zip(ids, starts, strict=True)]


def _as_batch(queries):
    return QueryBatch(
        [q.query_id for q in queries], [q.start_node for q in queries],
        [q.max_length for q in queries],
    )


class TestContract:
    def test_a_batch_is_a_sequence_of_its_queries(self):
        queries = _queries([4, 9, 2, 7])
        batch = _as_batch(queries)
        assert batch == queries and len(batch) == 4
        assert batch[1] == queries[1] and list(batch) == queries
        assert batch[1:3] == queries[1:3]
        assert batch[np.array([3, 0])] == [queries[3], queries[0]]
        assert QueryBatch.of(queries) == batch and QueryBatch.of(batch) is batch

    def test_the_columns_are_private_and_read_only(self):
        ids = np.array([1, 2, 3])
        batch = QueryBatch(ids, [0, 1, 2], [5, 5, 5])
        ids[0] = 99
        assert batch.query_ids.tolist() == [1, 2, 3]
        with pytest.raises(ValueError):
            batch.start_nodes[0] = 7

    @pytest.mark.parametrize(
        ("columns", "message"),
        [
            (([1, 2], [0, 1], [5, 0]), "at least 1 step"),
            (([1, 2], [0, -1], [5, 5]), "non-negative"),
            (([1, 2], [0.5, 1.0], [5, 5]), "integers"),
            (([1, 2], [0, 1], [5]), "one length"),
            (([[1, 2]], [[0, 1]], [[5, 5]]), "one-dimensional"),
        ],
    )
    def test_the_walk_query_contract_is_checked_at_entry(self, columns, message):
        with pytest.raises(WalkSpecError, match=message):
            QueryBatch(*columns)

    def test_validation_names_the_first_offender_as_for_a_list(self):
        out_of_range = _as_batch([WalkQuery(0, 1, 3), WalkQuery(1, NODES, 3)])
        with pytest.raises(SimulationError, match=f"query 1 starts at node {NODES}"):
            validate_queries(out_of_range, NODES)
        duplicate = _as_batch(_queries([3, 8, 3]))
        with pytest.raises(SimulationError, match="duplicate query_id 3"):
            validate_queries(duplicate, NODES)


class TestSubmit:
    @pytest.mark.parametrize("ids", [range(0, 60), [*range(40, 60), *range(0, 40)],
                                     np.random.default_rng(1).permutation(200)[:60]],
                             ids=["one-range", "two-ranges", "scattered"])
    def test_a_batch_submit_runs_as_the_list_submit(self, service, ids):
        queries = _queries(list(ids))
        config = FlexiWalkerConfig(seed=9)
        results, tickets = [], []
        for as_batch in (False, True):
            session = service.session(DeepWalkSpec(), config)
            made = [
                session.submit(_as_batch(part) if as_batch else part)
                for part in (queries[:25], queries[25:])
            ]
            tickets.append([t.query_ids for t in made])
            results.append(session.collect())
        plain, batched = results
        assert tickets[0] == tickets[1] == [
            tuple(q.query_id for q in queries[:25]), tuple(q.query_id for q in queries[25:])
        ]
        assert batched.paths == plain.paths
        assert batched.per_query_ns.tobytes() == plain.per_query_ns.tobytes()
        assert batched.counters.as_dict() == plain.counters.as_dict()

    @pytest.mark.parametrize(("first", "again", "clash"),
                             [(range(0, 10), [9, 10], 9), ([5, 1, 3], [7, 3], 3)],
                             ids=["id-range", "scattered"])
    def test_a_resubmitted_id_is_refused(self, service, first, again, clash):
        session = service.session(DeepWalkSpec(), FlexiWalkerConfig(seed=9))
        session.submit(_as_batch(_queries(list(first))))
        with pytest.raises(ServiceError, match=rf"query ids \[{clash}\] were already submitted"):
            session.submit(_as_batch(_queries(again)))
        assert session.describe()["submitted"] == len(first)


class TestOrdinalIndex:
    def test_an_empty_batch_keeps_the_offset_form(self):
        index = OrdinalIndex()
        assert index.add(QueryBatch((), (), ())) == 0
        assert index.clashes(QueryBatch([2, 1], [0, 0], [1, 1])).tolist() == []
        assert index.add(QueryBatch([4, 5, 6], [0, 0, 0], [1, 1, 1])) == 0
        assert index.ordinals(np.array([3, 4, 6, 7])).tolist() == [-1, 0, 2, -1]
        assert index.clashes(QueryBatch([6, 9], [0, 0], [1, 1])).tolist() == [6]

    def test_a_gap_switches_to_sorted_ids(self):
        index = OrdinalIndex()
        index.add(QueryBatch([4, 5], [0, 0], [1, 1]))
        assert index.add(QueryBatch([9, 2], [0, 0], [1, 1])) == 2
        assert index.ordinals(np.array([2, 3, 5, 9])).tolist() == [3, -1, 1, 2]
        assert index.ids(0, 4).tolist() == [4, 5, 9, 2]
        assert index.clashes(QueryBatch([1, 2, 3, 4], [0] * 4, [1] * 4)).tolist() == [2, 4]
