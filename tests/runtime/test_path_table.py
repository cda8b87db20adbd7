"""Columnar walk results: the PathTable view and the driver's result ledger.

A :class:`~repro.walks.paths.PathTable` is a read-only sequence of walks
over one node matrix plus a lengths vector; every result layer hands walks
out as one.  The ledger behind a session (``FrontierDriver``) keeps its
finished walks as columns indexed by submission ordinal, whose capacity
doubles and whose row width grows with the longest registered walk.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro import DeepWalkSpec, FlexiWalkerConfig, WalkQuery, WalkService
from repro.graph.generators import barabasi_albert_graph
from repro.graph.weights import uniform_weights
from repro.runtime import PathTable

WALKS = [[4, 1, 2], [7], [0, 3, 3, 5], [2, 6]]


@pytest.fixture
def table() -> PathTable:
    return PathTable.from_lists(WALKS)


class TestPathTable:
    def test_len_indexing_and_slicing(self, table):
        assert len(table) == 4
        assert table[0] == [4, 1, 2]
        assert table[-1] == [2, 6]
        assert table[-4] == [4, 1, 2]
        with pytest.raises(IndexError):
            table[4]
        part = table[1:3]
        assert isinstance(part, PathTable)
        assert list(part) == [[7], [0, 3, 3, 5]]
        assert list(table[::-2]) == [[2, 6], [7]]

    def test_iterates_lists_any_number_of_times(self, table):
        first, second = list(table), list(table)
        assert first == second == WALKS
        assert all(type(walk) is list for walk in first)
        first[0].append(99)  # the lists are the caller's own
        assert table[0] == [4, 1, 2]

    def test_short_rows_are_trimmed_to_their_length(self, table):
        assert table.matrix.shape == (4, 4)
        assert table.lengths.tolist() == [3, 1, 4, 2]
        assert table.matrix[1].tolist() == [7, -1, -1, -1]
        assert [len(walk) for walk in table] == [3, 1, 4, 2]
        # Padding past a walk's end is never read, whatever it holds.
        matrix = table.matrix.copy()
        matrix[1, 1:] = 8
        assert list(PathTable(matrix, table.lengths)) == WALKS

    def test_iterates_across_blocks(self):
        walks = [[i, i + 1][: 1 + i % 2] for i in range(2_500)]
        assert list(PathTable.from_lists(walks)) == walks

    def test_equality_in_both_directions(self, table):
        as_tuples = tuple(tuple(walk) for walk in WALKS)
        assert table == WALKS
        assert WALKS == table
        assert table == as_tuples
        assert as_tuples == table
        assert table == PathTable.from_lists(as_tuples)
        assert table != WALKS[:3]
        assert table != "not walks"

    def test_a_single_differing_node_is_unequal(self, table):
        changed = [list(walk) for walk in WALKS]
        changed[2][3] = 6
        assert table != changed
        assert changed != table
        assert table != PathTable.from_lists(changed)
        assert table != [list(walk) for walk in WALKS[:3]] + [[2]]

    def test_equal_tables_of_different_widths(self, table):
        wide = np.full((4, 9), -1, dtype=np.int64)
        wide[:, :4] = table.matrix
        assert PathTable(wide, table.lengths) == table

    def test_arrays_are_not_writeable(self, table):
        for array in (table.matrix, table.lengths, table[1:].matrix):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_the_source_arrays_stay_writeable(self):
        matrix, lengths = np.zeros((2, 3), dtype=np.int64), np.ones(2, dtype=np.int64)
        PathTable(matrix, lengths)
        matrix[0, 0] = 5
        lengths[0] = 2

    def test_empty(self):
        empty = PathTable.from_lists([])
        assert len(empty) == 0
        assert list(empty) == []
        assert empty == []


def _service(nodes: int = 300) -> WalkService:
    graph = barabasi_albert_graph(nodes, 4, seed=5)
    return WalkService(graph.with_weights(uniform_weights(graph, seed=5)))


def _queries(first: int, count: int, length: int) -> list[WalkQuery]:
    return [WalkQuery(i, (i * 7) % 300, length) for i in range(first, first + count)]


class TestResultLedger:
    def test_a_longer_later_submit_widens_the_ledger(self):
        session = _service().session(DeepWalkSpec(), FlexiWalkerConfig(seed=2))
        short = session.submit(_queries(0, 10, 3))
        session.collect()
        driver = session._driver
        before = driver.rows[:10].copy()
        assert driver.rows.shape[1] == 4
        long = session.submit(_queries(10, 5, 9))
        assert driver.rows.shape[1] == 10
        assert np.array_equal(driver.rows[:10, :4], before)
        assert (driver.rows[:10, 4:] == -1).all()
        result = session.collect()
        assert list(result.paths[:10]) == list(short.paths())
        assert list(result.paths[10:]) == list(long.paths())
        assert result.paths.lengths[:10].max() <= 4
        assert result.paths.lengths[10:].max() == 10

    def test_capacity_doubles_across_many_small_submits(self):
        session = _service().session(DeepWalkSpec(), FlexiWalkerConfig(seed=2))
        driver = session._driver
        capacities = []
        for k in range(40):
            session.submit(_queries(3 * k, 3, 4))
            capacities.append(driver.lengths.size)
        assert capacities[-1] >= 120
        assert capacities[-1] < 2 * 120
        grown = sorted(set(capacities))
        assert all(b >= 2 * a for a, b in zip(grown, grown[1:], strict=False))
        assert len(grown) <= 7  # doubling, not one reallocation per submit
        result = session.collect()
        assert len(result.paths) == session.completed == 120
        assert (driver.lengths[120:] == 0).all()  # spare capacity never settles
        reference = WalkService(session.service.graph).session(
            DeepWalkSpec(), FlexiWalkerConfig(seed=2)
        )
        reference.submit(_queries(0, 120, 4))
        assert result.paths == reference.collect().paths


def test_a_finished_result_holds_its_paths_as_one_matrix():
    # 20,000 walkers x 20 steps: the paths as int64 rows take 3.4 MB; as
    # Python lists of ints they would take several times that.
    walkers, length = 20_000, 20
    service = _service(5_000)
    config = FlexiWalkerConfig(seed=4)
    starts = np.random.default_rng(4).integers(0, 5_000, walkers).tolist()
    warm = service.session(DeepWalkSpec(), config)
    warm.submit([WalkQuery(i, s, length) for i, s in enumerate(starts[:2_000])])
    warm.collect()
    warm.close()
    queries = [WalkQuery(i, s, length) for i, s in enumerate(starts)]
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        session = service.session(DeepWalkSpec(), config)
        session.submit(queries)
        result = session.collect()
        session.close()
        del session
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert len(result.paths) == walkers
    assert held <= 2 * walkers * (length + 1) * 8, held
