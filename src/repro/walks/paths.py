"""Finished walks as one node matrix plus a lengths vector.

A :class:`PathTable` is how every result layer hands walks to callers
(``WalkRunResult.paths``, ``WalkChunk.paths``, ``QueryTicket.paths()``):
walk ``i`` is ``matrix[i, :lengths[i]]``, the cells past a walk's end are
padding.  The table is a read-only :class:`~collections.abc.Sequence`, so
``len``, indexing and iteration give plain Python lists on demand, while
array callers read ``.matrix`` and ``.lengths`` without building one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

#: Rows converted per ``tolist`` call while iterating.
_BLOCK_ROWS = 1024


class PathTable(Sequence):
    """Read-only walks over an ``int64`` node matrix and a lengths vector.

    ``t[i]`` is walk ``i`` as a new list (negative indices count from the
    end), ``t[a:b]`` is a :class:`PathTable` over the same rows, and
    iteration yields lists, any number of times.  ``==`` compares with any
    sequence of node sequences (lists of lists, tuples of tuples, another
    table), in either order.  ``.matrix`` and ``.lengths`` are non-writeable
    views: ``list(t)`` gives a mutable copy, ``t.matrix.copy()`` a writeable
    array.
    """

    __slots__ = ("_matrix", "_lengths")

    def __init__(self, matrix: np.ndarray, lengths: np.ndarray) -> None:
        self._matrix = matrix.view()
        self._matrix.flags.writeable = False
        self._lengths = lengths.view()
        self._lengths.flags.writeable = False

    @classmethod
    def from_lists(cls, paths: Sequence[Sequence[int]]) -> PathTable:
        """A table holding ``paths`` (lists or tuples of node ids)."""
        lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
        matrix = np.full((lengths.size, int(lengths.max(initial=1))), -1, dtype=np.int64)
        mask = np.arange(matrix.shape[1]) < lengths[:, None]
        matrix[mask] = np.fromiter(chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum()))
        return cls(matrix, lengths)

    @property
    def matrix(self) -> np.ndarray:
        """``(len, width)`` node ids; row ``i`` is walk ``i`` then padding."""
        return self._matrix

    @property
    def lengths(self) -> np.ndarray:
        """Nodes in each walk (its start node included)."""
        return self._lengths

    def __len__(self) -> int:
        return self._lengths.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PathTable(self._matrix[index], self._lengths[index])
        return self._matrix[index, : self._lengths[index]].tolist()

    def __iter__(self) -> Iterator[list[int]]:
        matrix, lengths = self._matrix, self._lengths
        width = matrix.shape[1]
        for lo in range(0, lengths.size, _BLOCK_ROWS):
            rows = matrix[lo : lo + _BLOCK_ROWS].tolist()
            for row, n in zip(rows, lengths[lo : lo + _BLOCK_ROWS].tolist(), strict=True):
                if n < width:
                    del row[n:]
                yield row

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathTable):
            if not np.array_equal(self._lengths, other._lengths):
                return False
            width = int(self._lengths.max(initial=0))
            walked = np.arange(width) < self._lengths[:, None]
            return bool(
                (self._matrix[:, :width][walked] == other._matrix[:, :width][walked]).all()
            )
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        try:
            return len(other) == len(self) and all(
                mine == list(theirs) for mine, theirs in zip(self, other)
            )
        except TypeError:  # an entry that is not a sequence of nodes
            return False

    __hash__ = None  # equal to lists, which are unhashable

    def __repr__(self) -> str:
        head = ", ".join(str(self[i]) for i in range(min(len(self), 3)))
        more = ", ..." if len(self) > 3 else ""
        return f"PathTable([{head}{more}], walks={len(self)})"
