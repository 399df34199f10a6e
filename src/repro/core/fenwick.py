"""Fenwick (binary indexed) tree over non-negative integer weights.

The simulation engine needs two operations on a vector of per-state
weights, both on the hot path of every productive interaction:

* update the weight of one state in ``O(log N)``, and
* sample a state with probability proportional to its weight, which is a
  prefix-sum search, also ``O(log N)``.

Weights here are plain Python integers (pair counts), so all arithmetic
is exact — no floating point drift can bias the sampler.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, List, Sequence

__all__ = ["FenwickTree", "fill_tree"]


def fill_tree(tree: List[int], size: int, values: Sequence[int]) -> int:
    """(Re)build a raw Fenwick array in place; returns the total.

    ``tree`` must have ``size + 1`` entries; ``values`` may be shorter
    than ``size`` (missing slots count as zero — used for power-of-two
    padded trees, whose top node is then the total).  In-place filling
    matters: hot loops hold direct references to the list, so a resync
    must not swap the object out from under them.  Node ``p`` sums the
    ``p & -p`` values ending at slot ``p``; the nodes sharing one low
    bit ``L`` are every other block sum of width ``L``, and the width-2L
    block sums are pairwise sums of the width-L ones, so the fill is
    ``log2(size)`` strided slice assignments.
    """
    blocks = list(values)
    del blocks[size:]
    total = sum(blocks)
    blocks.extend([0] * (size - len(blocks)))
    tree[0] = 0
    low = 1
    while low <= size:
        tree[low::2 * low] = blocks[::2]
        blocks = list(map(add, blocks[::2], blocks[1::2]))
        low *= 2
    return total


class FenwickTree:
    """Prefix-sum tree over ``size`` slots of non-negative integers.

    Slots are indexed ``0..size-1``.  The tree stores the weights
    redundantly (``self._values``) so single-slot reads are O(1).
    """

    __slots__ = ("_size", "_tree", "_values", "_total")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"FenwickTree size must be >= 0, got {size}")
        self._size = size
        self._tree: List[int] = [0] * (size + 1)
        self._values: List[int] = [0] * size
        self._total = 0

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "FenwickTree":
        """Build a tree from an iterable of initial weights in O(N)."""
        values = list(values)
        tree = cls(len(values))
        tree._values = values
        tree._total = fill_tree(tree._tree, len(values), values)
        return tree

    @property
    def size(self) -> int:
        """Number of slots."""
        return self._size

    @property
    def total(self) -> int:
        """Sum of all weights (cached, O(1))."""
        return self._total

    def get(self, index: int) -> int:
        """Current weight of ``index`` (O(1))."""
        return self._values[index]

    def set(self, index: int, value: int) -> None:
        """Set slot ``index`` to ``value`` (O(log N))."""
        if value < 0:
            raise ValueError(f"Fenwick weights must be >= 0, got {value}")
        delta = value - self._values[index]
        if delta == 0:
            return
        self._values[index] = value
        self._total += delta
        pos = index + 1
        tree = self._tree
        size = self._size
        while pos <= size:
            tree[pos] += delta
            pos += pos & -pos

    def add(self, index: int, delta: int) -> None:
        """Add ``delta`` to slot ``index`` (O(log N))."""
        self.set(index, self._values[index] + delta)

    def prefix_sum(self, index: int) -> int:
        """Sum of weights of slots ``0..index-1`` (O(log N))."""
        total = 0
        tree = self._tree
        pos = index
        while pos > 0:
            total += tree[pos]
            pos -= pos & -pos
        return total

    def find(self, target: int) -> int:
        """Smallest index ``i`` with ``prefix_sum(i + 1) > target``.

        Equivalently: the slot selected by a weighted draw when
        ``target`` is uniform over ``[0, total)``.  Requires
        ``0 <= target < total``.
        """
        if not 0 <= target < self._total:
            raise ValueError(
                f"find target {target} outside [0, {self._total})"
            )
        pos = 0
        # Highest power of two <= size.
        bit = 1 << (self._size.bit_length() - 1) if self._size else 0
        tree = self._tree
        size = self._size
        while bit:
            nxt = pos + bit
            if nxt <= size and tree[nxt] <= target:
                target -= tree[nxt]
                pos = nxt
            bit >>= 1
        return pos

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        preview = self._values[:8]
        suffix = "..." if self._size > 8 else ""
        return f"FenwickTree(size={self._size}, total={self._total}, values={preview}{suffix})"
