"""The cubic routing graph ``G`` over lines of traps (paper §4.2, Figure 1).

Agents released to the extra state ``X`` must be spread roughly evenly
over the entrance gates of all ``m²`` lines.  The paper equips every
line with a "routing table" of three neighbour lines given by a cubic
graph ``G`` of diameter ``4⌈log m⌉`` built as follows:

1. start from ``G′``, a balanced binary tree with ``m² + 1`` vertices in
   which every parent has two children (so ``m²/2 + 1`` leaves, root of
   degree 2);
2. merge the root with one of the leaves into a single vertex;
3. add a cycle through all remaining leaves.

We realise ``G′`` as the standard heap-ordered complete binary tree on
vertices ``1..m²+1`` (children of ``i`` are ``2i`` and ``2i+1``); since
``m²+1`` is odd for even ``m``, every internal node has exactly two
children, matching the paper.  The merged leaf is the last one
(``m²+1``), folded into vertex 1.  With this layout the worked example
under Figure 1 is reproduced verbatim: for ``m² = 16``, line 1 has
neighbours ``l0 = 2``, ``l1 = 3``, ``l2 = 8``.

For ``num_vertices = 4`` (``m = 2``) the construction degenerates (only
two leaves remain for the "cycle"), so we substitute ``K₄`` — still
3-regular, connected, and of constant diameter, which is all the proofs
use.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from ..exceptions import ProtocolError

__all__ = ["RoutingGraph", "build_routing_graph"]


class RoutingGraph:
    """An (undirected, loop-free) 3-regular routing graph on ``1..V``.

    Vertices are 1-based to match the paper's line numbering.  Each
    vertex exposes exactly three neighbours ``l0 <= l1 <= l2`` (the
    routing table used by the §4 protocol).
    """

    def __init__(self, neighbours: Dict[int, Tuple[int, int, int]]) -> None:
        self._neighbours = dict(neighbours)
        self._num_vertices = len(neighbours)

    @property
    def num_vertices(self) -> int:
        """Number of vertices (lines)."""
        return self._num_vertices

    @property
    def vertices(self) -> range:
        """Vertices ``1..V`` (paper numbering)."""
        return range(1, self._num_vertices + 1)

    def neighbours(self, vertex: int) -> Tuple[int, int, int]:
        """The routing triple ``(l0, l1, l2)`` of ``vertex``."""
        return self._neighbours[vertex]

    def edges(self) -> Set[Tuple[int, int]]:
        """Undirected edge set as sorted pairs."""
        result: Set[Tuple[int, int]] = set()
        for vertex, nbrs in self._neighbours.items():
            for other in nbrs:
                result.add((min(vertex, other), max(vertex, other)))
        return result

    def is_cubic(self) -> bool:
        """True iff every vertex has three distinct neighbours."""
        return all(
            len(set(nbrs)) == 3 and vertex not in nbrs
            for vertex, nbrs in self._neighbours.items()
        )

    def is_connected(self) -> bool:
        """Breadth-first connectivity check."""
        return len(self._bfs_distances(1)) == self._num_vertices

    def diameter(self) -> int:
        """Exact diameter via BFS from every vertex (small graphs only)."""
        best = 0
        for vertex in self.vertices:
            distances = self._bfs_distances(vertex)
            if len(distances) != self._num_vertices:
                raise ProtocolError("routing graph is disconnected")
            best = max(best, max(distances.values()))
        return best

    def _bfs_distances(self, source: int) -> Dict[int, int]:
        distances = {source: 0}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            for other in self._neighbours[vertex]:
                if other not in distances:
                    distances[other] = distances[vertex] + 1
                    queue.append(other)
        return distances

    def __repr__(self) -> str:
        return f"RoutingGraph(vertices={self._num_vertices})"


def build_routing_graph(num_vertices: int) -> RoutingGraph:
    """Build the paper's graph ``G`` on ``num_vertices`` lines.

    ``num_vertices`` must be even (the construction needs ``V + 1`` odd)
    and at least 4.  ``V = 4`` yields ``K₄`` (see module docstring).
    """
    if num_vertices < 4:
        raise ProtocolError(
            f"routing graph needs at least 4 vertices, got {num_vertices}"
        )
    if num_vertices % 2 != 0:
        raise ProtocolError(
            f"routing graph construction needs an even vertex count, "
            f"got {num_vertices}"
        )
    if num_vertices == 4:
        neighbours = {
            1: (2, 3, 4),
            2: (1, 3, 4),
            3: (1, 2, 4),
            4: (1, 2, 3),
        }
        return RoutingGraph(neighbours)

    total = num_vertices + 1  # tree G' vertex count (odd)
    first_leaf = total // 2 + 1  # heap index of the first leaf
    merged_leaf = total  # folded into vertex 1

    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, num_vertices + 1)}

    def add_edge(u: int, v: int) -> None:
        adjacency[u].append(v)
        adjacency[v].append(u)

    # Tree edges, with the merged leaf redirected to vertex 1.
    for parent in range(1, first_leaf):
        for child in (2 * parent, 2 * parent + 1):
            target = 1 if child == merged_leaf else child
            add_edge(parent, target)

    # Cycle through the remaining leaves (first_leaf .. num_vertices).
    cycle = list(range(first_leaf, num_vertices + 1))
    for i, vertex in enumerate(cycle):
        add_edge(vertex, cycle[(i + 1) % len(cycle)])

    neighbours: Dict[int, Tuple[int, int, int]] = {}
    for vertex, nbrs in adjacency.items():
        if len(nbrs) != 3 or len(set(nbrs)) != 3 or vertex in nbrs:
            # Only V = 6 triggers this (parent of the merged leaf is a
            # child of the root); V = m² for even m never hits it.
            raise ProtocolError(
                f"construction degenerates at {num_vertices} vertices "
                f"(vertex {vertex} neighbours {sorted(nbrs)}); "
                "use an even square vertex count"
            )
        ordered = tuple(sorted(nbrs))
        neighbours[vertex] = ordered  # type: ignore[assignment]
    return RoutingGraph(neighbours)
