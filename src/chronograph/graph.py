"""Time-graph combinatorics: edge bookkeeping and solvability classification.

The graph carries no explicit vertices; all coupling information lives in the
block-sparsity pattern of the transmission operator.  Classification asks
whether that pattern can be permuted to block lower-triangular form, which is
what makes the coupled system solvable edge by edge.
"""

import heapq
from dataclasses import dataclass
from typing import Optional

IVP_SEQUENCE = "IVP_SEQUENCE"
CAUCHY_SEQUENCE = "CAUCHY_SEQUENCE"
GLOBAL_ONLY = "GLOBAL_ONLY"


@dataclass(frozen=True)
class TimeGraph:
    """Finite metric graph of time intervals.

    edges: ordered edge ids; lengths: edge id -> interval length;
    dims: edge id -> state dimension on that edge.
    """

    edges: tuple
    lengths: dict
    dims: dict

    def size(self):
        """Total dimension of the stacked boundary space (sum of edge dims)."""
        return sum(self.dims[e] for e in self.edges)

    def offsets(self):
        """Edge id -> start index of that edge's block in stacked vectors."""
        out = {}
        pos = 0
        for e in self.edges:
            out[e] = pos
            pos += self.dims[e]
        return out


@dataclass(frozen=True)
class BlockPattern:
    """Sparsity pattern of a transmission operator over n edges.

    (i, j) in nonzero means row-block i receives from column j's terminal
    value.  Indices are positions in the graph's edge order.
    """

    n: int
    nonzero: frozenset

    def __post_init__(self):
        object.__setattr__(self, "nonzero", frozenset(
            (int(i), int(j)) for i, j in self.nonzero))


@dataclass(frozen=True)
class SolvabilityReport:
    category: str  # IVP_SEQUENCE | CAUCHY_SEQUENCE | GLOBAL_ONLY
    ordering: Optional[tuple] = None
    blocking_cycle: Optional[tuple] = None


def _check_pattern(pattern):
    for i, j in pattern.nonzero:
        if not (0 <= i < pattern.n and 0 <= j < pattern.n):
            raise ValueError(f"pattern index ({i},{j}) outside [0,{pattern.n})")


def _topological_ordering(pattern):
    """Dependencies-first order of the edges that can be placed (Kahn's
    pass).  Smallest index first among the ready set, so results are
    reproducible.  Every edge is placed exactly when the off-diagonal
    dependency digraph has no cycle."""
    n = pattern.n
    indegree = [0] * n
    dependents = [[] for _ in range(n)]  # j -> rows i that receive from j
    for i, j in sorted(pattern.nonzero):
        if i == j:
            continue
        indegree[i] += 1
        dependents[j].append(i)
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        j = heapq.heappop(ready)
        order.append(j)
        for i in dependents[j]:
            indegree[i] -= 1
            if indegree[i] == 0:
                heapq.heappush(ready, i)
    return tuple(order)


def _cycle_among(waiting, pattern):
    """The loop that blocks the smallest edge the ordering could not place.

    A waiting edge's in-degree never reached zero, so it still receives from
    a waiting edge: the walk from the smallest waiting edge to its smallest
    waiting sender, and on, must repeat an edge.  The loop it closes is
    listed from its smallest member; each entry receives from the next,
    cyclically.
    """
    sender = {}
    for i, j in pattern.nonzero:
        if i != j and i in waiting and j in waiting:
            sender[i] = min(sender.get(i, j), j)
    v = min(waiting)
    position = {}
    walk = []
    while v not in position:
        position[v] = len(walk)
        walk.append(v)
        v = sender[v]
    loop = walk[position[v]:]
    k = loop.index(min(loop))
    return tuple(loop[k:] + loop[:k])


def classify_solvability(pattern):
    """Classify a transmission pattern by how the coupled system can be solved.

    IVP_SEQUENCE: some edge ordering makes the pattern strictly block
    lower-triangular (pure initial value problems, solved in order).
    CAUCHY_SEQUENCE: lower-triangular achievable but diagonal blocks remain
    (each step is a single-interval problem with its own boundary coupling).
    GLOBAL_ONLY: the ordering stalls on a boundary-reflected loop, which
    forces a global solve.  The witness cycle is the loop that blocks the
    smallest edge the ordering cannot place, listed from its smallest member
    so that each entry receives from the next, cyclically.
    """
    _check_pattern(pattern)
    ordering = _topological_ordering(pattern)
    if len(ordering) < pattern.n:
        waiting = set(range(pattern.n)) - set(ordering)
        return SolvabilityReport(GLOBAL_ONLY,
                                 blocking_cycle=_cycle_among(waiting, pattern))
    has_diagonal = any(i == j for i, j in pattern.nonzero)
    category = CAUCHY_SEQUENCE if has_diagonal else IVP_SEQUENCE
    return SolvabilityReport(category, ordering=ordering)


def pattern_of(B, graph):
    """Sparsity pattern of a transmission operator over a graph's edge order.

    A block counts as nonzero when any of its entries is nonzero.
    """
    pos = {e: k for k, e in enumerate(graph.edges)}
    nonzero = set()
    for (i, j), block in B.items():
        if block.any():
            nonzero.add((pos[i], pos[j]))
    return BlockPattern(len(graph.edges), frozenset(nonzero))
