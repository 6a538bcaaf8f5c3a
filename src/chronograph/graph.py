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

    def dim_groups(self):
        """Dimension -> edge ids of that dimension, in graph order."""
        out = {}
        for e in self.edges:
            out.setdefault(self.dims[e], []).append(e)
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
    """Dependencies-first edge ordering, or None when the off-diagonal
    dependency digraph has a cycle.  Smallest index first among the ready set,
    so results are reproducible."""
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
    if len(order) != n:
        return None
    return tuple(order)


def _strongly_connected_components(n, adj):
    """Tarjan's algorithm, iterative.  Returns components as sorted tuples."""
    index = [None] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    components = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


def _shortest_cycle(component, adj):
    """Shortest directed cycle inside one strongly connected component.

    Every cycle is found by the BFS from its smallest member, so the BFS from
    s visits only members >= s, and it stops once the cycles it could still
    close are no shorter than the best one so far.  Starts run in ascending
    order and only a strictly shorter cycle replaces the best, so the witness
    is the first shortest cycle found from the smallest possible start: it is
    reproducible.  The returned list follows receives-from arcs: consecutive
    entries (cyclically) are (i, j) pairs of the pattern.
    """
    members = set(component)
    best = None
    for s in sorted(component):
        parent = {s: None}
        frontier = [s]
        length = 1  # of a cycle closed by an arc from the frontier to s
        found = None
        while frontier and found is None and (best is None
                                              or length < len(best)):
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w < s or w not in members:
                        continue
                    if w == s:
                        found = v
                        break
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
                if found is not None:
                    break
            frontier = nxt
            length += 1
        if found is None:
            continue
        path = [found]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()  # s ... found, following arcs forward
        best = path
    return tuple(best) if best is not None else None


def classify_solvability(pattern):
    """Classify a transmission pattern by how the coupled system can be solved.

    IVP_SEQUENCE: some edge ordering makes the pattern strictly block
    lower-triangular (pure initial value problems, solved in order).
    CAUCHY_SEQUENCE: lower-triangular achievable but diagonal blocks remain
    (each step is a single-interval problem with its own boundary coupling).
    GLOBAL_ONLY: a boundary-reflected loop forces a global solve; the witness
    cycle lists edges such that each receives from the next, cyclically.
    """
    _check_pattern(pattern)
    n = pattern.n
    ordering = _topological_ordering(pattern)
    has_diagonal = any(i == j for i, j in pattern.nonzero)
    if ordering is not None:
        category = CAUCHY_SEQUENCE if has_diagonal else IVP_SEQUENCE
        return SolvabilityReport(category, ordering=ordering)
    # receives-from adjacency, off-diagonal only
    adj = [[] for _ in range(n)]
    for i, j in sorted(pattern.nonzero):
        if i != j:
            adj[i].append(j)
    components = [c for c in _strongly_connected_components(n, adj)
                  if len(c) >= 2]
    first = min(components, key=min)
    cycle = _shortest_cycle(first, adj)
    return SolvabilityReport(GLOBAL_ONLY, blocking_cycle=cycle)


def pattern_of(B, graph, tol=0.0):
    """Sparsity pattern of a transmission operator over a graph's edge order.

    A block counts as nonzero when its max-abs entry exceeds `tol` (default
    exact zero).
    """
    import numpy as np

    if tol < 0:
        raise ValueError("tol must be nonnegative")
    pos = {e: k for k, e in enumerate(graph.edges)}
    nonzero = set()
    for (i, j), block in B.blocks.items():
        if np.max(np.abs(block)) > tol:
            nonzero.add((pos[i], pos[j]))
    return BlockPattern(len(graph.edges), frozenset(nonzero))
