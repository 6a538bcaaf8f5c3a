"""Problem statement for evolution equations on a time graph.

A problem bundles the graph, one square operator per edge, the block
transmission operator with its inhomogeneity g, a forcing description, and
per-edge step counts.  Hypothesis diagnostics (dissipativity margins,
transmission norm, monodromy conditioning) live here too; they mirror the
sufficient well-posedness conditions but never gate the solve.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import matfun
from .graph import TimeGraph

# Steps of an edge whose document or problem gives none.
DEFAULT_STEPS = 100


@dataclass(frozen=True)
class EdgeOperator:
    """The square matrix driving one edge: d/dt psi = A psi + f."""

    edge: object
    A: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=complex))


@dataclass(frozen=True)
class TransmissionOperator:
    """Block matrix coupling terminal to initial edge values; absent blocks are zero.

    blocks: (receiving edge id, sending edge id) -> dims[i] x dims[j] matrix.
    """

    blocks: dict

    def __post_init__(self):
        object.__setattr__(self, "blocks", {
            (i, j): np.asarray(m, dtype=complex)
            for (i, j), m in self.blocks.items()})

    def apply(self, graph, x):
        """B x over the stacked boundary space, one block at a time; no
        n x n matrix is formed."""
        off = graph.offsets()
        out = np.zeros(graph.size(), dtype=complex)
        for (i, j), m in self.blocks.items():
            out[off[i]:off[i] + graph.dims[i]] += \
                m @ x[off[j]:off[j] + graph.dims[j]]
        return out


def _local_offsets(graph, edges, pos):
    """Offsets of the edges' blocks stacked in graph order, and their total
    size."""
    out = {}
    size = 0
    for e in sorted(edges, key=pos.__getitem__):
        out[e] = size
        size += graph.dims[e]
    return out, size


def block_norm(graph, *block_sets):
    """2-norm of each block matrix over the stacked boundary space whose
    nonzero blocks are one of block_sets ((row edge, column edge) -> matrix,
    all on the keys of the first), as a tuple.

    Blocks that share a row or a column edge are joined into connected
    components, once for all sets.  Up to row and column permutations a
    matrix is the direct sum of the components' submatrices, so its norm is
    the largest of theirs; no n x n matrix is formed.  matfun.block_matrix
    holds each submatrix dense or sparse: a sparse one is normed by Lanczos,
    and a set's dense ones take one stacked SVD per shape.  A Lanczos
    iteration that does not converge raises ValueError rather than return a
    norm.
    """
    parent = {}

    def root(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in block_sets[0]:
        parent[root(("row", i))] = root(("col", j))
    components = {}
    for i, j in block_sets[0]:
        components.setdefault(root(("row", i)), []).append((i, j))
    pos = {e: k for k, e in enumerate(graph.edges)}
    by_shape = [{} for _ in block_sets]
    norms = [[] for _ in block_sets]
    for keys in components.values():
        r_off, rows = _local_offsets(graph, {i for i, _ in keys}, pos)
        c_off, cols = _local_offsets(graph, {j for _, j in keys}, pos)
        for blocks, dense, found in zip(block_sets, by_shape, norms):
            sub = matfun.block_matrix((rows, cols), [
                (r_off[i], c_off[j], blocks[(i, j)]) for i, j in keys])
            if isinstance(sub, np.ndarray):
                dense.setdefault(sub.shape, []).append(sub)
                continue
            norm = matfun.lanczos_sigma_max(sub)
            if not norm >= 0.0:
                raise ValueError(f"2-norm of a {rows} x {cols} block "
                                 f"component: ARPACK's Lanczos iteration "
                                 f"did not converge")
            found.append(norm)
    for dense, found in zip(by_shape, norms):
        found.extend(float(np.max(np.linalg.norm(np.stack(subs), 2,
                                                 axis=(1, 2))))
                     for subs in dense.values())
    return tuple(max(found, default=0.0) for found in norms)


@dataclass(frozen=True)
class ZeroForcing:
    pass


@dataclass(frozen=True)
class ConstantForcing:
    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value",
                          np.asarray(self.value, dtype=complex).reshape(-1))


@dataclass(frozen=True)
class SampledForcing:
    """Values at the edge's uniform grid nodes, read as piecewise linear."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Forcing:
    """Per-edge forcing; edges without an entry get zero forcing."""

    per_edge: dict

    @staticmethod
    def zero():
        return Forcing({})

    def spec_for(self, edge):
        return self.per_edge.get(edge, ZeroForcing())


@dataclass(frozen=True)
class TimeGraphProblem:
    graph: TimeGraph
    operators: tuple
    B: TransmissionOperator
    g: dict = field(default_factory=dict)
    forcing: Forcing = field(default_factory=Forcing.zero)
    steps: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        object.__setattr__(self, "g", {
            e: np.asarray(v, dtype=complex).reshape(-1)
            for e, v in self.g.items()})

        index = {}  # first operator per edge wins; validate reports duplicates
        for op in self.operators:
            index.setdefault(op.edge, op.A)
        object.__setattr__(self, "_operator_index", index)

    def operator(self, edge):
        try:
            return self._operator_index[edge]
        except KeyError:
            raise KeyError(f"no operator for edge {edge!r}") from None

    @cached_property
    def operator_groups(self):
        """Per dimension, in order of first appearance: (its edge ids in
        graph order, their operators as one (len(edges), d, d) stack)."""
        groups = {}
        for e in self.graph.edges:
            groups.setdefault(self.graph.dims[e], []).append(e)
        return tuple((edges, np.stack([self.operator(e) for e in edges]))
                     for edges in groups.values())

    def steps_for(self, edge):
        return int(self.steps.get(edge, DEFAULT_STEPS))

    def times(self, edge):
        K = self.steps_for(edge)
        return np.linspace(0.0, float(self.graph.lengths[edge]), K + 1)


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical counterparts of the sufficient well-posedness conditions."""

    dissipativity_margin: dict       # edge -> numerical abscissa of A_j
    B_norm: float
    commutator_norm: float           # || [blockdiag(A_j), B] ||
    monodromy_rcond: float
    sufficient_condition_met: bool
    epsilon: Optional[float]  # uniform decay margin when all abscissas < 0


def forcing_node_values(problem, edge, times):
    """Forcing samples at the given times.

    Sampled forcing is defined on the edge grid and evaluated piecewise
    linearly elsewhere, matching how the integrator treats it.
    """
    spec = problem.forcing.spec_for(edge)
    if isinstance(spec, ZeroForcing):
        return np.zeros((len(times), problem.graph.dims[edge]), dtype=complex)
    if isinstance(spec, ConstantForcing):
        return np.tile(spec.value, (len(times), 1))
    grid = problem.times(edge)
    return np.stack([np.interp(times, grid, v.real)
                     + 1j * np.interp(times, grid, v.imag)
                     for v in spec.values.T], axis=-1)


def validate(problem):
    """Structural consistency check; returns a list of violations, never raises."""
    v = []
    gr = problem.graph
    edges = set(gr.edges)
    if len(edges) != len(gr.edges):
        v.append("graph.edges: duplicate edge ids")
    for e in gr.edges:
        if e not in gr.lengths or not float(gr.lengths[e]) > 0:
            v.append(f"graph.lengths[{e!r}]: must be strictly positive")
        if e not in gr.dims or int(gr.dims[e]) < 1:
            v.append(f"graph.dims[{e!r}]: must be >= 1")
    seen = set()
    for op in problem.operators:
        if op.edge not in edges:
            v.append(f"operators[{op.edge!r}]: unknown edge")
            continue
        if op.edge in seen:
            v.append(f"operators[{op.edge!r}]: duplicate operator")
        seen.add(op.edge)
        d = gr.dims[op.edge]
        if op.A.shape != (d, d):
            v.append(f"operators[{op.edge!r}].A: shape {op.A.shape} != ({d}, {d})")
    for e in gr.edges:
        if e not in seen:
            v.append(f"operators[{e!r}]: missing")
    for (i, j), m in problem.B.blocks.items():
        if i not in edges or j not in edges:
            v.append(f"B[{i!r},{j!r}]: unknown edge pair")
            continue
        want = (gr.dims[i], gr.dims[j])
        if m.shape != want:
            v.append(f"B[{i!r},{j!r}]: shape {m.shape} != {want}")
    for e, vec in problem.g.items():
        if e not in edges:
            v.append(f"g[{e!r}]: unknown edge")
        elif vec.shape != (gr.dims[e],):
            v.append(f"g[{e!r}]: length {vec.shape[0]} != {gr.dims[e]}")
    for e, k in problem.steps.items():
        if e not in edges:
            v.append(f"steps[{e!r}]: unknown edge")
        elif int(k) < 1:
            v.append(f"steps[{e!r}]: must be >= 1")
    for e, spec in problem.forcing.per_edge.items():
        if e not in edges:
            v.append(f"forcing[{e!r}]: unknown edge")
            continue
        d = gr.dims[e]
        if isinstance(spec, ConstantForcing) and spec.value.shape != (d,):
            v.append(f"forcing[{e!r}]: constant length {spec.value.shape[0]} != {d}")
        if isinstance(spec, SampledForcing):
            want = (problem.steps_for(e) + 1, d)
            if spec.values.shape != want:
                v.append(f"forcing[{e!r}]: samples shape {spec.values.shape} != {want}")
    return v


def numerical_abscissa(A):
    """Largest eigenvalue of the Hermitian part (A + A*)/2; for a stack
    (k, n, n), an array of one per matrix."""
    A = np.asarray(A, dtype=complex)
    H = 0.5 * (A + np.swapaxes(A.conj(), -2, -1))
    top = np.linalg.eigvalsh(H)[..., -1]  # eigenvalues ascend
    return float(top) if top.ndim == 0 else top


def stack_edge_values(graph, mapping):
    """Concatenate per-edge vectors into a stacked boundary-space vector.

    Missing edges contribute zero blocks.
    """
    out = np.zeros(graph.size(), dtype=complex)
    off = graph.offsets()
    for e, vec in mapping.items():
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        out[off[e]:off[e] + graph.dims[e]] = vec
    return out


# Slack for the non-strict contraction branch; guards against roundoff in the
# singular value of an exactly norm-one transmission operator.
_NORM_ONE_SLACK = 1e-12


def diagnose(problem, mono):
    """Hypothesis diagnostics: dissipativity margins, ||B||, the commutator
    norm ||[blockdiag(A_j), B]||, monodromy conditioning.

    sufficient_condition_met reflects the two sufficient invertibility
    conditions: all margins <= 0 with ||B|| < 1, or margins uniformly negative
    with ||B|| <= 1.  It is informational; solvability itself rests on the
    monodromy conditioning, mono.rcond, the solver's
    sigma_min / max(1, sigma_max) of I - B E, read from the solve's
    Monodromy.
    """
    gr = problem.graph
    mu = {}
    for edges, A in problem.operator_groups:
        mu.update(zip(edges, numerical_abscissa(A).tolist()))
    mu = {e: mu[e] for e in gr.edges}
    # the commutator's (i, j) block is A_i B_ij - B_ij A_j: B's pattern
    op, blocks = problem.operator, problem.B.blocks
    B_norm, comm = block_norm(gr, blocks, {
        (i, j): op(i) @ m - m @ op(j) for (i, j), m in blocks.items()})
    worst = max(mu.values())
    met = (worst <= 0.0 and B_norm < 1.0) or \
          (worst < 0.0 and B_norm <= 1.0 + _NORM_ONE_SLACK)
    eps = -worst if worst < 0.0 else None
    return HypothesisReport(mu, B_norm, comm, mono.rcond, bool(met), eps)
