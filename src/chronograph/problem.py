"""Problem statement for evolution equations on a time graph.

A problem bundles the graph, one square operator per edge, the block
transmission operator with its inhomogeneity g, a forcing description, and
per-edge step counts.  Hypothesis diagnostics (dissipativity margins,
transmission norm, monodromy conditioning) live here too; they mirror the
sufficient well-posedness conditions but never gate the solve.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matfun
from .graph import TimeGraph


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

    def assemble(self, graph):
        """Dense matrix over the stacked boundary space, graph edge order."""
        off = graph.offsets()
        n = graph.size()
        B = np.zeros((n, n), dtype=complex)
        for (i, j), m in self.blocks.items():
            B[off[i]:off[i] + graph.dims[i], off[j]:off[j] + graph.dims[j]] = m
        return B

    def norm(self, graph):
        """Operator 2-norm (largest singular value) of the assembled matrix."""
        return float(np.linalg.norm(self.assemble(graph), 2))


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

    per_edge: dict = field(default_factory=dict)

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

    def operator(self, edge):
        for op in self.operators:
            if op.edge == edge:
                return op.A
        raise KeyError(f"no operator for edge {edge!r}")

    def steps_for(self, edge):
        return int(self.steps.get(edge, 100))

    def times(self, edge):
        K = self.steps_for(edge)
        return np.linspace(0.0, float(self.graph.lengths[edge]), K + 1)


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical counterparts of the sufficient well-posedness conditions."""

    dissipativity_margin: dict       # edge -> numerical abscissa of A_j
    B_norm: float
    monodromy_rcond: float
    sufficient_condition_met: bool
    epsilon: Optional[float] = None  # uniform decay margin when all abscissas < 0


def forcing_node_values(problem, edge, times=None):
    """Forcing samples at the given times (default: the edge's own grid).

    Sampled forcing is defined on the edge grid and evaluated piecewise
    linearly elsewhere, matching how the integrator treats it.
    """
    if times is None:
        times = problem.times(edge)
    times = np.asarray(times, dtype=float)
    d = problem.graph.dims[edge]
    spec = problem.forcing.spec_for(edge)
    if isinstance(spec, ZeroForcing):
        return np.zeros((len(times), d), dtype=complex)
    if isinstance(spec, ConstantForcing):
        return np.tile(spec.value, (len(times), 1))
    grid = problem.times(edge)
    vals = spec.values
    out = np.empty((len(times), d), dtype=complex)
    for col in range(d):
        out[:, col] = (np.interp(times, grid, vals[:, col].real)
                       + 1j * np.interp(times, grid, vals[:, col].imag))
    return out


def validate(problem):
    """Structural consistency check; returns a list of violations, never raises."""
    v = []
    gr = problem.graph
    if len(set(gr.edges)) != len(gr.edges):
        v.append("graph.edges: duplicate edge ids")
    for e in gr.edges:
        if e not in gr.lengths or not float(gr.lengths[e]) > 0:
            v.append(f"graph.lengths[{e!r}]: must be strictly positive")
        if e not in gr.dims or int(gr.dims[e]) < 1:
            v.append(f"graph.dims[{e!r}]: must be >= 1")
    seen = set()
    for op in problem.operators:
        if op.edge not in gr.edges:
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
        if i not in gr.edges or j not in gr.edges:
            v.append(f"B[{i!r},{j!r}]: unknown edge pair")
            continue
        want = (gr.dims[i], gr.dims[j])
        if m.shape != want:
            v.append(f"B[{i!r},{j!r}]: shape {m.shape} != {want}")
    for e, vec in problem.g.items():
        if e not in gr.edges:
            v.append(f"g[{e!r}]: unknown edge")
        elif vec.shape != (gr.dims[e],):
            v.append(f"g[{e!r}]: length {vec.shape[0]} != {gr.dims[e]}")
    for e, k in problem.steps.items():
        if e not in gr.edges:
            v.append(f"steps[{e!r}]: unknown edge")
        elif int(k) < 1:
            v.append(f"steps[{e!r}]: must be >= 1")
    for e, spec in problem.forcing.per_edge.items():
        if e not in gr.edges:
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
    """Largest eigenvalue of the Hermitian part (A + A*)/2."""
    A = np.asarray(A, dtype=complex)
    return float(np.max(np.linalg.eigvalsh(0.5 * (A + A.conj().T))))


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


def assemble_K_vector(problem, which, values=None):
    """Stack per-edge boundary data into a single vector, graph edge order.

    which = "g" uses the problem's inhomogeneity (zero where unset);
    which = "minus_traces" stacks caller-supplied initial traces passed via
    `values` (the problem itself carries no solution traces).
    """
    if which == "g":
        return stack_edge_values(problem.graph, problem.g)
    if which == "minus_traces":
        if values is None:
            raise ValueError("minus_traces stacking needs per-edge values")
        return stack_edge_values(problem.graph, values)
    raise ValueError(f"unknown selector {which!r}")


# Slack for the non-strict contraction branch; guards against roundoff in the
# singular value of an exactly norm-one transmission operator.
_NORM_ONE_SLACK = 1e-12


def diagnose(problem):
    """Hypothesis diagnostics: dissipativity margins, ||B||, monodromy conditioning.

    sufficient_condition_met reflects the two sufficient invertibility
    conditions: all margins <= 0 with ||B|| < 1, or margins uniformly negative
    with ||B|| <= 1.  It is informational; solvability itself rests on the
    monodromy conditioning, which has the solver's definition
    sigma_min / max(1, sigma_max) of I - B E.
    """
    gr = problem.graph
    mu = {e: numerical_abscissa(problem.operator(e)) for e in gr.edges}
    B_norm = problem.B.norm(gr)
    off = gr.offsets()
    n = gr.size()
    E = np.zeros((n, n), dtype=complex)
    for e in gr.edges:
        s = off[e]
        d = gr.dims[e]
        E[s:s + d, s:s + d] = matfun.expm(problem.operator(e), gr.lengths[e])
    M = np.eye(n, dtype=complex) - problem.B.assemble(gr) @ E
    rcond = matfun.rcond_identity_scale(M)
    worst = max(mu.values())
    met = (worst <= 0.0 and B_norm < 1.0) or \
          (worst < 0.0 and B_norm <= 1.0 + _NORM_ONE_SLACK)
    eps = -worst if worst < 0.0 else None
    return HypothesisReport(mu, B_norm, rcond, bool(met), eps)
