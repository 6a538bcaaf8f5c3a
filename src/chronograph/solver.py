"""Closed-form solver for Cauchy problems on time graphs.

The coupled system is reduced to one dense boundary solve: with E the
block-diagonal end-of-edge propagator and F the forced terminal integrals,
the initial values c satisfy (I - B E) c = g + B F.  Each edge is then
integrated independently by an exponential-trapezoidal recurrence that is
exact for the piecewise-linear forcing class, so the only nontrivial numerics
are the matrix exponentials and the single linear solve.

On an edge with K steps of size h the recurrence is affine,
x[k+1] = e^{hA} x[k] + b[k], with increments
b[k] = h phi1(hA) f[k] + h phi2(hA) (f[k+1] - f[k]).  The step operators and
increments are computed once per edge and solve.  The recurrence itself runs
as a Hillis-Steele prefix scan (Blelloch, "Prefix sums and their
applications", 1990): ceil(log2(K + 1)) vectorized rounds
x[m:] += x[:-m] @ (e^{mhA})^T for m = 1, 2, 4, ..., with no power of e^{hA}
beyond the K-th ever formed.  The reported ode residual compares the scan's
states with one sequential step of the recurrence at every node, so it checks
the scan's arithmetic rather than repeating it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from . import matfun
from .problem import (EdgeOperator, SampledForcing, TimeGraphProblem,
                      ZeroForcing, block_norm, forcing_node_values,
                      stack_edge_values, validate)

MILD = "MILD"
STRONG = "STRONG"
CLASSICAL = "CLASSICAL"

# rcond below this: refuse to solve.  Between this and ILL_CONDITIONED_RCOND:
# solve, but flag the report.
SINGULAR_RCOND = 1e-14
ILL_CONDITIONED_RCOND = 1e-8


class NotWellPosed(Exception):
    """The boundary operator I - B E is numerically singular."""

    def __init__(self, rcond, stage=None):
        where = "" if stage is None else f" (stage {stage})"
        super().__init__(
            f"monodromy operator numerically singular{where}: rcond={rcond:.3e}")
        self.rcond = rcond
        self.stage = stage


@dataclass(frozen=True)
class Monodromy:
    """M = I - B E with E = blockdiag(e^{a_j A_j}), M's extreme singular
    values, and the propagators E_j."""

    M: np.ndarray
    sigma_min: float
    sigma_max: float
    propagators: dict  # edge id -> e^{a_j A_j}

    @property
    def rcond(self):
        """sigma_min / max(1, sigma_max), as matfun.rcond_identity_scale."""
        return self.sigma_min / max(self.sigma_max, 1.0)


@dataclass(frozen=True)
class EdgeSolution:
    edge: object
    times: np.ndarray   # uniform, 0 .. a_j inclusive
    states: np.ndarray  # (steps + 1, dim), states[0] = c


@dataclass(frozen=True)
class SolveReport:
    solutions: dict                  # edge id -> EdgeSolution
    edge_order: tuple
    boundary_residual: float         # ||psi_- - B psi_+ - g|| / (1 + ||g||)
    ode_residual: float              # max scaled one-step recurrence defect
    energy_defect: float
    commutator_norm: float           # || [blockdiag(A_j), B] ||, informational
    monodromy: Monodromy             # the solve's boundary system
    recurrences: dict                # edge id -> EdgeRecurrence

    @property
    def monodromy_rcond(self):
        """The boundary system's conditioning, read from its Monodromy."""
        return self.monodromy.rcond

    @property
    def ill_conditioned(self):
        """Solved, but with rcond below ILL_CONDITIONED_RCOND."""
        return bool(self.monodromy.rcond < ILL_CONDITIONED_RCOND)

    def psi_minus(self):
        return np.concatenate(
            [self.solutions[e].states[0] for e in self.edge_order])


def _require_valid(problem):
    violations = validate(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))


def _require_finite(problem, edges, what, *stacks):
    """Reject an overflowed stack of per-edge matrices, naming the first
    offending edge and its length; what(edge) says what overflowed."""
    ok = np.ones(len(edges), dtype=bool)
    for stack in stacks:
        ok &= np.isfinite(stack).all(axis=(-2, -1))
    if not ok.all():
        e = edges[int(np.argmin(ok))]
        raise ValueError(f"edge {e!r} (length "
                         f"{float(problem.graph.lengths[e])!r}): "
                         f"{what(e)} is not finite")


def _exponents(problem, factor, what):
    """Per dim group: (edge ids, stack of factor[e] * A_e), each product
    checked finite before it reaches an exponential."""
    out = []
    for edges in problem.graph.dim_groups().values():
        scale = np.array([factor[e] for e in edges], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            S = scale[:, None, None] * problem.operator_stack(edges)
        _require_finite(problem, edges, what, S)
        out.append((edges, S))
    return out


def assemble_monodromy(problem):
    """The boundary operator M = I - B E and its conditioning.

    M starts as the identity, and each nonzero block B_ij subtracts
    B_ij e^{a_j A_j} from its (i, j) slot, so E and B E are never formed as
    n x n matrices.  The propagators of all edges of one dimension come from
    one stacked exponential and are kept on the result; the SVD of M here
    is the only n x n decomposition of a solve.
    """
    _require_valid(problem)
    gr = problem.graph
    off = gr.offsets()
    propagators = {}
    for edges, tA in _exponents(problem, gr.lengths,
                                lambda e: "the exponent length A"):
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = matfun.expm(tA)
        _require_finite(problem, edges, lambda e: "the propagator "
                        "e^(length A)", blocks)
        propagators.update(zip(edges, blocks))
    M = np.eye(gr.size(), dtype=complex)
    for (i, j), m in problem.B.blocks.items():
        with np.errstate(over="ignore", invalid="ignore"):
            BE = m @ propagators[j]
        if not np.all(np.isfinite(BE)):
            raise ValueError(f"block ({j!r} -> {i!r}): B E is not finite; "
                             f"the block times the propagator of edge "
                             f"{j!r} overflows")
        M[off[i]:off[i] + gr.dims[i], off[j]:off[j] + gr.dims[j]] -= BE
    sv = np.linalg.svd(M, compute_uv=False)
    return Monodromy(M, float(sv[-1]), float(sv[0]), propagators)


@dataclass(frozen=True)
class EdgeRecurrence:
    """One edge's recurrence x[k+1] = Eh x[k] + b[k]."""

    Eh: np.ndarray  # e^{hA}
    b: np.ndarray   # (steps, dim) increments from the forcing
    f: np.ndarray   # (steps + 1, dim) forcing at the grid nodes


def edge_recurrences(problem):
    """Step operator, increments and node forcing per edge: edge id ->
    EdgeRecurrence.

    The (e^{hA}, phi1(hA), phi2(hA)) triples of all edges of one dimension
    come from one stacked augmented exponential.  The forcing is sampled
    here, once per edge and solve, and every later consumer reads it.
    """
    gr = problem.graph
    h = {e: float(gr.lengths[e]) / problem.steps_for(e) for e in gr.edges}
    out = {}
    for edges, hA in _exponents(problem, h, lambda e: f"the exponent h A "
                                f"for h = {h[e]!r}"):
        with np.errstate(over="ignore", invalid="ignore"):
            Eh, P1, P2 = matfun.expm_phi12(hA)
        _require_finite(problem, edges, lambda e: f"a step operator for "
                        f"h = {h[e]!r}", Eh, P1, P2)
        for e, Eh_e, P1_e, P2_e in zip(edges, Eh, P1, P2):
            f = forcing_node_values(problem, e)
            b = (f[:-1] @ (h[e] * P1_e).T
                 + (f[1:] - f[:-1]) @ (h[e] * P2_e).T)
            out[e] = EdgeRecurrence(Eh_e, b, f)
    return {e: out[e] for e in gr.edges}


def _scan(rec, start):
    """States x[0] = start, x[k+1] = Eh x[k] + b[k] by a Hillis-Steele scan.

    After the round with offset m, row k holds the sum over the last 2m
    inputs of e^{(k-j)hA} y[j], where y = (start, b[0], ..., b[K-1]).
    """
    Eh, b = rec.Eh, rec.b
    K = len(b)
    x = np.empty((K + 1, Eh.shape[0]), dtype=complex)
    x[0] = start
    x[1:] = b
    power = Eh
    m = 1
    while m <= K:
        x[m:] += x[:-m] @ power.T
        m *= 2
        if m <= K:
            power = power @ power
    return x


def forced_terminal_integrals(problem, recurrences):
    """Stacked terminal values of the forced-only flow started from zero.

    Componentwise this is the convolution of the edge propagator with the
    forcing over the whole edge, evaluated by the exact recurrences (from
    edge_recurrences) that the propagation uses.
    """
    _require_valid(problem)
    gr = problem.graph
    return np.concatenate([_scan(recurrences[e], np.zeros(gr.dims[e]))[-1]
                           for e in gr.edges])


def solve_boundary(problem, mono, F):
    """Initial values on every edge: c = (I - B E)^{-1} (g + B F).

    mono.rcond, sigma_min / max(1, sigma_max) of I - B E, is the only
    conditioning gate; it bounds sigma_min / sigma_max from above, so no
    second estimate could refuse a system this one accepts.
    """
    g = stack_edge_values(problem.graph, problem.g)
    rhs = g + problem.B.apply(problem.graph, F)
    if mono.rcond < SINGULAR_RCOND:
        raise NotWellPosed(mono.rcond)
    return la.solve(mono.M, rhs)


def _composite_simpson(values, h):
    """Composite Simpson on uniform nodes; odd interval counts end with the
    3/8 rule so the order stays four.  A single interval falls back to the
    trapezoid."""
    n = len(values) - 1
    if n <= 0:
        return 0.0
    if n == 1:
        return h * 0.5 * (values[0] + values[1])
    stop = n if n % 2 == 0 else n - 3
    total = h / 3.0 * (np.sum(values[0:stop:2])
                       + 4.0 * np.sum(values[1:stop:2])
                       + np.sum(values[2:stop + 1:2]))
    if stop != n:
        total += 3.0 * h / 8.0 * (values[n - 3] + 3.0 * values[n - 2]
                                  + 3.0 * values[n - 1] + values[n])
    return total


def energy_defect_of(problem, solutions, recurrences):
    """|Re<psi', psi> - (||psi_+||^2 - ||psi_-||^2)/2| with psi' = A psi + f
    at the nodes (f from the solve's recurrences) and composite Simpson
    along each edge."""
    inner = 0.0
    plus_sq = 0.0
    minus_sq = 0.0
    for e in problem.graph.edges:
        sol = solutions[e]
        A = problem.operator(e)
        deriv = sol.states @ A.T + recurrences[e].f
        values = np.real(np.sum(np.conj(sol.states) * deriv, axis=1))
        h = sol.times[1] - sol.times[0] if len(sol.times) > 1 else 0.0
        inner += _composite_simpson(values, h)
        plus_sq += float(np.sum(np.abs(sol.states[-1]) ** 2))
        minus_sq += float(np.sum(np.abs(sol.states[0]) ** 2))
    return abs(inner - 0.5 * (plus_sq - minus_sq))


def _one_step_defect(solutions, recurrences):
    """Max over nodes of ||x[k+1] - (Eh x[k] + b[k])|| / (1 + ||x[k]||).

    The scan forms each state from powers of Eh applied to the inputs; this
    applies Eh once to each finished state, so a fault in the scan's rounds
    or powers shows up here.
    """
    worst = 0.0
    for e, sol in solutions.items():
        rec = recurrences[e]
        X = sol.states
        defect = np.linalg.norm(X[1:] - (X[:-1] @ rec.Eh.T + rec.b), axis=1)
        scale = 1.0 + np.linalg.norm(X[:-1], axis=1)
        worst = max(worst, float(np.max(defect / scale)))
    return worst


def _boundary_residual(problem, solutions):
    gr = problem.graph
    minus = np.concatenate([solutions[e].states[0] for e in gr.edges])
    plus = np.concatenate([solutions[e].states[-1] for e in gr.edges])
    g = stack_edge_values(gr, problem.g)
    return float(np.linalg.norm(minus - problem.B.apply(gr, plus) - g)
                 / (1.0 + np.linalg.norm(g)))


def _commutator_norm(problem):
    """||[blockdiag(A_j), B]||_2.  The commutator's (i, j) block is
    A_i B_ij - B_ij A_j, so it has B's block pattern and its norm is taken
    block-sparsely."""
    op = problem.operator
    return block_norm(problem.graph, {
        (i, j): op(i) @ m - m @ op(j)
        for (i, j), m in problem.B.blocks.items()})


def propagate(problem, c, mono, recurrences):
    """Integrate every edge from the given stacked initial values with the
    solve's recurrences and attach residual diagnostics."""
    _require_valid(problem)
    gr = problem.graph
    off = gr.offsets()
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.shape[0] != gr.size():
        raise ValueError(f"boundary vector length {c.shape[0]} != {gr.size()}")

    solutions = {}
    for e in gr.edges:
        states = _scan(recurrences[e], c[off[e]:off[e] + gr.dims[e]])
        solutions[e] = EdgeSolution(e, problem.times(e), states)
    return SolveReport(
        solutions=solutions,
        edge_order=tuple(gr.edges),
        boundary_residual=_boundary_residual(problem, solutions),
        ode_residual=_one_step_defect(solutions, recurrences),
        energy_defect=energy_defect_of(problem, solutions, recurrences),
        commutator_norm=_commutator_norm(problem),
        monodromy=mono,
        recurrences=recurrences,
    )


def solve(problem):
    """Full pipeline: monodromy, forced integrals, boundary solve, propagation."""
    mono = assemble_monodromy(problem)
    recurrences = edge_recurrences(problem)
    F = forced_terminal_integrals(problem, recurrences)
    c = solve_boundary(problem, mono, F)
    return propagate(problem, c, mono, recurrences)


def resolvent_Dt(problem, lam):
    """Solve with every edge operator replaced by lam * I.

    This realizes the resolvent of the coupled time derivative at lam; it is
    singular exactly when lam hits the transmission operator's point spectrum.
    """
    gr = problem.graph
    ops = tuple(EdgeOperator(e, complex(lam) * np.eye(gr.dims[e]))
                for e in gr.edges)
    shifted = TimeGraphProblem(gr, ops, problem.B, dict(problem.g),
                               problem.forcing, dict(problem.steps))
    return solve(shifted)


def solution_grade(problem, report=None):
    """Regularity grade of the solved problem: MILD, STRONG, or CLASSICAL.

    Constant (including zero) forcing is continuous, and finite samples on a
    uniform grid have bounded one-sided difference quotients, so both grade as
    CLASSICAL.  Non-finite forcing data degrades to STRONG when the residuals
    are finite, else MILD.  Each forcing spec's own data is tested, so no
    forcing is sampled here.  Reported, not proved.
    """
    specs = [problem.forcing.spec_for(e) for e in problem.graph.edges]
    data = [spec.values if isinstance(spec, SampledForcing) else spec.value
            for spec in specs if not isinstance(spec, ZeroForcing)]
    if all(np.all(np.isfinite(d)) for d in data):
        return CLASSICAL
    if report is None or (np.isfinite(report.boundary_residual)
                          and np.isfinite(report.ode_residual)):
        return STRONG
    return MILD
