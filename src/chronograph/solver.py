"""Closed-form solver for Cauchy problems on time graphs.

The coupled system is reduced to one boundary solve: with E the
block-diagonal end-of-edge propagator and F the forced terminal integrals,
the initial values c satisfy (I - B E) c = g + B F.  Each edge is then
integrated independently by an exponential-trapezoidal recurrence that is
exact for the piecewise-linear forcing class, so the only nontrivial numerics
are the matrix exponentials and the single linear solve.

M = I - B E has the block pattern of I + B.  matfun.block_matrix holds it
dense or sparse by the one rule stated there, and matfun.factorize gives
its extreme singular values and its solve on either side.

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

from dataclasses import dataclass, replace

import numpy as np

from . import matfun
from .problem import (EdgeOperator, SampledForcing, ZeroForcing, block_norm,
                      forcing_node_values, stack_edge_values, validate)

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
    values, the propagators E_j, and solve, b -> M^{-1} b.

    M is a dense array or a CSC matrix (matfun.block_matrix), and sigma_min,
    sigma_max and solve come from matfun.factorize; solve is the one place
    the boundary solve tells the two apart.
    """

    M: object
    sigma_min: float
    sigma_max: float
    propagators: dict  # edge id -> e^{a_j A_j}
    solve: object

    @property
    def rcond(self):
        """sigma_min / max(1, sigma_max), as matfun.rcond_identity_scale."""
        return self.sigma_min / max(self.sigma_max, 1.0)

    def dense(self):
        """M as a dense array, for the O(n^3) cross-checks (picard_boundary,
        verify_mapping_properties); a solve never calls it."""
        return self.M if isinstance(self.M, np.ndarray) else self.M.toarray()


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
    """Reject overflowed stacks of per-edge matrices, naming the first
    offending edge and its length; what(edge) says what overflowed."""
    ok = np.ones(len(edges), dtype=bool)
    for stack in stacks:
        ok &= np.isfinite(stack).all(axis=(-2, -1))
    if not ok.all():
        e = edges[int(np.argmin(ok))]
        raise ValueError(f"{_edge_label(problem, e)}: {what(e)} is not finite")


def _edge_label(problem, e):
    return f"edge {e!r} (length {float(problem.graph.lengths[e])!r})"


def _finite(problem, e, what, x):
    """x if all its entries are finite, else ValueError naming what and,
    unless e is None, edge e."""
    if np.isfinite(x).all():
        return x
    where = "" if e is None else _edge_label(problem, e) + ": "
    raise ValueError(f"{where}{what} is not finite")


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

    Each edge's diagonal slot starts as the identity, and each nonzero
    block B_ij subtracts B_ij e^{a_j A_j} from slot (i, j), so E and B E
    are never formed as n x n matrices.  The propagators of all edges of
    one dimension come from one stacked exponential and are kept on the
    result.  matfun.block_matrix holds M dense or sparse, and
    matfun.factorize conditions it.
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
    slots = {(e, e): np.eye(gr.dims[e]) for e in gr.edges}
    for (i, j), m in problem.B.blocks.items():
        with np.errstate(over="ignore", invalid="ignore"):
            BE = m @ propagators[j]
        if not np.all(np.isfinite(BE)):
            raise ValueError(f"block ({j!r} -> {i!r}): B E is not finite; "
                             f"the block times the propagator of edge "
                             f"{j!r} overflows")
        slots[i, j] = slots.get((i, j), 0.0) - BE
    n = gr.size()
    M = matfun.block_matrix((n, n), [(off[i], off[j], m)
                                     for (i, j), m in slots.items()])
    sigma_min, sigma_max, solve = matfun.factorize(M)
    return Monodromy(M, sigma_min, sigma_max, propagators, solve)


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
            with np.errstate(over="ignore", invalid="ignore"):
                b = (f[:-1] @ (h[e] * P1_e).T
                     + (f[1:] - f[:-1]) @ (h[e] * P2_e).T)
            out[e] = EdgeRecurrence(Eh_e, _finite(
                problem, e, f"the forcing increment for h = {h[e]!r}", b), f)
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
    with np.errstate(over="ignore", invalid="ignore"):
        F = [_finite(problem, e, "the forced terminal value",
                     _scan(recurrences[e], np.zeros(gr.dims[e]))[-1])
             for e in gr.edges]
    return np.concatenate(F)


def _require_finite_boundary(problem, x, what):
    """Reject a non-finite stacked boundary-space vector, naming the first
    edge whose slice of it is not finite."""
    if not np.isfinite(x).all():
        gr = problem.graph
        off = gr.offsets()
        for e in gr.edges:
            _finite(problem, e, what, x[off[e]:off[e] + gr.dims[e]])


def solve_boundary(problem, mono, F):
    """Initial values on every edge: c = (I - B E)^{-1} (g + B F), by
    mono.solve, the dense LU or the sparse factor of matfun.factorize.

    mono.rcond, sigma_min / max(1, sigma_max) of I - B E, is the only
    conditioning gate; it bounds sigma_min / sigma_max from above, so no
    second estimate could refuse a system this one accepts.  A NaN rcond
    (a Lanczos iteration that failed) is refused too.  An overflowing
    right-hand side or solution names its first edge.
    """
    gr = problem.graph
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = stack_edge_values(gr, problem.g) + problem.B.apply(gr, F)
    _require_finite_boundary(problem, rhs,
                             "the boundary right-hand side g + B F")
    if not mono.rcond >= SINGULAR_RCOND:
        raise NotWellPosed(mono.rcond)
    with np.errstate(over="ignore", invalid="ignore"):
        c = mono.solve(rhs)
        if not np.isfinite(c).all():
            # 0 * inf in the triangular solves spreads an overflow to
            # unrelated entries.  Solving for rhs / s, with s a power of two
            # near max |rhs| (exact scaling, s finite), and scaling back
            # leaves only the entries that overflow.
            s = 2.0 ** (np.frexp(np.max(np.abs(rhs)))[1] - 1)
            c = mono.solve(rhs / s) * s
    _require_finite_boundary(problem, c,
                             "the initial value c of the boundary solve")
    return c


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
    along each edge; a term that overflows raises ValueError (_finite)."""
    inner = 0.0
    plus_sq = 0.0
    minus_sq = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for e in problem.graph.edges:
            sol = solutions[e]
            A = problem.operator(e)
            deriv = sol.states @ A.T + recurrences[e].f
            values = np.real(np.sum(np.conj(sol.states) * deriv, axis=1))
            h = sol.times[1] - sol.times[0] if len(sol.times) > 1 else 0.0
            integral = _composite_simpson(values, h)
            plus = float(np.sum(np.abs(sol.states[-1]) ** 2))
            minus = float(np.sum(np.abs(sol.states[0]) ** 2))
            _finite(problem, e, "an energy term", (integral, plus, minus))
            inner += integral
            plus_sq += plus
            minus_sq += minus
        return _finite(problem, None, "the energy defect",
                       abs(inner - 0.5 * (plus_sq - minus_sq)))


def _one_step_defect(problem, solutions, recurrences):
    """Max over nodes of ||x[k+1] - (Eh x[k] + b[k])|| / (1 + ||x[k]||).

    The scan forms each state from powers of Eh applied to the inputs; this
    applies Eh once to each finished state, so a fault in the scan's rounds
    or powers shows up here.
    """
    worst = 0.0
    for e, sol in solutions.items():
        rec = recurrences[e]
        X = sol.states
        defect = _finite(problem, e, "the one-step defect", np.linalg.norm(
            X[1:] - (X[:-1] @ rec.Eh.T + rec.b), axis=1))
        scale = _finite(problem, e, "the step defect's scale 1 + ||x[k]||",
                        1.0 + np.linalg.norm(X[:-1], axis=1))
        worst = max(worst, float(np.max(defect / scale)))
    return worst


def _boundary_residual(problem, solutions):
    gr = problem.graph
    minus = np.concatenate([solutions[e].states[0] for e in gr.edges])
    plus = np.concatenate([solutions[e].states[-1] for e in gr.edges])
    g = stack_edge_values(gr, problem.g)
    residual = _finite(problem, None, "the boundary residual", np.linalg.norm(
        minus - problem.B.apply(gr, plus) - g))
    g_norm = _finite(problem, None, "||g|| in the boundary residual",
                     np.linalg.norm(g))
    return float(residual / (1.0 + g_norm))


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
    solve's recurrences and attach residual diagnostics; a state or
    residual term that overflows raises ValueError naming it (_finite)."""
    _require_valid(problem)
    gr = problem.graph
    off = gr.offsets()
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.shape[0] != gr.size():
        raise ValueError(f"boundary vector length {c.shape[0]} != {gr.size()}")

    solutions = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for e in gr.edges:
            states = _scan(recurrences[e], c[off[e]:off[e] + gr.dims[e]])
            solutions[e] = EdgeSolution(e, problem.times(e), _finite(
                problem, e, "a propagated state", states))
        return SolveReport(
            solutions=solutions,
            edge_order=tuple(gr.edges),
            boundary_residual=_boundary_residual(problem, solutions),
            ode_residual=_one_step_defect(problem, solutions, recurrences),
            energy_defect=energy_defect_of(problem, solutions, recurrences),
            commutator_norm=_commutator_norm(problem),
            monodromy=mono,
            recurrences=recurrences,
        )


def solve(problem):
    """Full pipeline: monodromy, forced integrals, boundary solve, propagation.
    A refused allocation raises ValueError naming the largest edge."""
    try:
        mono = assemble_monodromy(problem)
        recurrences = edge_recurrences(problem)
        F = forced_terminal_integrals(problem, recurrences)
        c = solve_boundary(problem, mono, F)
        return propagate(problem, c, mono, recurrences)
    except MemoryError:
        gr = problem.graph
        size = {e: (problem.steps_for(e) + 1) * gr.dims[e] for e in gr.edges}
        e = max(gr.edges, key=size.__getitem__)
        raise ValueError(f"out of memory: the largest edge, {e!r}, has "
                         f"(steps + 1) x dim = {size[e]} state values") \
            from None


def resolvent_Dt(problem, lam):
    """Solve with every edge operator replaced by lam * I.

    This realizes the resolvent of the coupled time derivative at lam; it is
    singular exactly when lam hits the transmission operator's point spectrum.
    """
    gr = problem.graph
    ops = tuple(EdgeOperator(e, complex(lam) * np.eye(gr.dims[e]))
                for e in gr.edges)
    return solve(replace(problem, operators=ops))


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
