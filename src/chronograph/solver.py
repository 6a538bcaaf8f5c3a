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

Everything after the boundary solve runs on edge chunks: maximal runs of
consecutive edges, in graph order, that share (dim, steps), cut so that a
chunk's state stack, edges x (steps + 1) x dim, holds at most CHUNK_VALUES
values.  edge_recurrences works the layout out once and returns one Chunk
per chunk, the one per-edge record of a solve: its operators, step
operators, increments, node forcing and grid times stacked along a
leading edge axis; propagate adds one state stack per chunk.  The scan,
the forced terminal values, propagation, the one-step and energy
residuals, the boundary residual and the CSV writer each make one pass
per chunk over those stacks, and none re-stacks them.  A report's
per-edge EdgeSolution entries are views into them.  Batching pays on
many small edges, where per-edge numpy calls dominate; on a few long
edges a wide stack only slows the scan's products down, so an edge that
alone fills the budget is a chunk of one, with exactly the per-edge
arithmetic.  Each slice of a stacked product is the product of that edge
alone, so outputs do not depend on the chunking.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import groupby

import numpy as np

from . import matfun
from .problem import (ConstantForcing, EdgeOperator, SampledForcing,
                      ZeroForcing, stack_edge_values, validate)

MILD = "MILD"
STRONG = "STRONG"
CLASSICAL = "CLASSICAL"

# rcond below this: refuse to solve.  Between this and ILL_CONDITIONED_RCOND:
# solve, but flag the report.
SINGULAR_RCOND = 1e-14
ILL_CONDITIONED_RCOND = 1e-8
# State values per edge chunk, edges x (steps + 1) x dim; an edge with more
# is a chunk of its own (the cut-over is measured in CHANGES.md).
CHUNK_VALUES = 2 ** 14


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
    edge_order: tuple
    boundary_residual: float         # ||psi_- - B psi_+ - g|| / (1 + ||g||)
    ode_residual: float              # max scaled one-step recurrence defect
    energy_defect: float
    monodromy: Monodromy             # the solve's boundary system
    chunks: tuple                    # Chunk per edge chunk, in graph order
    states: tuple                    # per chunk: (edges, steps + 1, dim)

    @cached_property
    def solutions(self):
        """edge id -> EdgeSolution, views into the chunk stacks."""
        return {e: EdgeSolution(e, t, x)
                for chunk, X in zip(self.chunks, self.states)
                for e, t, x in zip(chunk.edges, chunk.times, X)}

    @property
    def monodromy_rcond(self):
        """The boundary system's conditioning, read from its Monodromy."""
        return self.monodromy.rcond

    @property
    def ill_conditioned(self):
        """Solved, but with rcond below ILL_CONDITIONED_RCOND."""
        return bool(self.monodromy.rcond < ILL_CONDITIONED_RCOND)

    def psi_minus(self):
        return np.concatenate([X[:, 0].reshape(-1) for X in self.states])


def edge_chunks(problem):
    """The problem's edge chunks, lists of edge ids in graph order: maximal
    runs of consecutive edges that share (steps + 1, dim), each cut into
    pieces of as many edges as fit in CHUNK_VALUES state values, and at
    least one."""
    gr = problem.graph
    runs = []
    for (rows, cols), run in groupby(
            gr.edges, key=lambda e: (problem.steps_for(e) + 1, gr.dims[e])):
        run = list(run)
        size = max(1, CHUNK_VALUES // (rows * cols))
        runs.extend(run[k:k + size] for k in range(0, len(run), size))
    return runs


def _mT(stack):
    """Each matrix of the stack transposed."""
    return stack.swapaxes(-1, -2)


def _require_valid(problem):
    violations = validate(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))


def _require_finite(problem, edges, *checks):
    """Reject overflowed per-edge stacks.  Each check is a pair (what,
    stack): axis 0 of the stack runs over the edges, and what, a string or
    a function of the edge, says what overflowed.  Names the first edge,
    with its length, that has a non-finite entry in any stack, and the
    first check that fails on it."""
    if all(np.isfinite(stack).all() for _, stack in checks):
        return
    bad = np.stack([~np.isfinite(stack).reshape(len(edges), -1).all(axis=1)
                    for _, stack in checks])
    k = int(np.argmax(bad.any(axis=0)))
    what = checks[int(np.argmax(bad[:, k]))][0]
    e = edges[k]
    raise ValueError(f"{_edge_label(problem, e)}: "
                     f"{what(e) if callable(what) else what} is not finite")


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
    """Per dim group of problem.operator_groups: (edge ids, stack of A_e,
    stack of factor[e] * A_e), each product checked finite before it
    reaches an exponential."""
    out = []
    for edges, A in problem.operator_groups:
        scale = np.array([factor[e] for e in edges], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            S = scale[:, None, None] * A
        _require_finite(problem, edges, (what, S))
        out.append((edges, A, S))
    return out


def _per_distinct(fn, S):
    """fn(S) for a stack S of matrices, with fn evaluated on each distinct
    matrix once and the results scattered back; fn returns a stack or a
    tuple of stacks.  Matrices are told apart by their exact bytes:
    np.unique would merge -0.0 with 0.0.  scipy exponentiates each matrix
    of a stack on its own, so for expm and expm_phi12 this is fn(S) bit for
    bit."""
    slot = {}
    first = []
    inverse = []
    for k, m in enumerate(S):
        key = m.tobytes()
        if key not in slot:
            slot[key] = len(first)
            first.append(k)
        inverse.append(slot[key])
    out = fn(S[first])
    if isinstance(out, tuple):
        return tuple(x[inverse] for x in out)
    return out[inverse]


def assemble_monodromy(problem):
    """The boundary operator M = I - B E and its conditioning.

    Each edge's diagonal slot starts as the identity, and each nonzero
    block B_ij subtracts B_ij e^{a_j A_j} from slot (i, j), so E and B E
    are never formed as n x n matrices.  The propagators of all edges of
    one dimension come from one stacked exponential, taken once per
    distinct exponent, and are kept on the result.  matfun.block_matrix
    holds M dense or sparse, and matfun.factorize conditions it.
    """
    _require_valid(problem)
    gr = problem.graph
    off = gr.offsets()
    propagators = {}
    for edges, _, tA in _exponents(problem, gr.lengths,
                                lambda e: "the exponent length A"):
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = _per_distinct(matfun.expm, tA)
        _require_finite(problem, edges,
                        ("the propagator e^(length A)", blocks))
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
class Chunk:
    """One edge chunk's operators, recurrences x[k+1] = Eh x[k] + b[k] and
    grid, stacked along a leading edge axis: the one per-edge record of a
    solve."""

    edges: list         # edge ids, in graph order
    A: np.ndarray       # (edges, dim, dim) the edge operators
    Eh: np.ndarray      # (edges, dim, dim) e^{hA}
    b: np.ndarray       # (edges, steps, dim) increments from the forcing
    f: np.ndarray       # (edges, steps + 1, dim) forcing at the grid nodes
    times: np.ndarray   # (edges, steps + 1) grid nodes, 0 .. a_j inclusive


def edge_recurrences(problem):
    """The problem's edge chunks, each a Chunk of operators (a slice of
    problem.operator_groups), step operators, increments, node forcing and
    grid times.

    The layout comes from one edge_chunks call, and every later stage
    reads it from here.  The (e^{hA}, phi1(hA), phi2(hA)) triples of all
    edges of one dimension come from one stacked augmented exponential,
    taken once per distinct hA.  The node forcing is written here, once
    per edge and solve, straight from the specs: a sampled spec's values
    are its node values.  A chunk's increments come from one stacked
    product, and its grid from one linspace.
    """
    gr = problem.graph
    h = {e: float(gr.lengths[e]) / problem.steps_for(e) for e in gr.edges}

    def step(e):
        return f"a step operator for h = {h[e]!r}"

    stacks = {}  # edge -> (dim group's A and triple stacks, index in group)
    for edges, A, hA in _exponents(problem, h, lambda e: f"the exponent h A "
                                   f"for h = {h[e]!r}"):
        with np.errstate(over="ignore", invalid="ignore"):
            triple = _per_distinct(matfun.expm_phi12, hA)
        _require_finite(problem, edges, *((step, x) for x in triple))
        stacks.update((e, ((A, *triple), k)) for k, e in enumerate(edges))
    chunks = []
    for chunk in edge_chunks(problem):
        # a chunk is a run of consecutive edges of its dim group
        group, k = stacks[chunk[0]]
        A, Eh, P1, P2 = (x[k:k + len(chunk)] for x in group)
        hs = np.array([h[e] for e in chunk])[:, None, None]
        steps = problem.steps_for(chunk[0])
        f = np.zeros((len(chunk), steps + 1, A.shape[-1]), dtype=complex)
        for fe, e in zip(f, chunk):
            spec = problem.forcing.spec_for(e)
            if isinstance(spec, ConstantForcing):
                fe[:] = spec.value
            elif isinstance(spec, SampledForcing):
                fe[:] = spec.values
        with np.errstate(over="ignore", invalid="ignore"):
            b = (f[:, :-1] @ _mT(hs * P1)
                 + (f[:, 1:] - f[:, :-1]) @ _mT(hs * P2))
        _require_finite(problem, chunk, (lambda e: f"the forcing increment "
                                         f"for h = {h[e]!r}", b))
        times = np.linspace(0.0, [float(gr.lengths[e]) for e in chunk],
                            steps + 1, axis=-1)
        chunks.append(Chunk(chunk, A, Eh, b, f, times))
    return tuple(chunks)


def _scan(Eh, b, start):
    """States of a chunk of edges, x[:, 0] = start and
    x[:, k+1] = Eh x[:, k] + b[:, k], by a Hillis-Steele scan whose rounds
    run over every edge of the chunk at once.

    Eh is (E, d, d), b (E, K, d) and start broadcasts to (E, d).  After the
    round with offset m, row k of each edge holds the sum over the last 2m
    inputs of e^{(k-j)hA} y[j], where y = (start, b[0], ..., b[K-1]).
    """
    E, K, d = b.shape
    x = np.empty((E, K + 1, d), dtype=complex)
    x[:, 0] = start
    x[:, 1:] = b
    power = Eh
    m = 1
    while m <= K:
        x[:, m:] += x[:, :-m] @ _mT(power)
        m *= 2
        if m <= K:
            power = power @ power
    return x


def forced_terminal_integrals(problem, chunks):
    """Stacked terminal values of the forced-only flow started from zero.

    Componentwise this is the convolution of the edge propagator with the
    forcing over the whole edge, evaluated by the exact recurrences of the
    chunks (from edge_recurrences) that the propagation uses, one scan per
    chunk.
    """
    _require_valid(problem)
    F = []
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            x = _scan(chunk.Eh, chunk.b, 0.0)[:, -1]
            _require_finite(problem, chunk.edges,
                            ("the forced terminal value", x))
            F.append(x.reshape(-1))
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
    """Composite Simpson along each row of values, (E, K + 1) samples on
    uniform nodes of spacing h (a scalar or one per row); odd interval
    counts end with the 3/8 rule so the order stays four.  A single
    interval falls back to the trapezoid."""
    n = values.shape[1] - 1
    if n == 1:
        return h * 0.5 * (values[:, 0] + values[:, 1])
    stop = n if n % 2 == 0 else n - 3
    total = h / 3.0 * (np.sum(values[:, 0:stop:2], axis=1)
                       + 4.0 * np.sum(values[:, 1:stop:2], axis=1)
                       + np.sum(values[:, 2:stop + 1:2], axis=1))
    if stop != n:
        total += 3.0 * h / 8.0 * (values[:, n - 3] + 3.0 * values[:, n - 2]
                                  + 3.0 * values[:, n - 1] + values[:, n])
    return total


def energy_defect_of(problem, chunks, states):
    """|Re<psi', psi> - (||psi_+||^2 - ||psi_-||^2)/2| with psi' = A psi + f
    at the nodes (f from the solve's chunks, psi from their state stacks)
    and composite Simpson along each edge, one pass per chunk; the edges'
    terms are summed in graph order.  A term that overflows raises
    ValueError naming its edge."""
    inner = 0.0
    plus_sq = 0.0
    minus_sq = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk, X in zip(chunks, states):
            deriv = X @ _mT(chunk.A) + chunk.f
            values = np.real(np.sum(np.conj(X) * deriv, axis=-1))
            terms = np.stack([
                _composite_simpson(values,
                                   chunk.times[:, 1] - chunk.times[:, 0]),
                np.sum(np.abs(X[:, -1]) ** 2, axis=-1),
                np.sum(np.abs(X[:, 0]) ** 2, axis=-1)], axis=-1)
            _require_finite(problem, chunk.edges, ("an energy term", terms))
            for integral, plus, minus in terms.tolist():
                inner += integral
                plus_sq += plus
                minus_sq += minus
        return _finite(problem, None, "the energy defect",
                       abs(inner - 0.5 * (plus_sq - minus_sq)))


def _one_step_defect(problem, chunks, states):
    """Max over nodes of ||x[k+1] - (Eh x[k] + b[k])|| / (1 + ||x[k]||).

    The scan forms each state from powers of Eh applied to the inputs; this
    applies Eh once to each finished state, so a fault in the scan's rounds
    or powers shows up here.
    """
    worst = 0.0
    for chunk, X in zip(chunks, states):
        defect = np.linalg.norm(
            X[:, 1:] - (X[:, :-1] @ _mT(chunk.Eh) + chunk.b), axis=-1)
        scale = 1.0 + np.linalg.norm(X[:, :-1], axis=-1)
        _require_finite(problem, chunk.edges, ("the one-step defect", defect),
                        ("the step defect's scale 1 + ||x[k]||", scale))
        worst = max(worst, float(np.max(defect / scale)))
    return worst


def _boundary_residual(problem, states):
    gr = problem.graph
    minus = np.concatenate([X[:, 0].reshape(-1) for X in states])
    plus = np.concatenate([X[:, -1].reshape(-1) for X in states])
    g = stack_edge_values(gr, problem.g)
    residual = _finite(problem, None, "the boundary residual", np.linalg.norm(
        minus - problem.B.apply(gr, plus) - g))
    g_norm = _finite(problem, None, "||g|| in the boundary residual",
                     np.linalg.norm(g))
    return float(residual / (1.0 + g_norm))


def propagate(problem, c, mono, chunks):
    """Integrate every edge from the given stacked initial values with the
    solve's chunks, one scan per chunk, and attach residual diagnostics; a
    state or residual term that overflows raises ValueError naming it."""
    _require_valid(problem)
    gr = problem.graph
    off = gr.offsets()
    c = np.asarray(c, dtype=complex).reshape(-1)
    if c.shape[0] != gr.size():
        raise ValueError(f"boundary vector length {c.shape[0]} != {gr.size()}")

    states = []
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in chunks:
            edges = chunk.edges
            start = off[edges[0]]
            X = _scan(chunk.Eh, chunk.b,
                      c[start:start + len(edges) * gr.dims[edges[0]]]
                      .reshape(len(edges), -1))
            _require_finite(problem, edges, ("a propagated state", X))
            states.append(X)
        return SolveReport(
            edge_order=tuple(gr.edges),
            boundary_residual=_boundary_residual(problem, states),
            ode_residual=_one_step_defect(problem, chunks, states),
            energy_defect=energy_defect_of(problem, chunks, states),
            monodromy=mono,
            chunks=chunks,
            states=tuple(states),
        )


def solve(problem):
    """Full pipeline: monodromy, forced integrals, boundary solve, propagation.
    A refused allocation, or states too many for numpy to index or size,
    raises ValueError naming the largest edge."""
    gr = problem.graph
    size = {e: (problem.steps_for(e) + 1) * gr.dims[e] for e in gr.edges}
    e = max(gr.edges, key=size.__getitem__)
    too_large = ValueError(f"out of memory: the largest edge, {e!r}, has "
                           f"(steps + 1) x dim = {size[e]} state values")
    if size[e] * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise too_large
    try:
        mono = assemble_monodromy(problem)
        chunks = edge_recurrences(problem)
        F = forced_terminal_integrals(problem, chunks)
        c = solve_boundary(problem, mono, F)
        return propagate(problem, c, mono, chunks)
    except MemoryError:
        raise too_large from None


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
