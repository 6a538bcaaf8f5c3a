"""Independent cross-checks: Crank-Nicolson, Picard iteration, brute force.

These deliberately avoid the main solver's machinery.  The Crank-Nicolson
stepper touches no matrix exponential and returns bare trajectories, not a
SolveReport: residuals and conditioning are reported by solver.solve alone.
The Picard iteration replaces the boundary solve with a fixed point on the
solve's own system; the permutation search replaces the graph classification
with exhaustive enumeration.  They ship in the library so acceptance runs
are reproducible from the command line.
"""

import warnings

import numpy as np
import scipy.linalg as la
from numpy import matvec

from . import matfun, solver
from .problem import (block_product, forcing_node_values, stack_edge_values,
                      validate)
from .solver import EdgeSolution, NotWellPosed


class PicardDivergence(Exception):
    """Fixed-point iteration cannot converge: spectral radius of B E >= 1."""

    def __init__(self, rho):
        super().__init__(f"picard iteration divergent (rho(BE) = {rho:.6f})")
        self.rho = rho


class PicardStalled(Exception):
    """Fixed-point iteration still moving after PICARD_MAX_ITER steps:
    rho(B E) < 1, but too close to 1 for the budget."""

    def __init__(self, rho):
        super().__init__(f"picard iteration did not converge in "
                         f"{PICARD_MAX_ITER} steps (rho(BE) = {rho:.6f})")
        self.rho = rho


class TooLarge(ValueError):
    """Pattern too large for exhaustive permutation search."""


# Fixed-point iteration budget, and the step size that ends it.
PICARD_MAX_ITER = 100_000
PICARD_TOL = 1e-12
# Largest pattern the exhaustive permutation search accepts.
BRUTE_FORCE_MAX_N = 8


def cn_solve(problem, steps_per_edge):
    """Crank-Nicolson trajectories of the coupled problem, sharing no code
    with the exponential path: {edge id: EdgeSolution} in graph order.

    Per dim group, trapezoidal one-step maps P and forcing terms
    r[k] = W (f[k] + f[k+1]) step one (edges, N + 1, dim) stack,
    x[k+1] = P x[k] + r[k], one stacked mat-vec per step: from zero for F~,
    then from the c solving (I - B E~) c = g + B F~, with E~ = P^N and
    I - B E~ built block by block.  Second order accurate in the step
    size.  A singular or non-finite step map raises ValueError naming its
    edge, and a numerically singular I - B E~ raises NotWellPosed.
    """
    violations = validate(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))
    gr = problem.graph
    N = int(steps_per_edge)
    off = gr.offsets()

    groups = []
    terminal = {}
    F_parts = {}
    for edges, A in problem.operator_groups:
        h = np.array([float(gr.lengths[e]) for e in edges])[:, None, None] / N
        I = np.eye(A.shape[-1], dtype=complex)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            # a singular I - hA/2 leaves P non-finite, refused below
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu = la.lu_factor(I - 0.5 * h * A)
            P = la.lu_solve(lu, I + 0.5 * h * A)
            W = la.lu_solve(lu, 0.5 * h * I)
            PN = np.linalg.matrix_power(P, N)
        finite = np.isfinite(np.concatenate([P, W, PN], axis=-1))
        if not finite.all():
            e = edges[np.flatnonzero(~finite.all(axis=(1, 2)))[0]]
            raise ValueError(
                f"edge {e!r} of length {float(gr.lengths[e])!r}: the "
                f"Crank-Nicolson step map is singular or not finite at {N} "
                f"steps per edge; choose another cn_steps (--cn-steps)")
        times = [np.linspace(0.0, float(gr.lengths[e]), N + 1) for e in edges]
        x = np.empty((len(edges), N + 1, A.shape[-1]), dtype=complex)
        for i, e in enumerate(edges):
            f = forcing_node_values(problem, e, times[i])
            x[i, 1:] = matvec(W[i], f[:-1] + f[1:])
        # both step loops iterate over node views: cheaper than indexing x
        u = np.zeros_like(x[:, 0])
        for r in x.swapaxes(0, 1)[1:]:
            u = matvec(P, u) + r
        terminal.update(zip(edges, PN))
        F_parts.update(zip(edges, u))
        groups.append((edges, times, P, x))

    M = np.eye(gr.size(), dtype=complex)
    for (i, j), m in problem.B.items():
        M[off[i]:off[i] + gr.dims[i], off[j]:off[j] + gr.dims[j]] -= \
            m @ terminal[j]
    rcond = matfun.rcond_identity_scale(M)
    if rcond < solver.SINGULAR_RCOND:
        raise NotWellPosed(rcond)
    g = stack_edge_values(gr, problem.g)
    F_tilde = stack_edge_values(gr, F_parts)
    c = np.linalg.solve(M, g + block_product(gr, problem.B, F_tilde))

    solutions = {}
    for edges, times, P, x in groups:
        x[:, 0] = [c[off[e]:off[e] + gr.dims[e]] for e in edges]
        prev = x[:, 0]
        for nxt in x.swapaxes(0, 1)[1:]:
            nxt += matvec(P, prev)
            prev = nxt
        solutions.update(zip(edges, map(EdgeSolution, edges, times, x)))
    return {e: solutions[e] for e in gr.edges}


def picard_boundary(problem, report):
    """Boundary vector by fixed-point iteration c <- B(Ec + F) + g from zero.

    Iterates on the system of the solve that produced report (a solver.solve
    report): B E = I - M from its monodromy, and F from its chunks.
    Converges geometrically iff rho(B E) < 1; divergence is raised up front
    from the spectral radius rather than detected by overflow, and a slow
    convergence past the step budget raises PicardStalled.  O(n^3): it
    forms M densely and takes all its eigenvalues.
    """
    M = report.monodromy.dense()
    BE = np.eye(len(M), dtype=complex) - M
    F = solver.forced_terminal_integrals(problem, report.chunks)
    rho = float(np.max(np.abs(np.linalg.eigvals(BE))))
    if rho >= 1.0:
        raise PicardDivergence(rho)
    gr = problem.graph
    g = stack_edge_values(gr, problem.g)
    base = block_product(gr, problem.B, F) + g
    c = np.zeros(gr.size(), dtype=complex)
    for _ in range(PICARD_MAX_ITER):
        nxt = BE @ c + base
        delta = float(np.linalg.norm(nxt - c))
        c = nxt
        if delta <= PICARD_TOL:
            return c
    raise PicardStalled(rho)


def brute_force_triangularizable(pattern):
    """Ordering that renders the pattern block lower-triangular, or None.

    Exhaustive search over edge permutations (organized as a backtracking
    enumeration so impossible prefixes are discarded early); the first witness
    in lexicographic order is returned.  Diagonal entries never obstruct.
    """
    n = pattern.n
    if n > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"pattern size {n} exceeds limit {BRUTE_FORCE_MAX_N}")
    needs = [set() for _ in range(n)]  # row -> columns that must come first
    for i, j in pattern.nonzero:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pattern index ({i},{j}) outside [0,{n})")
        if i != j:
            needs[i].add(j)
    placed = [False] * n
    order = []

    def extend():
        if len(order) == n:
            return True
        for e in range(n):
            if placed[e]:
                continue
            if all(placed[j] for j in needs[e]):
                placed[e] = True
                order.append(e)
                if extend():
                    return True
                order.pop()
                placed[e] = False
        return False

    if extend():
        return tuple(order)
    return None
