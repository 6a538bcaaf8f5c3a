"""Independent cross-checks: Crank-Nicolson, Picard iteration, brute force.

These deliberately avoid the main solver's machinery.  The Crank-Nicolson
stepper touches no matrix exponential and returns bare trajectories, not a
SolveReport: residuals and conditioning are reported by solver.solve alone.
The Picard iteration replaces the boundary solve with a fixed point on the
solve's own system; the permutation search replaces the graph classification
with exhaustive enumeration.  They ship in the library so acceptance runs
are reproducible from the command line.
"""

import numpy as np
import scipy.linalg as la

from . import matfun, solver
from .problem import forcing_node_values, stack_edge_values, validate
from .solver import EdgeSolution, NotWellPosed


class PicardDivergence(Exception):
    """Fixed-point iteration cannot converge: spectral radius of B E >= 1."""

    def __init__(self, rho):
        super().__init__(f"picard iteration divergent (rho(BE) = {rho:.6f})")
        self.rho = rho


class TooLarge(ValueError):
    """Pattern too large for exhaustive permutation search."""


# Fixed-point iteration budget, and the step size that ends it.
PICARD_MAX_ITER = 100_000
PICARD_TOL = 1e-12
# Largest pattern the exhaustive permutation search accepts.
BRUTE_FORCE_MAX_N = 8


def _cn_edge_maps(A, a, f):
    """One-step Crank-Nicolson map P of one edge, and the forcing term
    r[k] = W (f[k] + f[k+1]) of every step for the node forcing f."""
    d = A.shape[0]
    h = float(a) / (len(f) - 1)
    L = np.eye(d, dtype=complex) - 0.5 * h * A
    lu = la.lu_factor(L)
    P = la.lu_solve(lu, np.eye(d, dtype=complex) + 0.5 * h * A)
    W = la.lu_solve(lu, 0.5 * h * np.eye(d, dtype=complex))
    return P, (W @ (f[:-1] + f[1:])[..., None])[..., 0]


def cn_solve(problem, steps_per_edge):
    """Crank-Nicolson trajectories of the coupled problem, sharing no code
    with the exponential path: {edge id: EdgeSolution} in graph order.

    Per-edge trapezoidal one-step maps are composed into a discrete terminal
    propagator P^N; the same boundary equation (I - B E~) c = g + B F~ is
    then solved, with I - B E~ built block by block, and the trajectory
    re-propagated on the fine grid.  Second order accurate in the step size.
    A numerically singular I - B E~ raises NotWellPosed.
    """
    violations = validate(problem)
    if violations:
        raise ValueError("invalid problem: " + "; ".join(violations))
    gr = problem.graph
    N = int(steps_per_edge)
    off = gr.offsets()

    maps = {}
    terminal = {}
    F_parts = {}
    for e in gr.edges:
        times = np.linspace(0.0, float(gr.lengths[e]), N + 1)
        P, r = _cn_edge_maps(problem.operator(e), gr.lengths[e],
                             forcing_node_values(problem, e, times))
        maps[e] = (P, times, r)
        terminal[e] = np.linalg.matrix_power(P, N)
        u = np.zeros(gr.dims[e], dtype=complex)
        for k in range(N):
            u = P @ u + r[k]
        F_parts[e] = u

    M = np.eye(gr.size(), dtype=complex)
    for (i, j), m in problem.B.blocks.items():
        M[off[i]:off[i] + gr.dims[i], off[j]:off[j] + gr.dims[j]] -= \
            m @ terminal[j]
    rcond = matfun.rcond_identity_scale(M)
    if rcond < solver.SINGULAR_RCOND:
        raise NotWellPosed(rcond)
    g = stack_edge_values(gr, problem.g)
    F_tilde = np.concatenate([F_parts[e] for e in gr.edges])
    c = np.linalg.solve(M, g + problem.B.apply(gr, F_tilde))

    solutions = {}
    for e in gr.edges:
        P, times, r = maps.pop(e)  # frees each edge's forcing terms early
        states = np.empty((N + 1, gr.dims[e]), dtype=complex)
        states[0] = c[off[e]:off[e] + gr.dims[e]]
        for k in range(N):
            states[k + 1] = P @ states[k] + r[k]
        solutions[e] = EdgeSolution(e, times, states)
    return solutions


def picard_boundary(problem, report):
    """Boundary vector by fixed-point iteration c <- B(Ec + F) + g from zero.

    Iterates on the system of the solve that produced report (a solver.solve
    report): B E = I - M from its monodromy, and F from its recurrences.
    Converges geometrically iff rho(B E) < 1; divergence is raised up front
    from the spectral radius rather than detected by overflow.
    """
    M = report.monodromy.M
    BE = np.eye(len(M), dtype=complex) - M
    F = solver.forced_terminal_integrals(problem, report.recurrences)
    rho = float(np.max(np.abs(np.linalg.eigvals(BE))))
    if rho >= 1.0:
        raise PicardDivergence(rho)
    gr = problem.graph
    g = stack_edge_values(gr, problem.g)
    base = problem.B.apply(gr, F) + g
    c = np.zeros(gr.size(), dtype=complex)
    for _ in range(PICARD_MAX_ITER):
        nxt = BE @ c + base
        delta = float(np.linalg.norm(nxt - c))
        c = nxt
        if delta <= PICARD_TOL:
            return c
    raise RuntimeError(
        f"picard iteration did not converge in {PICARD_MAX_ITER} steps"
        f" (rho(BE) = {rho:.6f})")


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
