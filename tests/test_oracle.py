import numpy as np
import pytest
import scipy.linalg as la

from chronograph import matfun, oracle, scenarios, solver
from chronograph.graph import (GLOBAL_ONLY, BlockPattern, classify_solvability,
                               pattern_of)
from chronograph.problem import (ConstantForcing, EdgeOperator, Forcing,
                                 SampledForcing, TimeGraphProblem,
                                 TransmissionOperator, forcing_node_values,
                                 stack_edge_values, validate)
from chronograph.graph import TimeGraph
from chronograph.solver import EdgeSolution, NotWellPosed
from conftest import preset


def test_reference_solver_matches_exponential_path():
    for sid in ("phase_shift", "tadpole", "lions_chain"):
        p = preset(sid)
        mine = solver.solve(p)
        ref = oracle.cn_solve(p, 2000)
        for e in p.graph.edges:
            assert np.max(np.abs(mine.solutions[e].states
                                 - ref[e].states[::20])) <= 2e-5


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


def per_edge_cn_solve(problem, steps_per_edge):
    """The edge-by-edge stepper oracle.cn_solve replaced, kept as its
    oracle: two N-step loops of one edge's mat-vecs per edge."""
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
        P, times, r = maps.pop(e)
        states = np.empty((N + 1, gr.dims[e]), dtype=complex)
        states[0] = c[off[e]:off[e] + gr.dims[e]]
        for k in range(N):
            states[k + 1] = P @ states[k] + r[k]
        solutions[e] = EdgeSolution(e, times, states)
    return solutions


def mixed_problem(dims, seed):
    """Edges of the given dims, in graph order, under shuffled ids, with
    unequal lengths and steps; zero, constant and sampled forcing in turn;
    chained head to tail and closed by a block from the last edge to the
    first, so the coupling is one loop (GLOBAL_ONLY)."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    edges = tuple(int(e) for e in rng.permutation(n) + 10)
    d = dict(zip(edges, dims))
    steps = {e: int(rng.integers(3, 12)) for e in edges}

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    forcing = {}
    for k, e in enumerate(edges):
        if k % 3 == 1:
            forcing[e] = ConstantForcing(cplx(d[e]))
        elif k % 3 == 2:
            forcing[e] = SampledForcing(cplx(steps[e] + 1, d[e]))
    pairs = list(zip(edges[1:], edges)) + [(edges[0], edges[-1])]
    return TimeGraphProblem(
        TimeGraph(edges, {e: float(rng.uniform(0.3, 1.7)) for e in edges}, d),
        tuple(EdgeOperator(e, cplx(d[e], d[e]) - 2.0 * np.eye(d[e]))
              for e in edges),
        TransmissionOperator({(i, j): 0.4 * cplx(d[i], d[j]) / d[j]
                              for i, j in pairs}),
        {edges[0]: cplx(d[edges[0]])}, Forcing(forcing), steps)


def _assert_same_trajectories(problem, N):
    got = oracle.cn_solve(problem, N)
    want = per_edge_cn_solve(problem, N)
    assert list(got) == list(want) == list(problem.graph.edges)
    for e, sol in want.items():
        assert got[e].edge == e
        assert got[e].times.tobytes() == sol.times.tobytes()
        assert got[e].states.shape == sol.states.shape
        assert got[e].states.tobytes() == sol.states.tobytes()


@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_cn_solve_matches_the_per_edge_stepper_on_presets(sid):
    _assert_same_trajectories(preset(sid), 200)


MIXED_DIMS = [(1, 2, 1, 3, 2, 1, 2), (2, 1, 1, 2, 3, 1, 2),
              (3, 1, 2, 1), (1, 1, 2, 1, 1, 2, 3, 1, 1)]


@pytest.mark.parametrize("dims, seed",
                         [(dims, seed) for seed, dims in enumerate(MIXED_DIMS)]
                         + [((1, 2, 1, 3, 2), 10), ((2, 1, 2), 11)])
def test_cn_solve_matches_the_per_edge_stepper_on_mixed_groups(dims, seed):
    """Dim groups interleaved in graph order, one of them a group of one
    edge; the result keeps graph order."""
    problem = mixed_problem(dims, seed)
    assert classify_solvability(
        pattern_of(problem.B, problem.graph)).category == GLOBAL_ONLY
    assert any(A.shape[0] == 1 for _, A in problem.operator_groups)
    _assert_same_trajectories(problem, 400)


def test_cn_solve_matches_the_per_edge_stepper_on_one_edge():
    problem = mixed_problem((3,), 12)
    assert [A.shape for _, A in problem.operator_groups] == [(1, 3, 3)]
    _assert_same_trajectories(problem, 400)


def test_reference_solver_second_order_convergence():
    p = preset("phase_shift")
    exact = solver.solve(p).solutions[0].states  # recurrence is exact here
    errs = []
    for n in (200, 400):
        ref = oracle.cn_solve(p, n)
        errs.append(np.max(np.abs(ref[0].states[::n // 100] - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_reference_solver_detects_singular_boundary():
    p = TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: 1}),
        (EdgeOperator(0, np.zeros((1, 1))),),
        TransmissionOperator({(0, 0): np.array([[1.0]])}),
        {0: np.array([1.0])})
    with pytest.raises(solver.NotWellPosed):
        oracle.cn_solve(p, 100)


def test_reference_solver_validates_input():
    p = TimeGraphProblem(TimeGraph((0,), {0: 1.0}, {0: 1}), (),
                         TransmissionOperator({}))
    with pytest.raises(ValueError):
        oracle.cn_solve(p, 100)


def test_picard_agrees_with_direct_boundary_solve():
    for sid in ("phase_shift", "jump_condition", "time_travel"):
        p = preset(sid)
        report = solver.solve(p)
        F = solver.forced_terminal_integrals(p, report.chunks)
        direct = solver.solve_boundary(p, report.monodromy, F)
        iterated = oracle.picard_boundary(p, report)
        assert np.max(np.abs(direct - iterated)) <= 1e-10


def test_picard_raises_on_expanding_loop():
    p = TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: 1}),
        (EdgeOperator(0, np.zeros((1, 1))),),
        TransmissionOperator({(0, 0): np.array([[1.5]])}),
        {0: np.array([1.0])})
    report = solver.solve(p)
    with pytest.raises(oracle.PicardDivergence) as err:
        oracle.picard_boundary(p, report)
    assert abs(err.value.rho - 1.5) <= 1e-12


def test_picard_raises_on_marginal_loop():
    # the sign-flipped return map has spectral radius exactly one
    p = preset("groundhog")
    report = solver.solve(p)
    with pytest.raises(oracle.PicardDivergence):
        oracle.picard_boundary(p, report)


def test_brute_force_confirms_simple_patterns():
    assert oracle.brute_force_triangularizable(
        BlockPattern(3, frozenset({(1, 0), (2, 0)}))) == (0, 1, 2)
    assert oracle.brute_force_triangularizable(
        BlockPattern(2, frozenset({(0, 0), (1, 0)}))) == (0, 1)
    assert oracle.brute_force_triangularizable(
        BlockPattern(4, frozenset({(1, 0), (1, 3), (2, 1), (3, 1)}))) is None


def test_brute_force_diagonal_never_obstructs():
    assert oracle.brute_force_triangularizable(
        BlockPattern(2, frozenset({(0, 0), (1, 1)}))) == (0, 1)


def test_brute_force_needs_reordering():
    got = oracle.brute_force_triangularizable(
        BlockPattern(3, frozenset({(0, 2), (1, 0)})))
    assert got == (2, 0, 1)


def test_brute_force_guards():
    with pytest.raises(oracle.TooLarge):
        oracle.brute_force_triangularizable(BlockPattern(9, frozenset()))
    with pytest.raises(ValueError):
        oracle.brute_force_triangularizable(
            BlockPattern(2, frozenset({(5, 0)})))


def test_brute_force_and_classifier_agree_on_dense_sample(rng):
    for _ in range(150):
        n = int(rng.integers(2, 8))
        density = float(rng.uniform(0.05, 0.6))
        nz = frozenset((i, j) for i in range(n) for j in range(n)
                       if rng.random() < density)
        pattern = BlockPattern(n, nz)
        rep = classify_solvability(pattern)
        witness = oracle.brute_force_triangularizable(pattern)
        assert (witness is None) == (rep.category == GLOBAL_ONLY)
