import math

import numpy as np
import pytest

from chronograph import oracle, solver
from chronograph.graph import (GLOBAL_ONLY, BlockPattern, classify_solvability)
from chronograph.problem import (EdgeOperator, TimeGraphProblem,
                                 TransmissionOperator)
from chronograph.graph import TimeGraph
from conftest import preset


def test_reference_solver_matches_exponential_path():
    for sid in ("phase_shift", "tadpole", "lions_chain"):
        p = preset(sid)
        mine = solver.solve(p)
        ref = oracle.cn_solve(p, 2000)
        for e in p.graph.edges:
            assert np.max(np.abs(mine.solutions[e].states
                                 - ref[e].states[::20])) <= 2e-5


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
