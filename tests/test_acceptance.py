"""End-to-end acceptance checks.

One test per advertised guarantee, each asserting the stated tolerance and
staying inside its runtime budget; pytest -v prints one pass/fail line per
guarantee.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from chronograph import oracle, scenarios, solver, variants
from chronograph.graph import (CAUCHY_SEQUENCE, GLOBAL_ONLY, IVP_SEQUENCE,
                               BlockPattern, TimeGraph, classify_solvability,
                               pattern_of)
from chronograph.problem import (ConstantForcing, EdgeOperator, Forcing,
                                 TimeGraphProblem, TransmissionOperator)
from conftest import preset


def test_boundary_identity_on_every_preset():
    """Endpoint identity: psi_- - B psi_+ - g vanishes to 1e-10 relative."""
    for sid in scenarios.SCENARIO_IDS:
        start = time.perf_counter()
        p = preset(sid)
        rep = solver.solve(p)
        elapsed = time.perf_counter() - start
        assert rep.monodromy_rcond >= 1e-8, sid
        assert rep.boundary_residual <= 1e-10, sid
        assert elapsed < 1.0, sid


def test_one_step_recurrence_defect_on_every_preset():
    """The sweep satisfies its own recurrence to 1e-11 relative per step."""
    for sid in scenarios.SCENARIO_IDS:
        start = time.perf_counter()
        rep = solver.solve(preset(sid))
        elapsed = time.perf_counter() - start
        assert rep.ode_residual <= 1e-11, sid
        assert elapsed < 1.0, sid


def test_reference_solver_agreement_and_convergence_order():
    """Trapezoidal reference at 10,000 steps agrees to 1e-6; its observed
    convergence order is 2.0 +/- 0.2 over three refinements."""
    start = time.perf_counter()
    for sid in scenarios.SCENARIO_IDS:
        p = preset(sid)
        mine = solver.solve(p)
        ref = oracle.cn_solve(p, 10_000)
        worst = 0.0
        for e in p.graph.edges:
            stride = 10_000 // p.steps_for(e)
            worst = max(worst, float(np.max(np.abs(
                mine.solutions[e].states - ref[e].states[::stride]))))
        assert worst <= 1e-6, sid

        errors = []
        for n in (200, 400, 800):
            refine = oracle.cn_solve(p, n)
            err = 0.0
            for e in p.graph.edges:
                stride = n // p.steps_for(e)
                err = max(err, float(np.max(np.abs(
                    mine.solutions[e].states
                    - refine[e].states[::stride]))))
            errors.append(err)
        if errors[-1] < 1e-12:
            continue  # reference is exact here (steady state), no order to fit
        slope = np.polyfit(np.log([200.0, 400.0, 800.0]), np.log(errors), 1)[0]
        assert abs(-slope - 2.0) <= 0.2, (sid, errors)
    assert time.perf_counter() - start < 30.0


def test_phase_shift_closed_form_and_iterated_boundary():
    """alpha = 2 coupling: psi(0) = alpha psi(1) to 1e-10, and the direct
    boundary vector matches the fixed-point iteration to 1e-10."""
    start = time.perf_counter()
    p = preset("phase_shift", alpha=2.0)
    rep = solver.solve(p)
    sol = rep.solutions[0]
    assert abs(sol.states[0, 0] - 2.0 * sol.states[-1, 0]) <= 1e-10
    c_iter = oracle.picard_boundary(p, rep)
    assert abs(sol.states[0, 0] - c_iter[0]) <= 1e-10
    assert time.perf_counter() - start < 1.0


def test_periodic_steady_state():
    """Unit loop coupling with constant drive settles on the constant one."""
    start = time.perf_counter()
    rep = solver.solve(preset("periodic"))
    assert np.max(np.abs(rep.solutions[0].states - 1.0)) <= 1e-11
    assert time.perf_counter() - start < 1.0


def test_classifier_agrees_with_exhaustive_search():
    """Classifier vs permutation search: exact agreement on 500 random
    patterns for each size 2..7, plus the four named coupling shapes."""
    start = time.perf_counter()
    r = np.random.default_rng(61_803_398)
    for n in range(2, 8):
        for _ in range(500):
            density = float(r.uniform(0.05, 0.65))
            nz = frozenset((i, j) for i in range(n) for j in range(n)
                           if r.random() < density)
            pattern = BlockPattern(n, nz)
            rep = classify_solvability(pattern)
            witness = oracle.brute_force_triangularizable(pattern)
            if rep.category == GLOBAL_ONLY:
                assert witness is None, (n, sorted(nz))
            else:
                assert witness is not None, (n, sorted(nz))
                want = CAUCHY_SEQUENCE if any(i == j for i, j in nz) \
                    else IVP_SEQUENCE
                assert rep.category == want, (n, sorted(nz))

    def category_of(sid):
        p = preset(sid)
        return classify_solvability(pattern_of(p.B, p.graph)).category

    assert category_of("splitting") == IVP_SEQUENCE
    assert category_of("tadpole") == CAUCHY_SEQUENCE
    assert category_of("time_travel") == GLOBAL_ONLY
    assert category_of("time_travel_multiverse") == IVP_SEQUENCE
    assert time.perf_counter() - start < 10.0


def test_energy_identity_quadrature_order():
    """Quadrature defect of the energy identity decays at order 4.0 +/- 0.3
    under grid refinement, on three non-self-adjoint instances."""
    start = time.perf_counter()
    instances = [
        (np.array([[-1.0, 2.0], [0.0, -3.0]]),
         np.array([[0.3, 0.0], [0.1, 0.2]]),
         np.array([2.0, 1.0]), np.array([1.0, 0.5])),
        (np.array([[-2.0, 1.5, 0.0], [0.0, -1.0, 2.5], [0.0, 0.0, -3.0]]),
         0.25 * np.eye(3),
         np.array([1.0, -1.0, 2.0]), np.array([0.5, 1.0, -0.5])),
        (np.array([[0.0, 3.0], [-1.0, -2.0]]),
         np.array([[0.0, 0.4], [0.2, 0.0]]),
         np.array([1.0, 1.0]), np.array([-1.0, 2.0])),
    ]
    for A, B, g, f in instances:
        assert np.max(np.abs(A - A.conj().T)) > 0.1  # genuinely non-self-adjoint
        defects = []
        steps_grid = (40, 80, 160, 320)
        for steps in steps_grid:
            d = A.shape[0]
            p = TimeGraphProblem(
                graph=TimeGraph((0,), {0: 1.0}, {0: d}),
                operators=(EdgeOperator(0, A),),
                B=TransmissionOperator({(0, 0): B}),
                g={0: g},
                forcing=Forcing({0: ConstantForcing(f)}),
                steps={0: steps},
            )
            defects.append(solver.solve(p).energy_defect)
        assert min(defects) > 1e-14  # stay clear of roundoff floor
        slope = np.polyfit(np.log(steps_grid), np.log(defects), 1)[0]
        assert abs(-slope - 4.0) <= 0.3, defects
    assert time.perf_counter() - start < 5.0


def unitarity(base):
    """The unitarity classification of base read as a Schrodinger problem,
    from the solve of its effective problem."""
    effective = variants.schrodinger_effective(base)
    return variants.unitarity_check(solver.solve(effective), effective)


def test_oscillatory_unitarity_classification():
    """Matched cosine couplings give unitary flows (defect 1e-10, operator
    defect 1e-9) on 50 random Hermitian instances; the quarter-period scalar
    counterexample pins |S|^2 at one half."""
    start = time.perf_counter()
    r = np.random.default_rng(271_828)
    for trial in range(50):
        d = int(r.integers(1, 4))
        M = r.standard_normal((d, d)) + 1j * r.standard_normal((d, d))
        H = 0.5 * (M + M.conj().T)
        a = float(r.uniform(0.4, 2.0))
        w, V = np.linalg.eigh(H)
        B = (V * (2.0 * np.cos(a * w))) @ V.conj().T
        base = TimeGraphProblem(
            graph=TimeGraph((0,), {0: a}, {0: d}),
            operators=(EdgeOperator(0, H),),
            B=TransmissionOperator({(0, 0): B}),
            g={0: r.standard_normal(d)},
        )
        rep = unitarity(base)
        assert rep.unitary, trial
        assert rep.defect <= 1e-10, trial
        assert rep.operator_defect <= 1e-9, trial

    counter = TimeGraphProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 1}),
        operators=(EdgeOperator(0, np.array([[math.pi / 2.0]])),),
        B=TransmissionOperator({(0, 0): np.array([[1.0]])}),
        g={0: np.ones(1)},
    )
    rep = unitarity(counter)
    assert not rep.unitary
    assert abs(rep.operator_defect - 0.5) <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_positivity_preservation():
    """200 random Metzler flows with nonnegative contractive couplings and
    nonnegative data keep the trajectory nonnegative to 1e-10."""
    start = time.perf_counter()
    r = np.random.default_rng(141_421)
    for trial in range(200):
        d = int(r.integers(1, 4))
        A = r.uniform(0.0, 1.0, (d, d))
        A[np.diag_indices(d)] = -r.uniform(1.0, 3.0, d)
        a = float(r.uniform(0.5, 1.5))
        B = r.uniform(0.0, 1.0, (d, d))
        E = scipy.linalg.expm(a * A)
        rho = float(np.max(np.abs(np.linalg.eigvals(B @ E))))
        if rho >= 0.9:
            B *= 0.8 / rho
        p = TimeGraphProblem(
            graph=TimeGraph((0,), {0: a}, {0: d}),
            operators=(EdgeOperator(0, A),),
            B=TransmissionOperator({(0, 0): B}),
            g={0: r.uniform(0.0, 2.0, d)},
            forcing=Forcing({0: ConstantForcing(r.uniform(0.0, 1.0, d))}),
            steps={0: 60},
        )
        rep = variants.verify_mapping_properties(solver.solve(p), p)
        assert rep.failed_hypotheses == (), trial
        assert rep.positivity_defect is not None
        assert rep.positivity_defect <= 1e-10, trial
    assert time.perf_counter() - start < 10.0


def test_resolvent_resonance_and_steady_state():
    """The time-derivative resolvent is singular on the loop spectrum and
    exact off it."""
    start = time.perf_counter()
    p = preset("periodic")
    with pytest.raises(solver.NotWellPosed):
        solver.resolvent_Dt(p, 0.0)
    rep = solver.resolvent_Dt(p, -1.0)
    assert np.max(np.abs(rep.solutions[0].states - 1.0)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_second_order_factorization_matches_reference():
    """Two-stage factorized oscillator solve tracks a fine trapezoidal
    integration of the equivalent first-order system to 1e-6."""
    start = time.perf_counter()
    omega, x0, v0 = 2.0, 1.0, 0.0
    steps = 2000
    p = variants.SecondOrderProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 1}),
        operators=(EdgeOperator(0, np.array([[-omega ** 2]])),),
        B1=TransmissionOperator({}),
        B2=TransmissionOperator({}),
        g1={0: np.array([x0], dtype=complex)},
        g2={0: np.array([v0 - 1j * omega * x0], dtype=complex)},
        steps={0: steps},
    )
    _, rep2 = variants.second_order_solve(p)
    mine = rep2.solutions[0].states[:, 0]

    # independent trapezoidal reference on (x, v)
    n_ref = 20_000
    K = np.array([[0.0, 1.0], [-omega ** 2, 0.0]])
    h = 1.0 / n_ref
    P = np.linalg.solve(np.eye(2) - 0.5 * h * K, np.eye(2) + 0.5 * h * K)
    u = np.array([x0, v0])
    xs = np.empty(n_ref + 1)
    xs[0] = u[0]
    for k in range(n_ref):
        u = P @ u
        xs[k + 1] = u[0]
    stride = n_ref // steps
    assert np.max(np.abs(mine - xs[::stride])) <= 1e-6
    assert time.perf_counter() - start < 5.0
