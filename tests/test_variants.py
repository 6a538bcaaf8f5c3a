import math

import numpy as np
import pytest
import scipy.linalg

from chronograph import matfun, scenarios, solver, variants
from chronograph.graph import TimeGraph
from chronograph.problem import (ConstantForcing, EdgeOperator, Forcing,
                                 TimeGraphProblem, TransmissionOperator,
                                 forcing_node_values, stack_edge_values)
from chronograph.matfun import NotHermitian
from conftest import preset


def hermitian(seed, n):
    r = np.random.default_rng(seed)
    M = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def oscillatory_ivp(H, g0, length=1.0, steps=200):
    d = H.shape[0]
    base = TimeGraphProblem(
        graph=TimeGraph((0,), {0: length}, {0: d}),
        operators=(EdgeOperator(0, H),),
        B=TransmissionOperator({}),
        g={0: np.asarray(g0, dtype=complex)},
        steps={0: steps},
    )
    return variants.SchrodingerProblem(base)


def test_oscillatory_flow_preserves_norm(rng):
    H = hermitian(5, 3)
    g0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rep = variants.schrodinger_solve(oscillatory_ivp(H, g0))
    norms = np.linalg.norm(rep.solutions[0].states, axis=1)
    assert np.max(np.abs(norms - np.linalg.norm(g0))) <= 1e-10


def test_oscillatory_flow_matches_phase_factor(rng):
    H = hermitian(9, 2)
    g0 = rng.standard_normal(2)
    rep = variants.schrodinger_solve(oscillatory_ivp(H, g0, steps=50))
    sol = rep.solutions[0]
    for t, state in zip(sol.times, sol.states):
        want = scipy.linalg.expm(1j * t * H) @ g0
        assert np.max(np.abs(state - want)) <= 1e-11


def test_oscillatory_rejects_asymmetric_operator():
    base = TimeGraphProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 2}),
        operators=(EdgeOperator(0, np.array([[0.0, 1.0], [0.0, 0.0]])),),
        B=TransmissionOperator({}),
        g={0: np.zeros(2)},
    )
    with pytest.raises(NotHermitian):
        variants.schrodinger_solve(variants.SchrodingerProblem(base))


def test_unitarity_holds_for_matched_cosine_coupling():
    H = hermitian(13, 3)
    a = 0.8
    w, V = np.linalg.eigh(H)
    B = (V * (2.0 * np.cos(a * w))) @ V.conj().T
    base = TimeGraphProblem(
        graph=TimeGraph((0,), {0: a}, {0: 3}),
        operators=(EdgeOperator(0, H),),
        B=TransmissionOperator({(0, 0): B}),
        g={0: np.ones(3)},
    )
    rep = variants.unitarity_check(variants.SchrodingerProblem(base))
    assert rep.unitary
    assert rep.defect <= 1e-10
    assert rep.operator_defect <= 1e-9
    assert rep.commutator <= 1e-12


def test_unitarity_counterexample_quarter_period():
    base = TimeGraphProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 1}),
        operators=(EdgeOperator(0, np.array([[math.pi / 2.0]])),),
        B=TransmissionOperator({(0, 0): np.array([[1.0]])}),
        g={0: np.ones(1)},
    )
    rep = variants.unitarity_check(variants.SchrodingerProblem(base))
    assert not rep.unitary
    assert abs(rep.defect - 1.0) <= 1e-12
    # |S|^2 sits at one half, uniformly in time
    assert abs(rep.operator_defect - 0.5) <= 1e-10


def test_unitarity_gate_rejects_non_commuting_coupling():
    H = np.diag([1.0, 2.0])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])  # swaps the eigenbasis
    base = TimeGraphProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 2}),
        operators=(EdgeOperator(0, H),),
        B=TransmissionOperator({(0, 0): B}),
        g={0: np.zeros(2)},
    )
    with pytest.raises(variants.NonCommuting):
        variants.unitarity_check(variants.SchrodingerProblem(base))


def oscillator_problem(omega, x0, v0, steps=2000):
    return variants.SecondOrderProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 1}),
        operators=(EdgeOperator(0, np.array([[-omega ** 2]])),),
        B1=TransmissionOperator({}),
        B2=TransmissionOperator({}),
        g1={0: np.array([x0], dtype=complex)},
        g2={0: np.array([v0 - 1j * omega * x0], dtype=complex)},
        steps={0: steps},
    )


def test_second_order_scalar_oscillator_closed_form():
    omega = 2.0
    rep1, rep2 = variants.second_order_solve(oscillator_problem(omega, 1.0, 0.5))
    sol = rep2.solutions[0]
    want = (np.cos(omega * sol.times)
            + 0.5 * np.sin(omega * sol.times) / omega)
    assert np.max(np.abs(sol.states[:, 0] - want)) <= 1e-6
    # also the auxiliary stage carries its own datum at the left endpoint
    assert abs(rep1.solutions[0].states[0, 0] - (0.5 - 2.0j)) <= 1e-12


def test_second_order_diagonal_system():
    omegas = np.array([1.0, 3.0])
    A = np.diag(-omegas ** 2)
    p = variants.SecondOrderProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 2}),
        operators=(EdgeOperator(0, A),),
        B1=TransmissionOperator({}),
        B2=TransmissionOperator({}),
        g1={0: np.array([1.0, -1.0], dtype=complex)},
        g2={0: -1j * omegas * np.array([1.0, -1.0])},
        steps={0: 1500},
    )
    _, rep2 = variants.second_order_solve(p)
    sol = rep2.solutions[0]
    want = np.stack([np.cos(omegas[0] * sol.times),
                     -np.cos(omegas[1] * sol.times)], axis=1)
    assert np.max(np.abs(sol.states - want)) <= 1e-5


def test_second_order_rejects_singular_operator():
    p = variants.SecondOrderProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 1}),
        operators=(EdgeOperator(0, np.zeros((1, 1))),),
        B1=TransmissionOperator({}), B2=TransmissionOperator({}),
        g1={0: np.zeros(1)}, g2={0: np.zeros(1)},
    )
    with pytest.raises(ValueError):
        variants.second_order_solve(p)


def test_second_order_singular_stage_reports_which():
    # periodic condition at quarter period makes stage 1 resonant:
    # 1 - e^{-i omega} with omega = 2 pi
    omega = 2.0 * math.pi
    p = variants.SecondOrderProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 1}),
        operators=(EdgeOperator(0, np.array([[-omega ** 2]])),),
        B1=TransmissionOperator({}),
        B2=TransmissionOperator({(0, 0): np.array([[1.0]])}),
        g1={0: np.zeros(1)}, g2={0: np.zeros(1)},
        steps={0: 100},
    )
    with pytest.raises(solver.NotWellPosed) as err:
        variants.second_order_solve(p)
    assert err.value.stage == 1


def positive_problem():
    A = np.array([[-2.0, 0.5], [1.0, -3.0]])  # Metzler
    return TimeGraphProblem(
        graph=TimeGraph((0,), {0: 1.0}, {0: 2}),
        operators=(EdgeOperator(0, A),),
        B=TransmissionOperator({(0, 0): np.array([[0.4, 0.1],
                                                  [0.0, 0.3]])}),
        g={0: np.array([1.0, 0.5])},
        forcing=Forcing({0: ConstantForcing(np.array([1.0, 0.2]))}),
    )


def test_mapping_properties_all_pass_on_positive_problem():
    p = positive_problem()
    rep = variants.verify_mapping_properties(solver.solve(p), p)
    assert rep.failed_hypotheses == ()
    assert rep.real_defect <= 1e-13
    assert rep.positivity_defect <= 1e-12
    assert rep.sup_bound_defect == 0.0
    assert rep.sup_observed <= rep.sup_bound


def test_mapping_properties_flag_complex_data():
    p = positive_problem()
    q = TimeGraphProblem(p.graph, p.operators, p.B,
                         {0: np.array([1.0 + 1.0j, 0.5])}, p.forcing, p.steps)
    rep = variants.verify_mapping_properties(solver.solve(q), q)
    assert "real_data" in rep.failed_hypotheses
    assert rep.real_defect is None


def test_mapping_properties_flag_negative_coupling():
    p = positive_problem()
    q = TimeGraphProblem(
        p.graph, p.operators,
        TransmissionOperator({(0, 0): np.array([[-0.4, 0.0], [0.0, 0.3]])}),
        dict(p.g), p.forcing, p.steps)
    rep = variants.verify_mapping_properties(solver.solve(q), q)
    assert "B_entrywise_nonnegative" in rep.failed_hypotheses
    assert rep.positivity_defect is None


def test_mapping_properties_flag_non_metzler_operator():
    p = positive_problem()
    q = TimeGraphProblem(
        p.graph, (EdgeOperator(0, np.array([[-2.0, -0.5], [1.0, -3.0]])),),
        p.B, dict(p.g), p.forcing, p.steps)
    rep = variants.verify_mapping_properties(solver.solve(q), q)
    assert "A_metzler" in rep.failed_hypotheses


def test_mapping_properties_strict_raises():
    p = positive_problem()
    q = TimeGraphProblem(p.graph, p.operators, p.B,
                         {0: np.array([1.0 + 1.0j, 0.5])}, p.forcing, p.steps)
    with pytest.raises(variants.HypothesesNotMet) as err:
        variants.verify_mapping_properties(solver.solve(q), q, strict=True)
    assert "real_data" in err.value.failed


def test_mapping_properties_note_negative_data():
    p = positive_problem()
    q = TimeGraphProblem(p.graph, p.operators, p.B,
                         {0: np.array([-1.0, 0.5])}, p.forcing, p.steps)
    rep = variants.verify_mapping_properties(solver.solve(q), q)
    assert "g_nonnegative" in rep.failed_hypotheses
    # defect still measured so the caller can see how negative it went
    assert rep.positivity_defect is not None


def sequential_step_powers(Eh, K):
    """Eh^0 .. Eh^K one product at a time, as the sup bound once walked
    them."""
    powers = [np.eye(Eh.shape[0], dtype=complex)]
    for _ in range(K):
        powers.append(Eh @ powers[-1])
    return np.stack(powers)


def test_step_powers_by_doubling_match_the_sequential_walk():
    Eh = scipy.linalg.expm(0.1 * np.array([[-1.0, 2.0], [0.5, -0.3]]))
    for K in (0, 1, 2, 3, 7, 8, 9, 100):
        got = variants._step_powers(Eh, K)
        assert got.shape == (K + 1, 2, 2)
        want = sequential_step_powers(Eh, K)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sup_bound_matches_the_sequential_walk_on_presets(monkeypatch):
    for sid in scenarios.SCENARIO_IDS:
        p = preset(sid)
        report = solver.solve(p)
        got = variants.verify_mapping_properties(report, p)
        with monkeypatch.context() as m:
            m.setattr(variants, "_step_powers", sequential_step_powers)
            want = variants.verify_mapping_properties(report, p)
        assert got.sup_bound == want.sup_bound, sid
        assert got.sup_bound_defect == want.sup_bound_defect, sid


def dense_verify_mapping_properties(report, problem):
    """verify_mapping_properties as it was when it rebuilt the monodromy and
    the step operators and inverted I - B E twice, kept as the reference for
    the version that reads the solve's own."""
    gr = problem.graph
    failed = []
    real_defect = None
    if variants._is_real_problem(problem):
        real_defect = max(
            float(np.max(np.abs(report.solutions[e].states.imag)))
            for e in gr.edges)
    else:
        failed.append("real_data")
    B = problem.B.assemble(gr)
    tol = variants._ENTRYWISE_TOL
    operators_ok = True
    if np.max(np.abs(B.imag), initial=0.0) > 0.0 or \
            np.min(B.real, initial=0.0) < -tol:
        failed.append("B_entrywise_nonnegative")
        operators_ok = False
    if not all(variants._metzler(problem.operator(e)) for e in gr.edges):
        failed.append("A_metzler")
        operators_ok = False
    mono = solver.assemble_monodromy(problem)
    positivity_defect = None
    if operators_ok:
        try:
            Minv, _ = matfun.solve_linear(mono.M, np.eye(gr.size(),
                                                         dtype=complex))
        except matfun.SingularMatrix:
            failed.append("monodromy_invertible")
            operators_ok = False
        else:
            if np.min(Minv.real) < -tol:
                failed.append("inverse_entrywise_nonnegative")
                operators_ok = False
    if operators_ok:
        worst = 0.0
        for e in gr.edges:
            worst = min(worst, float(np.min(report.solutions[e].states.real)))
        positivity_defect = abs(min(worst, 0.0))
        if np.min(stack_edge_values(gr, problem.g).real) < 0.0:
            failed.append("g_nonnegative")
        for e in gr.edges:
            if np.min(forcing_node_values(problem, e).real, initial=0.0) < 0.0:
                failed.append(f"f_nonnegative[{e!r}]")
                break
    amax = max(float(gr.lengths[e]) for e in gr.edges)
    Emax = max(float(np.max(np.sum(np.abs(
        variants._step_powers(rec.Eh, problem.steps_for(e))), axis=-1)))
        for e, rec in solver.edge_recurrences(problem).items())
    Minv_norm = float(np.linalg.norm(np.linalg.inv(mono.M), np.inf))
    B_inf = float(np.linalg.norm(B, np.inf))
    g_inf = float(np.max(np.abs(stack_edge_values(gr, problem.g)),
                         initial=0.0))
    f_inf = max(float(np.max(np.abs(forcing_node_values(problem, e)),
                             initial=0.0)) for e in gr.edges)
    bound = (Emax * Minv_norm * (g_inf + B_inf * amax * Emax * f_inf)
             + amax * Emax * f_inf)
    observed = max(float(np.max(np.abs(report.solutions[e].states)))
                   for e in gr.edges)
    return variants.MappingReport(real_defect, positivity_defect,
                                  max(0.0, observed - bound), bound,
                                  observed, tuple(failed))


def test_mapping_properties_match_the_dense_reference_on_presets():
    problems = [preset(sid) for sid in scenarios.SCENARIO_IDS]
    problems.append(positive_problem())
    for p in problems:
        report = solver.solve(p)
        got = variants.verify_mapping_properties(report, p)
        want = dense_verify_mapping_properties(report, p)
        assert got.failed_hypotheses == want.failed_hypotheses
        for name in ("real_defect", "positivity_defect", "sup_bound_defect",
                     "sup_bound", "sup_observed"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300), name
