import collections
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import numpy.linalg._linalg
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

from chronograph import (cli, matfun, oracle, problem_io, scenarios, solver,
                         variants)
from chronograph import problem as problem_module
from chronograph.graph import TimeGraph
from chronograph.problem import (ConstantForcing, EdgeOperator, Forcing,
                                 SampledForcing, TimeGraphProblem,
                                 TransmissionOperator, forcing_node_values,
                                 stack_edge_values)
from conftest import dense_B, preset


def ivp_problem(A, g0, f=None, length=1.0, steps=100):
    d = A.shape[0]
    forcing = Forcing({0: ConstantForcing(np.asarray(f))}) if f is not None \
        else Forcing.zero()
    return TimeGraphProblem(
        graph=TimeGraph((0,), {0: length}, {0: d}),
        operators=(EdgeOperator(0, A),),
        B=TransmissionOperator({}),
        g={0: np.asarray(g0)},
        forcing=forcing,
        steps={0: steps},
    )


def test_periodic_steady_state_is_exact():
    rep = solver.solve(preset("periodic"))
    assert np.max(np.abs(rep.solutions[0].states - 1.0)) <= 1e-13


def test_phase_shift_closed_form():
    rep = solver.solve(preset("phase_shift"))
    e1 = math.exp(-1.0)
    want = 2.0 * (1.0 - e1) / (1.0 - 2.0 * e1)
    sol = rep.solutions[0]
    assert abs(sol.states[0, 0] - want) <= 1e-12
    assert abs(sol.states[0, 0] - 2.0 * sol.states[-1, 0]) <= 1e-12


def test_jump_condition_closed_form():
    rep = solver.solve(preset("jump_condition"))
    sol = rep.solutions[0]
    assert abs(sol.states[0, 0] - 1.0 / (1.0 - math.exp(-1.0))) <= 1e-12
    # the jump datum reappears as the difference of the endpoint values
    assert abs((sol.states[0, 0] - sol.states[-1, 0]) - 1.0) <= 1e-12


def test_unforced_ivp_matches_independent_exponential(rng):
    M = rng.standard_normal((3, 3))
    A = M - 2.0 * np.eye(3)
    g0 = rng.standard_normal(3)
    rep = solver.solve(ivp_problem(A, g0, steps=20))
    sol = rep.solutions[0]
    for t, state in zip(sol.times, sol.states):
        want = scipy.linalg.expm(t * A) @ g0
        assert np.max(np.abs(state - want)) <= 1e-11 * max(
            1.0, np.max(np.abs(want)))


def test_constant_forcing_ivp_matches_variation_of_constants(rng):
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    f = np.array([1.0, -0.5])
    g0 = np.array([0.3, 0.7])
    rep = solver.solve(ivp_problem(A, g0, f=f, steps=50))
    sol = rep.solutions[0]
    Ainv_f = np.linalg.solve(A, f)
    for t, state in zip(sol.times, sol.states):
        E = scipy.linalg.expm(t * A)
        want = E @ g0 + (E - np.eye(2)) @ Ainv_f
        assert np.max(np.abs(state - want)) <= 1e-11


def test_step_count_invariance_for_piecewise_linear_forcing():
    # the recurrence is exact for linear-in-time forcing, so refining the
    # grid must not move the shared nodes
    A = np.array([[-1.5]])
    coarse_nodes = np.linspace(0.0, 1.0, 26)[:, None]
    fine_nodes = np.linspace(0.0, 1.0, 101)[:, None]
    coarse = solver.solve(TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: 1}), (EdgeOperator(0, A),),
        TransmissionOperator({}), {0: np.array([1.0])},
        Forcing({0: SampledForcing(0.5 + 2.0 * coarse_nodes)}), {0: 25}))
    fine = solver.solve(TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: 1}), (EdgeOperator(0, A),),
        TransmissionOperator({}), {0: np.array([1.0])},
        Forcing({0: SampledForcing(0.5 + 2.0 * fine_nodes)}), {0: 100}))
    assert np.max(np.abs(coarse.solutions[0].states
                         - fine.solutions[0].states[::4])) <= 1e-13


def test_solve_rejects_invalid_problem():
    p = TimeGraphProblem(TimeGraph((0,), {0: 1.0}, {0: 1}), (),
                         TransmissionOperator({}))
    with pytest.raises(ValueError):
        solver.solve(p)


def test_singular_boundary_system_raises():
    # neutral flow looped back onto itself: I - B E = 0
    p = TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: 1}),
        (EdgeOperator(0, np.zeros((1, 1))),),
        TransmissionOperator({(0, 0): np.array([[1.0]])}),
        {0: np.array([1.0])})
    with pytest.raises(solver.NotWellPosed) as err:
        solver.solve(p)
    assert err.value.rcond <= solver.SINGULAR_RCOND


def test_near_singular_flagged_not_fatal():
    p = TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: 1}),
        (EdgeOperator(0, np.zeros((1, 1))),),
        TransmissionOperator({(0, 0): np.array([[1.0 - 1e-9]])}),
        {0: np.array([1.0])})
    rep = solver.solve(p)
    assert rep.ill_conditioned
    assert rep.monodromy_rcond < solver.ILL_CONDITIONED_RCOND


def test_monodromy_assembly():
    p = preset("phase_shift")
    mono = solver.assemble_monodromy(p)
    assert abs(mono.M[0, 0] - (1.0 - 2.0 * math.exp(-1.0))) <= 1e-14
    assert abs(mono.rcond - abs(mono.M[0, 0])) <= 1e-14


def dense_monodromy(problem):
    """I - B E with B and E = blockdiag(e^{a_j A_j}) formed as n x n
    matrices: the dense construction the block-wise assembly replaces."""
    gr = problem.graph
    E = scipy.linalg.block_diag(*[
        scipy.linalg.expm(float(gr.lengths[e]) * problem.operator(e))
        for e in gr.edges])
    return np.eye(gr.size()) - dense_B(gr, problem.B) @ E


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
def test_blockwise_monodromy_matches_the_dense_product(n, seed):
    rng = np.random.default_rng(seed)
    edges = tuple(range(n))
    dims = {e: int(rng.integers(1, 4)) for e in edges}
    lengths = {e: float(rng.uniform(0.2, 2.0)) for e in edges}
    ops = tuple(EdgeOperator(e, rng.standard_normal((dims[e], dims[e]))
                             + 1j * rng.standard_normal((dims[e], dims[e])))
                for e in edges)
    blocks = {(i, j): rng.standard_normal((dims[i], dims[j]))
              for i in edges for j in edges if rng.random() < 0.4}
    p = TimeGraphProblem(TimeGraph(edges, lengths, dims), ops,
                         TransmissionOperator(blocks))
    mono = solver.assemble_monodromy(p)
    want = dense_monodromy(p)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(mono.M - want)) <= 1e-12 * scale
    assert abs(mono.rcond - matfun.rcond_identity_scale(want)) <= 1e-12


def test_forced_terminal_integrals_scalar_value():
    p = preset("periodic")
    F = solver.forced_terminal_integrals(p, solver.edge_recurrences(p))
    assert abs(F[0] - (1.0 - math.exp(-1.0))) <= 1e-13


def test_report_trace_views():
    p = preset("tadpole")
    rep = solver.solve(p)
    assert np.allclose(rep.psi_minus(),
                       [rep.solutions[0].states[0, 0],
                        rep.solutions[1].states[0, 0]])
    # the terminal values close the boundary identity psi_- = B psi_+ + g
    plus = np.concatenate([rep.solutions[e].states[-1]
                           for e in rep.edge_order])
    assert np.allclose(rep.psi_minus(),
                       dense_B(p.graph, p.B) @ plus
                       + stack_edge_values(p.graph, p.g))


def sequential_states(problem, edge, start):
    """The recurrence x[k+1] = Eh x[k] + Q1 f[k] + Q2 (f[k+1] - f[k]), one
    step at a time from fresh step operators."""
    K = problem.steps_for(edge)
    h = float(problem.graph.lengths[edge]) / K
    Eh, P1, P2 = matfun.expm_phi12(h * problem.operator(edge))
    f = forcing_node_values(problem, edge)
    states = np.empty((K + 1, len(start)), dtype=complex)
    states[0] = start
    for k in range(K):
        states[k + 1] = (Eh @ states[k] + h * P1 @ f[k]
                         + h * P2 @ (f[k + 1] - f[k]))
    return states


@given(st.integers(1, 8),
       st.sampled_from([1, 2, 3, 5, 6, 7, 12, 31, 33, 100, 127, 129, 250]),
       st.floats(-1.0, 1.0), st.integers(0, 10 ** 6))
def test_scan_matches_sequential_recurrence(d, K, growth, seed):
    # non-normal A (large strictly upper part) shifted so that its spectral
    # abscissa is `growth`: the flow grows mildly or decays
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((d, d))
         + 3.0 * np.triu(rng.standard_normal((d, d)), 1))
    A += (growth - np.max(np.linalg.eigvals(A).real)) * np.eye(d)
    samples = rng.standard_normal((K + 1, d))
    p = TimeGraphProblem(
        TimeGraph((0,), {0: 1.0}, {0: d}), (EdgeOperator(0, A),),
        TransmissionOperator({}), {0: rng.standard_normal(d)},
        Forcing({0: SampledForcing(samples)}), {0: K})
    got = solver.solve(p).solutions[0].states
    want = sequential_states(p, 0, got[0])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_step_defect_detects_a_perturbed_state():
    for sid in scenarios.SCENARIO_IDS:
        p = preset(sid)
        recurrences = solver.edge_recurrences(p)
        rep = solver.solve(p)
        assert rep.ode_residual <= 1e-11, sid
        assert solver._one_step_defect(rep.solutions, recurrences) \
            == rep.ode_residual, sid
        e = p.graph.edges[0]
        sol = rep.solutions[e]
        states = sol.states.copy()
        states[len(states) // 2, 0] += 1e-6
        bad = dict(rep.solutions)
        bad[e] = dataclasses.replace(sol, states=states)
        assert solver._one_step_defect(bad, recurrences) > 1e-8, sid


def test_overflowing_step_operator_names_the_edge():
    # one step spans the whole edge, so the step operator e^{hA} overflows
    # just as the propagator does; the solve reports the propagator first
    p = TimeGraphProblem(
        TimeGraph(("a",), {"a": 10.0}, {"a": 1}),
        (EdgeOperator("a", [[80.0]]),),
        TransmissionOperator({}), {"a": np.array([1.0])}, steps={"a": 1})
    with pytest.raises(ValueError, match=r"^edge 'a' \(length 10\.0\): "
                       r"a step operator for h = 10\.0 is not finite$"):
        solver.edge_recurrences(p)


def test_overflowing_step_exponent_names_the_edge():
    p = TimeGraphProblem(
        TimeGraph(("a",), {"a": 1e10}, {"a": 1}),
        (EdgeOperator("a", [[-1e300]]),),
        TransmissionOperator({}), {"a": np.array([1.0])}, steps={"a": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as step:
            solver.edge_recurrences(p)
        with pytest.raises(ValueError) as propagator:
            solver.assemble_monodromy(p)
    where = "edge 'a' (length 10000000000.0): "
    assert str(step.value) == \
        where + "the exponent h A for h = 10000000000.0 is not finite"
    assert str(propagator.value) == \
        where + "the exponent length A is not finite"


def test_composite_simpson_quadrature():
    f = lambda x: x ** 3 - 2.0 * x
    exact = 1.0 / 4.0 - 1.0  # integral over [0, 1]
    for n in (2, 3, 5, 8, 9):
        xs = np.linspace(0.0, 1.0, n + 1)
        got = solver._composite_simpson(f(xs), 1.0 / n)
        assert abs(got - exact) <= 1e-14  # degree-3 exactness
    xs = np.linspace(0.0, 1.0, 2)
    assert abs(solver._composite_simpson(f(xs), 1.0)
               - 0.5 * (f(0.0) + f(1.0))) <= 1e-15


def test_energy_defect_small_on_presets():
    for sid in ("periodic", "tadpole", "lions_chain"):
        rep = solver.solve(preset(sid))
        assert rep.energy_defect <= 1e-8


def test_resolvent_at_resonance_raises():
    with pytest.raises(solver.NotWellPosed):
        solver.resolvent_Dt(preset("periodic"), 0.0)


def test_resolvent_off_resonance_steady_state():
    rep = solver.resolvent_Dt(preset("periodic"), -1.0)
    assert np.max(np.abs(rep.solutions[0].states - 1.0)) <= 1e-12


def test_solution_grades():
    p = preset("periodic")
    assert solver.solution_grade(p) == solver.CLASSICAL
    bad = TimeGraphProblem(
        p.graph, p.operators, p.B, dict(p.g),
        Forcing({0: SampledForcing(np.full((101, 1), np.nan))}), dict(p.steps))
    assert solver.solution_grade(bad) == solver.STRONG
    assert solver.solution_grade(bad, None) == solver.STRONG


def test_commutator_norm_zero_for_single_edge_scalar():
    rep = solver.solve(preset("periodic"))
    assert rep.commutator_norm <= 1e-14


def test_commutator_norm_matches_dense_commutator_on_presets():
    for sid in scenarios.SCENARIO_IDS:
        p = preset(sid)
        gr = p.graph
        AV = scipy.linalg.block_diag(*[p.operator(e) for e in gr.edges])
        B = dense_B(gr, p.B)
        dense = np.linalg.norm(AV @ B - B @ AV, 2)
        assert abs(solver._commutator_norm(p) - dense) \
            <= 1e-13 * max(dense, 1.0), sid


def test_commutator_norm_positive_when_coupling_mixes():
    rep = solver.solve(preset("lions_chain"))
    assert rep.commutator_norm > 1e-6


def scalar_graph_doc(n, ring, dims=(1,)):
    """n edges in a chain, closed into a loop when ring is set; edge k has
    dimension dims[k % len(dims)] and a diagonal decaying A."""
    rng = np.random.default_rng(n)
    dim = [dims[k % len(dims)] for k in range(n)]
    edges = [{"id": k, "length": 1.0, "dim": dim[k], "steps": 20,
              "A": np.diag(-rng.uniform(0.5, 2.0, dim[k])).tolist(),
              "f": {"kind": "constant",
                    "value": rng.uniform(-1.0, 1.0, dim[k]).tolist()}}
             for k in range(n)]
    edges[0]["g"] = [1.0] * dim[0]
    pairs = [(k - 1, k) for k in range(1, n)] + ([(n - 1, 0)] if ring else [])
    blocks = [{"from": j, "to": i,
               "matrix": (0.8 * np.ones((dim[i], dim[j])) / dim[j]).tolist()}
              for j, i in pairs]
    return {"edges": edges, "blocks": blocks, "mode": "parabolic"}


def schrodinger_graph_doc(n, dims):
    """scalar_graph_doc's chain in Schrodinger mode, every edge with
    A = -0.7 I, so the propagators are one phase times I and commute with
    every block: the unitarity check runs to the end."""
    doc = scalar_graph_doc(n, False, dims)
    for edge in doc["edges"]:
        edge["A"] = (-0.7 * np.eye(edge["dim"])).tolist()
    doc["mode"] = "schrodinger"
    return doc


@pytest.mark.parametrize(
    "ring, dims, mode",
    [(False, (1,), "parabolic"), (True, (1,), "parabolic"),
     (True, (1, 2), "parabolic"), (False, (1, 2), "schrodinger")],
    ids=["False-dims0", "True-dims1", "True-dims2", "schrodinger"])
def test_cli_solve_computes_each_dense_quantity_once(tmp_path, monkeypatch,
                                                     ring, dims, mode):
    n = 100
    path = tmp_path / "problem.json"
    doc = (schrodinger_graph_doc(n, dims) if mode == "schrodinger"
           else scalar_graph_doc(n, ring, dims))
    path.write_text(json.dumps(doc))
    size = sum(dims[k % len(dims)] for k in range(n))
    stage = [None]
    expm_calls = collections.Counter()
    svd_shapes = []
    inverted = []
    eig_calls = []
    forcing_edges = collections.Counter()
    diagnostic_stages = collections.defaultdict(list)

    def in_stage(name, fn):
        def wrapper(*args, **kwargs):
            stage.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()
        return wrapper

    def counted_expm(A, _expm=matfun.expm):
        expm_calls[stage[-1], np.shape(A)[-1]] += 1
        return _expm(A)

    def recorded_svd(a, *args, _svd=np.linalg.svd, **kwargs):
        svd_shapes.append(np.shape(a))
        return _svd(a, *args, **kwargs)

    def recorded(name, fn):
        def wrapper(a, *args, **kwargs):
            inverted.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    def square_svds():
        return [s for s in svd_shapes if s[-2:] == (size, size)]

    def counted_eig(A, _eig=matfun.hermitian_eig):
        eig_calls.append(np.shape(A))
        return _eig(A)

    def counted_forcing(problem, edge, *args,
                        _fnv=problem_module.forcing_node_values, **kwargs):
        forcing_edges[edge] += 1
        return _fnv(problem, edge, *args, **kwargs)

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            diagnostic_stages[name].append(stage[-1])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matfun, "expm", counted_expm)
    monkeypatch.setattr(matfun, "hermitian_eig", counted_eig)
    for name in ("assemble_monodromy", "edge_recurrences"):
        monkeypatch.setattr(solver, name,
                            in_stage(name, getattr(solver, name)))
    monkeypatch.setattr(cli, "diagnose", in_stage("diagnose", cli.diagnose))
    monkeypatch.setattr(oracle, "cn_solve", in_stage("cn_solve",
                                                     oracle.cn_solve))
    # every binding of the forcing sampler, as perfbench's tracer patches it
    for module in (problem_module, solver, oracle, variants):
        if hasattr(module, "forcing_node_values"):
            monkeypatch.setattr(module, "forcing_node_values",
                                counted_forcing)
    diagnostics = ("energy_defect_of", "_boundary_residual",
                   "_commutator_norm")
    for name in diagnostics:
        monkeypatch.setattr(solver, name, staged(name, getattr(solver, name)))
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(numpy.linalg._linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "inv", recorded("inv", np.linalg.inv))
    for name in ("inv", "solve"):
        monkeypatch.setattr(scipy.linalg, name,
                            recorded(name, getattr(scipy.linalg, name)))

    assert cli.run_solve(str(path), str(tmp_path)) == 0
    # the forcing is sampled once per edge and solve, and every consumer
    # reads those samples
    assert forcing_edges == collections.Counter(range(n))
    # one stacked exponential per stage and dim group (expm_phi12's
    # augmented matrices are 3d x 3d), none anywhere else
    groups = sorted(set(dims))
    solve_expms = collections.Counter(
        [("assemble_monodromy", d) for d in groups]
        + [("edge_recurrences", 3 * d) for d in groups])
    assert expm_calls == solve_expms
    assert square_svds() == [(size, size)]
    if mode == "schrodinger":
        # the unitarity check reads the solve's propagators and singular
        # values: no second SVD or inverse of M, one eigensystem per edge
        assert inverted == [("solve", (size, size))]
        assert len(eig_calls) == n
        unitarity = json.loads((tmp_path / "report.json").read_text())[
            "unitarity"]
        assert unitarity["checked"] and unitarity["unitary"] is False
        return

    # compare: the fixed-point iteration reuses the solve's system, so the
    # solve's SVD and the two reference solves' are the only n x n ones;
    # the reference returns trajectories, so each diagnostic runs once, in
    # the solve, and never inside cn_solve
    expm_calls.clear()
    svd_shapes.clear()
    diagnostic_stages.clear()
    assert cli.run_compare(str(path), {"cn_steps": 40, "tol": 1e-2,
                                       "out": str(tmp_path)}) == 0
    assert json.loads((tmp_path / "compare.json").read_text())["picard"] \
        == {"converged": True}
    assert expm_calls == solve_expms
    assert square_svds() == [(size, size)] * 3
    assert diagnostic_stages == {name: [None] for name in diagnostics}

    # mapping properties read the report's operators and invert M once
    problem, _, _ = problem_io.load_problem_file(str(path))
    report = solver.solve(problem)
    expm_calls.clear()
    svd_shapes.clear()
    inverted.clear()
    forcing_edges.clear()
    variants.verify_mapping_properties(report, problem)
    assert expm_calls == collections.Counter()
    assert forcing_edges == collections.Counter()
    assert square_svds() == []
    assert inverted == [("inv", (size, size))]


def test_dense_memory_stays_within_budget():
    """M is the only n x n array a solve or the Crank-Nicolson reference
    holds, so each peaks within M plus one workspace, in units of one
    complex n x n array (16 n^2 bytes); a dense B or E~ beside M exceeds
    the budget."""
    n = 400
    problem, _, _ = problem_io.load_problem_dict(scalar_graph_doc(n, True))
    unit = 16 * n * n

    def peak(fn):
        fn()  # first call outside the trace: imports and caches
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    assert peak(lambda: solver.solve(problem)) <= 1.75
    assert peak(lambda: oracle.cn_solve(problem, 8)) <= 2.0
