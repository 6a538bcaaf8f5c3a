import collections
import json
import math
import os
import re
import subprocess
import sys
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
                                 TransmissionOperator, diagnose,
                                 forcing_node_values, stack_edge_values)
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
    f = forcing_node_values(problem, edge, problem.times(edge))
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
        chunks = solver.edge_recurrences(p)
        rep = solver.solve(p)
        assert rep.ode_residual <= 1e-11, sid
        assert solver._one_step_defect(p, chunks, rep.states) \
            == rep.ode_residual, sid
        # the first edge's states are the first row of the first stack
        bad = [X.copy() for X in rep.states]
        bad[0][0, bad[0].shape[1] // 2, 0] += 1e-6
        assert solver._one_step_defect(p, chunks, bad) > 1e-8, sid


def test_residuals_of_an_overflowing_state_name_it():
    """A finite state of 1e200 overflows the unscaled norms: the one-step
    defect names its edge, the boundary residual its numerator, instead of
    dropping a NaN or reporting an infinity."""
    p = preset("periodic")
    rep = solver.solve(p)
    states = rep.states[0].copy()
    states[0, 0, 0] = 1e200
    bad = (states,)
    with np.errstate(over="ignore", invalid="ignore"):  # as in propagate
        with pytest.raises(ValueError, match=r"^edge 0 \(length 1\.0\): "
                           r"the one-step defect is not finite$"):
            solver._one_step_defect(p, rep.chunks, bad)
        with pytest.raises(ValueError, match="^the boundary residual is not "
                           "finite$"):
            solver._boundary_residual(p, bad)


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
    # one row per interval, [0, 1] and [0, 2], each with its own spacing
    f = lambda x: x ** 3 - 2.0 * x
    exact = [1.0 / 4.0 - 1.0, 4.0 - 4.0]
    for n in (2, 3, 5, 8, 9):
        xs = np.linspace(0.0, 1.0, n + 1)
        got = solver._composite_simpson(np.stack([f(xs), f(2.0 * xs)]),
                                        np.array([1.0, 2.0]) / n)
        assert np.max(np.abs(got - exact)) <= 1e-14  # degree-3 exactness
    xs = np.linspace(0.0, 1.0, 2)
    got = solver._composite_simpson(np.stack([f(xs), f(2.0 * xs)]),
                                    np.array([1.0, 2.0]))
    assert np.max(np.abs(got - [0.5 * (f(0.0) + f(1.0)),
                                f(0.0) + f(2.0)])) <= 1e-15


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


def commutator_norm(p):
    return diagnose(p, solver.solve(p).monodromy).commutator_norm


def test_commutator_norm_zero_for_single_edge_scalar():
    assert commutator_norm(preset("periodic")) <= 1e-14


def test_commutator_norm_matches_dense_commutator_on_presets():
    for sid in scenarios.SCENARIO_IDS:
        p = preset(sid)
        gr = p.graph
        AV = scipy.linalg.block_diag(*[p.operator(e) for e in gr.edges])
        B = dense_B(gr, p.B)
        dense = np.linalg.norm(AV @ B - B @ AV, 2)
        assert abs(commutator_norm(p) - dense) <= 1e-13 * max(dense, 1.0), sid


def test_commutator_norm_positive_when_coupling_mixes():
    assert commutator_norm(preset("lions_chain")) > 1e-6


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


def block_ring_doc(above):
    """Eight edges of dimension 32 on a ring, each fed by itself and by its
    predecessor through full blocks.  A is diagonal, so B E has B's
    pattern, and M = I - B E has 16 x 32^2 nonzero entries, exactly a
    quarter of 256 x 256.  With above set, one more block adds a single
    nonzero entry."""
    doc = scalar_graph_doc(8, True, (32,))
    doc["blocks"] += [{"from": k, "to": k,
                       "matrix": (0.1 * np.ones((32, 32)) / 32).tolist()}
                      for k in range(8)]
    if above:
        extra = np.zeros((32, 32))
        extra[0, 0] = 0.1
        doc["blocks"].append({"from": 2, "to": 0, "matrix": extra.tolist()})
    return doc


N = matfun.DENSE_BOUNDARY_MAX


@pytest.mark.parametrize(
    "doc, dense",
    [(scalar_graph_doc(100, False), True), (scalar_graph_doc(100, True), True),
     (scalar_graph_doc(100, True, (1, 2)), True),
     (schrodinger_graph_doc(100, (1, 2)), True),
     (scalar_graph_doc(N - 1, False), True),
     (scalar_graph_doc(N, False), False),
     (scalar_graph_doc(1, True, (N,)), True),
     (block_ring_doc(above=True), True), (block_ring_doc(above=False), False)],
    ids=["False-dims0", "True-dims1", "True-dims2", "schrodinger",
         "dense-side", "sparse-side", "full-self-block",
         "ring-above-quarter", "ring-at-quarter"])
def test_cli_solve_computes_each_dense_quantity_once(tmp_path, monkeypatch,
                                                     doc, dense):
    """On the dense side of matfun.block_matrix's rule (below
    DENSE_BOUNDARY_MAX unknowns, or more than a quarter of M nonzero) a
    solve takes one n x n SVD and one dense solve of M, and no Lanczos
    iteration on it; on the sparse side, no SVD or dense solve of M and
    two Lanczos iterations (M and its inverse).  block_norm runs once in
    diagnose (||B|| and the commutator from one walk of B's components),
    three times in the unitarity check, and never in a solve or a
    compare."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    n = len(doc["edges"])
    groups = sorted({edge["dim"] for edge in doc["edges"]})
    mode = doc["mode"]
    size = sum(edge["dim"] for edge in doc["edges"])
    stage = [None]
    expm_calls = collections.Counter()
    svd_shapes = []
    inverted = []
    eig_calls = []
    forcing_calls = []
    operator_stacks = []
    diagnostic_stages = collections.defaultdict(list)
    lanczos_stages = []
    block_norm_stages = []

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
        """SVDs of one size x size matrix; block_norm's stacked SVDs of
        components are (k, rows, cols)."""
        return [s for s in svd_shapes if s == (size, size)]

    def recorded_block_norm(*args, _block_norm=problem_module.block_norm):
        block_norm_stages.append(stage[-1])
        return _block_norm(*args)

    def recorded_lanczos(A, _lanczos=matfun.lanczos_sigma_max):
        lanczos_stages.append(stage[-1])
        return _lanczos(A)

    def counted_eig(A, _eig=matfun.hermitian_eig):
        eig_calls.append(np.shape(A))
        return _eig(A)

    def counted_forcing(problem, edge, times,
                        _fnv=problem_module.forcing_node_values):
        forcing_calls.append((stage[-1], edge, np.array(times)))
        return _fnv(problem, edge, times)

    operator_groups = TimeGraphProblem.__dict__["operator_groups"]

    def counted_groups(problem, _groups=operator_groups.func):
        groups = _groups(problem)
        operator_stacks.extend(A.shape for _, A in groups)
        return groups

    def staged(name, fn):
        def wrapper(*args, **kwargs):
            diagnostic_stages[name].append(stage[-1])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matfun, "expm", counted_expm)
    monkeypatch.setattr(matfun, "hermitian_eig", counted_eig)
    monkeypatch.setattr(matfun, "lanczos_sigma_max", recorded_lanczos)
    monkeypatch.setattr(operator_groups, "func", counted_groups)
    for name in ("solve", "assemble_monodromy", "edge_recurrences"):
        monkeypatch.setattr(solver, name,
                            in_stage(name, getattr(solver, name)))
    monkeypatch.setattr(cli, "diagnose", in_stage("diagnose", cli.diagnose))
    monkeypatch.setattr(variants, "unitarity_check",
                        in_stage("unitarity_check", variants.unitarity_check))
    # every binding of block_norm
    for module in (problem_module, solver, variants):
        if hasattr(module, "block_norm"):
            monkeypatch.setattr(module, "block_norm", recorded_block_norm)
    monkeypatch.setattr(oracle, "cn_solve", in_stage("cn_solve",
                                                     oracle.cn_solve))
    # every binding of the forcing sampler, as perfbench's tracer patches it
    for module in (problem_module, solver, oracle, variants):
        if hasattr(module, "forcing_node_values"):
            monkeypatch.setattr(module, "forcing_node_values",
                                counted_forcing)
    diagnostics = ("energy_defect_of", "_boundary_residual")
    for name in diagnostics:
        monkeypatch.setattr(solver, name, staged(name, getattr(solver, name)))
    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(numpy.linalg._linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "inv", recorded("inv", np.linalg.inv))
    for name in ("inv", "solve"):
        monkeypatch.setattr(scipy.linalg, name,
                            recorded(name, getattr(scipy.linalg, name)))

    assert cli.run_solve(str(path), str(tmp_path)) == 0
    # the solve writes the node forcing straight from the specs: nothing
    # is sampled
    assert forcing_calls == []
    # each dim group's operators are stacked once, and every stacked
    # consumer reads that stack
    dims = collections.Counter(edge["dim"] for edge in doc["edges"])
    group_stacks = sorted((count, d, d) for d, count in dims.items())
    assert sorted(operator_stacks) == group_stacks
    # one stacked exponential per stage and dim group (expm_phi12's
    # augmented matrices are 3d x 3d), none anywhere else
    solve_expms = collections.Counter(
        [("assemble_monodromy", d) for d in groups]
        + [("edge_recurrences", 3 * d) for d in groups])
    assert expm_calls == solve_expms
    dense_side = int(dense)
    assert square_svds() == [(size, size)] * dense_side
    assert inverted == [("solve", (size, size))] * dense_side
    assert lanczos_stages.count("assemble_monodromy") == 2 * (1 - dense_side)
    if mode == "schrodinger":
        # the unitarity check reads the solve's propagators and singular
        # values: no second SVD or inverse of M; the generators i H_j are
        # formed without an eigensystem; it walks B's components with
        # [B, E] and B, E's with E, and B^2 - 2 B cos(aH)'s
        assert eig_calls == []
        assert block_norm_stages == ["diagnose"] + ["unitarity_check"] * 3
        unitarity = json.loads((tmp_path / "report.json").read_text())[
            "unitarity"]
        assert unitarity["checked"] and unitarity["unitary"] is False
        return
    assert block_norm_stages == ["diagnose"]

    # compare: the fixed-point iteration reuses the solve's system, so the
    # solve's SVD (dense side) and the two reference solves' are the only
    # n x n ones;
    # the reference returns trajectories, so each diagnostic runs once, in
    # the solve, and never inside cn_solve
    expm_calls.clear()
    svd_shapes.clear()
    diagnostic_stages.clear()
    operator_stacks.clear()
    block_norm_stages.clear()
    assert cli.run_compare(str(path), {"cn_steps": 40, "tol": 1e-2,
                                       "out": str(tmp_path)}) == 0
    compared = json.loads((tmp_path / "compare.json").read_text())
    assert compared["picard"] == {"converged": True}
    assert expm_calls == solve_expms
    assert sorted(operator_stacks) == group_stacks
    # the reference samples each edge's forcing at its own fine and
    # coarse grid nodes, and nothing else samples it
    fine = compared["cn_steps"]
    lengths = {edge["id"]: edge["length"] for edge in doc["edges"]}
    assert sorted((where, e, len(t) - 1) for where, e, t in forcing_calls) \
        == sorted(("cn_solve", e, N) for e in range(n)
                  for N in (fine, fine // 2))
    for _, e, t in forcing_calls:
        assert t.tobytes() == np.linspace(0.0, lengths[e], len(t)).tobytes()
    assert square_svds() == [(size, size)] * (2 + dense_side)
    assert diagnostic_stages == {name: ["solve"] for name in diagnostics}
    assert block_norm_stages == []

    # mapping properties read the report's operators and invert M once
    problem, _, _ = problem_io.load_problem_file(str(path))
    report = solver.solve(problem)
    assert block_norm_stages == []
    expm_calls.clear()
    svd_shapes.clear()
    inverted.clear()
    forcing_calls.clear()
    variants.verify_mapping_properties(report, problem)
    assert expm_calls == collections.Counter()
    assert forcing_calls == []
    assert square_svds() == []
    assert inverted == [("inv", (size, size))]


def test_dense_memory_stays_within_budget():
    """In units of one complex n x n array (16 n^2 bytes): at n = 400 the
    solve holds M sparse and allocates no n x n array, so it peaks well
    below one unit; the Crank-Nicolson reference holds its dense I - B E~
    and one workspace, and a dense B or E~ beside it exceeds the budget."""
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

    assert peak(lambda: solver.solve(problem)) <= 0.75
    assert peak(lambda: oracle.cn_solve(problem, 8)) <= 2.0


def boundary_problem(size, ring, extra, delta, seed):
    """A chain of edges of dims 1-3 with size unknowns in all, closed into
    a ring when ring is set, with extra random blocks.  With delta set, the
    ring is near-singular instead: A_j = -alpha_j I and blocks whose
    first components go round the loop with gain 1 - delta, so that
    sigma_min(M) is about delta / edges."""
    rng = np.random.default_rng(seed)
    dims = []
    while sum(dims) < size:
        dims.append(int(rng.integers(1, 4)))
    dims[-1] -= sum(dims) - size
    edges = tuple(range(len(dims)))
    d = dict(zip(edges, dims))
    lengths = {e: float(rng.uniform(0.5, 1.5)) for e in edges}
    near = delta is not None
    ops = {e: (-rng.uniform(0.0, 0.5) * np.eye(d[e]) if near
               else rng.standard_normal((d[e], d[e])) - 2.0 * np.eye(d[e]))
           for e in edges}
    pairs = [(k, k - 1) for k in edges[1:]] + ([(0, edges[-1])] if ring
                                               else [])
    if near:
        gain = (1.0 - delta) ** (1.0 / len(edges))
        blocks = {(i, j): gain * np.exp(-ops[j][0, 0] * lengths[j])
                  * np.eye(d[i], d[j]) for i, j in pairs}
    else:
        blocks = {(i, j): rng.uniform(0.2, 1.0, (d[i], d[j])) / d[j]
                  for i, j in pairs}
        for _ in range(extra):
            i, j = (int(x) for x in rng.integers(0, len(edges), 2))
            blocks[i, j] = 0.3 * rng.standard_normal((d[i], d[j])) / d[j]
    forcing = Forcing({e: ConstantForcing(rng.standard_normal(d[e]))
                       for e in edges if rng.random() < 0.5})
    return TimeGraphProblem(
        TimeGraph(edges, lengths, d),
        tuple(EdgeOperator(e, ops[e]) for e in edges),
        TransmissionOperator(blocks), {0: rng.standard_normal(d[0])},
        forcing, {e: 4 for e in edges})


def _gate(rcond):
    """0 refused, 1 ill-conditioned, 2 well-conditioned."""
    return int(rcond >= solver.SINGULAR_RCOND) \
        + int(rcond >= solver.ILL_CONDITIONED_RCOND)


@given(st.integers(0, 64), st.booleans(), st.integers(0, 8),
       st.one_of(st.none(), st.floats(-16.0, -2.0)), st.integers(0, 10 ** 6))
def test_sparse_boundary_system_matches_the_dense_oracle(offset, ring, extra,
                                                         log_delta, seed):
    """At n >= DENSE_BOUNDARY_MAX, SuperLU and Lanczos against a dense
    I - B E, its SVD and la.solve.  Each side's sigma_min carries a backward
    error of a few eps ||M|| (Weyl), so rcond agrees within 1e-12 relative
    plus 16 eps, and c within 1e-13 relative plus the forward-error term
    eps / rcond; the gate decisions agree outside a factor-2 band around
    each gate."""
    delta = None if log_delta is None or not ring else 10.0 ** log_delta
    p = boundary_problem(N + offset, ring, extra, delta, seed)
    mono = solver.assemble_monodromy(p)
    dense = dense_monodromy(p)
    sv = np.linalg.svd(dense, compute_uv=False)
    want = sv[-1] / max(sv[0], 1.0)
    eps = np.finfo(float).eps
    assert np.max(np.abs(mono.dense() - dense)) \
        <= 1e-12 * np.max(np.abs(dense))
    assert abs(mono.rcond - want) <= 1e-12 * want + 16 * eps, \
        (mono.rcond, want)
    if not any(gate / 2 <= want <= 2 * gate for gate in
               (solver.SINGULAR_RCOND, solver.ILL_CONDITIONED_RCOND)):
        assert _gate(mono.rcond) == _gate(want)
    F = solver.forced_terminal_integrals(p, solver.edge_recurrences(p))
    if _gate(mono.rcond) == 0:
        with pytest.raises(solver.NotWellPosed):
            solver.solve_boundary(p, mono, F)
        return
    c = solver.solve_boundary(p, mono, F)
    c_dense = scipy.linalg.solve(dense, stack_edge_values(p.graph, p.g)
                                 + dense_B(p.graph, p.B) @ F)
    scale = np.max(np.abs(c_dense))
    assert np.max(np.abs(c - c_dense)) <= (1e-13 + eps / want) * scale


def ring_doc(n, weight, closed=True):
    """n neutral scalar edges (A = 0, length 1) in a chain, closed into a
    ring when closed is set, every block the same weight."""
    edges = [{"id": e, "length": 1.0, "dim": 1, "A": [[0.0]], "steps": 4}
             for e in range(n)]
    edges[0]["g"] = [1.0]
    pairs = [(e - 1, e) for e in range(1, n)] + ([(n - 1, 0)] if closed
                                                 else [])
    return {"edges": edges, "blocks": [
        {"from": j, "to": i, "matrix": [[weight]]} for j, i in pairs]}


@pytest.mark.parametrize("doc, rcond", [
    (ring_doc(N - 1, 1.0), r"\d\.\d{3}e-(1[5-9]|[2-9]\d)"),
    (ring_doc(N, 1.0), r"0\.000e\+00"),
    (ring_doc(N, 1e10, closed=False), r"0\.000e\+00")],
    ids=["dense-singular", "sparse-zero-pivot", "sparse-inverse-overflows"])
def test_cli_singular_boundary_system_exits_two_on_both_sides(
        tmp_path, capsys, doc, rcond):
    """I - P for the cyclic shift P is exactly singular: the dense SVD
    finds rcond at roundoff level (below 1e-14), and SuperLU meets a zero
    pivot, which counts as rcond 0.  On the chain with weight 1e10 the
    factor is fine but M^-1 overflows, so its Lanczos norm is not
    finite."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert re.fullmatch(r"error: boundary system numerically singular, "
                        rf"rcond = {rcond}\n", capsys.readouterr().err)
    assert caught == []
    assert not (tmp_path / "report.json").exists()


def test_lanczos_that_does_not_converge_exits_two(tmp_path, capsys,
                                                  monkeypatch):
    """ARPACK's no-convergence error gives a NaN singular value, which the
    boundary gate refuses like a singular system."""
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(spla, "svds", no_convergence)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(scalar_graph_doc(N, True)))
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        "error: boundary system numerically singular, rcond = nan\n"


def uncoupled_doc(n_edges, dim):
    """n_edges decaying edges of the given dimension, random g, and no
    blocks, so B = 0, M = I and c = g."""
    rng = np.random.default_rng(n_edges * dim)
    return {"edges": [{"id": e, "length": 1.0, "dim": dim, "steps": 4,
                       "A": np.diag(-rng.uniform(0.5, 2.0, dim)).tolist(),
                       "g": rng.uniform(-1.0, 1.0, dim).tolist()}
                      for e in range(n_edges)], "blocks": []}


@pytest.mark.parametrize("doc", [uncoupled_doc(N, 1), uncoupled_doc(1, N)],
                         ids=["scalar-edges", "one-wide-edge"])
def test_cli_uncoupled_sparse_side_solves_with_c_equal_to_g(tmp_path, doc):
    """With no blocks the sparse M is the identity: it is built, factored
    and conditioned like any other, and c = g exactly."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["monodromy_rcond"] - 1.0) <= 1e-14
    problem = problem_io.load_problem_file(str(path))[0]
    solved = solver.solve(problem)
    assert not isinstance(solved.monodromy.M, np.ndarray)
    for edge in doc["edges"]:
        assert solved.solutions[edge["id"]].states[0].tolist() == edge["g"]


def test_import_leaves_scipy_sparse_unloaded():
    """scipy.sparse is imported by the first solve with a large boundary
    system, never by importing the package: it would cost every cold
    start about 30 ms."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, chronograph; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.sparse')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
