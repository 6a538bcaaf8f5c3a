import cmath
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, strategies as st

from chronograph import cli, matfun, problem_io, scenarios, solver, variants
from chronograph.graph import TimeGraph
from chronograph.problem import (ConstantForcing, EdgeOperator, Forcing,
                                 TimeGraphProblem, TransmissionOperator,
                                 forcing_node_values, stack_edge_values)
from chronograph.matfun import NotHermitian
from conftest import dense_B, preset


def hermitian(seed, n):
    r = np.random.default_rng(seed)
    M = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def oscillatory_ivp(H, g0, length=1.0, steps=200):
    d = H.shape[0]
    return TimeGraphProblem(
        graph=TimeGraph((0,), {0: length}, {0: d}),
        operators=(EdgeOperator(0, H),),
        B=TransmissionOperator({}),
        g={0: np.asarray(g0, dtype=complex)},
        steps={0: steps},
    )


def schrodinger_solve(problem):
    return solver.solve(variants.schrodinger_effective(problem))


def test_oscillatory_flow_preserves_norm(rng):
    H = hermitian(5, 3)
    g0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rep = schrodinger_solve(oscillatory_ivp(H, g0))
    norms = np.linalg.norm(rep.solutions[0].states, axis=1)
    assert np.max(np.abs(norms - np.linalg.norm(g0))) <= 1e-10


def test_oscillatory_flow_matches_phase_factor(rng):
    H = hermitian(9, 2)
    g0 = rng.standard_normal(2)
    rep = schrodinger_solve(oscillatory_ivp(H, g0, steps=50))
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
        schrodinger_solve(base)


def wide_state_schrodinger_doc(dim=64, edges=3, steps=100):
    """The benchmark's wide_state Schrodinger document (seed 0): a chain of
    edges sharing one real symmetric H, coupled by identity blocks."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((dim, dim))
    H = (X + X.T) / (2.0 * np.sqrt(dim))
    out = []
    for e in range(edges):
        edge = {"id": e, "length": 1.0, "dim": dim, "A": H.tolist(),
                "steps": steps}
        if e == 0:
            edge["g"] = rng.standard_normal(dim).tolist()
            edge["f"] = {"kind": "zero"}
        else:
            edge["f"] = {"kind": "constant",
                         "value": (0.1 * rng.standard_normal(dim)).tolist()}
        out.append(edge)
    blocks = [{"from": e - 1, "to": e, "matrix": np.eye(dim).tolist()}
              for e in range(1, edges)]
    return {"edges": out, "blocks": blocks, "mode": "schrodinger"}


def test_schrodinger_generators_are_exactly_skew_hermitian(tmp_path):
    """Each generator is i (A + A*)/2, so G + G* is zero bit for bit, on the
    wide_state document and on a complex A Hermitian to within 1e-12; the
    report's dissipativity margins are then exactly 0."""
    doc = wide_state_schrodinger_doc()
    problem, mode, _ = problem_io.load_problem_dict(doc)
    r = np.random.default_rng(12)
    M = r.standard_normal((5, 5)) + 1j * r.standard_normal((5, 5))
    A = 0.5 * (M + M.conj().T) + 1e-13 * (r.standard_normal((5, 5))
                                          + 1j * r.standard_normal((5, 5)))
    assert 0.0 < np.linalg.norm(A - A.conj().T, 2) <= 1e-12
    nearly = TimeGraphProblem(TimeGraph((0,), {0: 1.0}, {0: 5}),
                              (EdgeOperator(0, A),), TransmissionOperator({}))
    for base in (problem, nearly):
        effective = variants.schrodinger_effective(base)
        for e in base.graph.edges:
            G = effective.operator(e)
            assert np.array_equal(G + G.conj().T, np.zeros_like(G))
            A_e = base.operator(e)
            assert np.array_equal(G, 1j * (0.5 * (A_e + A_e.conj().T)))

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert cli.run_solve(str(path), str(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["hypotheses"]["dissipativity_margin"] == {
        "0": 0, "1": 0, "2": 0}


def unitarity(base):
    """unitarity_check on base read as a Schrodinger problem, from the solve
    of its effective problem, as the CLI runs it."""
    effective = variants.schrodinger_effective(base)
    return variants.unitarity_check(solver.solve(effective), effective)


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
    rep = unitarity(base)
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
    rep = unitarity(base)
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
        unitarity(base)


def _blockdiag(graph, per_edge):
    n = graph.size()
    off = graph.offsets()
    out = np.zeros((n, n), dtype=complex)
    for e in graph.edges:
        s = off[e]
        d = graph.dims[e]
        out[s:s + d, s:s + d] = per_edge[e]
    return out


def dense_unitarity_check(p):
    """unitarity_check as it was when it eigendecomposed every H_j again,
    built e^{iaH}, cos(aH) and five sampled phases as dense block diagonals
    and inverted I - B E_phase itself; kept as the reference for the version
    that reads the solve's operators."""
    gr = p.graph
    eigs = {e: matfun.hermitian_eig(p.operator(e)) for e in gr.edges}
    aH_cos = _blockdiag(gr, {
        e: matfun.funm_hermitian(eigs[e],
                                 lambda x, a=gr.lengths[e]: math.cos(a * x))
        for e in gr.edges})
    E_phase = _blockdiag(gr, {
        e: matfun.funm_hermitian(eigs[e],
                                 lambda x, a=gr.lengths[e]: cmath.exp(1j * a * x))
        for e in gr.edges})
    B = dense_B(gr, p.B)
    comm = float(np.linalg.norm(B @ E_phase - E_phase @ B, 2))
    scale = max(1.0, np.linalg.norm(B, 2) * np.linalg.norm(E_phase, 2))
    if comm > variants._COMMUTATOR_TOL * scale:
        raise variants.NonCommuting(
            f"||[B, e^(iaH)]|| = {comm:.3e} exceeds tolerance")
    defect = float(np.linalg.norm(B @ B - 2.0 * B @ aH_cos, 2))
    M = np.eye(gr.size(), dtype=complex) - B @ E_phase
    Minv = scipy.linalg.solve(M, np.eye(gr.size(), dtype=complex))
    op_defect = 0.0
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        phase_t = _blockdiag(gr, {
            e: matfun.funm_hermitian(
                eigs[e], lambda x, a=gr.lengths[e]: cmath.exp(1j * frac * a * x))
            for e in gr.edges})
        S = phase_t @ Minv
        op_defect = max(op_defect, float(np.linalg.norm(
            S @ S.conj().T - np.eye(gr.size()), 2)))
    return variants.UnitarityReport(bool(defect <= variants._UNITARY_TOL),
                                    defect, op_defect, comm)


def shared_hamiltonian_problem(d, n, kind, seed):
    """n edges sharing one Hermitian H of dimension d.

    kind "functions": a random block pattern whose blocks are polynomials
    in H, edge lengths often shared, so some blocks commute with E and some
    do not; "matched": one length a and B = Q (x) 2 cos(aH) with Q the
    averaging projector over a random subset of the edges, which makes the
    operators unitary; "mixed": blocks with no relation to H.
    """
    rng = np.random.default_rng(seed)
    H = hermitian(seed, d)
    shared = float(rng.uniform(0.4, 2.0))
    edges = tuple(range(n))
    lengths = {e: shared if kind == "matched" or rng.random() < 0.5
               else float(rng.uniform(0.4, 2.0)) for e in edges}
    eye = np.eye(d)
    H_scale = max(1.0, float(np.max(np.abs(H)))) ** 2
    if kind == "matched":
        w, V = np.linalg.eigh(H)
        cos = (V * np.cos(shared * w)) @ V.conj().T
        members = [e for e in edges if rng.random() < 0.7] or [0]
        blocks = {(i, j): 2.0 / len(members) * cos
                  for i in members for j in members}
    else:
        blocks = {}
        for i in edges:
            for j in edges:
                if rng.random() < 0.5:
                    continue
                if kind == "functions":
                    re, im = rng.uniform(-1.0, 1.0, (2, 3))
                    c = re + 1j * im
                    blocks[i, j] = 0.5 * (c[0] * eye + c[1] * H
                                          + c[2] * H @ H) / H_scale
                else:
                    blocks[i, j] = 0.5 * (rng.standard_normal((d, d))
                                          + 1j * rng.standard_normal((d, d)))
    return TimeGraphProblem(
        graph=TimeGraph(edges, lengths, {e: d for e in edges}),
        operators=tuple(EdgeOperator(e, H) for e in edges),
        B=TransmissionOperator(blocks),
        g={0: np.ones(d)},
    )


def _agree(got, want):
    return abs(got - want) <= max(1e-12 * abs(want), 1e-13)


@given(st.integers(1, 3), st.integers(1, 4),
       st.sampled_from(["functions", "matched", "mixed"]),
       st.integers(0, 10 ** 6))
def test_unitarity_check_matches_the_dense_reference(d, n, kind, seed):
    base = shared_hamiltonian_problem(d, n, kind, seed)
    try:
        want = dense_unitarity_check(base)
    except variants.NonCommuting:
        want = None
    effective = variants.schrodinger_effective(base)
    try:
        report = solver.solve(effective)
    except solver.NotWellPosed:
        assume(False)
    try:
        got = variants.unitarity_check(report, effective)
    except variants.NonCommuting:
        got = None
    assert (got is None) == (want is None)
    if want is None:
        return
    assert _agree(got.defect, want.defect), (got, want)
    assert _agree(got.operator_defect, want.operator_defect), (got, want)
    assert _agree(got.commutator, want.commutator), (got, want)
    if not 1e-11 <= want.defect <= 1e-9:
        assert got.unitary == want.unitary


def test_unitarity_defect_of_a_300_edge_chain_is_normed_by_lanczos(
        monkeypatch):
    """On a Schrodinger chain B^2 - 2 B cos(aH) has blocks (k, k-1) and
    (k, k-2), which join 299 rows and columns into one component: it is
    normed by Lanczos, within 1e-12 relative of the dense 2-norm.  Equal
    lengths and H make every E_j the same phase, so B commutes with E."""
    n = 300
    rng = np.random.default_rng(300)
    edges = tuple(range(n))
    gr = TimeGraph(edges, {e: 1.0 for e in edges}, {e: 1 for e in edges})
    base = TimeGraphProblem(
        gr, tuple(EdgeOperator(e, [[-0.7]]) for e in edges),
        TransmissionOperator({(k, k - 1): [[rng.uniform(0.5, 1.0)]]
                              for k in edges[1:]}),
        {0: np.ones(1)})
    effective = variants.schrodinger_effective(base)
    report = solver.solve(effective)
    shapes = []

    def recorded(A, _lanczos=matfun.lanczos_sigma_max):
        shapes.append(A.shape)
        return _lanczos(A)

    monkeypatch.setattr(matfun, "lanczos_sigma_max", recorded)
    got = variants.unitarity_check(report, effective)
    assert shapes == [(n - 1, n - 1)]
    E = report.monodromy.propagators
    B = dense_B(gr, effective.B)
    two_cos = np.diag([complex(E[e][0, 0] + np.conj(E[e][0, 0]))
                       for e in edges])
    want = float(np.linalg.norm(B @ B - B @ two_cos, 2))
    assert abs(got.defect - want) <= 1e-12 * want


def test_cli_unconverged_unitarity_norm_exits_one_naming_lanczos(
        tmp_path, capsys, monkeypatch):
    """When ARPACK does not converge on the 299 x 299 component of
    B^2 - 2 B cos(aH), the Schrodinger solve exits 1 naming the
    iteration, writing nothing, instead of reporting a NaN norm.  The
    boundary system's own Lanczos runs (on the 300 x 300 M) converge."""
    import scipy.sparse.linalg as spla
    n = 300
    svds = spla.svds

    def fails_on_the_component(A, *args, **kwargs):
        if A.shape == (n - 1, n - 1):
            raise spla.ArpackNoConvergence("no convergence", [], [])
        return svds(A, *args, **kwargs)

    monkeypatch.setattr(spla, "svds", fails_on_the_component)
    doc = {"edges": [{"id": e, "length": 1.0, "dim": 1, "A": [[-0.7]],
                      "steps": 4} for e in range(n)],
           "blocks": [{"from": e - 1, "to": e, "matrix": [[0.75]]}
                      for e in range(1, n)],
           "mode": "schrodinger"}
    doc["edges"][0]["g"] = [1.0]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: 2-norm of a {n - 1} x {n - 1} block component: ARPACK's "
        "Lanczos iteration did not converge\n")
    assert caught == []
    assert not (tmp_path / "report.json").exists()


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
    chunks = solver.edge_recurrences(problem)
    step_operators = {e: Eh for chunk in chunks
                      for e, Eh in zip(chunk.edges, chunk.Eh)}
    failed = []
    real_defect = None
    if variants._is_real_problem(problem, chunks):
        real_defect = max(
            float(np.max(np.abs(report.solutions[e].states.imag)))
            for e in gr.edges)
    else:
        failed.append("real_data")
    B = dense_B(gr, problem.B)
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
        # the sigma_min / sigma_max gate the helper then in use applied
        sv = scipy.linalg.svdvals(mono.M)
        if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-14:
            failed.append("monodromy_invertible")
            operators_ok = False
        else:
            Minv = scipy.linalg.solve(mono.M,
                                      np.eye(gr.size(), dtype=complex))
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
            f = forcing_node_values(problem, e, problem.times(e))
            if np.min(f.real, initial=0.0) < 0.0:
                failed.append(f"f_nonnegative[{e!r}]")
                break
    amax = max(float(gr.lengths[e]) for e in gr.edges)
    Emax = max(float(np.max(np.sum(np.abs(
        variants._step_powers(Eh, problem.steps_for(e))), axis=-1)))
        for e, Eh in step_operators.items())
    Minv_norm = float(np.linalg.norm(np.linalg.inv(mono.M), np.inf))
    B_inf = float(np.linalg.norm(B, np.inf))
    g_inf = float(np.max(np.abs(stack_edge_values(gr, problem.g)),
                         initial=0.0))
    f_inf = max(float(np.max(np.abs(forcing_node_values(
        problem, e, problem.times(e))), initial=0.0)) for e in gr.edges)
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
