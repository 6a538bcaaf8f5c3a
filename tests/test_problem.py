import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chronograph.graph import TimeGraph
from chronograph.problem import (ConstantForcing, EdgeOperator, Forcing,
                                 SampledForcing, TimeGraphProblem,
                                 TransmissionOperator, ZeroForcing,
                                 block_norm, diagnose, forcing_node_values,
                                 numerical_abscissa, stack_edge_values,
                                 validate)
from chronograph.solver import assemble_monodromy
from conftest import dense_B


def scalar_problem(A=-1.0, B=1.0, g=None, f=1.0, steps=100, length=1.0):
    forcing = Forcing({0: ConstantForcing(np.array([f]))}) if f is not None \
        else Forcing.zero()
    return TimeGraphProblem(
        graph=TimeGraph((0,), {0: length}, {0: 1}),
        operators=(EdgeOperator(0, np.array([[A]])),),
        B=TransmissionOperator({(0, 0): np.array([[B]])} if B is not None
                               else {}),
        g={0: np.array([g])} if g is not None else {},
        forcing=forcing,
        steps={0: steps},
    )


def test_valid_problem_has_no_violations():
    assert validate(scalar_problem()) == []


def test_validate_collects_structural_violations():
    p = TimeGraphProblem(
        graph=TimeGraph((0, 0), {0: -1.0}, {0: 0}),
        operators=(EdgeOperator(0, np.eye(2)),),
        B=TransmissionOperator({}),
    )
    msgs = "\n".join(validate(p))
    assert "duplicate" in msgs
    assert "length" in msgs
    assert "dim" in msgs


def test_validate_checks_operator_shape_and_presence():
    g = TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 2, 1: 1})
    p = TimeGraphProblem(g, (EdgeOperator(0, np.eye(3)),),
                         TransmissionOperator({}))
    msgs = "\n".join(validate(p))
    assert "shape" in msgs
    assert "operator" in msgs  # edge 1 has none


def test_validate_checks_block_shapes_and_keys():
    g = TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 2, 1: 1})
    ops = (EdgeOperator(0, np.zeros((2, 2))), EdgeOperator(1, np.zeros((1, 1))))
    bad_shape = TimeGraphProblem(g, ops, TransmissionOperator(
        {(0, 1): np.ones((1, 1))}))  # should be 2 x 1
    assert any("B[0,1]" in m and "shape" in m for m in validate(bad_shape))
    unknown = TimeGraphProblem(g, ops, TransmissionOperator(
        {(7, 0): np.ones((1, 2))}))
    assert any("unknown" in m for m in validate(unknown))


def test_validate_checks_data_lengths():
    p = scalar_problem()
    wrong_g = TimeGraphProblem(p.graph, p.operators, p.B,
                               {0: np.array([1.0, 2.0])}, p.forcing, p.steps)
    assert any("g" in m for m in validate(wrong_g))
    wrong_steps = TimeGraphProblem(p.graph, p.operators, p.B, {}, p.forcing,
                                   {0: 0})
    assert any("steps" in m for m in validate(wrong_steps))
    wrong_samples = TimeGraphProblem(
        p.graph, p.operators, p.B, {},
        Forcing({0: SampledForcing(np.zeros((5, 1)))}), {0: 100})
    assert any("forcing" in m or "samples" in m for m in validate(wrong_samples))


def test_validate_never_raises_on_junk():
    g = TimeGraph((0,), {0: 1.0}, {0: 1})
    p = TimeGraphProblem(g, (), TransmissionOperator({}), {0: np.array([1.0])})
    assert isinstance(validate(p), list)


def test_forcing_node_values_constant_and_zero():
    p = scalar_problem(steps=4)
    vals = forcing_node_values(p, 0)
    assert vals.shape == (5, 1)
    assert np.all(vals == 1.0)
    z = scalar_problem(f=None, steps=4)
    assert np.all(forcing_node_values(z, 0) == 0.0)


def test_forcing_node_values_resamples_linearly():
    p = scalar_problem(steps=4)
    ramp = np.linspace(0.0, 1.0, 5)[:, None]
    q = TimeGraphProblem(p.graph, p.operators, p.B, {},
                         Forcing({0: SampledForcing(ramp)}), {0: 4})
    coarse = forcing_node_values(q, 0, times=np.array([0.0, 0.375, 1.0]))
    assert np.allclose(coarse[:, 0], [0.0, 0.375, 1.0], atol=1e-15)


def test_times_grid():
    p = scalar_problem(steps=4, length=2.0)
    assert np.allclose(p.times(0), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert p.steps_for(0) == 4


def test_numerical_abscissa():
    assert abs(numerical_abscissa(-np.eye(3)) + 1.0) <= 1e-14
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert abs(numerical_abscissa(skew)) <= 1e-14
    # shearing raises the abscissa above the spectral bound
    shear = np.array([[-1.0, 10.0], [0.0, -1.0]])
    assert numerical_abscissa(shear) > 0.0


def test_stack_edge_values_defaults_to_zero():
    g = TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 1, 1: 2})
    out = stack_edge_values(g, {1: np.array([1.0, 2.0])})
    assert np.allclose(out, [0.0, 1.0, 2.0])


def test_transmission_assembly_and_norm():
    g = TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 1, 1: 2})
    B = TransmissionOperator({(1, 0): np.array([[1.0], [2.0]]),
                              (0, 0): np.array([[0.5]])})
    dense = dense_B(g, B)
    assert dense.shape == (3, 3)
    assert dense[0, 0] == 0.5
    assert np.allclose(dense[1:, 0], [1.0, 2.0])
    assert abs(block_norm(g, B.blocks) - np.linalg.norm(dense, 2)) <= 1e-14


@given(st.integers(1, 6), st.floats(0.1, 0.9), st.integers(0, 10 ** 6))
def test_block_norm_matches_dense_norm(n, density, seed):
    r = np.random.default_rng(seed)
    dims = {e: int(r.integers(1, 4)) for e in range(n)}
    g = TimeGraph(tuple(range(n)), {e: 1.0 for e in range(n)}, dims)
    B = TransmissionOperator({
        (i, j): r.standard_normal((dims[i], dims[j]))
        + 1j * r.standard_normal((dims[i], dims[j]))
        for i in range(n) for j in range(n) if r.random() < density})
    dense = np.linalg.norm(dense_B(g, B), 2)
    assert abs(block_norm(g, B.blocks) - dense) <= 1e-13 * max(dense, 1.0)


@st.composite
def block_patterns(draw):
    """A graph with dims 1-3 and a random block pattern: self-loops, rows
    fed by several blocks and edges with no block all occur."""
    n = draw(st.integers(1, 6))
    dims = {e: draw(st.integers(1, 3)) for e in range(n)}
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)),
                         max_size=n * n))
    return TimeGraph(tuple(range(n)), {e: 1.0 for e in range(n)}, dims), pairs


@given(block_patterns(), st.integers(0, 10 ** 6))
@example((TimeGraph((0, 1, 2, 3), {e: 1.0 for e in range(4)},
                    {0: 2, 1: 3, 2: 1, 3: 2}),
          {(0, 0), (1, 0), (1, 2)}), 0)
def test_apply_matches_the_dense_product(pattern, seed):
    g, pairs = pattern
    r = np.random.default_rng(seed)
    B = TransmissionOperator({
        (i, j): r.standard_normal((g.dims[i], g.dims[j]))
        + 1j * r.standard_normal((g.dims[i], g.dims[j]))
        for i, j in pairs})
    x = r.standard_normal(g.size()) + 1j * r.standard_normal(g.size())
    dense = dense_B(g, B)
    got = B.apply(g, x)
    want = dense @ x
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= \
        1e-14 * max(1.0, float(np.max(np.abs(dense) @ np.abs(x))))


def diagnose_alone(problem):
    return diagnose(problem, assemble_monodromy(problem))


def test_diagnose_strict_dissipativity_with_unit_coupling():
    h = diagnose_alone(scalar_problem(A=-1.0, B=1.0))
    assert h.dissipativity_margin[0] == pytest.approx(-1.0)
    assert h.B_norm == pytest.approx(1.0)
    assert h.sufficient_condition_met
    assert h.epsilon == pytest.approx(1.0)


def test_diagnose_contractive_coupling_with_neutral_operator():
    h = diagnose_alone(scalar_problem(A=0.0, B=0.5))
    assert h.dissipativity_margin[0] == pytest.approx(0.0)
    assert h.sufficient_condition_met
    assert h.epsilon is None


def test_diagnose_flags_unmet_condition():
    h = diagnose_alone(scalar_problem(A=0.0, B=1.0))
    assert not h.sufficient_condition_met
    expanding = diagnose_alone(scalar_problem(A=-1.0, B=2.0))
    assert not expanding.sufficient_condition_met


def test_operator_lookup_fails_for_unknown_edge():
    p = scalar_problem()
    with pytest.raises(KeyError):
        p.operator(42)


def test_forcing_descriptor_lookup():
    p = scalar_problem()
    assert isinstance(p.forcing.spec_for(0), ConstantForcing)
    assert isinstance(Forcing.zero().spec_for(0), ZeroForcing)
