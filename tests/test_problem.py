import numpy as np
import numpy.linalg._linalg
import pytest
from hypothesis import example, given, strategies as st

from chronograph import matfun
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


def test_forcing_node_values_constant_and_zero(monkeypatch):
    """Zero and constant forcing need only the node count: the edge grid
    is built for sampled forcing alone."""
    def no_grid(self, edge):
        raise AssertionError("edge grid built")

    monkeypatch.setattr(TimeGraphProblem, "times", no_grid)
    nodes = np.linspace(0.0, 1.0, 5)
    p = scalar_problem(steps=4)
    vals = forcing_node_values(p, 0, nodes)
    assert vals.shape == (5, 1)
    assert np.all(vals == 1.0)
    z = scalar_problem(f=None, steps=4)
    vals = forcing_node_values(z, 0, nodes)
    assert vals.shape == (5, 1)
    assert np.all(vals == 0.0)


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
    norm, = block_norm(g, B.blocks)
    assert abs(norm - np.linalg.norm(dense, 2)) <= 1e-14


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
    norm, = block_norm(g, B.blocks)
    assert abs(norm - dense) <= 1e-13 * max(dense, 1.0)


def bidiagonal_blocks(m):
    """Blocks (k, k) and (k, k - 1) on m scalar edges: one m x m component
    with 2m - 1 nonzero entries."""
    r = np.random.default_rng(m)
    g = TimeGraph(tuple(range(m)), {e: 1.0 for e in range(m)},
                  {e: 1 for e in range(m)})
    blocks = {(k, j): np.array([[r.standard_normal() + 1j]])
              for k in range(m) for j in (k, k - 1) if j >= 0}
    return g, TransmissionOperator(blocks)


def full_block(d):
    """One edge of dimension d with a full random self-block."""
    r = np.random.default_rng(d)
    g = TimeGraph((0,), {0: 1.0}, {0: d})
    return g, TransmissionOperator({(0, 0): r.standard_normal((d, d))})


def block_ring(above):
    """Eight edges of dimension 32 on a ring, each fed by itself and by its
    predecessor through full blocks: one 256 x 256 component with
    16 x 32^2 nonzero entries, exactly a quarter.  With above set, one
    more block adds a single nonzero entry."""
    r = np.random.default_rng(8)
    g = TimeGraph(tuple(range(8)), {e: 1.0 for e in range(8)},
                  {e: 32 for e in range(8)})
    blocks = {(k, j): r.standard_normal((32, 32))
              for k in range(8) for j in (k, (k - 1) % 8)}
    if above:
        blocks[0, 2] = np.zeros((32, 32))
        blocks[0, 2][0, 0] = 1.0
    return g, TransmissionOperator(blocks)


N = matfun.DENSE_BOUNDARY_MAX


@pytest.mark.parametrize("build, arg, lanczos", [
    (bidiagonal_blocks, N - 1, False), (bidiagonal_blocks, N, True),
    (full_block, N, False), (block_ring, False, True),
    (block_ring, True, False)],
    ids=["sparse-below", "sparse-at", "full-at", "ring-at-quarter",
         "ring-above-quarter"])
def test_block_norm_takes_lanczos_for_large_sparse_components_only(
        monkeypatch, build, arg, lanczos):
    """Lanczos serves a component with at least DENSE_BOUNDARY_MAX rows
    and columns of which at most a quarter are nonzero; any other takes
    one dense SVD, a full block of that size too.  Both agree with the
    dense norm within 1e-12 relative."""
    g, B = build(arg)
    n = g.size()
    shapes = []
    svd_shapes = []

    def recorded(A, _lanczos=matfun.lanczos_sigma_max):
        shapes.append(A.shape)
        return _lanczos(A)

    def recorded_svd(a, *args, _svd=numpy.linalg._linalg.svd, **kwargs):
        svd_shapes.append(np.shape(a))
        return _svd(a, *args, **kwargs)

    want = np.linalg.norm(dense_B(g, B), 2)
    monkeypatch.setattr(matfun, "lanczos_sigma_max", recorded)
    monkeypatch.setattr(numpy.linalg._linalg, "svd", recorded_svd)
    norm, = block_norm(g, B.blocks)
    assert abs(norm - want) <= 1e-12 * want
    assert shapes == ([(n, n)] if lanczos else [])
    assert svd_shapes == ([] if lanczos else [(1, n, n)])


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


def assert_norms_walk_once(g, *block_sets):
    """block_norm of several sets in one call returns, bit for bit, the
    norm of each set on its own."""
    got = block_norm(g, *block_sets)
    want = tuple(block_norm(g, blocks)[0] for blocks in block_sets)
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)


@given(block_patterns(), st.integers(0, 10 ** 6))
@example((TimeGraph((0, 1, 2, 3), {e: 1.0 for e in range(4)},
                    {0: 2, 1: 3, 2: 1, 3: 2}),
          {(0, 0), (1, 0), (1, 2)}), 0)
def test_block_norm_of_sets_on_one_pattern_matches_each_alone(pattern, seed):
    """Sets sharing a pattern, one of them with zero entries and one a
    commutator-like difference, as diagnose and the unitarity check pass
    them."""
    g, pairs = pattern
    r = np.random.default_rng(seed)

    def draw(i, j):
        return r.standard_normal((g.dims[i], g.dims[j])) \
            + 1j * r.standard_normal((g.dims[i], g.dims[j]))

    X = {(i, j): draw(i, j) for i, j in pairs}
    Y = {(i, j): draw(i, j) * (r.random((g.dims[i], g.dims[j])) < 0.5)
         for i, j in pairs}
    A = {e: draw(e, e) for e in g.edges}
    C = {(i, j): A[i] @ m - m @ A[j] for (i, j), m in X.items()}
    assert_norms_walk_once(g, X, Y, C)
    assert_norms_walk_once(g, Y, X)


@pytest.mark.parametrize("build, arg", [
    (bidiagonal_blocks, N - 1), (bidiagonal_blocks, N), (full_block, N),
    (block_ring, False), (block_ring, True)],
    ids=["sparse-below", "sparse-at", "full-at", "ring-at-quarter",
         "ring-above-quarter"])
def test_block_norm_of_sets_on_one_pattern_matches_each_alone_at_lanczos(
        build, arg):
    """On the Lanczos fixtures each set takes its own side of
    matfun.block_matrix's rule: the diagonals of full blocks are sparse
    where the blocks are dense."""
    g, B = build(arg)
    diagonals = {k: np.diag(np.diag(m)) for k, m in B.blocks.items()}
    assert_norms_walk_once(g, B.blocks, diagonals)
    assert_norms_walk_once(g, diagonals, B.blocks)


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
