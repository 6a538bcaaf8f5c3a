import numpy as np
import pytest
from hypothesis import given, strategies as st

from chronograph import graph
from chronograph.graph import (BlockPattern, TimeGraph, classify_solvability,
                               pattern_of)
from chronograph.problem import TransmissionOperator


def test_time_graph_size_and_offsets():
    g = TimeGraph(("a", "b"), {"a": 1.0, "b": 0.5}, {"a": 2, "b": 3})
    assert g.size() == 5
    assert g.offsets() == {"a": 0, "b": 2}


def test_empty_pattern_is_pure_initial_value_chain():
    rep = classify_solvability(BlockPattern(3, frozenset()))
    assert rep.category == graph.IVP_SEQUENCE
    assert rep.ordering == (0, 1, 2)
    assert rep.blocking_cycle is None


def test_branching_from_one_source_is_ivp_sequence():
    rep = classify_solvability(BlockPattern(3, frozenset({(1, 0), (2, 0)})))
    assert rep.category == graph.IVP_SEQUENCE
    assert rep.ordering == (0, 1, 2)


def test_diagonal_block_degrades_to_cauchy_sequence():
    rep = classify_solvability(BlockPattern(2, frozenset({(0, 0), (1, 0)})))
    assert rep.category == graph.CAUCHY_SEQUENCE
    assert rep.ordering == (0, 1)


def test_pure_diagonal_is_cauchy_sequence_in_index_order():
    rep = classify_solvability(BlockPattern(3, frozenset({(0, 0), (2, 2)})))
    assert rep.category == graph.CAUCHY_SEQUENCE
    assert rep.ordering == (0, 1, 2)


def test_two_cycle_blocks_sequencing():
    rep = classify_solvability(
        BlockPattern(4, frozenset({(1, 0), (1, 3), (2, 1), (3, 1)})))
    assert rep.category == graph.GLOBAL_ONLY
    assert rep.ordering is None
    assert rep.blocking_cycle == (1, 3)


def test_ring_reports_full_cycle():
    rep = classify_solvability(
        BlockPattern(4, frozenset({(1, 0), (2, 1), (3, 2), (0, 3)})))
    assert rep.category == graph.GLOBAL_ONLY
    assert rep.blocking_cycle is not None
    assert len(rep.blocking_cycle) == 4
    assert rep.blocking_cycle[0] == min(rep.blocking_cycle)


def test_cycle_plus_escape_edges_still_sequences():
    nz = frozenset({(1, 0), (2, 1), (3, 1), (4, 0), (4, 3)})
    rep = classify_solvability(BlockPattern(5, nz))
    assert rep.category == graph.IVP_SEQUENCE
    pos = {e: k for k, e in enumerate(rep.ordering)}
    for i, j in nz:
        assert pos[j] < pos[i]


def test_ordering_prefers_smallest_available_index():
    rep = classify_solvability(BlockPattern(3, frozenset({(0, 2)})))
    assert rep.ordering == (1, 2, 0)


def test_self_loop_alone_never_blocks():
    rep = classify_solvability(BlockPattern(1, frozenset({(0, 0)})))
    assert rep.category == graph.CAUCHY_SEQUENCE
    assert rep.ordering == (0,)


def test_pattern_normalizes_numpy_indices():
    p = BlockPattern(2, frozenset({(np.int64(1), np.int64(0))}))
    assert (1, 0) in p.nonzero
    assert all(isinstance(x, int) for ij in p.nonzero for x in ij)


def test_pattern_of_keeps_every_block_with_a_nonzero_entry():
    g = TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 1, 1: 1})
    B = TransmissionOperator({(1, 0): np.array([[1.0]]),
                              (0, 0): np.array([[1e-13]]),
                              (0, 1): np.array([[0.0]])})
    assert pattern_of(B, g).nonzero == frozenset({(1, 0), (0, 0)})


@st.composite
def patterns(draw):
    n = draw(st.integers(2, 7))
    density = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 10 ** 6))
    r = np.random.default_rng(seed)
    nz = frozenset((i, j) for i in range(n) for j in range(n)
                   if r.random() < density)
    return BlockPattern(n, nz)


@given(patterns())
def test_reported_ordering_is_a_valid_witness(pattern):
    rep = classify_solvability(pattern)
    if rep.category == graph.GLOBAL_ONLY:
        cyc = rep.blocking_cycle
        assert cyc is not None and len(cyc) >= 1
        # consecutive members (cyclically) are coupled receiver-to-sender
        for k in range(len(cyc)):
            assert (cyc[k], cyc[(k + 1) % len(cyc)]) in pattern.nonzero
    else:
        assert sorted(rep.ordering) == list(range(pattern.n))
        pos = {e: k for k, e in enumerate(rep.ordering)}
        for i, j in pattern.nonzero:
            if i != j:
                assert pos[j] < pos[i]
        has_diag = any(i == j for i, j in pattern.nonzero)
        assert rep.category == (graph.CAUCHY_SEQUENCE if has_diag
                                else graph.IVP_SEQUENCE)


def test_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        classify_solvability(BlockPattern(2, frozenset({(2, 0)})))


@st.composite
def cyclic_patterns(draw):
    n = draw(st.integers(2, 14))
    density = draw(st.floats(0.05, 0.5))
    seed = draw(st.integers(0, 10 ** 6))
    r = np.random.default_rng(seed)
    nz = {(i, j) for i in range(n) for j in range(n) if r.random() < density}
    # a random ring through a random subset keeps most draws cyclic
    ring = [int(k) for k in r.permutation(n)[:draw(st.integers(2, n))]]
    nz |= {(ring[k], ring[k - 1]) for k in range(len(ring))}
    return BlockPattern(n, frozenset(nz))


@given(cyclic_patterns())
def test_witness_is_a_simple_loop_the_ordering_cannot_place(pattern):
    rep = classify_solvability(pattern)
    assert rep.category == graph.GLOBAL_ONLY
    cyc = rep.blocking_cycle
    assert len(set(cyc)) == len(cyc) >= 2
    assert cyc[0] == min(cyc)
    for k in range(len(cyc)):
        assert (cyc[k], cyc[(k + 1) % len(cyc)]) in pattern.nonzero
    assert not set(cyc) & set(graph._topological_ordering(pattern))


def test_witness_blocks_the_smallest_waiting_edge():
    # loops {1, 2} and {3, 4}; edge 0 waits on the second one
    nz = {(1, 2), (2, 1), (3, 4), (4, 3), (0, 3)}
    rep = classify_solvability(BlockPattern(5, frozenset(nz)))
    assert rep.blocking_cycle == (3, 4)


def test_witness_on_a_600_ring():
    n = 600
    nz = {(k, (k - 1) % n) for k in range(n)}
    rep = classify_solvability(BlockPattern(n, frozenset(nz)))
    assert rep.blocking_cycle == (0,) + tuple(range(n - 1, 0, -1))


def test_witness_on_a_2000_ring_fed_from_the_next_edge():
    n = 2000
    nz = {(k, (k + 1) % n) for k in range(n)}
    rep = classify_solvability(BlockPattern(n, frozenset(nz)))
    assert rep.blocking_cycle == tuple(range(n))
