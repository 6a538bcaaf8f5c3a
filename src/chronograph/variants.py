"""Non-parabolic extensions and mapping-property verifiers.

Covers the oscillatory variant (generators i H_j with Hermitian H_j) with a
unitarity classification of its solution operators, second-order problems
solved through a two-stage first-order factorization, and numerical verifiers
for realness, positivity and sup-norm bounds of the parabolic solve.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import matfun, solver
from .problem import (ConstantForcing, EdgeOperator, Forcing, SampledForcing,
                      TimeGraphProblem, ZeroForcing, forcing_node_values,
                      stack_edge_values)


class NonCommuting(Exception):
    """Transmission operator and terminal phase factor do not commute; the
    algebraic unitarity criterion does not apply."""


class HypothesesNotMet(Exception):
    """Strict mapping-property verification refused: assumptions failed."""

    def __init__(self, failed):
        super().__init__("hypotheses not met: " + ", ".join(failed))
        self.failed = tuple(failed)


@dataclass(frozen=True)
class SchrodingerProblem:
    """A time-graph problem whose edge matrices are Hermitian; the generator
    actually used on each edge is i H_j."""

    base: TimeGraphProblem
    hermitian_tol: float = matfun.HERMITIAN_TOL


@dataclass(frozen=True)
class SecondOrderProblem:
    """d^2/dt^2 psi = A psi + f with Hermitian invertible A_j and two
    transmission conditions, one per factor of the factorization."""

    graph: object
    operators: tuple
    B1: object
    B2: object
    g1: dict = field(default_factory=dict)
    g2: dict = field(default_factory=dict)
    forcing: Forcing = field(default_factory=Forcing.zero)
    steps: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UnitarityReport:
    unitary: bool
    defect: float            # ||B^2 - 2 B cos(aH)||
    operator_defect: float   # max ||S S* - I|| over sampled times
    commutator: float


@dataclass(frozen=True)
class MappingReport:
    real_defect: Optional[float]
    positivity_defect: Optional[float]
    sup_bound_defect: float
    sup_bound: float
    sup_observed: float
    failed_hypotheses: tuple


def _hermitian_parts(p: SchrodingerProblem):
    """Per-edge symmetrized H_j (raising when asymmetry exceeds tolerance)."""
    out = {}
    for e in p.base.graph.edges:
        eig = matfun.hermitian_eig(p.base.operator(e), tol=p.hermitian_tol)
        out[e] = eig
    return out


def schrodinger_effective(p: SchrodingerProblem):
    """The same data with generators i H_j (H_j symmetrized, gated)."""
    eigs = _hermitian_parts(p)
    gr = p.base.graph
    ops = tuple(EdgeOperator(e, 1j * eigs[e].reconstruct()) for e in gr.edges)
    return TimeGraphProblem(gr, ops, p.base.B, dict(p.base.g),
                            p.base.forcing, dict(p.base.steps))


def schrodinger_solve(p: SchrodingerProblem):
    """Delegate to the parabolic solver with generators i H_j."""
    return solver.solve(schrodinger_effective(p))


def _blockdiag(graph, per_edge):
    n = graph.size()
    off = graph.offsets()
    out = np.zeros((n, n), dtype=complex)
    for e in graph.edges:
        s = off[e]
        d = graph.dims[e]
        out[s:s + d, s:s + d] = per_edge[e]
    return out


_COMMUTATOR_TOL = 1e-10
_UNITARY_TOL = 1e-10
_SAMPLE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def unitarity_check(p: SchrodingerProblem):
    """Classify the solution operators of the oscillatory problem.

    They are unitary precisely when B^2 = 2 B cos(aH), provided B commutes
    with the terminal phase factor e^{i a H}; the commutator gate raises
    NonCommuting because the criterion is silent otherwise.  The operator
    check ||S(t) S(t)* - I|| is evaluated at a few sampled times as an
    independent confirmation.
    """
    eigs = _hermitian_parts(p)
    gr = p.base.graph
    aH_cos = _blockdiag(gr, {
        e: matfun.funm_hermitian(eigs[e],
                                 lambda x, a=gr.lengths[e]: math.cos(a * x))
        for e in gr.edges})
    E_phase = _blockdiag(gr, {
        e: matfun.funm_hermitian(eigs[e],
                                 lambda x, a=gr.lengths[e]: cmath.exp(1j * a * x))
        for e in gr.edges})
    B = p.base.B.assemble(gr)
    comm = float(np.linalg.norm(B @ E_phase - E_phase @ B, 2))
    scale = max(1.0, np.linalg.norm(B, 2) * np.linalg.norm(E_phase, 2))
    if comm > _COMMUTATOR_TOL * scale:
        raise NonCommuting(
            f"||[B, e^(iaH)]|| = {comm:.3e} exceeds tolerance")
    defect = float(np.linalg.norm(B @ B - 2.0 * B @ aH_cos, 2))
    M = np.eye(gr.size(), dtype=complex) - B @ E_phase
    Minv, _ = matfun.solve_linear(M, np.eye(gr.size(), dtype=complex))
    op_defect = 0.0
    for frac in _SAMPLE_FRACTIONS:
        phase_t = _blockdiag(gr, {
            e: matfun.funm_hermitian(
                eigs[e], lambda x, a=gr.lengths[e]: cmath.exp(1j * frac * a * x))
            for e in gr.edges})
        S = phase_t @ Minv
        op_defect = max(op_defect, float(np.linalg.norm(
            S @ S.conj().T - np.eye(gr.size()), 2)))
    return UnitarityReport(bool(defect <= _UNITARY_TOL), defect, op_defect,
                           comm)


def _sqrt_abs_operators(p: SecondOrderProblem):
    """S_j = |A_j|^{1/2} per edge; A_j must be Hermitian and invertible."""
    out = {}
    for op in p.operators:
        eig = matfun.hermitian_eig(op.A)
        scale = max(np.max(np.abs(eig.eigenvalues)), 1.0)
        if np.min(np.abs(eig.eigenvalues)) <= 1e-12 * scale:
            raise ValueError(
                f"edge {op.edge!r}: operator numerically singular, no"
                " invertible square root")
        out[op.edge] = matfun.funm_hermitian(eig, lambda x: math.sqrt(abs(x)))
    return out


def second_order_solve(p: SecondOrderProblem):
    """Two-stage factorized solve of the second-order problem.

    Stage 1 integrates (d/dt + iS) phi = f under (B2, g2); stage 2 integrates
    (d/dt - iS) psi = phi under (B1, g1), with phi handed over as sampled
    piecewise-linear forcing on the same grids.  With S = |A|^{1/2} the
    composition realizes d^2/dt^2 + S^2, i.e. the original equation for
    negative-definite A.  Returns (stage-1 report, stage-2 report).
    """
    S = _sqrt_abs_operators(p)
    gr = p.graph
    ops1 = tuple(EdgeOperator(e, -1j * S[e]) for e in gr.edges)
    stage1 = TimeGraphProblem(gr, ops1, p.B2, dict(p.g2), p.forcing,
                              dict(p.steps))
    try:
        report1 = solver.solve(stage1)
    except solver.NotWellPosed as exc:
        raise solver.NotWellPosed(exc.rcond, stage=1) from exc
    handoff = Forcing({e: SampledForcing(report1.solutions[e].states.copy())
                       for e in gr.edges})
    ops2 = tuple(EdgeOperator(e, 1j * S[e]) for e in gr.edges)
    stage2 = TimeGraphProblem(gr, ops2, p.B1, dict(p.g1), handoff,
                              dict(p.steps))
    try:
        report2 = solver.solve(stage2)
    except solver.NotWellPosed as exc:
        raise solver.NotWellPosed(exc.rcond, stage=2) from exc
    return report1, report2


_ENTRYWISE_TOL = 1e-12


def _is_real_problem(problem):
    if any(np.max(np.abs(problem.operator(e).imag)) > 0.0
           for e in problem.graph.edges):
        return False
    if any(np.max(np.abs(m.imag)) > 0.0 for m in problem.B.blocks.values()):
        return False
    if any(np.max(np.abs(v.imag)) > 0.0 for v in problem.g.values()):
        return False
    for e in problem.graph.edges:
        if np.max(np.abs(forcing_node_values(problem, e).imag), initial=0.0) > 0.0:
            return False
    return True


def _metzler(A):
    off = A - np.diag(np.diag(A))
    return np.max(np.abs(off.imag), initial=0.0) == 0.0 and \
        np.min(off.real, initial=0.0) >= -_ENTRYWISE_TOL


def _step_powers(Eh, K):
    """The stack Eh^0, Eh^1, ..., Eh^K, formed by doubling: each round
    multiplies every power so far by the next one, so it takes
    ceil(log2(K + 1)) stacked products."""
    powers = np.eye(Eh.shape[0], dtype=complex)[None]
    while len(powers) <= K:
        step = powers[-1] @ Eh
        powers = np.concatenate([powers, powers[:K + 1 - len(powers)] @ step])
    return powers


def verify_mapping_properties(report, problem, strict=False):
    """Numerical verification of realness, positivity and the sup-norm bound.

    Each defect is only populated when its hypotheses hold on the operators;
    data-side violations (negative f or g entries) are recorded in
    failed_hypotheses but the defects are still computed, so the caller can
    inspect without asserting.  strict=True raises HypothesesNotMet as soon
    as anything failed.
    """
    gr = problem.graph
    failed = []

    real_defect = None
    if _is_real_problem(problem):
        real_defect = max(
            float(np.max(np.abs(report.solutions[e].states.imag)))
            for e in gr.edges)
    else:
        failed.append("real_data")

    B = problem.B.assemble(gr)
    operators_ok = True
    if np.max(np.abs(B.imag), initial=0.0) > 0.0 or \
            np.min(B.real, initial=0.0) < -_ENTRYWISE_TOL:
        failed.append("B_entrywise_nonnegative")
        operators_ok = False
    if not all(_metzler(problem.operator(e)) for e in gr.edges):
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
            if np.min(Minv.real) < -_ENTRYWISE_TOL:
                failed.append("inverse_entrywise_nonnegative")
                operators_ok = False
    if operators_ok:
        worst = 0.0
        for e in gr.edges:
            worst = min(worst, float(np.min(report.solutions[e].states.real)))
        positivity_defect = abs(min(worst, 0.0))
        g_vec = stack_edge_values(gr, problem.g)
        if np.min(g_vec.real) < 0.0:
            failed.append("g_nonnegative")
        for e in gr.edges:
            if np.min(forcing_node_values(problem, e).real, initial=0.0) < 0.0:
                failed.append(f"f_nonnegative[{e!r}]")
                break

    # sup bound from the solved operators' norms: propagator sup (over grid
    # nodes), boundary inverse, transmission norm
    amax = max(float(gr.lengths[e]) for e in gr.edges)
    Emax = max(float(np.max(np.sum(np.abs(
        _step_powers(rec.Eh, problem.steps_for(e))), axis=-1)))
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
    sup_defect = max(0.0, observed - bound)

    if strict and failed:
        raise HypothesesNotMet(failed)
    return MappingReport(real_defect, positivity_defect, sup_defect, bound,
                         observed, tuple(failed))
