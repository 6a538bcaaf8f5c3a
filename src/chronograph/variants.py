"""Non-parabolic extensions and mapping-property verifiers.

Covers the oscillatory variant (generators i H_j with Hermitian H_j) with a
unitarity classification of its solution operators, second-order problems
solved through a two-stage first-order factorization, and numerical verifiers
for realness, positivity and sup-norm bounds of the parabolic solve.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import matfun, solver
from .problem import (SampledForcing, TimeGraphProblem, block_norm,
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
class SecondOrderProblem:
    """d^2/dt^2 psi = A psi + f with Hermitian invertible A_j and two
    transmission conditions, one per factor of the factorization.

    operators, g1, g2, forcing and steps are dicts keyed by edge id, and B1
    and B2 dicts of blocks keyed by (receiving edge id, sending edge id), as
    in TimeGraphProblem; an edge without forcing has zero forcing."""

    graph: object
    operators: dict
    B1: dict
    B2: dict
    g1: dict = field(default_factory=dict)
    g2: dict = field(default_factory=dict)
    forcing: dict = field(default_factory=dict)
    steps: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UnitarityReport:
    unitary: bool
    defect: float            # ||B^2 - 2 B cos(aH)||
    operator_defect: float   # ||S S* - I||, the same at every time t
    commutator: float


@dataclass(frozen=True)
class MappingReport:
    real_defect: Optional[float]
    positivity_defect: Optional[float]
    sup_bound_defect: float
    sup_bound: float
    sup_observed: float
    failed_hypotheses: tuple


def schrodinger_effective(problem):
    """The problem with generators i H_j, H_j = (A_j + A_j*)/2 exactly, so
    each generator is skew-Hermitian bit for bit; an edge whose A_j is not
    Hermitian raises NotHermitian naming the edge."""
    ops = {}
    for e in problem.graph.edges:
        try:
            H = matfun.hermitian_part(problem.operators[e])
        except matfun.NotHermitian as exc:
            raise matfun.NotHermitian(f"edge {e!r}: A is not Hermitian: "
                                      f"{exc}") from None
        ops[e] = 1j * H
    return replace(problem, operators=ops)


_COMMUTATOR_TOL = 1e-10
_UNITARY_TOL = 1e-10


def unitarity_check(report, problem):
    """Classify the solution operators of the oscillatory problem from the
    solve of its effective problem (schrodinger_effective): report's
    propagators E_j = e^{i a_j H_j} and singular values of M = I - B E.

    The operators are unitary precisely when B^2 = 2 B cos(aH), with
    cos(a_j H_j) = (E_j + E_j*) / 2, provided B commutes with E; otherwise
    the criterion is silent and NonCommuting is raised.  The confirmation
    ||S S* - I|| of S(t) = e^{i t a H} M^{-1} is ||M^{-1} M^{-*} - I|| at
    every t, because the phase is unitary.  Every norm is block-sparse.
    """
    gr, mono, blocks = problem.graph, report.monodromy, problem.B
    E = mono.propagators
    comm, B_norm = block_norm(gr, {(i, j): m @ E[j] - E[i] @ m
                                   for (i, j), m in blocks.items()}, blocks)
    E_norm, = block_norm(gr, {(e, e): E[e] for e in gr.edges})
    if comm > _COMMUTATOR_TOL * max(1.0, B_norm * E_norm):
        raise NonCommuting(f"||[B, e^(iaH)]|| = {comm:.3e} exceeds tolerance")
    # B^2 - 2 B cos(aH); (B^2)_ik sums B_ij B_jk over the shared edges j
    by_row = {}
    for (j, k), m in blocks.items():
        by_row.setdefault(j, []).append((k, m))
    D = {(i, k): -m @ (E[k] + E[k].conj().T) for (i, k), m in blocks.items()}
    for (i, j), m in blocks.items():
        for k, m2 in by_row.get(j, ()):
            D[i, k] = D.get((i, k), 0.0) + m @ m2
    defect, = block_norm(gr, D)
    op_defect = max(abs(mono.sigma_min ** -2 - 1.0),
                    abs(mono.sigma_max ** -2 - 1.0))
    return UnitarityReport(bool(defect <= _UNITARY_TOL), defect, op_defect,
                           comm)


def _sqrt_abs_operators(p: SecondOrderProblem):
    """S_j = |A_j|^{1/2} per edge; A_j must be Hermitian and invertible."""
    out = {}
    for e, A in p.operators.items():
        w, V = matfun.hermitian_eig(A)
        scale = max(np.max(np.abs(w)), 1.0)
        if np.min(np.abs(w)) <= 1e-12 * scale:
            raise ValueError(
                f"edge {e!r}: operator numerically singular, no"
                " invertible square root")
        out[e] = matfun.funm_hermitian((w, V), lambda x: math.sqrt(abs(x)))
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
    ops1 = {e: -1j * S[e] for e in gr.edges}
    stage1 = TimeGraphProblem(gr, ops1, p.B2, dict(p.g2), p.forcing,
                              dict(p.steps))
    try:
        report1 = solver.solve(stage1)
    except solver.NotWellPosed as exc:
        raise solver.NotWellPosed(exc.rcond, stage=1) from exc
    handoff = {e: SampledForcing(report1.solutions[e].states.copy())
               for e in gr.edges}
    ops2 = {e: 1j * S[e] for e in gr.edges}
    stage2 = TimeGraphProblem(gr, ops2, p.B1, dict(p.g1), handoff,
                              dict(p.steps))
    try:
        report2 = solver.solve(stage2)
    except solver.NotWellPosed as exc:
        raise solver.NotWellPosed(exc.rcond, stage=2) from exc
    return report1, report2


_ENTRYWISE_TOL = 1e-12


def _is_real_problem(problem, chunks):
    if any(np.max(np.abs(problem.operators[e].imag)) > 0.0
           for e in problem.graph.edges):
        return False
    if any(np.max(np.abs(m.imag)) > 0.0 for m in problem.B.values()):
        return False
    if any(np.max(np.abs(v.imag)) > 0.0 for v in problem.g.values()):
        return False
    return not any(np.max(np.abs(chunk.f.imag), initial=0.0) > 0.0
                   for chunk in chunks)


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

    report is solver.solve(problem)'s: its monodromy M = I - B E, its step
    operators and its node forcing are read, not rebuilt, and M is inverted
    once, densely (O(n^3)), for both the positivity check and the sup
    bound.  B's sign checks and ||B||_inf are read from its blocks.  Each
    defect is only populated when its hypotheses hold on the operators;
    data-side violations (negative f or g entries) are recorded in
    failed_hypotheses but the defects are still computed, so the caller
    can inspect without asserting.  strict=True raises HypothesesNotMet as
    soon as anything failed.
    """
    gr = problem.graph
    failed = []

    real_defect = None
    if _is_real_problem(problem, report.chunks):
        real_defect = max(
            float(np.max(np.abs(report.solutions[e].states.imag)))
            for e in gr.edges)
    else:
        failed.append("real_data")

    operators_ok = True
    if any(np.any(m.imag != 0.0) or np.min(m.real) < -_ENTRYWISE_TOL
           for m in problem.B.values()):
        failed.append("B_entrywise_nonnegative")
        operators_ok = False
    if not all(_metzler(problem.operators[e]) for e in gr.edges):
        failed.append("A_metzler")
        operators_ok = False
    Minv = np.linalg.inv(report.monodromy.dense())
    if operators_ok and np.min(Minv.real) < -_ENTRYWISE_TOL:
        failed.append("inverse_entrywise_nonnegative")
        operators_ok = False
    positivity_defect = None
    if operators_ok:
        worst = 0.0
        for e in gr.edges:
            worst = min(worst, float(np.min(report.solutions[e].states.real)))
        positivity_defect = abs(min(worst, 0.0))
        g_vec = stack_edge_values(gr, problem.g)
        if np.min(g_vec.real) < 0.0:
            failed.append("g_nonnegative")
        negative = [e for chunk in report.chunks
                    for e, f in zip(chunk.edges, chunk.f)
                    if np.min(f.real, initial=0.0) < 0.0]
        if negative:
            failed.append(f"f_nonnegative[{negative[0]!r}]")

    # sup bound from the solved operators' norms: propagator sup (over grid
    # nodes), boundary inverse, transmission norm
    amax = max(float(gr.lengths[e]) for e in gr.edges)
    Emax = max(float(np.max(np.sum(np.abs(
        _step_powers(Eh, chunk.b.shape[1])), axis=-1)))
        for chunk in report.chunks for Eh in chunk.Eh)
    Minv_norm = float(np.linalg.norm(Minv, np.inf))
    # ||B||_inf: the largest absolute row sum, the rows of each receiving
    # edge summed over the blocks that feed it
    row_sums = {}
    for (i, _), m in problem.B.items():
        row_sums[i] = row_sums.get(i, 0.0) + np.sum(np.abs(m), axis=1)
    B_inf = max((float(np.max(r)) for r in row_sums.values()), default=0.0)
    g_inf = float(np.max(np.abs(stack_edge_values(gr, problem.g)),
                         initial=0.0))
    f_inf = max(float(np.max(np.abs(chunk.f), initial=0.0))
                for chunk in report.chunks)
    bound = (Emax * Minv_norm * (g_inf + B_inf * amax * Emax * f_inf)
             + amax * Emax * f_inf)
    observed = max(float(np.max(np.abs(report.solutions[e].states)))
                   for e in gr.edges)
    sup_defect = max(0.0, observed - bound)

    if strict and failed:
        raise HypothesesNotMet(failed)
    return MappingReport(real_defect, positivity_defect, sup_defect, bound,
                         observed, tuple(failed))
