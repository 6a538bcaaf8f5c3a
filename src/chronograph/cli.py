"""Command-line front end.

Verbs:
  solve    <file>  -> solution.csv + report.json
  scenario <id>    -> problem.json, then the solve outputs
  compare  <file>  -> compare.json against the slow reference solver
  classify <file>  -> coupling-structure classification on stdout

The verbs are importable as run_solve / run_scenario / run_compare, each
returning the process exit code instead of raising.

Exit codes: 0 success, 1 invalid input, 2 boundary system numerically
singular, 3 comparison tolerance breached.
"""

import argparse
import math
import sys

import numpy as np

from . import oracle, problem_io, scenarios, solver, variants
from .graph import classify_solvability, pattern_of
from .problem import diagnose
from .problem_io import ProblemFileError, atomic_write, canonical_json


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chronograph",
        description="Solve linear evolution problems coupled along the edges "
                    "of a time graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--out", default=".", help="output directory")
    p_solve.set_defaults(func=_cmd_solve)

    p_scen = sub.add_parser("scenario", help="materialize and solve a preset")
    p_scen.add_argument("id", help="one of: " + ", ".join(scenarios.SCENARIO_IDS))
    p_scen.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a preset knob (alpha, dim, steps)")
    p_scen.add_argument("--out", default=".", help="output directory")
    p_scen.set_defaults(func=_cmd_scenario)

    p_cmp = sub.add_parser("compare",
                           help="cross-check against the reference solver")
    p_cmp.add_argument("file")
    p_cmp.add_argument("--cn-steps", type=int, default=10_000)
    p_cmp.add_argument("--tol", type=float, default=1e-6)
    p_cmp.add_argument("--out", default=".", help="output directory")
    p_cmp.set_defaults(func=_cmd_compare)

    p_cls = sub.add_parser("classify",
                           help="report the coupling-structure class")
    p_cls.add_argument("file")
    p_cls.set_defaults(func=_cmd_classify)
    return parser


def _trap(thunk):
    """Run thunk(), mapping the documented failure modes to exit codes."""
    try:
        return thunk()
    except ProblemFileError as exc:
        for msg in exc.messages:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except solver.NotWellPosed as exc:
        stage = f" ({exc.stage})" if getattr(exc, "stage", None) else ""
        print(f"error: boundary system numerically singular{stage}, "
              f"rcond = {exc.rcond:.3e}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _trap(lambda: args.func(args))


def _float(x):
    return None if x is None else float(x)


def _solvability_dict(problem):
    rep = classify_solvability(pattern_of(problem.B, problem.graph))
    return {
        "category": rep.category,
        "ordering": None if rep.ordering is None else list(rep.ordering),
        "blocking_cycle": (None if rep.blocking_cycle is None
                           else list(rep.blocking_cycle)),
    }


def _hypotheses_dict(problem, mono):
    h = diagnose(problem, mono)
    return {
        "dissipativity_margin": {str(e): _float(v)
                                 for e, v in h.dissipativity_margin.items()},
        "B_norm": _float(h.B_norm),
        "monodromy_rcond": _float(h.monodromy_rcond),
        "sufficient_condition_met": bool(h.sufficient_condition_met),
        "epsilon": _float(h.epsilon),
    }


def _report_dict(problem, mode, report):
    gr = problem.graph
    doc = {
        "mode": mode,
        "edges": [{"id": e, "dim": gr.dims[e], "length": _float(gr.lengths[e]),
                   "steps": problem.steps_for(e)} for e in gr.edges],
        "solvability": _solvability_dict(problem),
        "hypotheses": _hypotheses_dict(problem, report.monodromy),
        "residuals": {
            "boundary": _float(report.boundary_residual),
            "ode": _float(report.ode_residual),
            "energy_defect": _float(report.energy_defect),
        },
        "monodromy_rcond": _float(report.monodromy_rcond),
        "ill_conditioned": bool(report.ill_conditioned),
        "commutator_norm": _float(report.commutator_norm),
        "grade": solver.solution_grade(problem, report),
    }
    return doc


def _unitarity_dict(sp):
    try:
        rep = variants.unitarity_check(sp)
    except variants.NonCommuting as exc:
        return {"checked": False, "reason": str(exc)}
    return {
        "checked": True,
        "unitary": bool(rep.unitary),
        "defect": _float(rep.defect),
        "operator_defect": _float(rep.operator_defect),
        "commutator": _float(rep.commutator),
    }


def _solve_and_write(problem, mode, out_dir):
    if mode == "schrodinger":
        sp = variants.SchrodingerProblem(problem)
        effective = variants.schrodinger_effective(sp)
        report = solver.solve(effective)
        doc = _report_dict(effective, mode, report)
        doc["unitarity"] = _unitarity_dict(sp)
    else:
        report = solver.solve(problem)
        doc = _report_dict(problem, mode, report)
    atomic_write(f"{out_dir}/solution.csv", problem_io.solution_csv(report))
    atomic_write(f"{out_dir}/report.json", canonical_json(doc))
    print(f"solved {len(problem.graph.edges)} edge(s): "
          f"boundary residual {report.boundary_residual:.3e}, "
          f"step defect {report.ode_residual:.3e} -> "
          f"{out_dir}/solution.csv, {out_dir}/report.json")
    return 0


def run_solve(path, out_dir="."):
    """Solve the problem file at path; write solution.csv and report.json.

    Returns the exit code (0 solved, 1 invalid input, 2 singular boundary
    system); error messages go to standard error.
    """
    def work():
        problem, mode, _ = problem_io.load_problem_file(path)
        return _solve_and_write(problem, mode, out_dir)
    return _trap(work)


def run_scenario(scenario_id, overrides=None, out_dir="."):
    """Materialize a preset (plus overrides) and solve it.

    Writes problem.json alongside the solve outputs so the run is
    reproducible from the emitted file alone. Returns the exit code.
    """
    def work():
        try:
            doc = scenarios.build_scenario(scenario_id, dict(overrides or {}))
        except KeyError:
            print(f"error: unknown scenario {scenario_id!r}; choose from "
                  + ", ".join(scenarios.SCENARIO_IDS), file=sys.stderr)
            return 1
        problem, mode, options = problem_io.load_problem_dict(doc)
        normalized = problem_io.problem_to_dict(problem, mode=mode,
                                                options=options)
        atomic_write(f"{out_dir}/problem.json", canonical_json(normalized))
        return _solve_and_write(problem, mode, out_dir)
    return _trap(work)


def run_compare(path, cfg=None):
    """Cross-check the fast solver against the slow reference stepper.

    cfg keys (all optional): cn_steps, tol, out. Writes compare.json with
    the state and boundary discrepancies, the two-grid convergence order
    estimate of the reference, and the fixed-point iteration outcome.
    Returns 0 within tolerance, 3 on a breach, 1/2 as for run_solve.
    """
    def work():
        opts = dict(cfg or {})
        cn_steps_req = int(opts.pop("cn_steps", 10_000))
        tol = float(opts.pop("tol", 1e-6))
        out_dir = opts.pop("out", ".")
        if opts:
            raise ValueError(f"unknown compare options: {sorted(opts)}")
        return _compare(path, cn_steps_req, tol, out_dir)
    return _trap(work)


def _max_state_disc(problem, report, ref, ref_steps):
    disc = 0.0
    for e in problem.graph.edges:
        stride = ref_steps // problem.steps_for(e)
        mine = report.solutions[e].states
        theirs = ref.solutions[e].states[::stride]
        disc = max(disc, float(np.max(np.abs(mine - theirs))))
    return disc


def _compare(path, cn_steps_req, tol, out_dir):
    problem, mode, _ = problem_io.load_problem_file(path)
    if mode == "schrodinger":
        problem = variants.schrodinger_effective(
            variants.SchrodingerProblem(problem))
    report = solver.solve(problem)

    # Both reference grids (N and N/2) must contain every solver node.
    lcm = 1
    for e in problem.graph.edges:
        lcm = lcm * problem.steps_for(e) // math.gcd(lcm, problem.steps_for(e))
    cn_steps = max(cn_steps_req, 2 * lcm)
    cn_steps = ((cn_steps + 2 * lcm - 1) // (2 * lcm)) * (2 * lcm)
    fine = oracle.cn_solve(problem, cn_steps)
    coarse = oracle.cn_solve(problem, cn_steps // 2)

    state_disc = _max_state_disc(problem, report, fine, cn_steps)
    coarse_disc = _max_state_disc(problem, report, coarse, cn_steps // 2)
    # The solver is far more accurate than the reference here, so the
    # discrepancy is dominated by the reference error and halving works
    # as a grid-refinement study. Below roundoff the ratio is noise.
    if state_disc > 1e-12 and coarse_disc > 0.0:
        order = float(math.log2(coarse_disc / state_disc))
    else:
        order = None

    c_mine = np.concatenate([report.solutions[e].c
                             for e in problem.graph.edges])
    c_ref = np.concatenate([fine.solutions[e].c for e in problem.graph.edges])
    boundary_disc = float(np.max(np.abs(c_mine - c_ref)))

    picard = {"converged": False}
    picard_disc = None
    try:
        c_pic = oracle.picard_boundary(problem, report)
        picard = {"converged": True}
        picard_disc = float(np.max(np.abs(c_mine - c_pic)))
    except oracle.PicardDivergence as exc:
        picard = {"converged": False, "spectral_radius": _float(exc.rho)}

    breached = state_disc > tol or boundary_disc > tol or (
        picard_disc is not None and picard_disc > tol)
    doc = {
        "tolerance": _float(tol),
        "cn_steps": cn_steps,
        "state_discrepancy": state_disc,
        "boundary_discrepancy": boundary_disc,
        "convergence_order": order,
        "picard": picard,
        "picard_discrepancy": picard_disc,
        "within_tolerance": not breached,
    }
    atomic_write(f"{out_dir}/compare.json", canonical_json(doc))
    print(f"compare: state {state_disc:.3e}, boundary {boundary_disc:.3e} "
          f"(tol {tol:.1e}) -> {out_dir}/compare.json")
    return 3 if breached else 0


def _parse_overrides(pairs):
    casts = {"alpha": float, "dim": int, "steps": int}
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"override {pair!r} is not KEY=VALUE")
        if key not in casts:
            raise ValueError(f"unknown override key {key!r} "
                             f"(expected one of {sorted(casts)})")
        out[key] = casts[key](value)
    return out


def _cmd_solve(args):
    return run_solve(args.file, out_dir=args.out)


def _cmd_scenario(args):
    return run_scenario(args.id, _parse_overrides(args.overrides),
                        out_dir=args.out)


def _cmd_compare(args):
    return run_compare(args.file, {"cn_steps": args.cn_steps,
                                   "tol": args.tol, "out": args.out})


def _cmd_classify(args):
    problem, _, _ = problem_io.load_problem_file(args.file)
    sys.stdout.write(canonical_json(_solvability_dict(problem)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
