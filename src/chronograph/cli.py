"""Command-line front end.

Verbs:
  solve    <file>  -> solution.csv + report.json
  scenario <id>    -> problem.json, then the solve outputs
  compare  <file>  -> compare.json against the slow reference solver
  classify <file>  -> coupling-structure classification on stdout

The verbs are importable as run_solve / run_scenario / run_compare, each
returning the process exit code instead of raising.

Exit codes: 0 success, 1 invalid input, a usage error or a failed write,
2 boundary system numerically singular, 3 comparison tolerance breached.
"""

import argparse
import math
import numbers
import os
import sys

import numpy as np

from . import oracle, problem_io, scenarios, solver, variants
from .graph import classify_solvability, pattern_of
from .problem import diagnose
from .problem_io import ProblemFileError, atomic_write, canonical_json

# compare's defaults: reference steps per edge, tolerance per discrepancy
DEFAULT_CN_STEPS = 10_000
DEFAULT_TOL = 1e-6


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
    p_cmp.add_argument("--cn-steps", type=int, default=DEFAULT_CN_STEPS)
    p_cmp.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
        stage = "" if exc.stage is None else f" ({exc.stage})"
        print(f"error: boundary system numerically singular{stage}, "
              f"rcond = {exc.rcond:.3e}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    return _trap(lambda: args.func(args))


def _directory(value, option):
    """The output directory value as a path string; anything else raises
    ValueError naming the option."""
    if isinstance(value, os.PathLike):
        value = os.fspath(value)
    if not isinstance(value, str):
        raise ValueError(f"{option}: {value!r} is not a path")
    return value


def _write(out_dir, name, text):
    """atomic_write text to out_dir/name and return that path; a write the
    system refuses raises ValueError naming the path."""
    path = os.path.join(out_dir, name)
    try:
        atomic_write(path, text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") \
            from None
    return path


def _float(x):
    return None if x is None else float(x)


def _solvability_dict(problem):
    """The classifier's report with its edge positions as edge ids."""
    edges = problem.graph.edges
    rep = classify_solvability(pattern_of(problem.B, problem.graph))
    return {
        "category": rep.category,
        "ordering": (None if rep.ordering is None
                     else [edges[k] for k in rep.ordering]),
        "blocking_cycle": (None if rep.blocking_cycle is None
                           else [edges[k] for k in rep.blocking_cycle]),
    }


def _report_dict(problem, mode, report):
    gr = problem.graph
    h = diagnose(problem, report.monodromy)
    doc = {
        "mode": mode,
        "edges": [{"id": e, "dim": gr.dims[e], "length": _float(gr.lengths[e]),
                   "steps": problem.steps_for(e)} for e in gr.edges],
        "solvability": _solvability_dict(problem),
        "hypotheses": {
            "dissipativity_margin": {
                str(e): _float(v) for e, v in h.dissipativity_margin.items()},
            "B_norm": _float(h.B_norm),
            "monodromy_rcond": _float(h.monodromy_rcond),
            "sufficient_condition_met": bool(h.sufficient_condition_met),
            "epsilon": _float(h.epsilon),
        },
        "residuals": {
            "boundary": _float(report.boundary_residual),
            "ode": _float(report.ode_residual),
            "energy_defect": _float(report.energy_defect),
        },
        "monodromy_rcond": _float(report.monodromy_rcond),
        "ill_conditioned": bool(report.ill_conditioned),
        "commutator_norm": _float(h.commutator_norm),
        "grade": solver.solution_grade(problem, report),
    }
    return doc


def _unitarity_dict(report, problem):
    try:
        rep = variants.unitarity_check(report, problem)
    except variants.NonCommuting as exc:
        return {"checked": False, "reason": str(exc)}
    return {
        "checked": True,
        "unitary": bool(rep.unitary),
        "defect": _float(rep.defect),
        "operator_defect": _float(rep.operator_defect),
        "commutator": _float(rep.commutator),
    }


def _effective(problem, mode):
    """The problem the solver integrates: generators i H_j in Schrodinger
    mode, the document's own operators otherwise."""
    if mode == "schrodinger":
        return variants.schrodinger_effective(problem)
    return problem


def _solve_and_write(problem, mode, out_dir):
    effective = _effective(problem, mode)
    report = solver.solve(effective)
    doc = _report_dict(effective, mode, report)
    if mode == "schrodinger":
        doc["unitarity"] = _unitarity_dict(report, effective)
    report_text = canonical_json(doc)  # raises before any file is written
    csv_path = _write(out_dir, "solution.csv", problem_io.solution_csv(report))
    report_path = _write(out_dir, "report.json", report_text)
    print(f"solved {len(problem.graph.edges)} edge(s): "
          f"boundary residual {report.boundary_residual:.3e}, "
          f"step defect {report.ode_residual:.3e} -> "
          f"{csv_path}, {report_path}")
    return 0


def run_solve(path, out_dir="."):
    """Solve the problem file at path; write solution.csv and report.json.

    Returns the exit code (0 solved, 1 invalid input, 2 singular boundary
    system); error messages go to standard error.
    """
    def work():
        out = _directory(out_dir, "option out_dir (--out)")
        problem, mode, _ = problem_io.load_problem_file(path)
        return _solve_and_write(problem, mode, out)
    return _trap(work)


def run_scenario(scenario_id, overrides=None, out_dir="."):
    """Materialize a preset (plus overrides) and solve it.

    Writes problem.json alongside the solve outputs so the run is
    reproducible from the emitted file alone. Returns the exit code.
    """
    def work():
        out = _directory(out_dir, "option out_dir (--out)")
        try:
            doc = scenarios.build_scenario(scenario_id, dict(overrides or {}))
        except KeyError:
            print(f"error: unknown scenario {scenario_id!r}; choose from "
                  + ", ".join(scenarios.SCENARIO_IDS), file=sys.stderr)
            return 1
        problem, mode, options = problem_io.load_problem_dict(doc)
        normalized = problem_io.problem_to_dict(problem, mode=mode,
                                                options=options)
        _write(out, "problem.json", canonical_json(normalized))
        return _solve_and_write(problem, mode, out)
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
        cn_steps_req = opts.pop("cn_steps", DEFAULT_CN_STEPS)
        tol = opts.pop("tol", DEFAULT_TOL)
        out_dir = opts.pop("out", ".")
        if opts:
            raise ValueError(f"unknown compare options: {sorted(opts)}")
        if isinstance(cn_steps_req, bool) \
                or not isinstance(cn_steps_req, numbers.Integral):
            raise ValueError(f"compare option cn_steps (--cn-steps): "
                             f"{cn_steps_req!r} is not an integer")
        if cn_steps_req < 1:
            raise ValueError(f"compare option cn_steps (--cn-steps): "
                             f"{cn_steps_req} is below 1")
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) \
                or not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"compare option tol (--tol): {tol!r} is not a "
                             "finite number >= 0")
        out_dir = _directory(out_dir, "compare option out (--out)")
        return _compare(path, int(cn_steps_req), float(tol), out_dir)
    return _trap(work)


def _reference(problem, report, N):
    """Largest state discrepancy of report against the N-step reference at
    the solver's nodes, and the reference's boundary vector c."""
    ref = oracle.cn_solve(problem, N)
    disc = 0.0
    for e in problem.graph.edges:
        stride = N // problem.steps_for(e)
        mine = report.solutions[e].states
        theirs = ref[e].states[::stride]
        disc = max(disc, float(np.max(np.abs(mine - theirs))))
    return disc, np.concatenate([sol.states[0] for sol in ref.values()])


def _compare(path, cn_steps_req, tol, out_dir):
    problem, mode, _ = problem_io.load_problem_file(path)
    problem = _effective(problem, mode)
    report = solver.solve(problem)

    # Both reference grids (N and N/2) must contain every solver node.
    lcm = math.lcm(*(problem.steps_for(e) for e in problem.graph.edges))
    cn_steps = max(cn_steps_req, 2 * lcm)
    cn_steps = ((cn_steps + 2 * lcm - 1) // (2 * lcm)) * (2 * lcm)
    too_large = ValueError(f"compare option cn_steps (--cn-steps): the "
                           f"reference grid of {cn_steps} steps per edge "
                           "does not fit in memory")
    # one reference's (cn_steps + 1) x size states, in a size numpy can index
    values = (cn_steps + 1) * problem.graph.size()
    if values * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise too_large
    try:
        state_disc, c_ref = _reference(problem, report, cn_steps)
        coarse_disc, _ = _reference(problem, report, cn_steps // 2)
    except MemoryError:
        raise too_large from None

    # The solver is far more accurate than the reference here, so the
    # discrepancy is dominated by the reference error and halving works
    # as a grid-refinement study. Below roundoff the ratio is noise.
    if state_disc > 1e-12 and coarse_disc > 0.0:
        order = float(math.log2(coarse_disc / state_disc))
    else:
        order = None

    c_mine = report.psi_minus()
    boundary_disc = float(np.max(np.abs(c_mine - c_ref)))

    picard = {"converged": False}
    picard_disc = None
    try:
        c_pic = oracle.picard_boundary(problem, report)
        picard = {"converged": True}
        picard_disc = float(np.max(np.abs(c_mine - c_pic)))
    except (oracle.PicardDivergence, oracle.PicardStalled) as exc:
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
    out_path = _write(out_dir, "compare.json", canonical_json(doc))
    print(f"compare: state {state_disc:.3e}, boundary {boundary_disc:.3e} "
          f"(tol {tol:.1e}) -> {out_path}")
    return 3 if breached else 0


def _parse_overrides(pairs):
    casts = {"alpha": float, "dim": int, "steps": int}
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"override {pair!r} is not KEY=VALUE")
        # build_scenario refuses an unknown key, or a value left a string
        # here, naming the key
        try:
            out[key] = casts.get(key, str)(value)
        except ValueError:
            out[key] = value
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
