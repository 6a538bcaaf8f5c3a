"""Wall time of each stage of one solve, and its memory growth, per edge, as
the edge count grows.

    python3 tools/scaling_probe.py [N ...] [--checkout DIR]

For each N (default 1000 10000 100000) the probe writes the ring of N
scalar edges that perfbench.workloads.scalar_graph_doc gives at seed 0, with
20 steps per edge, to a temporary directory. A fresh interpreter
with one BLAS thread solves the 3-edge ring once, so that lazy imports and
first-call costs stay out of the table, then runs chronograph.run_solve on
the N-edge ring once, with every stage below timed wherever it is called
from:

    problem_io.load_problem_file  solver.assemble_monodromy
    solver.edge_recurrences       solver.forced_terminal_integrals
    solver.solve_boundary         solver.propagate
    cli._report_dict              problem_io.solution_csv
    problem_io.canonical_json     cli.run_solve (the whole request)

It prints one table per size: each stage's calls and wall time, in total
and per edge, and below it the growth of ru_maxrss over the request, in
total and per edge, and the wall time of `import chronograph` in that
interpreter (after the probe's own standard-library imports). The target is a flat per-edge column from 10^3 to 10^5
edges. The probe measures; it has no gate. chronograph and perfbench's
workloads are imported from the checkout (default: the one this script
lives in), and nothing under perfbench/ is written to.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("problem_io.load_problem_file", "solver.assemble_monodromy",
          "solver.edge_recurrences", "solver.forced_terminal_integrals",
          "solver.solve_boundary", "solver.propagate", "cli._report_dict",
          "problem_io.solution_csv", "problem_io.canonical_json",
          "cli.run_solve")
COLUMNS = ("stage", "calls", "total s", "per edge us")
STEPS = 20


def _timed(totals, name, fn):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            calls, seconds = totals[name]
            totals[name] = [calls + 1,
                            seconds + time.perf_counter() - start]
    return timed


def measure(warmup, path, out_dir):
    """Stage times and ru_maxrss growth (kB) of one run_solve on path, after
    one on warmup, with each stage patched under every name a chronograph
    module binds it to, and the wall time of importing chronograph."""
    start = time.perf_counter()
    import chronograph
    import_s = time.perf_counter() - start

    with contextlib.redirect_stdout(io.StringIO()):
        chronograph.run_solve(warmup, out_dir)
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("chronograph.")]
    totals = {}
    for stage in STAGES:
        layer, attr = stage.split(".")
        original = getattr(sys.modules[f"chronograph.{layer}"], attr)
        totals[stage] = [0, 0.0]
        wrapper = _timed(totals, stage, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with contextlib.redirect_stdout(io.StringIO()):
        code = sys.modules["chronograph.cli"].run_solve(path, out_dir)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"exit": code, "stages": totals, "rss_kb": after - before,
            "import_s": import_s}


def table(n, result):
    """The printed table of one size."""
    rows = [COLUMNS]
    for stage in STAGES:
        calls, seconds = result["stages"][stage]
        rows.append((stage, str(calls), f"{seconds:.4f}",
                     f"{seconds / n * 1e6:.2f}"))
    widths = [max(len(row[k]) for row in rows) for k in range(len(COLUMNS))]
    lines = [f"ring of {n} scalar edges, {STEPS} steps, seed 0: "
             f"exit {result['exit']}"]
    lines += ["  ".join(cell.ljust(w) if k == 0 else cell.rjust(w)
                        for k, (cell, w) in enumerate(zip(row, widths)))
              for row in rows]
    kb = result["rss_kb"]
    lines.append(f"ru_maxrss growth: {kb / 1024:.1f} MB, "
                 f"{kb / n:.2f} kB per edge")
    lines.append(f"import chronograph: {result['import_s']:.4f} s")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="*", type=int,
                        default=[1000, 10000, 100000])
    parser.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--one", nargs=3, metavar=("WARMUP", "PATH", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if args.one:
        sys.path.insert(0, os.path.join(checkout, "src"))
        print(json.dumps(measure(*args.one)))
        return 0

    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import numpy as np
    import workloads

    def ring(n):
        path = os.path.join(tmp, f"ring-{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads.scalar_graph_doc(
                np.random.default_rng(0), n, STEPS, ring=True), fh)
        return path

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        warmup = ring(3)
        for n in args.sizes:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--checkout",
                 checkout, "--one", warmup, ring(n), tmp],
                env=env, check=True, capture_output=True, text=True)
            print(table(n, json.loads(child.stdout)))
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
