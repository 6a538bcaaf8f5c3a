import pathlib
import re
import subprocess
import sys

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "scaling_probe.py"


def test_scaling_probe_prints_one_row_per_stage():
    """A 200-edge ring through the probe: the title, the column header, the
    stages in order with one call each and their time per edge, and the
    memory line."""
    out = subprocess.run([sys.executable, str(TOOL), "200"], check=True,
                         capture_output=True, text=True).stdout
    title, header, *rows, rss, blank, end = out.split("\n")
    assert title == "ring of 200 scalar edges, 20 steps, seed 0: exit 0"
    assert re.split(r"\s{2,}", header) == ["stage", "calls", "total s",
                                           "per edge us"]
    cells = [row.split() for row in rows]
    assert [c[0] for c in cells] == [
        "problem_io.load_problem_file", "solver.assemble_monodromy",
        "solver.edge_recurrences", "solver.forced_terminal_integrals",
        "solver.solve_boundary", "solver.propagate", "cli._report_dict",
        "problem_io.solution_csv", "problem_io.canonical_json",
        "cli.run_solve"]
    for _, calls, total, per_edge in cells:
        assert calls == "1"
        # the total is printed to 0.1 ms, 0.25 us per edge at 200 edges
        assert abs(float(per_edge) - float(total) / 200 * 1e6) <= 0.26
    # the stages are disjoint parts of the request
    stages = sum(float(c[2]) for c in cells[:-1])
    assert stages <= float(cells[-1][2]) + 1e-3
    assert re.fullmatch(r"ru_maxrss growth: \d+\.\d MB, \d+\.\d\d kB per "
                        r"edge", rss)
    assert blank == end == ""
