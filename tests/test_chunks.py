"""Edge chunks: runs of consecutive edges that share (dim, steps), stacked.

Outputs must not depend on the chunking: with a budget of one state value
every chunk is a single edge, which is the per-edge arithmetic, and
report.json and solution.csv must come out byte for byte as with the
default budget.  An overflow inside a chunk names the first bad edge in
graph order.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from chronograph import cli, matfun, problem_io, scenarios, solver


def _outputs(root):
    return {name: (root / name).read_bytes()
            for name in ("report.json", "solution.csv")}


def _solve_both_ways(tmp_path, monkeypatch, run):
    """The outputs of run(out_dir) at the default chunk budget and at a
    budget of one value (one edge per chunk)."""
    got = {}
    for name, budget in (("chunked", solver.CHUNK_VALUES), ("per_edge", 1)):
        out = tmp_path / name
        out.mkdir()
        with monkeypatch.context() as m:
            m.setattr(solver, "CHUNK_VALUES", budget)
            assert run(str(out)) == 0
        got[name] = _outputs(out)
    return got


def _write(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _scalar_edge(e, a, f=None, g=None, steps=4, length=1.0):
    edge = {"id": e, "length": length, "dim": 1, "A": [[a]], "steps": steps,
            "f": ({"kind": "zero"} if f is None
                  else {"kind": "constant", "value": [f]})}
    if g is not None:
        edge["g"] = [g]
    return edge


def ring_doc(n, seed=0):
    """n decaying scalar edges with constant forcing in a chain closed
    into a ring by weights below one."""
    rng = np.random.default_rng(seed)
    edges = [_scalar_edge(e, -rng.uniform(0.5, 2.0), rng.uniform(-1, 1),
                          g=1.0 if e == 0 else None, steps=20)
             for e in range(n)]
    blocks = [{"from": (e - 1) % n, "to": e,
               "matrix": [[rng.uniform(0.3, 0.9)]]} for e in range(n)]
    return {"edges": edges, "blocks": blocks}


def mixed_doc(seed=1):
    """Runs that break on a change of dim, of steps, and on the budget:
    5 scalar edges (steps 4), 3 edges of dim 2 (steps 4), 2 of dim 2
    (steps 6, one with sampled forcing), 20 of dim 2 with 2000 state values
    each (8 to a chunk of 2^14), then one scalar edge again; a chain with
    blocks of every shape in between."""
    rng = np.random.default_rng(seed)
    layout = [(1, 4)] * 5 + [(2, 4)] * 3 + [(2, 6)] * 2 + [(2, 999)] * 20 \
        + [(1, 4)]
    edges = []
    for e, (d, steps) in enumerate(layout):
        A = rng.standard_normal((d, d)) / d - 1.5 * np.eye(d)
        edge = {"id": e, "length": float(rng.uniform(0.5, 2.0)), "dim": d,
                "A": A.tolist(), "steps": steps,
                "f": {"kind": "constant",
                      "value": rng.standard_normal(d).tolist()}}
        if e == 9:
            edge["f"] = {"kind": "samples",
                         "value": rng.standard_normal((steps + 1, d)).tolist()}
        if e % 4 == 0:
            edge["g"] = rng.standard_normal(d).tolist()
        edges.append(edge)
    blocks = [{"from": e - 1, "to": e,
               "matrix": (0.4 * rng.standard_normal(
                   (layout[e][0], layout[e - 1][0]))).tolist()}
              for e in range(1, len(layout))]
    return {"edges": edges, "blocks": blocks}


def test_chunks_break_on_dim_steps_and_budget():
    problem = problem_io.load_problem_dict(mixed_doc())[0]
    assert [len(c) for c in solver.edge_chunks(problem)] \
        == [5, 3, 2, 8, 8, 4, 1]
    assert [c[0] for c in solver.edge_chunks(problem)] \
        == [0, 5, 8, 10, 18, 26, 30]
    report = solver.solve(problem)
    assert [c.edges for c in report.chunks] == solver.edge_chunks(problem)


def test_a_solve_works_the_chunk_layout_out_once(tmp_path, monkeypatch):
    calls = []

    def counted(problem, _edge_chunks=solver.edge_chunks):
        calls.append(problem)
        return _edge_chunks(problem)

    monkeypatch.setattr(solver, "edge_chunks", counted)
    assert cli.run_solve(_write(tmp_path, mixed_doc()), str(tmp_path)) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("sid", scenarios.SCENARIO_IDS)
def test_preset_outputs_do_not_depend_on_the_chunking(tmp_path, monkeypatch,
                                                      sid):
    got = _solve_both_ways(tmp_path, monkeypatch,
                           lambda out: cli.run_scenario(sid, {}, out))
    assert got["chunked"] == got["per_edge"]


@pytest.mark.parametrize("doc", [ring_doc(600), mixed_doc()],
                         ids=["ring-600", "mixed"])
def test_document_outputs_do_not_depend_on_the_chunking(tmp_path,
                                                        monkeypatch, doc):
    path = _write(tmp_path, doc)
    got = _solve_both_ways(tmp_path, monkeypatch,
                           lambda out: cli.run_solve(path, out))
    assert got["chunked"] == got["per_edge"]


def _owner(a):
    """The array that owns a's memory."""
    return a if a.base is None else a.base


def test_entries_are_views_into_the_chunk_stacks():
    problem = problem_io.load_problem_dict(mixed_doc())[0]
    report = solver.solve(problem)
    group = {e: A for edges, A in problem.operator_groups for e in edges}
    for chunk, X in zip(report.chunks, report.states):
        for field, stack in (("states", X), ("times", chunk.times)):
            for e in chunk.edges:
                assert _owner(getattr(report.solutions[e], field)) \
                    is _owner(stack), (e, field)
        # the operators are a slice of the dim group's one stack
        assert _owner(chunk.A) is _owner(group[chunk.edges[0]])
        for e in chunk.edges:
            # one linspace per chunk, bit for bit the edge's own grid
            assert report.solutions[e].times.tobytes() \
                == problem.times(e).tobytes()


def test_per_distinct_keeps_signed_zeros_apart_and_matches_the_stack():
    calls = []

    def counted(S):
        calls.append(len(S))
        return matfun.expm_phi12(S)

    A = np.array([[-1.0, 2.0], [0.5, -3.0]])
    S = np.stack([A, 0.0 * A, A, -0.0 * A, 0.0 * A, 2.0 * A]).astype(complex)
    got = solver._per_distinct(counted, S)
    assert calls == [4]
    for x, want in zip(got, matfun.expm_phi12(S)):
        assert x.tobytes() == want.tobytes()


# Bad edges of the overflow documents: (A, length, g) with zero forcing
# and no blocks into or out of them, so the boundary solve stays finite and
# c = g there.  With 29 steps:
# - e^700 g overflows at the last node: a propagated state;
# - states reach 1e304: the one-step defect's norm overflows;
# - only the last state passes 1e154: its square, an energy term,
#   overflows, while the defect and its scale 1 + ||x[k]|| stay finite.
OVERFLOWS = {
    "a propagated state": (700.0, 1.0, 1e10),
    "the one-step defect": (690.0, 1.0, 1e5),
    "an energy term": (23.0, 29.0, 1e-129),
}
STEPS = 29


def overflow_doc(n, bad, kind):
    """n scalar edges of STEPS steps in a chain, broken around the bad
    edges, which overflow as OVERFLOWS[kind] says."""
    a, length, g = OVERFLOWS[kind]
    edges = [_scalar_edge(e, a, g=g, steps=STEPS, length=length)
             if e in bad else
             _scalar_edge(e, -1.0, 0.5, g=1.0 if e == 0 else None,
                          steps=STEPS)
             for e in range(n)]
    blocks = [{"from": e - 1, "to": e, "matrix": [[0.5]]}
              for e in range(1, n) if e not in bad and e - 1 not in bad]
    return {"edges": edges, "blocks": blocks}


@pytest.mark.parametrize("kind", sorted(OVERFLOWS))
@pytest.mark.parametrize("n, bad, chunks", [
    (300, (150,), [300]),
    (300, (120, 200), [300]),
    (600, (100, 580), [546, 54])],
    ids=["middle-of-one-chunk", "two-in-one-chunk", "two-chunks"])
def test_overflow_inside_a_chunk_names_the_first_bad_edge(
        tmp_path, capsys, kind, n, bad, chunks):
    doc = overflow_doc(n, bad, kind)
    problem = problem_io.load_problem_dict(doc)[0]
    layout = [len(c) for c in solver.edge_chunks(problem)]
    assert layout == chunks
    first = bad[0]
    length = doc["edges"][first]["length"]
    assert cli.main(["solve", _write(tmp_path, doc),
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: edge {first} (length {length!r}): {kind} is not finite\n"
    assert not (tmp_path / "report.json").exists()


def test_python_m_chronograph_runs_the_command_line(tmp_path):
    assert cli.run_scenario("periodic", {}, str(tmp_path)) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-m", "chronograph", "classify",
         str(tmp_path / "problem.json")],
        env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["category"] == "CAUCHY_SEQUENCE"
