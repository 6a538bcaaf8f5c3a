import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chronograph import cli, matfun, problem_io, scenarios, solver
from chronograph.problem import ConstantForcing, SampledForcing, ZeroForcing
from chronograph.problem_io import (ProblemFileError, atomic_write,
                                    canonical_json, format_number,
                                    load_problem_dict, load_problem_file,
                                    problem_to_dict, solution_csv)
from conftest import preset


MINIMAL = {
    "edges": [{"id": 0, "length": 1.0, "dim": 1, "A": [[-1.0]],
               "f": {"kind": "constant", "value": [1.0]}}],
    "blocks": [{"from": 0, "to": 0, "matrix": [[1.0]]}],
}


def test_format_number():
    assert format_number(3) == "3"
    assert format_number(0.0) == "0"
    assert format_number(-0.0) == "0"
    assert format_number(0.5) == "0.5"
    assert float(format_number(0.1)) == 0.1
    assert float(format_number(1e-17)) == 1e-17
    assert format_number(np.float64(2.0)) == "2"


def test_canonical_json_sorts_and_round_trips():
    text = canonical_json({"b": [1, 2.5], "a": {"y": True, "x": None}})
    assert text == '{"a":{"x":null,"y":true},"b":[1,2.5]}\n'
    reparsed = json.loads(text)
    assert canonical_json(reparsed) == text


def test_canonical_json_is_byte_stable_for_floats():
    doc = {"v": [0.1, 1.0 / 3.0, math.pi, 12345.6789e-8]}
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_handles_arrays_and_rejects_junk():
    assert canonical_json(np.array([1.0, 2.0])) == "[1,2]\n"
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, np.float32("nan"),
              np.float64("inf")],
    ids=["nan", "inf", "-inf", "float32-nan", "float64-inf"])
def test_canonical_json_rejects_non_finite_numbers_naming_the_path(value):
    doc = {"a": 1.0, "b": [0.5, {"c": np.array([2.0, value])}]}
    with pytest.raises(ValueError, match=r"^b/1/c/1: .* is not finite"):
        canonical_json(doc)
    with pytest.raises(ValueError, match=r"^document: "):
        canonical_json(value)


def test_load_minimal_document():
    problem, mode, options = load_problem_dict(MINIMAL)
    assert mode == "parabolic"
    assert options == {}
    assert problem.graph.edges == (0,)
    assert problem.steps_for(0) == 100


def test_load_accepts_flat_matrices():
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["A"] = [-1.0]
    problem, _, _ = load_problem_dict(doc)
    assert problem.operators[0][0, 0] == -1.0


def test_load_rejects_schema_violations():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["edges"][0]["dim"]
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(doc)
    assert err.value.messages == ["edges/0: 'dim' is a required property"]
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["f"] = {"kind": "sinusoid"}
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(doc)
    assert err.value.messages == [
        "edges/0/f/kind: 'sinusoid' is not one of "
        "['zero', 'constant', 'samples']"]
    doc = json.loads(json.dumps(MINIMAL))
    doc["unexpected"] = 1
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(doc)
    assert err.value.messages == [
        "document: Additional properties are not allowed "
        "('unexpected' was unexpected)"]


def test_load_collects_multiple_messages():
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["A"] = [[1.0, 2.0]]
    doc["edges"][0]["g"] = [1.0, 2.0]
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(doc)
    assert len(err.value.messages) >= 2


def test_load_rejects_unknown_block_edges():
    doc = json.loads(json.dumps(MINIMAL))
    doc["blocks"][0]["from"] = 9
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(doc)
    assert any("unknown" in m for m in err.value.messages)


def test_load_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ProblemFileError):
        load_problem_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemFileError):
        load_problem_file(str(bad))


@pytest.mark.parametrize("data, why", [
    (b"[" * 200_000 + b"]" * 200_000, "arrays or objects nested too deeply"),
    (b'{"edges": [{"id": 0, "length": 1, "dim": 1, "A": '
     + b"[" * 990 + b"-1" + b"]" * 990 + b"}]}",
     "arrays or objects nested too deeply"),
    (b'\xff\xfe{"edges": []}',
     "not UTF-8 text (invalid start byte at byte 0)"),
    (b'{"edges": [{"id": ' + b"1" * 5000 + b"}]}",
     "an integer of more than 4300 digits"),
], ids=["nested-arrays", "nested-matrix", "not-utf-8", "long-integer"])
def test_cli_undecodable_file_exits_one_naming_it(tmp_path, capsys, data,
                                                  why):
    path = tmp_path / "problem.json"
    path.write_bytes(data)
    assert cli.main(["classify", str(path)]) == 1
    assert one_error_line(capsys) == f"{path}: invalid JSON: {why}"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("doc, refused", [(MINIMAL, False),
                                          ({"edges": []}, True)],
                         ids=["loads", "refused"])
def test_load_problem_file_pauses_and_restores_the_garbage_collector(
        tmp_path, monkeypatch, doc, refused, enabled):
    path = make_problem_file(tmp_path, doc)
    load = problem_io.load_problem_dict
    paused = []

    def spy(doc):
        paused.append(not gc.isenabled())
        return load(doc)

    monkeypatch.setattr(problem_io, "load_problem_dict", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if refused:
            with pytest.raises(ProblemFileError):
                load_problem_file(path)
        else:
            load_problem_file(path)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True]
    assert after is enabled


def test_problem_round_trip_preserves_model():
    for sid in ("phase_shift", "lions_chain", "frequency_shift"):
        doc = scenarios.build_scenario(sid)
        p1, mode, options = load_problem_dict(doc)
        emitted = problem_to_dict(p1, mode=mode, options=options)
        p2, _, _ = load_problem_dict(emitted)
        assert p1.graph == p2.graph
        for e in p1.graph.edges:
            assert np.array_equal(p1.operators[e], p2.operators[e])
        assert set(p1.B) == set(p2.B)
        for k in p1.B:
            assert np.array_equal(p1.B[k], p2.B[k])


def test_emitted_document_is_byte_stable():
    for sid in scenarios.SCENARIO_IDS:
        doc = scenarios.build_scenario(sid)
        p1, mode, options = load_problem_dict(doc)
        text1 = canonical_json(problem_to_dict(p1, mode=mode, options=options))
        p2, mode2, options2 = load_problem_dict(json.loads(text1))
        text2 = canonical_json(problem_to_dict(p2, mode=mode2,
                                               options=options2))
        assert text1 == text2, sid


def per_entry_problem_to_dict(problem, mode, options):
    """The writer problem_to_dict replaced, kept as its oracle: one
    complex() conversion and imaginary-part check per entry."""

    def real(x):
        x = complex(x)
        if x.imag != 0.0:
            raise ValueError("problem files carry real data only")
        return x.real

    gr = problem.graph
    edges = []
    for e in gr.edges:
        entry = {"id": e, "length": float(gr.lengths[e]),
                 "dim": int(gr.dims[e]),
                 "A": [[real(x) for x in row] for row in problem.operators[e]],
                 "steps": problem.steps_for(e)}
        spec = problem.forcing.get(e, ZeroForcing())
        if isinstance(spec, ZeroForcing):
            entry["f"] = {"kind": "zero"}
        elif isinstance(spec, ConstantForcing):
            entry["f"] = {"kind": "constant",
                          "value": [real(x) for x in spec.value]}
        else:
            entry["f"] = {"kind": "samples",
                          "value": [[real(x) for x in row]
                                    for row in spec.values]}
        if e in problem.g:
            entry["g"] = [real(x) for x in problem.g[e]]
        edges.append(entry)
    pos = {e: k for k, e in enumerate(gr.edges)}
    blocks = [{"from": j, "to": i,
               "matrix": [[real(x) for x in row] for row in m]}
              for (i, j), m in sorted(problem.B.items(),
                                      key=lambda kv: (pos[kv[0][0]],
                                                      pos[kv[0][1]]))]
    doc = {"edges": edges, "blocks": blocks, "mode": mode}
    if options:
        doc["options"] = options
    return doc


SAMPLED = {
    "edges": [{"id": "a", "length": 0.5, "dim": 2, "steps": 3,
               "A": [[-1.0, 0.25], [0.0, -2.0]], "g": [1.0, -0.5],
               "f": {"kind": "samples",
                     "value": [[0.1 * k, -1.0 / (k + 3)] for k in range(4)]}},
              {"id": "b", "length": 1.0, "dim": 1, "steps": 2, "A": [[-3.0]],
               "f": {"kind": "samples", "value": [1e-300, -0.0, 7.0]}}],
    "blocks": [{"from": "a", "to": "b", "matrix": [[0.5, -0.125]]}],
    "options": {"steps": 3}}


@pytest.mark.parametrize("doc", [
    *(scenarios.build_scenario(sid) for sid in scenarios.SCENARIO_IDS),
    scenarios.build_scenario("frequency_shift", {"dim": 96}),
    SAMPLED], ids=[*scenarios.SCENARIO_IDS, "frequency_shift-96", "samples"])
def test_problem_to_dict_writes_the_per_entry_writers_bytes(doc):
    problem, mode, options = load_problem_dict(doc)
    assert canonical_json(problem_to_dict(problem, mode, options)) == \
        canonical_json(per_entry_problem_to_dict(problem, mode, options))


@pytest.mark.parametrize("where", ["A", "g", "constant", "samples", "block"])
def test_problem_to_dict_refuses_complex_data_as_the_per_entry_writer(where):
    problem, _, _ = load_problem_dict(MINIMAL)
    tiny = 5e-324j
    change = {
        "A": {"operators": {0: [[-1.0 + tiny]]}},
        "g": {"g": {0: [1.0 + tiny]}},
        "constant": {"forcing": {0: ConstantForcing([tiny])}},
        "samples": {"forcing": {0: SampledForcing([0.0, tiny])}},
        "block": {"B": {(0, 0): [[tiny]]}}}[where]
    problem = dataclasses.replace(problem, **change)
    for write in (problem_to_dict, per_entry_problem_to_dict):
        with pytest.raises(ValueError,
                           match="^problem files carry real data only$"):
            write(problem, "parabolic", {})


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out" / "data.txt"
    atomic_write(str(target), "one\n")
    atomic_write(str(target), "two\n")
    assert target.read_text() == "two\n"
    leftovers = [f for f in os.listdir(tmp_path / "out")
                 if f.endswith(".tmp")]
    assert leftovers == []


def test_solution_csv_layout():
    from chronograph import solver
    rep = solver.solve(preset("lions_chain"))
    text = solution_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "edge_id,t,re_0,re_1,im_0,im_1"
    assert len(lines) == 1 + 4 * 101
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(1.0)


def test_solution_csv_pads_mixed_dimensions():
    from chronograph import solver
    from chronograph.graph import TimeGraph
    from chronograph.problem import TimeGraphProblem
    p = TimeGraphProblem(
        graph=TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 1, 1: 2}),
        operators={0: -np.eye(1), 1: -np.eye(2)},
        B={},
        g={0: np.ones(1), 1: np.ones(2)},
        steps={0: 2, 1: 2},
    )
    text = solution_csv(solver.solve(p))
    lines = text.strip().split("\n")
    assert lines[0] == "edge_id,t,re_0,re_1,im_0,im_1"
    row = lines[1].split(",")
    assert len(row) == 6
    assert row[3] == "" and row[5] == ""  # narrow edge leaves padding empty


def per_value_solution_csv(report):
    """Reference writer: one format_number call per value."""
    dmax = max(report.solutions[e].states.shape[1] for e in report.edge_order)
    header = (["edge_id", "t"]
              + [f"re_{k}" for k in range(dmax)]
              + [f"im_{k}" for k in range(dmax)])
    lines = [",".join(header)]
    for e in report.edge_order:
        sol = report.solutions[e]
        pad = [""] * (dmax - sol.states.shape[1])
        for t, state in zip(sol.times, sol.states):
            row = ([str(e), format_number(float(t))]
                   + [format_number(x) for x in state.real] + pad
                   + [format_number(x) for x in state.imag] + pad)
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_solution_csv_matches_per_value_writer_on_presets():
    for sid in scenarios.SCENARIO_IDS:
        rep = solver.solve(preset(sid))
        assert solution_csv(rep) == per_value_solution_csv(rep), sid


def test_solution_csv_matches_per_value_writer_on_edge_values():
    tiny = 5e-324  # smallest subnormal
    wide = np.array([[complex(-0.0, -0.0), -0.0, 2.5e-310 - 1j * tiny],
                     [1e300 + 1e-300j, -1e-300 - 1e300j, math.inf],
                     [-math.inf * 1j, 0.1 + 1j / 3, -7.0]])
    narrow = np.array([[-0.0], [tiny], [complex(-math.inf, 1.0)]])
    # two edges in one chunk on two grids: re_1 and im_1 are zero (of
    # either sign) throughout, im_0 is nonzero on the first edge only
    pair = np.empty((2, 3, 2), dtype=complex)
    pair.real = [[[1.0, -0.0], [-0.0, 0.0], [tiny, -0.0]],
                 [[-0.0, 0.0], [3.0, -0.0], [math.inf, 0.0]]]
    pair.imag = [[[-0.0, -0.0], [-2.0, 0.0], [0.0, -0.0]],
                 [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]]
    times = np.array([[-0.0, 0.5, 1.0]])
    chunks = tuple(solver.Chunk([e], None, None, None, None, times)
                   for e in ("a%d%%s", 7)) + (
        solver.Chunk(["b%", "c"], None, None, None, None,
                     np.array([[-0.0, 0.5, 1.0], [-0.0, 0.25, 0.5]])),)
    mono = solver.Monodromy(np.eye(4), 1.0, 1.0, {}, None)
    rep = solver.SolveReport(("a%d%%s", 7, "b%", "c"), 0.0, 0.0, 0.0,
                             mono, chunks, (narrow[None], wide[None], pair))
    text = solution_csv(rep)
    assert text == per_value_solution_csv(rep)
    lines = text.split("\n")
    assert lines[1] == "a%d%%s,0,0,,,0,,"
    assert lines[7:10] == ["b%,0,1,0,,0,0,", "b%,0.5,0,0,,-2,0,",
                           "b%,1,4.9406564584124654e-324,0,,0,0,"]
    assert lines[12] == "c,0.5,inf,0,,0,0,"


def _chain_doc(lengths, g, dim=2):
    """Edges of one dim and 4 steps, in one chunk, each with a diagonal A
    and its own g, chained by identity blocks."""
    eye = np.eye(dim).tolist()
    return {"edges": [{"id": k, "length": a, "dim": dim, "steps": 4,
                       "A": np.diag(-1.0 - np.arange(dim)).tolist(),
                       "g": list(gk), "f": {"kind": "zero"}}
                      for k, (a, gk) in enumerate(zip(lengths, g))],
            "blocks": [{"from": k - 1, "to": k, "matrix": eye}
                       for k in range(1, len(lengths))]}


def _solved(doc):
    problem, _, _ = load_problem_dict(doc)
    return solver.solve(problem)


def test_solution_csv_formats_two_grids_of_one_chunk():
    rep = _solved(_chain_doc([1.0, 0.5, 1.0], [[1.0, 0.5], [0.0, 0.0],
                                               [0.0, 0.0]]))
    assert len(rep.chunks) == 1
    assert len({t.tobytes() for t in rep.chunks[0].times}) == 2
    text = solution_csv(rep)
    assert text == per_value_solution_csv(rep)
    assert text.split("\n")[7].startswith("1,0.125,")


def test_solution_csv_writes_a_column_zero_on_one_edge_of_a_chunk():
    # uncoupled, so edge 0 keeps re_1 = 0 and edge 1 re_0 = 0; re_2 and
    # every imaginary column are zero on both
    doc = _chain_doc([1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dim=3)
    doc["blocks"] = []
    rep = _solved(doc)
    assert len(rep.chunks) == 1
    text = solution_csv(rep)
    assert text == per_value_solution_csv(rep)
    lines = text.split("\n")
    assert lines[1] == "0,0,1,0,0,0,0,0"
    assert lines[6] == "1,0,0,1,0,0,0,0"


@pytest.mark.parametrize("budget", [1, solver.CHUNK_VALUES])
@pytest.mark.parametrize("sid", ["lions_chain", "multi_loop"])
def test_solution_csv_matches_per_value_writer_per_chunk_budget(
        monkeypatch, budget, sid):
    monkeypatch.setattr(solver, "CHUNK_VALUES", budget)
    rep = solver.solve(preset(sid))
    assert (len(rep.chunks) == len(rep.edge_order)) == (budget == 1)
    assert solution_csv(rep) == per_value_solution_csv(rep)


def test_solution_csv_matches_per_value_writer_on_frequency_shift():
    # every imaginary column and the modes an edge does not receive are zero
    rep = solver.solve(preset("frequency_shift", steps=300))
    assert solution_csv(rep) == per_value_solution_csv(rep)


def make_problem_file(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_solve_writes_outputs(tmp_path):
    path = make_problem_file(tmp_path, MINIMAL)
    out = tmp_path / "results"
    assert cli.main(["solve", path, "--out", str(out)]) == 0
    assert (out / "solution.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["residuals"]["boundary"] <= 1e-10
    assert report["grade"] == "CLASSICAL"
    assert report["solvability"]["category"] == "CAUCHY_SEQUENCE"


def test_cli_solve_is_deterministic(tmp_path):
    path = make_problem_file(tmp_path, MINIMAL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", path, "--out", str(out1)]) == 0
    assert cli.main(["solve", path, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "solution.csv").read_bytes() == \
        (out2 / "solution.csv").read_bytes()


def test_cli_invalid_input_exits_one(tmp_path, capsys):
    path = make_problem_file(tmp_path, {"edges": []})
    assert cli.main(["solve", path]) == 1
    assert "error:" in capsys.readouterr().err


def one_error_line(capsys):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ")
    return lines[0][len("error: "):]


def test_cli_rejects_ids_with_the_same_text_form(tmp_path, capsys):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"].append(dict(doc["edges"][0], id="0"))
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert one_error_line(capsys) == \
        'edges/1/id: "0" is the same id as edges/0/id in the outputs'
    assert not (tmp_path / "report.json").exists()


def test_cli_writes_an_integral_float_id_as_an_int(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["id"] = 1.0
    doc["blocks"][0].update({"from": 1, "to": 1.0})
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [repr(edge["id"]) for edge in report["edges"]] == ["1"]
    assert list(report["hypotheses"]["dissipativity_margin"]) == ["1"]
    rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"1"}


@pytest.mark.parametrize("other", [1, "1"], ids=["int", "string"])
def test_cli_rejects_an_integral_float_id_beside_its_int(tmp_path, capsys,
                                                         other):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["id"] = 1.0
    doc["edges"].append(dict(doc["edges"][0], id=other))
    doc["blocks"] = []
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert one_error_line(capsys) == (f"edges/1/id: {json.dumps(other)} is "
                                      "the same id as edges/0/id in the "
                                      "outputs")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("eid", ["a,b", 'a"b', "c\rd", "c\nd"])
def test_cli_rejects_ids_that_solution_csv_cannot_carry(tmp_path, capsys,
                                                        eid):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["id"] = eid
    doc["blocks"] = []
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert one_error_line(capsys).startswith(
        f"edges/0/id: {json.dumps(eid)} contains a comma, a double quote, "
        "CR or LF")
    assert not (tmp_path / "solution.csv").exists()


def test_cli_singular_problem_exits_two(tmp_path, capsys):
    doc = {"edges": [{"id": 0, "length": 1.0, "dim": 1, "A": [[0.0]],
                      "g": [1.0]}],
           "blocks": [{"from": 0, "to": 0, "matrix": [[1.0]]}]}
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 2
    assert "singular" in capsys.readouterr().err


# Sparse components with no nonzero entry, which ARPACK cannot norm: a
# commutator [blockdiag(A_j), B] that vanishes, or M = I - B E that does.
@pytest.mark.parametrize("dim", [matfun.DENSE_BOUNDARY_MAX - 1,
                                 matfun.DENSE_BOUNDARY_MAX],
                         ids=["dense-side", "sparse-side"])
def test_cli_frequency_shift_with_a_zero_commutator_block_exits_zero(
        tmp_path, dim):
    # A and the projection blocks are diagonal: the commutator is zero on
    # the 2 dim x dim component of the projections
    assert cli.run_scenario("frequency_shift", {"dim": dim, "steps": 4},
                            out_dir=str(tmp_path)) == 0


def zero_commutator_ring(mode, n=300):
    """n scalar edges on a ring, every A = [[-1]], fed by themselves and by
    their predecessors with weight 0.3: B commutes with blockdiag(A_j),
    on one n x n component."""
    return {"edges": [scalar_edge(k, -1.0, g=1.0, steps=4) for k in range(n)],
            "blocks": [{"from": j % n, "to": k, "matrix": [[0.3]]}
                       for k in range(n) for j in (k, k - 1)],
            "mode": mode}


@pytest.mark.parametrize("mode", ["parabolic", "schrodinger"])
def test_cli_ring_with_a_zero_commutator_exits_zero(tmp_path, mode):
    path = make_problem_file(tmp_path, zero_commutator_ring(mode))
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["commutator_norm"] == 0.0


@pytest.mark.parametrize("verb", ["solve", "compare"])
def test_cli_zero_boundary_operator_on_the_sparse_side_exits_two(
        tmp_path, capsys, verb):
    """300 uncoupled copies of periodic with A = [[0]]: each slot of
    M = I - B E is 1 - 1 = 0, so the sparse M has no nonzero entry."""
    n = 300
    doc = {"edges": [scalar_edge(k, 0.0, f=1.0, steps=4) for k in range(n)],
           "blocks": [{"from": k, "to": k, "matrix": [[1.0]]}
                      for k in range(n)]}
    path = make_problem_file(tmp_path, doc)
    assert cli.main([verb, path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "singular" in err and "rcond = 0.000e+00" in err


def test_cli_overflowing_propagator_exits_one_naming_the_edge(tmp_path,
                                                             capsys):
    doc = {"edges": [{"id": 0, "length": 10, "dim": 1, "A": [[80]],
                      "g": [1.0]}],
           "blocks": [{"from": 0, "to": 0, "matrix": [[0.5]]}]}
    path = make_problem_file(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: edge 0 (length 10.0): the propagator "
                   "e^(length A) is not finite\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_cli_overflowing_exponent_exits_one_naming_the_edge(tmp_path,
                                                           capsys):
    # A and length are finite, length A is not
    doc = {"edges": [{"id": 0, "length": 1e10, "dim": 1, "A": [[-1e300]],
                      "g": [1.0]}],
           "blocks": [{"from": 0, "to": 0, "matrix": [[0.5]]}]}
    path = make_problem_file(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: edge 0 (length 10000000000.0): the exponent "
                   "length A is not finite\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_cli_overflowing_coupling_exits_one_naming_the_block(tmp_path,
                                                             capsys):
    # e^700 and 1e300 are finite, their product is not
    doc = {"edges": [{"id": 0, "length": 1, "dim": 1, "A": [[700]],
                      "g": [1.0]}],
           "blocks": [{"from": 0, "to": 0, "matrix": [[1e300]]}]}
    path = make_problem_file(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: block (0 -> 0): B E is not finite; the block times the "
        "propagator of edge 0 overflows\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("steps, what", [
    (4, "the forcing increment for h = 2.5"),  # b overflows
    (100, "the forced terminal value")])  # b is finite, the scan's sum is not
def test_cli_overflowing_forcing_exits_one_naming_the_edge(tmp_path, capsys,
                                                           steps, what):
    doc = {"edges": [{"id": 0, "length": 10, "dim": 1, "A": [[0]],
                      "g": [1.0], "steps": steps,
                      "f": {"kind": "constant", "value": [1e308]}}],
           "blocks": [{"from": 0, "to": 0, "matrix": [[0.5]]}]}
    path = make_problem_file(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: edge 0 (length 10.0): {what} is not finite\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def overflowing_boundary_doc(n, k, rhs):
    """n scalar edges chained by weight 0.5; edge k has A = [[0]],
    g = [1e308] and a self-block.  Without rhs the block is 0.5, so
    c_k = 2e308; with rhs edge k is forced by 1e308 and the block is 1.5,
    so g + B F reaches 2.5e308 on edge k."""
    edges = [{"id": e, "length": 1, "dim": 1, "A": [[-1]], "steps": 4}
             for e in range(n)]
    blocks = [{"from": e - 1, "to": e, "matrix": [[0.5]]}
              for e in range(1, n)]
    edges[k].update({"A": [[0]], "g": [1e308]})
    if rhs:
        edges[k]["f"] = {"kind": "constant", "value": [1e308]}
    blocks.append({"from": k, "to": k, "matrix": [[1.5 if rhs else 0.5]]})
    return {"edges": edges, "blocks": blocks}


@pytest.mark.parametrize(
    "n, k", [(1, 0), (10, 5), (matfun.DENSE_BOUNDARY_MAX - 1, 5),
             (matfun.DENSE_BOUNDARY_MAX, 5)],
    ids=["one-edge", "chain", "dense-side", "sparse-side"])
@pytest.mark.parametrize("rhs, what", [
    (False, "the initial value c of the boundary solve"),
    (True, "the boundary right-hand side g + B F")], ids=["c", "rhs"])
def test_cli_overflowing_boundary_solve_exits_one_naming_the_edge(
        tmp_path, capsys, n, k, rhs, what):
    path = make_problem_file(tmp_path, overflowing_boundary_doc(n, k, rhs))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: edge {k} (length 1.0): {what} is not finite\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def scalar_edge(eid, a, g=None, f=None, steps=10):
    edge = {"id": eid, "length": 1, "dim": 1, "A": [[a]], "steps": steps}
    if g is not None:
        edge["g"] = [g]
    if f is not None:
        edge["f"] = {"kind": "constant", "value": [f]}
    return edge


@pytest.mark.parametrize("doc, message", [
    # e^700 and c = g are finite, the states reach 1e314
    ({"edges": [scalar_edge(0, 700.0, g=1e10)]},
     "edge 0 (length 1.0): a propagated state is not finite"),
    ({"edges": [scalar_edge(0, 700.0, g=1e10), scalar_edge(1, -1.0)],
      "blocks": [{"from": 0, "to": 1, "matrix": [[1e-300]]}]},
     "edge 0 (length 1.0): a propagated state is not finite"),
    # finite states whose squared norms or products with A overflow
    ({"edges": [scalar_edge(0, -1.0, g=1e200)]},
     "||g|| in the boundary residual is not finite"),
    ({"edges": [scalar_edge(0, 20.0, g=1e150)]},
     "edge 0 (length 1.0): the step defect's scale 1 + ||x[k]|| is not "
     "finite"),
    ({"edges": [scalar_edge(0, -1e10, g=1e150)]},
     "edge 0 (length 1.0): an energy term is not finite"),
    ({"edges": [scalar_edge(0, 0.0, g=1.3e154, f=1e153, steps=1)]},
     "edge 0 (length 1.0): an energy term is not finite"),
    ({"edges": [scalar_edge(0, 0.0, g=1.2e154, steps=1),
                scalar_edge(1, 0.0, steps=1)],
      "blocks": [{"from": 0, "to": 1, "matrix": [[1.0]]}]},
     "the energy defect is not finite")],
    ids=["state", "state-coupled", "g-norm", "step-scale", "energy-integral",
         "end-state-energy", "energy-sum"])
def test_cli_overflow_after_the_boundary_solve_exits_one_naming_it(
        tmp_path, capsys, doc, message):
    """The boundary solve succeeds, but a state or a residual term does not
    fit in a double: one error line names the edge, where there is one,
    and the quantity."""
    path = make_problem_file(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("forcing", [
    None, {"kind": "constant", "value": [1.0, 2.0]}], ids=["zero", "constant"])
def test_cli_solve_too_large_to_allocate_exits_one_naming_the_edge(
        tmp_path, capsys, forcing):
    """10^15 + 1 nodes of dimension 2 are 32 PB of complex states, beyond
    the 47-bit address space, so the allocation is refused whatever the
    overcommit setting."""
    steps = 10 ** 15
    doc = {"edges": [{"id": 0, "length": 1, "dim": 1, "A": [[-1]],
                      "steps": 4},
                     {"id": "wide", "length": 1, "dim": 2, "steps": steps,
                      "A": [[-1, 0], [0, -1]]}],
           "blocks": [{"from": 0, "to": "wide", "matrix": [[1], [1]]}]}
    if forcing is not None:
        doc["edges"][1]["f"] = forcing
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        (f"error: out of memory: the largest edge, 'wide', has (steps + 1) "
         f"x dim = {2 * (steps + 1)} state values\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("steps", [1e20, 10 ** 18],
                         ids=["float-1e20", "bytes-beyond-intp"])
def test_cli_solve_of_more_states_than_numpy_can_index_names_the_edge(
        tmp_path, steps):
    """1e20 + 1 states are beyond numpy's index range, and 10^18 + 1
    complex states beyond its byte range: the solve names the edge as for a
    refused allocation, and classify, which allocates no states, still
    succeeds."""
    path = make_problem_file(tmp_path, {"edges": [
        {"id": "e", "length": 1.0, "dim": 1, "A": [[-1.0]], "steps": steps}]})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "chronograph", *args],
                              capture_output=True, text=True, env=env)

    solved = run("solve", path, "--out", str(tmp_path))
    assert solved.returncode == 1
    assert "Traceback" not in solved.stderr
    assert solved.stderr.splitlines() == [
        f"error: out of memory: the largest edge, 'e', has (steps + 1) x "
        f"dim = {int(steps) + 1} state values"]
    assert not (tmp_path / "report.json").exists()
    assert run("classify", path).returncode == 0


def test_cli_zero_forcing_with_a_value_exits_one(tmp_path, capsys):
    doc = {"edges": [{"id": 0, "length": 1, "dim": 1, "A": [[0]],
                      "f": {"kind": "zero", "value": [1.0]}}]}
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        "error: edges/0/f/value: a zero forcing takes no value\n"
    assert not (tmp_path / "report.json").exists()


def test_report_carries_one_monodromy_rcond(tmp_path):
    for sid in scenarios.SCENARIO_IDS:
        out = tmp_path / sid
        assert cli.run_scenario(sid, out_dir=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["hypotheses"]["monodromy_rcond"] \
            == report["monodromy_rcond"], sid


def test_cli_scenario_writes_problem_and_outputs(tmp_path):
    assert cli.main(["scenario", "phase_shift", "--set", "alpha=3",
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "problem.json").read_text())
    assert doc["blocks"][0]["matrix"] == [[3]]
    assert (tmp_path / "solution.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_cli_scenario_problem_file_byte_stable(tmp_path):
    assert cli.main(["scenario", "multi_loop", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "problem.json").read_bytes()
    p, mode, options = load_problem_file(str(tmp_path / "problem.json"))
    again = canonical_json(problem_to_dict(p, mode=mode, options=options))
    assert again.encode() == text


def test_cli_scenario_rejects_unknown(tmp_path, capsys):
    assert cli.main(["scenario", "wormhole", "--out", str(tmp_path)]) == 1
    assert "unknown scenario" in capsys.readouterr().err
    message = ("error: unknown override key 'bogus' "
               "(expected one of ['alpha', 'dim', 'steps'])\n")
    assert cli.main(["scenario", "periodic", "--set", "bogus=1",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == message
    assert cli.run_scenario("periodic", {"bogus": 1},
                            out_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err == message
    # an unknown key is named before a value of the wrong type
    assert cli.main(["scenario", "periodic", "--set", "steps=x", "--set",
                     "bogus=1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset_id, override, reader", [
    ("frequency_shift", "alpha=nan", "phase_shift"),
    ("phase_shift", "dim=3", "frequency_shift")])
def test_cli_scenario_rejects_an_override_the_preset_does_not_read(
        tmp_path, capsys, preset_id, override, reader):
    key = override.partition("=")[0]
    assert cli.main(["scenario", preset_id, "--set", override,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: override {key!r} does not apply to scenario {preset_id!r}"
        f" (only to {reader})\n")
    assert not (tmp_path / "problem.json").exists()


@pytest.mark.parametrize("override", ["dim=0", "dim=-1", "steps=0"])
def test_cli_scenario_rejects_a_size_below_one(tmp_path, capsys, override):
    key, _, value = override.partition("=")
    assert cli.main(["scenario", "frequency_shift", "--set", override,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: override {key!r} must be >= 1, got {value}\n"


def test_cli_scenario_names_a_dim_too_large_to_build(tmp_path, capsys):
    # 10^7 x 10^7 float matrices are 728 TiB each, beyond the 47-bit address
    # space, so the allocation is refused whatever the overcommit setting
    assert cli.main(["scenario", "frequency_shift", "--set", "dim=10000000",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: override 'dim': the 10000000 x 10000000 matrices of "
        "scenario 'frequency_shift' do not fit in memory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset_id, override, message", [
    ("periodic", "steps=1e3", "override 'steps': '1e3' is not an integer"),
    ("phase_shift", "alpha=two", "override 'alpha': 'two' is not a number")])
def test_cli_scenario_rejects_an_override_it_cannot_cast(tmp_path, capsys,
                                                         preset_id, override,
                                                         message):
    assert cli.main(["scenario", preset_id, "--set", override,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "problem.json").exists()


@pytest.mark.parametrize("preset_id, overrides, message", [
    ("frequency_shift", {"dim": None}, "'dim': None is not an integer"),
    ("phase_shift", {"alpha": None}, "'alpha': None is not a number"),
    ("frequency_shift", {"dim": 2.5}, "'dim': 2.5 is not an integer"),
    ("periodic", {"steps": 2.5}, "'steps': 2.5 is not an integer"),
    ("periodic", {"steps": True}, "'steps': True is not an integer"),
    ("phase_shift", {"alpha": "x"}, "'alpha': 'x' is not a number")])
def test_run_scenario_refuses_an_override_of_the_wrong_type(
        tmp_path, capsys, preset_id, overrides, message):
    assert cli.run_scenario(preset_id, overrides, out_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: override {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_scenario_rejects_a_non_finite_alpha(tmp_path, capsys, value):
    assert cli.main(["scenario", "phase_shift", "--set", f"alpha={value}",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == \
        f"error: override 'alpha' must be a finite number, got {value}\n"
    assert not (tmp_path / "problem.json").exists()


def test_cli_scenario_accepts_the_overrides_each_preset_reads(tmp_path):
    for preset_id, overrides in (("frequency_shift", ["dim=1", "steps=3"]),
                                 ("phase_shift", ["alpha=0.5", "steps=3"]),
                                 ("cycle", ["steps=3"])):
        out = tmp_path / preset_id
        argv = ["scenario", preset_id, "--out", str(out)]
        for pair in overrides:
            argv += ["--set", pair]
        assert cli.main(argv) == 0, preset_id


NON_HERMITIAN = {
    "edges": [{"id": 0, "length": 1, "dim": 2, "A": [[0, 1], [0, 0]],
               "g": [1, 0]}],
    "blocks": [{"from": 0, "to": 0, "matrix": [[0.5, 0], [0, 0.5]]}],
    "mode": "schrodinger"}


@pytest.mark.parametrize("verb", ["solve", "compare"])
def test_cli_non_hermitian_schrodinger_edge_exits_one_naming_it(tmp_path,
                                                                verb):
    path = make_problem_file(tmp_path, NON_HERMITIAN)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # the same entry point as the installed chronograph script
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from chronograph.cli import main; sys.exit(main())",
         verb, path, "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: edge 0: A is not Hermitian: ")
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "compare.json").exists()


def test_cli_compare_within_tolerance(tmp_path):
    path = make_problem_file(tmp_path, MINIMAL)
    assert cli.main(["compare", path, "--cn-steps", "2000",
                     "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["within_tolerance"] is True
    assert doc["state_discrepancy"] <= 1e-6
    assert doc["picard"]["converged"] is True
    assert doc["picard_discrepancy"] <= 1e-6
    # reference is exact on the steady state, so no order is measurable
    assert doc["convergence_order"] is None


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-6"),
    ("--cn-steps", "0"),
    # 10^15 + 1 grid times are 7.1 PiB, beyond the 47-bit address space,
    # so the allocation is refused whatever the overcommit setting
    ("--cn-steps", str(10 ** 15)),
    # 10^19 x 16 bytes of states exceed the largest size numpy can index,
    # so the grid is refused before anything is allocated
    ("--cn-steps", str(10 ** 19))])
def test_cli_compare_rejects_an_unusable_option(tmp_path, capsys, option,
                                                value):
    path = make_problem_file(tmp_path, MINIMAL)
    assert cli.main(["compare", path, f"{option}={value}",
                     "--out", str(tmp_path)]) == 1
    assert f"({option})" in one_error_line(capsys)
    assert not (tmp_path / "compare.json").exists()


@pytest.mark.parametrize("cfg, message", [
    ({"tol": None}, "tol (--tol): None is not a finite number >= 0"),
    ({"tol": "x"}, "tol (--tol): 'x' is not a finite number >= 0"),
    ({"tol": True}, "tol (--tol): True is not a finite number >= 0"),
    ({"cn_steps": [3]}, "cn_steps (--cn-steps): [3] is not an integer"),
    ({"cn_steps": 2.5}, "cn_steps (--cn-steps): 2.5 is not an integer"),
    ({"cn_steps": True}, "cn_steps (--cn-steps): True is not an integer"),
    ({"cn_steps": "abc"}, "cn_steps (--cn-steps): 'abc' is not an integer")])
def test_run_compare_refuses_an_option_of_the_wrong_type(tmp_path, capsys,
                                                         cfg, message):
    path = make_problem_file(tmp_path, MINIMAL)
    assert cli.run_compare(path, dict(cfg, out=str(tmp_path))) == 1
    assert capsys.readouterr().err == f"error: compare option {message}\n"
    assert not (tmp_path / "compare.json").exists()


def test_cli_compare_breach_exits_three(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["blocks"][0]["matrix"] = [[2.0]]  # no longer the exact steady state
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["compare", path, "--cn-steps", "200",
                     "--tol", "1e-12", "--out", str(tmp_path)]) == 3
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["within_tolerance"] is False
    assert 1.5 < doc["convergence_order"] < 2.5


def test_cli_compare_refuses_a_singular_crank_nicolson_step(tmp_path,
                                                            capsys):
    """h = 1/2 and A = 4 make I - hA/2 exactly singular on the 2-step
    reference grid: one error line names the edge and the option, and no
    warning is emitted (warnings are errors in this suite)."""
    doc = {"edges": [scalar_edge(0, 4.0, g=1.0, steps=1)],
           "blocks": [{"from": 0, "to": 0, "matrix": [[0.5]]}]}
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["compare", path, "--cn-steps", "2",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: edge 0 of length 1.0: the Crank-Nicolson step map is "
        "singular or not finite at 2 steps per edge; choose another "
        "cn_steps (--cn-steps)\n")
    assert not (tmp_path / "compare.json").exists()


def test_cli_compare_reports_divergent_iteration(tmp_path):
    doc = scenarios.build_scenario("groundhog")
    path = make_problem_file(tmp_path, doc)
    code = cli.main(["compare", path, "--cn-steps", "2000",
                     "--out", str(tmp_path)])
    assert code == 0  # divergence of the iteration is reported, not fatal
    out = json.loads((tmp_path / "compare.json").read_text())
    assert out["picard"]["converged"] is False
    assert out["picard"]["spectral_radius"] >= 1.0
    assert out["picard_discrepancy"] is None


def test_cli_compare_reports_an_iteration_out_of_steps(tmp_path):
    """rho(B E) = 0.99997 < 1: the iteration converges, but slower than
    PICARD_MAX_ITER steps allow; that is reported as divergence is, and the
    exit code is set by the other discrepancies."""
    doc = scenarios.build_scenario("phase_shift", {"alpha": 2.7182})
    path = make_problem_file(tmp_path, doc)
    code = cli.main(["compare", path, "--cn-steps", "100",
                     "--out", str(tmp_path)])
    out = json.loads((tmp_path / "compare.json").read_text())
    assert code == (0 if out["within_tolerance"] else 3)
    assert out["picard"]["converged"] is False
    assert sorted(out["picard"]) == ["converged", "spectral_radius"]
    assert 0.9999 < out["picard"]["spectral_radius"] < 1.0
    assert out["picard_discrepancy"] is None


def writing_verbs(tmp_path):
    """(argv without --out, output names in write order) of each verb that
    writes files."""
    path = make_problem_file(tmp_path, MINIMAL)
    return {"solve": (["solve", path], ["solution.csv", "report.json"]),
            "scenario": (["scenario", "periodic"],
                         ["problem.json", "solution.csv", "report.json"]),
            "compare": (["compare", path, "--cn-steps", "200"],
                        ["compare.json"])}


@pytest.mark.parametrize("verb", ["solve", "scenario", "compare"])
def test_cli_empty_out_writes_to_the_working_directory(tmp_path, capsys,
                                                       monkeypatch, verb):
    """--out '' names each output by its bare file name, as os.path.join
    does; the writes are recorded, not made."""
    argv, names = writing_verbs(tmp_path)[verb]
    targets = []
    monkeypatch.setattr(cli, "atomic_write",
                        lambda path, text: targets.append(path))
    assert cli.main(argv + ["--out", ""]) == 0
    assert targets == names
    assert capsys.readouterr().out.rstrip().endswith(
        "-> " + ", ".join(names[-2:]))


@pytest.mark.parametrize("verb", ["solve", "scenario", "compare"])
@pytest.mark.parametrize("under, reason", [("", "File exists"),
                                           ("sub", "Not a directory")])
def test_cli_out_under_a_regular_file_exits_one_naming_the_path(
        tmp_path, capsys, verb, under, reason):
    argv, names = writing_verbs(tmp_path)[verb]
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = os.path.join(str(blocker), under)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv + ["--out", out]) == 1
    target = os.path.join(out, names[0])
    assert one_error_line(capsys) == f"cannot write {target}: {reason}"
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("verb", ["solve", "scenario", "compare"])
@pytest.mark.parametrize("out", [None, 3, b"bytes"])
def test_run_verbs_refuse_an_out_that_is_not_a_path(tmp_path, capsys,
                                                    monkeypatch, verb, out):
    monkeypatch.chdir(tmp_path)  # wherever a path is made of it, it is here
    path = make_problem_file(tmp_path, MINIMAL)
    before = sorted(tmp_path.rglob("*"))
    if verb == "solve":
        code = cli.run_solve(path, out_dir=out)
        option = "option out_dir (--out)"
    elif verb == "scenario":
        code = cli.run_scenario("periodic", out_dir=out)
        option = "option out_dir (--out)"
    else:
        code = cli.run_compare(path, {"cn_steps": 200, "out": out})
        option = "compare option out (--out)"
    assert code == 1
    assert one_error_line(capsys) == f"{option}: {out!r} is not a path"
    assert sorted(tmp_path.rglob("*")) == before


def test_run_verbs_take_a_path_object_as_out(tmp_path):
    path = make_problem_file(tmp_path, MINIMAL)
    assert cli.run_solve(path, out_dir=tmp_path / "s") == 0
    assert cli.run_scenario("periodic", out_dir=tmp_path / "p") == 0
    assert cli.run_compare(path, {"cn_steps": 200,
                                  "out": tmp_path / "c"}) == 0
    assert sorted(os.listdir(tmp_path / "s")) == ["report.json",
                                                  "solution.csv"]
    assert sorted(os.listdir(tmp_path / "p")) == ["problem.json",
                                                  "report.json",
                                                  "solution.csv"]
    assert os.listdir(tmp_path / "c") == ["compare.json"]


def run_with_path(verb, path, out_dir):
    if verb == "solve":
        return cli.run_solve(path, out_dir=out_dir)
    return cli.run_compare(path, {"cn_steps": 200, "out": out_dir})


@pytest.mark.parametrize("verb", ["solve", "compare"])
def test_run_verbs_do_not_read_a_file_descriptor_as_path(tmp_path, capsys,
                                                         verb):
    """An open file's descriptor is refused, not read and closed: the
    caller's file stays open and unread."""
    path = make_problem_file(tmp_path, MINIMAL)
    with open(path, encoding="utf-8") as fh:
        assert run_with_path(verb, fh.fileno(), tmp_path) == 1
        assert one_error_line(capsys) == \
            f"argument path: {fh.fileno()} is not a path"
        assert json.loads(fh.read()) == MINIMAL
    assert os.listdir(tmp_path) == ["problem.json"]


@pytest.mark.parametrize("verb", ["solve", "compare"])
@pytest.mark.parametrize("path", [None, b"problem.json", 1.5])
def test_run_verbs_refuse_a_path_that_is_not_a_path(tmp_path, capsys,
                                                    monkeypatch, verb, path):
    monkeypatch.chdir(tmp_path)
    make_problem_file(tmp_path, MINIMAL)
    assert run_with_path(verb, path, tmp_path) == 1
    assert one_error_line(capsys) == f"argument path: {path!r} is not a path"
    assert os.listdir(tmp_path) == ["problem.json"]


@pytest.mark.parametrize("verb, value", [
    ("compare", [1]), ("compare", "abc"), ("compare", [("tol", 1.0)]),
    ("scenario", "steps"), ("scenario", [("steps", 4)])])
def test_run_verbs_refuse_options_that_are_not_a_mapping(tmp_path, capsys,
                                                         monkeypatch, verb,
                                                         value):
    monkeypatch.chdir(tmp_path)
    if verb == "compare":
        code = cli.run_compare(make_problem_file(tmp_path, MINIMAL), value)
        argument = "argument cfg"
    else:
        code = cli.run_scenario("periodic", value, out_dir=tmp_path)
        argument = "argument overrides (--set)"
    assert code == 1
    assert one_error_line(capsys) == f"{argument}: {value!r} is not a mapping"
    assert sorted(os.listdir(tmp_path)) == (
        ["problem.json"] if verb == "compare" else [])


def exit_code(argv):
    """cli.main's exit code, whether it returns it or raises SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["compare", "f", "--cn-steps", "abc"],
     "argument --cn-steps: invalid int value: 'abc'"),
    (["compare", "f", "--tol", "x"], "argument --tol: invalid float value"),
    (["solve"], "the following arguments are required: file"),
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'")])
def test_cli_usage_error_exits_one_with_argparse_message(capsys, argv,
                                                         message):
    """Exit code 2 is a singular boundary system; a usage error is 1."""
    assert exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: chronograph")
    assert message in err


@pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"]])
def test_cli_help_exits_zero(capsys, argv):
    assert exit_code(argv) == 0
    assert capsys.readouterr().out.startswith("usage: chronograph")


def test_importable_entry_points(tmp_path, capsys):
    path = make_problem_file(tmp_path, MINIMAL)
    assert cli.run_solve(path, out_dir=str(tmp_path)) == 0
    assert (tmp_path / "report.json").exists()

    assert cli.run_scenario("periodic", out_dir=str(tmp_path)) == 0
    assert (tmp_path / "problem.json").exists()
    assert cli.run_scenario("wormhole", out_dir=str(tmp_path)) == 1
    assert "unknown scenario" in capsys.readouterr().err

    assert cli.run_compare(path, {"cn_steps": 400,
                                  "out": str(tmp_path)}) == 0
    assert cli.run_compare(path, {"cn_steps": np.int64(400),
                                  "tol": np.float64(1e-6),
                                  "out": str(tmp_path)}) == 0
    assert "convergence_order" in json.loads(
        (tmp_path / "compare.json").read_text())
    assert cli.run_compare(path, {"bogus": 1}) == 1
    assert "unknown compare options" in capsys.readouterr().err


def test_cli_classify(tmp_path, capsys):
    doc = scenarios.build_scenario("time_travel")
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["classify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["category"] == "GLOBAL_ONLY"
    assert out["blocking_cycle"] == [1, 3]


def test_cli_classify_names_edge_ids_not_positions(tmp_path, capsys):
    """Edges "b", "a" in that order: the ordering and the cycle list ids,
    in the classifier's order, not positions in the document."""
    edges = [{"id": e, "length": 1.0, "dim": 1, "A": [[-1.0]], "g": [1.0]}
             for e in ("b", "a")]
    block = {"from": "a", "to": "b", "matrix": [[0.5]]}
    back = {"from": "b", "to": "a", "matrix": [[0.5]]}
    for blocks, key, want in (([block], "ordering", ["a", "b"]),
                              ([block, back], "blocking_cycle", ["b", "a"])):
        path = make_problem_file(tmp_path, {"edges": edges, "blocks": blocks})
        assert cli.main(["classify", path]) == 0
        assert json.loads(capsys.readouterr().out)[key] == want
        assert cli.main(["solve", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["solvability"][key] == want


def test_cli_schrodinger_mode_reports_unitarity(tmp_path):
    doc = {
        "edges": [{"id": 0, "length": 1.0, "dim": 1,
                   "A": [[math.pi / 2.0]], "g": [1.0]}],
        "blocks": [{"from": 0, "to": 0, "matrix": [[1.0]]}],
        "mode": "schrodinger",
    }
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "schrodinger"
    assert report["unitarity"]["checked"] is True
    assert abs(report["unitarity"]["operator_defect"] - 0.5) <= 1e-10


def test_all_scenario_ids_solve_through_cli(tmp_path):
    for sid in scenarios.SCENARIO_IDS:
        out = tmp_path / sid
        assert cli.main(["scenario", sid, "--out", str(out)]) == 0, sid
