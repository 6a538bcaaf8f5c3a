import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from chronograph import cli, problem_io, scenarios, solver
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
    assert problem.operator(0)[0, 0] == -1.0


def test_load_rejects_schema_violations():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["edges"][0]["dim"]
    with pytest.raises(ProblemFileError):
        load_problem_dict(doc)
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["f"] = {"kind": "sinusoid"}
    with pytest.raises(ProblemFileError):
        load_problem_dict(doc)
    doc = json.loads(json.dumps(MINIMAL))
    doc["unexpected"] = 1
    with pytest.raises(ProblemFileError):
        load_problem_dict(doc)


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


def test_problem_round_trip_preserves_model():
    for sid in ("phase_shift", "lions_chain", "frequency_shift"):
        doc = scenarios.build_scenario(sid)
        p1, mode, options = load_problem_dict(doc)
        emitted = problem_to_dict(p1, mode=mode, options=options)
        p2, _, _ = load_problem_dict(emitted)
        assert p1.graph == p2.graph
        for e in p1.graph.edges:
            assert np.array_equal(p1.operator(e), p2.operator(e))
        assert set(p1.B.blocks) == set(p2.B.blocks)
        for k in p1.B.blocks:
            assert np.array_equal(p1.B.blocks[k], p2.B.blocks[k])


def test_emitted_document_is_byte_stable():
    for sid in scenarios.SCENARIO_IDS:
        doc = scenarios.build_scenario(sid)
        p1, mode, options = load_problem_dict(doc)
        text1 = canonical_json(problem_to_dict(p1, mode=mode, options=options))
        p2, mode2, options2 = load_problem_dict(json.loads(text1))
        text2 = canonical_json(problem_to_dict(p2, mode=mode2,
                                               options=options2))
        assert text1 == text2, sid


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
    from chronograph.problem import (EdgeOperator, TimeGraphProblem,
                                     TransmissionOperator)
    p = TimeGraphProblem(
        graph=TimeGraph((0, 1), {0: 1.0, 1: 1.0}, {0: 1, 1: 2}),
        operators=(EdgeOperator(0, -np.eye(1)), EdgeOperator(1, -np.eye(2))),
        B=TransmissionOperator({}),
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
    times = np.array([-0.0, 0.5, 1.0])
    sols = {"a%d%%s": solver.EdgeSolution("a%d%%s", times, narrow, narrow[0]),
            7: solver.EdgeSolution(7, times, wide, wide[0])}
    rep = solver.SolveReport(sols, ("a%d%%s", 7), 0.0, 0.0, 0.0, 1.0, False,
                             0.0)
    text = solution_csv(rep)
    assert text == per_value_solution_csv(rep)
    assert text.split("\n")[1] == "a%d%%s,0,0,,,0,,"


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


def test_cli_singular_problem_exits_two(tmp_path, capsys):
    doc = {"edges": [{"id": 0, "length": 1.0, "dim": 1, "A": [[0.0]],
                      "g": [1.0]}],
           "blocks": [{"from": 0, "to": 0, "matrix": [[1.0]]}]}
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["solve", path, "--out", str(tmp_path)]) == 2
    assert "singular" in capsys.readouterr().err


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
    assert cli.main(["scenario", "periodic", "--set", "bogus=1",
                     "--out", str(tmp_path)]) == 1


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


def test_cli_compare_breach_exits_three(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["blocks"][0]["matrix"] = [[2.0]]  # no longer the exact steady state
    path = make_problem_file(tmp_path, doc)
    assert cli.main(["compare", path, "--cn-steps", "200",
                     "--tol", "1e-12", "--out", str(tmp_path)]) == 3
    doc = json.loads((tmp_path / "compare.json").read_text())
    assert doc["within_tolerance"] is False
    assert 1.5 < doc["convergence_order"] < 2.5


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
