"""Tests of the benchmark itself: generator, tracer and checker.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import check  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from verbs import run_request  # noqa: E402

WORKLOAD_NAMES = [name for name, _ in spec.WORKLOADS]


def _tree(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _relative(requests, root):
    def rel(x):
        return os.path.relpath(x, root) if isinstance(x, str) else x
    return [(verb, rel(target), rel(out)) for verb, target, out in requests]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    built = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        root = str(tmp_path / name)
        requests, expected, setup = workloads.build(workload, seed, root)
        built[name] = (_relative(requests + [setup], root), _tree(root),
                       {os.path.relpath(k, root): v
                        for k, v in expected.items()})
    assert built["a"] == built["b"]
    assert built["a"][0], "a workload has at least one request"
    if workload != "presets":  # presets are fixed documents
        assert built["a"][1] != built["c"][1]


def _snapshot():
    import jsonschema

    modules = [m for name, m in sys.modules.items()
               if name == "chronograph" or name.startswith("chronograph.")]
    modules.append(jsonschema)
    return {(m.__name__, key): value
            for m in modules for key, value in vars(m).items()}


def test_tracer_patches_every_binding_and_restores_all():
    from chronograph import cli, oracle, problem, solver

    before = _snapshot()
    originals = {
        "solver.validate": solver.validate,
        "cli.diagnose": cli.diagnose,
        "cli.classify_solvability": cli.classify_solvability,
        "oracle.forcing_node_values": oracle.forcing_node_values,
    }
    with tracing.Tracer():
        # names bound by "from ... import" are patched where looked up
        assert solver.validate is not originals["solver.validate"]
        assert problem.validate is solver.validate
        assert cli.diagnose is not originals["cli.diagnose"]
        assert cli.classify_solvability is not \
            originals["cli.classify_solvability"]
        assert oracle.forcing_node_values is not \
            originals["oracle.forcing_node_values"]
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_traced_run_writes_identical_outputs(tmp_path):
    outputs = {}
    tracer = tracing.Tracer()
    for name in ("untraced", "traced"):
        out = tmp_path / name
        out.mkdir()
        request = ("scenario", ("lions_chain", ()), str(out))
        if name == "traced":
            with tracer:
                code, _ = run_request(request)
        else:
            code, _ = run_request(request)
        assert code == 0
        outputs[name] = _tree(str(out))
    assert set(outputs["traced"]) >= {"problem.json", "report.json",
                                      "solution.csv"}
    assert outputs["traced"] == outputs["untraced"]
    summary = tracer.summary()
    assert summary["cli.run_scenario"]["calls"] == 1
    assert summary["solver.solve"]["calls"] == 1
    assert summary["problem.validate"]["calls"] >= 3
    assert summary["problem_io.jsonschema.validate"]["calls"] == 1
    assert tracer.csv_bytes == len(outputs["traced"]["solution.csv"])
    for row in summary.values():
        assert row["self_s"] <= row["busy_s"] + 1e-9


def test_checker_accepts_solver_output_and_flags_a_perturbed_node(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    code, _ = run_request(("scenario", ("lions_chain", ()), str(out)))
    assert code == 0
    problem = str(out / "problem.json")
    assert check.check_solution(problem, str(out)) == []
    assert check.check_report_category(str(out), "IVP_SEQUENCE") == []
    assert check.check_report_category(str(out), "GLOBAL_ONLY") != []

    csv_path = out / "solution.csv"
    lines = csv_path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-6))
    lines[-1] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    assert check.check_solution(problem, str(out)) != []


def test_schrodinger_closed_form_uses_iH(tmp_path):
    import numpy as np

    rng = np.random.default_rng(3)
    path = tmp_path / "schrodinger.json"
    path.write_text(json.dumps(workloads.schrodinger_doc(rng, 4)))
    out = tmp_path / "out"
    out.mkdir()
    code, _ = run_request(("solve", str(path), str(out)))
    assert code == 0
    assert check.check_solution(str(path), str(out)) == []


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.manifest()
