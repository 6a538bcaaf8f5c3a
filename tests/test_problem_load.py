"""Numeric-array checks of the problem loader.

The shipped schema covers the document skeleton only; the loader checks the
numeric arrays itself. The differential tests hold it to the full per-entry
schema the project shipped before (problem.full.schema.json, kept here as
the oracle) plus the shape rules the loader always applied, and to four
rules the full schema could not state: no ragged arrays, no non-finite
numbers, no duplicate blocks, no value on a zero forcing.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronograph import cli, scenarios
from chronograph.problem_io import (ProblemFileError, canonical_json,
                                    load_problem_dict, load_problem_file,
                                    problem_to_dict)

with open(os.path.join(os.path.dirname(__file__), "problem.full.schema.json"),
          encoding="utf-8") as fh:
    ORACLE = jsonschema.Draft202012Validator(json.load(fh))


def _samples_doc(dim):
    rows = [[0.5 * k + j for j in range(dim)] for k in range(5)]
    return {
        "edges": [{"id": "a", "length": 1.0, "dim": dim, "steps": 4,
                   "A": [[-1.0 if r == c else 0.0 for c in range(dim)]
                         for r in range(dim)],
                   "g": [1.0] * dim,
                   "f": {"kind": "samples",
                         "value": [r[0] for r in rows] if dim == 1 else rows}},
                  {"id": "b", "length": 2.0, "dim": 1, "A": [-2.0],
                   "f": {"kind": "zero"}}],
        "blocks": [{"from": "a", "to": "b", "matrix": [[1.0] * dim]},
                   {"from": "b", "to": "b", "matrix": [0.5]}],
    }


BASE = {sid: json.dumps(scenarios.build_scenario(sid))
        for sid in scenarios.SCENARIO_IDS}
BASE["samples_rows"] = json.dumps(_samples_doc(2))
BASE["samples_flat"] = json.dumps(_samples_doc(1))


# -- the oracle -------------------------------------------------------------

def _shape(value):
    """Nested-list shape in numpy's sense, None when ragged or mixed."""
    if not isinstance(value, list):
        return ()
    shapes = {_shape(v) for v in value}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value),) + (shapes.pop() if shapes else ())


def _leaves(value):
    if isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def expected_rejection(doc):
    """Verdict of the full schema, the shape rules and the four new rules."""
    if not ORACLE.is_valid(doc):
        return True
    dims = {e["id"]: e["dim"] for e in doc["edges"]}
    checks = []  # (array, shapes it may have)
    for e in doc["edges"]:
        d = e["dim"]
        if not math.isfinite(e["length"]):
            return True
        checks.append((e["A"], {(d * d,), (d, d)}))
        if "g" in e:
            checks.append((e["g"], {(d,)}))
        f = e.get("f", {"kind": "zero"})
        if f["kind"] == "zero":
            if "value" in f:
                return True
            continue
        n = e.get("steps", 100) + 1
        allowed = {"constant": {(d,)},
                   "samples": {(n, d)} | ({(n,)} if d == 1 else set())}
        checks.append((f.get("value", []), allowed[f["kind"]]))
    seen = set()
    for b in doc.get("blocks", []):
        key = (b["to"], b["from"])
        if key in seen:
            return True
        seen.add(key)
        checks.append((b["matrix"], {(dims[b["to"]] * dims[b["from"]],),
                                     (dims[b["to"]], dims[b["from"]])}))
    for value, shapes in checks:
        shape = _shape(value)
        if shape is None or not all(map(math.isfinite, _leaves(value))):
            return True
        if shapes is not None and shape not in shapes:
            return True
    return False


# -- mutations --------------------------------------------------------------

def _arrays(doc):
    """(container, key) of every numeric array in the document."""
    out = []
    for e in doc["edges"]:
        out.append((e, "A"))
        if "g" in e:
            out.append((e, "g"))
        if "value" in e.get("f", {}):
            out.append((e["f"], "value"))
    out.extend((b, "matrix") for b in doc.get("blocks", []))
    return out


ENTRY_MUTATIONS = {
    "bool": lambda x: True,
    "str": lambda x: "1",
    "null": lambda x: None,
    "object": lambda x: {},
    "empty": lambda x: [],
    "deeper": lambda x: [x],
    "float64": np.float64,
    "nan": lambda x: math.nan,
    "inf": lambda x: math.inf,
    "-inf": lambda x: -math.inf,
}
ROW_MUTATIONS = {
    "longer": lambda row: row + row[:1],
    "shorter": lambda row: row[:-1],
    "shallower": lambda row: row[0],
    "empty": lambda row: [],
}


@st.composite
def mutated(draw):
    sid = draw(st.sampled_from(sorted(BASE)))
    doc = json.loads(BASE[sid])
    site = draw(st.sampled_from(["entry", "row", "length", "duplicate",
                                 "zero"]))
    if site == "duplicate" and doc.get("blocks"):
        doc["blocks"].append(dict(draw(st.sampled_from(doc["blocks"]))))
    elif site == "length":
        edge = draw(st.sampled_from(doc["edges"]))
        how = draw(st.sampled_from(sorted(ENTRY_MUTATIONS)))
        edge["length"] = ENTRY_MUTATIONS[how](edge["length"])
    elif site == "zero":
        edge = draw(st.sampled_from(doc["edges"]))
        edge["f"] = {"kind": "zero",
                     "value": edge.get("f", {}).get("value", [])}
    else:
        owner, key = draw(st.sampled_from(_arrays(doc)))
        _mutate_array(draw, owner[key], site)
    return sid, doc


def _mutate_array(draw, array, site):
    if not array:
        return
    k = draw(st.integers(0, len(array) - 1))
    if isinstance(array[k], list):
        if site == "row":
            how = draw(st.sampled_from(sorted(ROW_MUTATIONS)))
            array[k] = ROW_MUTATIONS[how](array[k])
            return
        array, k = array[k], draw(st.integers(0, len(array[k]) - 1))
    how = draw(st.sampled_from(sorted(ENTRY_MUTATIONS)))
    array[k] = ENTRY_MUTATIONS[how](array[k])


def _emitted(doc):
    problem, mode, options = load_problem_dict(doc)
    return canonical_json(problem_to_dict(problem, mode, options))


@settings(max_examples=300)
@given(mutated())
def test_loader_rejects_exactly_what_the_oracle_rejects(case):
    sid, doc = case
    try:
        emitted = _emitted(doc)
    except ProblemFileError as exc:
        assert expected_rejection(doc), exc.messages
        assert exc.messages and all(": " in m for m in exc.messages)
        return
    assert not expected_rejection(doc)
    # every mutation the loader accepts keeps the values
    assert emitted == _emitted(json.loads(BASE[sid]))


@settings(max_examples=60)
@given(mutated())
def test_cli_solve_of_mutated_documents_ends_in_an_exit_code(case):
    _, doc = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = cli.main(["solve", path, "--out", tmp])
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().startswith("error: ")


# -- regressions ------------------------------------------------------------

def _two_edge_doc():
    return {
        "edges": [{"id": 0, "length": 1.0, "dim": 2,
                   "A": [[-1.0, 0.0], [0.0, -1.0]], "g": [1.0, 0.0],
                   "f": {"kind": "constant", "value": [1.0, 1.0]}},
                  {"id": 1, "length": 1.0, "dim": 1, "A": [-1.0]}],
        "blocks": [{"from": 0, "to": 1, "matrix": [[1.0, 1.0]]},
                   {"from": 1, "to": 0, "matrix": [1.0, 0.5]}],
    }


def _messages(doc):
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(doc)
    return err.value.messages


def test_ragged_matrix_is_rejected_with_its_path():
    doc = _two_edge_doc()
    doc["edges"][0]["A"] = [[1.0], [2.0, 3.0]]
    assert _messages(doc) == [
        "edges/0/A/1: ragged rows, length 2 != 1 at edges/0/A/0"]


def test_zero_forcing_with_a_value_is_rejected_with_its_path():
    doc = _two_edge_doc()
    doc["edges"][0]["f"]["kind"] = "zero"
    assert _messages(doc) == [
        "edges/0/f/value: a zero forcing takes no value"]


def test_mixed_depth_forcing_is_rejected_with_its_path():
    doc = _two_edge_doc()
    doc["edges"][0]["f"]["value"] = [1.0, [1.0]]
    assert _messages(doc) == [
        "edges/0/f/value/1: mixed depth, a row among numbers"]


@pytest.mark.parametrize("where, set_nan", [
    ("edges/0/A/1/0", lambda d: d["edges"][0]["A"][1].__setitem__(0, math.nan)),
    ("edges/0/g/1", lambda d: d["edges"][0]["g"].__setitem__(1, math.inf)),
    ("edges/0/f/value/0",
     lambda d: d["edges"][0]["f"].__setitem__("value", [-math.inf, 1.0])),
    ("blocks/1/matrix/1",
     lambda d: d["blocks"][1]["matrix"].__setitem__(1, math.nan)),
    ("edges/1/length", lambda d: d["edges"][1].__setitem__("length", math.inf)),
])
def test_non_finite_numbers_are_rejected_with_their_path(where, set_nan):
    doc = _two_edge_doc()
    set_nan(doc)
    (message,) = _messages(doc)
    assert message.startswith(where + ": ") and "is not finite" in message


def test_non_finite_literals_in_a_file_exit_one(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_two_edge_doc()).replace("0.5", "NaN")
                    .replace('"g": [1.0, 0.0]', '"g": [Infinity, 0.0]'))
    with pytest.raises(ProblemFileError) as err:
        load_problem_file(str(path))
    assert err.value.messages == ["edges/0/g/0: inf is not finite",
                                  "blocks/1/matrix/1: nan is not finite"]
    assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 1
    assert "edges/0/g/0" in capsys.readouterr().err


def test_duplicate_blocks_are_rejected_naming_both():
    doc = _two_edge_doc()
    doc["blocks"].append({"from": 1, "to": 0, "matrix": [[2.0, 0.0]]})
    assert _messages(doc) == [
        "blocks/2: duplicate block (1 -> 0), already given as blocks/1"]


@pytest.mark.parametrize("junk", [True, "1", None, {}, [1.0]])
def test_non_number_entries_are_rejected_with_their_path(junk):
    doc = _two_edge_doc()
    doc["edges"][0]["A"][0][1] = junk
    (message,) = _messages(doc)
    assert message.startswith("edges/0/A/0/1: ")


def test_numpy_scalars_are_numbers():
    doc = _two_edge_doc()
    doc["edges"][0]["A"] = [[np.float64(-1.0), np.int64(0)],
                            [np.float32(0.0), -1]]
    doc["edges"][0]["g"] = [np.float64(1.0), 0.0]
    problem, _, _ = load_problem_dict(doc)
    assert np.array_equal(problem.operator(0), -np.eye(2))
    assert np.array_equal(problem.g[0], [1.0, 0.0])


def test_integers_beyond_float_range_are_rejected():
    doc = _two_edge_doc()
    doc["edges"][0]["g"] = [10 ** 400, 0]
    doc["edges"][1]["length"] = 10 ** 400
    assert _messages(doc) == ["edges/0/g: a number is out of float range",
                              "edges/1/length: inf is not finite"]
