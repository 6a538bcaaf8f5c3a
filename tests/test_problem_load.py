"""Skeleton and numeric-array checks of the problem loader.

The shipped schema covers the document's top level only; the loader checks
each edge and block object and the numeric arrays itself. The differential
tests hold it to the full per-entry schema the project shipped before
(problem.full.schema.json, kept here as the oracle) plus the shape and
edge-id rules the loader always applied, and to four rules the full schema
could not state: no ragged arrays, no non-finite numbers, no duplicate
blocks, no value on a zero forcing. A fault of the skeleton is worded as
the oracle's best_match words it.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import jsonschema
from jsonschema.exceptions import best_match
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chronograph import cli, problem_io, scenarios
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


def _groups_doc():
    """Five scalar edges and three of dimension 2, so that each target
    shape the loader converts in one group, (1, 1), (2, 2), (1,), (2,),
    (2, 1) and (1, 2), has several arrays, and a fault can sit in the
    middle of one."""
    scalar = [{"id": k, "length": 1.0, "dim": 1, "steps": 4,
               "A": [[-1.0 - 0.25 * k]], "g": [0.5 * k],
               "f": {"kind": "constant", "value": [1.0 - 0.5 * k]}}
              for k in range(5)]
    pair = [{"id": k, "length": 0.5, "dim": 2, "steps": 4,
             "A": [[-1.0 - 0.25 * k, 0.5], [0.0, -2.0]], "g": [1.0, -0.5 * k],
             "f": {"kind": "constant", "value": [0.25 * k, 1.0]}}
            for k in range(5, 8)]
    blocks = ([{"from": k, "to": k + 1, "matrix": [[0.5]]} for k in range(4)]
              + [{"from": 4, "to": 5, "matrix": [[0.5], [0.25]]},
                 {"from": 5, "to": 6, "matrix": [[0.5, 0.0], [0.0, 0.5]]},
                 {"from": 6, "to": 7, "matrix": [[0.25, 0.25], [0.0, 0.5]]},
                 {"from": 7, "to": 0, "matrix": [[0.5, 0.25]]}])
    return {"edges": scalar + pair, "blocks": blocks}


BASE = {sid: json.dumps(scenarios.build_scenario(sid))
        for sid in scenarios.SCENARIO_IDS}
BASE["samples_rows"] = json.dumps(_samples_doc(2))
BASE["samples_flat"] = json.dumps(_samples_doc(1))
BASE["groups"] = json.dumps(_groups_doc())


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


def _read_id(value):
    """An edge id as the loader reads it: an integral float is its int."""
    return int(value) if isinstance(value, float) else value


def expected_rejection(doc):
    """Verdict of the full schema, the shape and id rules and the four new
    rules."""
    if not ORACLE.is_valid(doc):
        return True
    ids = [_read_id(e["id"]) for e in doc["edges"]]
    if len({str(i) for i in ids}) < len(ids):  # one text form per id
        return True
    dims = dict(zip(ids, (e["dim"] for e in doc["edges"])))
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
        to, fro = key = (_read_id(b["to"]), _read_id(b["from"]))
        if not {to, fro} <= dims.keys() or key in seen:
            return True
        seen.add(key)
        checks.append((b["matrix"], {(dims[to] * dims[fro],),
                                     (dims[to], dims[fro])}))
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


SCALAR_MUTATIONS = {
    "bool": lambda: True,
    "str": lambda: "1",
    "null": lambda: None,
    "fraction": lambda: 1.5,
    "zero": lambda: 0,
    "negative": lambda: -1,
    "huge": lambda: 1e20,
    "list": lambda: [1],
    "object": lambda: {},
}
NOT_LISTS = {
    "bool": lambda: True,
    "str": lambda: "1",
    "null": lambda: None,
    "number": lambda: 1.0,
    "object": lambda: {},
}
DELETE = object()
INTEGRAL_FIELDS = {"id", "from", "to", "dim", "steps"}


def _skeleton_mutations(doc):
    """{site: [(path, make value)]} of the one-fault mutations of the
    skeleton; a value of DELETE removes the key."""
    objects = [((), ("edges",))]  # (path, required keys)
    scalars = [("mode",), ("options",)]
    for k, e in enumerate(doc["edges"]):
        objects.append((("edges", k), ("id", "length", "dim", "A")))
        scalars.extend(("edges", k, key)
                       for key in ("id", "length", "dim", "steps"))
        if "f" in e:
            objects.append((("edges", k, "f"), ("kind",)))
            scalars.append(("edges", k, "f", "kind"))
    for k in range(len(doc.get("blocks", []))):
        objects.append((("blocks", k), ("from", "to", "matrix")))
        scalars.extend([("blocks", k, "from"), ("blocks", k, "to")])
    arrays = [("edges", k, key) for k, e in enumerate(doc["edges"])
              for key in ("A", "g") if key in e]
    arrays += [("edges", k, "f", "value") for k, e in enumerate(doc["edges"])
               if "value" in e.get("f", {})]
    arrays += [("blocks", k, "matrix")
               for k in range(len(doc.get("blocks", [])))]
    return {
        "scalar": [(path, make) for path in scalars
                   for make in SCALAR_MUTATIONS.values()],
        "missing": [(path + (key,), lambda: DELETE)
                    for path, required in objects for key in required],
        "unknown": [(path + ("x",), lambda: 1) for path, _ in objects],
        "not_list": [(path, make) for path in arrays
                     for make in NOT_LISTS.values()],
        "empty": [(path, list) for path in arrays if path[-1] != "value"],
        "not_object": [(path, make) for path, _ in objects[1:]
                       for make in (lambda: 1, lambda: "1", lambda: None,
                                    list)],
    }


def _mutate(doc, path, value):
    """A copy of doc with the value at path replaced (or deleted)."""
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if value is DELETE:
        del owner[path[-1]]
    else:
        owner[path[-1]] = value
    return doc


def _read_as(path, value):
    """The value the loader reads at path: integral fields read an
    integral float as its int."""
    if (path[-1] in INTEGRAL_FIELDS and isinstance(value, float)
            and value.is_integer()):
        return int(value)
    return value


SKELETON_SITES = ("scalar", "missing", "unknown", "not_list", "empty",
                  "not_object")


@st.composite
def mutated(draw):
    """(mutated document, the document whose values it must load to when
    the loader accepts it)."""
    sid = draw(st.sampled_from(sorted(BASE)))
    doc = json.loads(BASE[sid])
    site = draw(st.sampled_from(["entry", "row", "length", "duplicate",
                                 "zero", *SKELETON_SITES]))
    if site in SKELETON_SITES:
        path, make = draw(st.sampled_from(_skeleton_mutations(doc)[site]))
        value = make()
        return (_mutate(doc, path, value),
                _mutate(doc, path, _read_as(path, value)))
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
    return doc, json.loads(BASE[sid])


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


@settings(max_examples=600)
@given(mutated())
def test_loader_rejects_exactly_what_the_oracle_rejects(case):
    doc, expected = case
    try:
        emitted = _emitted(doc)
    except ProblemFileError as exc:
        assert expected_rejection(doc), exc.messages
        assert exc.messages and all(": " in m for m in exc.messages)
        return
    assert not expected_rejection(doc)
    # every mutation the loader accepts keeps the values it was given
    assert emitted == _emitted(expected)


# The oracle's matrix is an anyOf of a flat and a nested list, which words a
# non-list or empty A or matrix as "... is not valid under any of the given
# schemas". The loader names the fault itself, as this schema words it.
MATRIX_SKELETON = jsonschema.Draft202012Validator(
    {"type": "array", "minItems": 1})


def _message(error, path=None):
    path = error.absolute_path if path is None else path
    return f"{'/'.join(map(str, path)) or 'document'}: {error.message}"


@pytest.mark.parametrize("sid", sorted(BASE))
def test_skeleton_messages_are_the_oracles(sid):
    base = json.loads(BASE[sid])
    checked = 0
    for mutations in _skeleton_mutations(base).values():
        for path, make in mutations:
            value = make()
            doc = _mutate(base, path, value)
            errors = list(ORACLE.iter_errors(doc))
            if not errors:
                continue
            if path[-1] in ("A", "matrix") and value is not DELETE:
                want = _message(best_match(MATRIX_SKELETON.iter_errors(value)),
                                path)
            else:
                want = _message(best_match(errors))
            with pytest.raises(ProblemFileError) as err:
                load_problem_dict(doc)
            assert err.value.messages == [want]
            checked += 1
    assert checked > 0


@settings(max_examples=60)
@given(mutated())
def test_cli_solve_of_mutated_documents_ends_in_an_exit_code(case):
    doc, _ = case
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


@pytest.mark.parametrize("faults, message", [
    ([(("edges", 0, "dim"), 0), (("edges", 1, "dim"), 0)],
     "edges/1/dim: 0 is less than the minimum of 1"),
    ([(("edges", 0, "z"), 1), (("edges", 0, "b"), 1),
      (("edges", 0, "dim"), DELETE)],
     "edges/0: 'dim' is a required property"),
    ([(("edges", 0, "z"), 1), (("edges", 0, "b"), 1)],
     "edges/0: Additional properties are not allowed ('b', 'z' were "
     "unexpected)"),
    ([(("edges", 0, "length"), -1), (("edges", 0, "f", "kind"), "x")],
     "edges/0/length: -1 is less than or equal to the minimum of 0"),
    ([(("blocks", 0, "to"), None), (("edges", 1, "id"), 1.5)],
     "edges/1/id: 1.5 is not of type 'string', 'integer'"),
    ([(("edges", 1, "id"), DELETE), (("edges", 1, "length"), DELETE)],
     "edges/1: 'id' is a required property"),
    ([(("edges", 0, "dim"), True), (("edges", 0, "steps"), 0.5)],
     "edges/0/steps: 0.5 is not of type 'integer'"),
], ids=["greatest-path", "required-first", "extras-sorted", "shallowest",
        "edges-after-blocks", "first-required", "same-depth-keys"])
def test_of_several_skeleton_faults_the_oracles_best_match_is_named(
        faults, message):
    doc = _two_edge_doc()
    for path, value in faults:
        doc = _mutate(doc, path, value)
    assert _message(best_match(ORACLE.iter_errors(doc))) == message
    assert _messages(doc) == [message]


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
    doc["edges"][0]["f"] = {"kind": "samples", "value": [1.0, [1.0]]}
    assert _messages(doc) == [
        "edges/0/f/value/1: mixed depth, a row among numbers"]


@pytest.mark.parametrize("edge, value", [(1, [[1.0]]), (0, [[1.0, 2.0]])],
                         ids=["dim-1", "dim-2"])
def test_constant_forcing_given_as_rows_is_refused_as_g_is(edge, value):
    """A constant is read flat, as g is: a row in it is not a number."""
    for key in ("g", "f"):
        doc = _two_edge_doc()
        doc["edges"][edge][key] = (value if key == "g" else
                                   {"kind": "constant", "value": value})
        where = f"edges/{edge}/{key}" + ("/value" if key == "f" else "")
        assert _messages(doc) == [
            f"{where}/0: {value[0]!r} is not of type 'number'"]


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
    assert np.array_equal(problem.operators[0], -np.eye(2))
    assert np.array_equal(problem.g[0], [1.0, 0.0])


def test_integers_beyond_float_range_are_rejected():
    doc = _two_edge_doc()
    doc["edges"][0]["g"] = [10 ** 400, 0]
    doc["edges"][1]["length"] = 10 ** 400
    assert _messages(doc) == ["edges/0/g: a number is out of float range",
                              "edges/1/length: inf is not finite"]


@pytest.mark.parametrize("dim", [10 ** 12, 1e20], ids=["1e12", "float-1e20"])
def test_dim_that_disagrees_with_A_is_named_at_A(tmp_path, dim):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        {"edges": [{"id": 0, "length": 1.0, "dim": dim, "A": [[-1.0]]}]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-m", "chronograph", "solve", str(path),
         "--out", str(tmp_path)], capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    d = int(dim)
    assert run.stderr.splitlines() == [
        f"error: edges/0/A: shape (1, 1) != ({d}, {d})"]


# -- arrays converted one shape group at a time -----------------------------

def _set(path, value):
    def mutate(doc):
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    return mutate


def _shared(entry):
    def mutate(doc):
        shared = [[entry]]
        for k in (1, 2, 3):
            doc["edges"][k]["A"] = shared
    return mutate


def _numpy_scalars(doc):
    doc["edges"][6]["A"] = [[np.float64(-1.0), np.int64(0)],
                            [np.float32(0.5), -2]]
    doc["edges"][2]["g"] = [np.float64(1.0)]


def _several(doc):
    doc["edges"][1]["f"]["value"] = [math.inf]
    doc["edges"][6]["A"][1] = [True, 0.0]
    doc["blocks"][5]["matrix"] = [0.5, 0.0, 0.0]
    doc["edges"][3]["A"] = [[10 ** 400]]
    doc["edges"][7]["g"] = ["1", 0.0]


def _loads_as_given(doc, problem):
    """Every array of an accepted document is np.array of its list."""
    def given(value, shape):
        return np.array(value, dtype=float).reshape(shape)

    for e in doc["edges"]:
        d = e["dim"]
        assert np.array_equal(problem.operators[e["id"]],
                              given(e["A"], (d, d)))
        assert np.array_equal(problem.g[e["id"]], given(e["g"], (d,)))
        assert np.array_equal(problem.forcing[e["id"]].value,
                              given(e["f"]["value"], (d,)))
    for b in doc["blocks"]:
        m = problem.B[b["to"], b["from"]]
        assert np.array_equal(m, given(b["matrix"], m.shape))


@pytest.mark.parametrize("mutate, messages", [
    (_numpy_scalars, []),
    (_shared(-1.5), []),
    (_set(("edges", 6, "A"), [-1.0, 0.5, 0.0, -2.0]), []),
    (_shared(math.nan), ["edges/1/A/0/0: nan is not finite",
                         "edges/2/A/0/0: nan is not finite",
                         "edges/3/A/0/0: nan is not finite"]),
    (_set(("edges", 6, "A"), [-1.0, 0.5, 0.0]),
     ["edges/6/A: flat matrix length 3 != 4"]),
    (_set(("edges", 2, "A"), [[10 ** 400]]),
     ["edges/2/A: a number is out of float range"]),
    (_set(("edges", 6, "A", 1, 0), math.nan),
     ["edges/6/A/1/0: nan is not finite"]),
    (_set(("edges", 2, "g", 0), math.inf), ["edges/2/g/0: inf is not finite"]),
    (_set(("blocks", 5, "matrix", 0, 1), -math.inf),
     ["blocks/5/matrix/0/1: -inf is not finite"]),
    (_set(("edges", 3, "f", "value", 0), True),
     ["edges/3/f/value/0: True is not of type 'number'"]),
    (_set(("edges", 6, "g", 1), [1.0]),
     ["edges/6/g/1: [1.0] is not of type 'number'"]),
    (_set(("blocks", 6, "matrix", 1), [0.5]),
     ["blocks/6/matrix/1: ragged rows, length 1 != 2 at blocks/6/matrix/0"]),
    (_several, ["edges/1/f/value/0: inf is not finite",
                "edges/3/A: a number is out of float range",
                "edges/6/A/1/0: True is not of type 'number'",
                "edges/7/g/0: '1' is not of type 'number'",
                "blocks/5/matrix: flat matrix length 3 != 4"]),
], ids=["numpy-scalars", "shared-list", "flat-A-among-nested",
        "shared-list-nan", "flat-A-too-short", "huge-int", "nan-in-A",
        "inf-in-g", "-inf-in-matrix", "bool-in-f", "row-in-g",
        "ragged-matrix", "several"])
def test_a_fault_in_a_group_is_named_as_when_read_alone(mutate, messages):
    """A group of same-shape arrays refuses only its faulty members, which
    are then read alone: the messages, and their document order, are those
    of reading every array on its own."""
    doc = _groups_doc()
    mutate(doc)
    if messages:
        assert _messages(doc) == messages
    else:
        problem, _, _ = load_problem_dict(doc)
        _loads_as_given(doc, problem)


def _scalar_chain(n):
    edges = [{"id": k, "length": 1.0, "dim": 1, "steps": 4,
              "A": [[-1.0 - k / n]], "f": {"kind": "constant",
                                           "value": [0.5]}}
             for k in range(n)]
    edges[0]["g"] = [1.0]
    blocks = [{"from": k - 1, "to": k, "matrix": [[0.5]]}
              for k in range(1, n)]
    return {"edges": edges, "blocks": blocks}


@pytest.mark.parametrize("bad, calls, code", [(False, 0, 0), (True, 1, 1)],
                         ids=["valid", "one-bad-A"])
def test_a_chain_is_converted_without_reading_arrays_one_by_one(
        tmp_path, monkeypatch, capsys, bad, calls, code):
    """A valid 600-edge chain's 1800 arrays are converted in their shape
    groups, with no per-array _numbers call; a bad A is the one array
    re-read."""
    doc = _scalar_chain(600)
    if bad:
        doc["edges"][300]["A"] = [["-1"]]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    read = []

    def counted_numbers(value, path, *args, _numbers=problem_io._numbers,
                        **kwargs):
        read.append(path)
        return _numbers(value, path, *args, **kwargs)

    monkeypatch.setattr(problem_io, "_numbers", counted_numbers)
    assert cli.main(["classify", str(path)]) == code
    assert len(read) == calls
    if bad:
        assert capsys.readouterr().err == \
            "error: edges/300/A/0/0: '-1' is not of type 'number'\n"


# -- canonical JSON ---------------------------------------------------------

def recursive_canonical_json(obj):
    """The recursive emitter canonical_json replaced, kept as its oracle:
    one json.dumps per string and key."""

    def emit(o):
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, float, np.integer, np.floating)):
            if isinstance(o, (float, np.floating)) and not math.isfinite(o):
                raise ValueError(f"{problem_io._nonfinite_at(obj) or 'document'}"
                                 f": {o} is not finite and has no JSON form")
            return problem_io.format_number(o)
        if isinstance(o, str):
            return json.dumps(o, ensure_ascii=False)
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(emit(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: kv[0])
            return "{" + ",".join(
                json.dumps(str(k), ensure_ascii=False) + ":" + emit(v)
                for k, v in items) + "}"
        if isinstance(o, np.ndarray):
            return emit(o.tolist())
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308,
               0.1, 1 / 3]
NON_FINITE = [math.nan, math.inf, -math.inf, np.float64(math.nan),
              np.float32(-math.inf)]
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é€😀'),
                         st.characters()), max_size=8)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), TEXT, FLOATS,
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.lists(FLOATS, min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows).reshape(-1, 2)))
JUNK = st.one_of(
    st.sampled_from(NON_FINITE),
    st.lists(st.sampled_from(NON_FINITE), min_size=1, max_size=2).map(
        np.array),
    st.booleans().map(np.bool_), st.just(object()), st.just({1, 2}))


def _trees(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(TEXT, kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=4)), max_leaves=24)


def _outcome(emit, obj):
    try:
        return emit(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(st.one_of(_trees(SCALARS), _trees(st.one_of(SCALARS, JUNK))))
def test_canonical_json_emits_the_recursive_emitters_bytes(tree):
    """Equal text for any tree of JSON's types, their numpy forms and
    tuples; a non-finite number or an unserializable value anywhere raises
    the same exception with the same message."""
    assert _outcome(canonical_json, tree) == \
        _outcome(recursive_canonical_json, tree)
