"""Problem-file parsing and deterministic output serialization.

Problems travel as JSON documents (schema shipped alongside this module);
trajectories leave as CSV.  All numeric output is decimal with 17 significant
digits, dictionary keys are emitted sorted, and files are written atomically,
so emitted documents are byte-stable under a load/emit round trip.
"""

import functools
import json
import math
import numbers
import os
import tempfile
from importlib import resources
from itertools import chain

import jsonschema
import numpy as np

from .graph import TimeGraph
from .problem import (ConstantForcing, EdgeOperator, Forcing, SampledForcing,
                      TimeGraphProblem, TransmissionOperator, ZeroForcing,
                      validate)


class ProblemFileError(Exception):
    """Problem document rejected; carries the list of messages."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@functools.cache
def _validator():
    """Validator for the shipped skeleton schema, checked once per process."""
    schema = json.loads(resources.files("chronograph")
                        .joinpath("problem.schema.json")
                        .read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


class _Prechecked:
    """Validator-class stand-in that makes jsonschema.validate reuse _validator().

    jsonschema.validate(doc, schema, cls) runs cls.check_schema(schema), a
    metaschema check costing far more than validating a document skeleton,
    and builds cls(schema) on every call. The cached validator's schema was
    checked when it was built, so both steps reduce to a lookup.
    """

    @staticmethod
    def check_schema(schema):
        pass

    def __new__(cls, schema):
        return _validator()


def _is_number(kind):
    # the JSON schema "number" type, narrowed to real values
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _first(items, pred):
    return next(k for k, x in enumerate(items) if pred(x))


def _numbers(value, path, errors, rows_ok=True):
    """Float array of a JSON number list, or None after appending errors.

    The skeleton schema promises only a list. Its entries must all be
    numbers or, when rows_ok, all rows (lists) of one non-zero length whose
    entries are numbers; every number must be finite. Each message names
    the JSON path of the offending entry or row.
    """
    is_row = [issubclass(t, list) for t in set(map(type, value))]
    nested = rows_ok and any(is_row)
    if nested and not all(is_row):
        depth = isinstance(value[0], list)
        k = _first(value, lambda x: isinstance(x, list) != depth)
        errors.append(f"{path}/{k}: mixed depth, a "
                      + ("number among rows" if depth else "row among numbers"))
        return None
    if nested:
        width = len(value[0])
        if width == 0 or set(map(len, value)) != {width}:
            k = _first(value, lambda row: not row or len(row) != width)
            errors.append(f"{path}/{k}: empty row" if not value[k] else
                          f"{path}/{k}: ragged rows, length {len(value[k])} "
                          f"!= {width} at {path}/0")
            return None
        entries = chain.from_iterable(value)
    else:
        entries = value
    if not all(map(_is_number, set(map(type, entries)))):
        flat = list(chain.from_iterable(value)) if nested else value
        k = _first(flat, lambda x: not _is_number(type(x)))
        where = f"{k // width}/{k % width}" if nested else str(k)
        errors.append(f"{path}/{where}: {flat[k]!r} is not of type 'number'")
        return None
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:
        errors.append(f"{path}: a number is out of float range")
        return None
    finite = np.isfinite(arr)
    if not finite.all():
        at = tuple(np.argwhere(~finite)[0])
        errors.append(f"{path}/{'/'.join(map(str, at))}: "
                      f"{arr[at]} is not finite")
        return None
    return arr


def _edge_id(value):
    """An edge id as the outputs write it.  The schema's "integer" type
    admits floats with zero fraction (1.0); they become ints, so one id has
    one text form in every output."""
    return int(value) if isinstance(value, float) else value


def _matrix(value, rows, cols, where, errors):
    arr = _numbers(value, where, errors)
    if arr is None:
        return np.zeros((rows, cols))
    if arr.ndim == 1:
        if arr.size != rows * cols:
            errors.append(f"{where}: flat matrix length {arr.size} != {rows * cols}")
            return np.zeros((rows, cols))
        return arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        errors.append(f"{where}: shape {arr.shape} != ({rows}, {cols})")
        return np.zeros((rows, cols))
    return arr


def load_problem_dict(doc):
    """Build (problem, mode, options) from a parsed problem document.

    The schema checks the document skeleton; the numeric arrays are checked
    here as they are converted. Raises ProblemFileError with every collected
    message when the document is structurally invalid or fails the model's
    own validation.
    """
    try:
        jsonschema.validate(doc, _validator().schema, cls=_Prechecked)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "document"
        raise ProblemFileError([f"{path}: {exc.message}"]) from exc

    errors = []
    edges = []
    lengths = {}
    dims = {}
    operators = []
    g = {}
    steps = {}
    forcing_map = {}
    seen = {}  # an id and its text form -> index of the first edge
    for k, e in enumerate(doc["edges"]):
        where = f"edges/{k}"
        eid = _edge_id(e["id"])
        prior = seen.setdefault(eid, seen.setdefault(str(eid), k))
        if prior != k:
            errors.append(f"{where}/id: {json.dumps(e['id'])} is the same id "
                          f"as edges/{prior}/id in the outputs")
        if isinstance(eid, str) and any(c in eid for c in ',"\r\n'):
            errors.append(f"{where}/id: {json.dumps(eid)} contains a comma, a "
                          "double quote, CR or LF, unfit for solution.csv")
        edges.append(eid)
        try:
            lengths[eid] = float(e["length"])
        except OverflowError:
            lengths[eid] = math.inf
        if not math.isfinite(lengths[eid]):
            errors.append(f"{where}/length: {lengths[eid]} is not finite")
        d = int(e["dim"])
        dims[eid] = d
        steps[eid] = int(e.get("steps", 100))
        operators.append(EdgeOperator(
            eid, _matrix(e["A"], d, d, f"{where}/A", errors)))
        if "g" in e:
            vec = _numbers(e["g"], f"{where}/g", errors, rows_ok=False)
            if vec is None:
                pass
            elif vec.shape != (d,):
                errors.append(f"{where}/g: length {vec.size} != {d}")
            else:
                g[eid] = vec
        f = e.get("f", {"kind": "zero"})
        kind = f["kind"]
        val = _numbers(f.get("value", []), f"{where}/f/value", errors)
        if val is None:
            pass
        elif kind == "constant":
            if val.shape != (d,):
                errors.append(f"{where}/f/value: length {val.size} != {d}")
            else:
                forcing_map[eid] = ConstantForcing(val)
        elif kind == "samples":
            if val.ndim == 1:
                val = val[:, None]
            if val.shape != (steps[eid] + 1, d):
                errors.append(
                    f"{where}/f/value: samples shape {val.shape} != "
                    f"({steps[eid] + 1}, {d})")
            else:
                forcing_map[eid] = SampledForcing(val)
        # zero forcing: omit the entry

    blocks = {}
    first = {}
    known = set(edges)
    for k, b in enumerate(doc.get("blocks", [])):
        i, j = _edge_id(b["to"]), _edge_id(b["from"])
        if i not in known or j not in known:
            errors.append(f"blocks/{k}: unknown edge pair ({j!r} -> {i!r})")
            continue
        if (i, j) in first:
            errors.append(f"blocks/{k}: duplicate block ({j!r} -> {i!r}), "
                          f"already given as blocks/{first[(i, j)]}")
            continue
        first[(i, j)] = k
        blocks[(i, j)] = _matrix(b["matrix"], dims[i], dims[j],
                                 f"blocks/{k}/matrix", errors)
    if errors:
        raise ProblemFileError(errors)

    problem = TimeGraphProblem(
        graph=TimeGraph(tuple(edges), lengths, dims),
        operators=tuple(operators),
        B=TransmissionOperator(blocks),
        g=g,
        forcing=Forcing(forcing_map),
        steps=steps,
    )
    violations = validate(problem)
    if violations:
        raise ProblemFileError(violations)
    return problem, doc.get("mode", "parabolic"), doc.get("options", {})


def load_problem_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError([f"{path}: invalid JSON: {exc}"]) from exc
    return load_problem_dict(doc)


def problem_to_dict(problem, mode, options):
    """Problem document for a model object (inverse of load_problem_dict)."""
    gr = problem.graph
    edges = []
    for e in gr.edges:
        entry = {
            "id": e,
            "length": float(gr.lengths[e]),
            "dim": int(gr.dims[e]),
            "A": [[_real(x) for x in row] for row in problem.operator(e)],
            "steps": problem.steps_for(e),
        }
        spec = problem.forcing.spec_for(e)
        if isinstance(spec, ZeroForcing):
            entry["f"] = {"kind": "zero"}
        elif isinstance(spec, ConstantForcing):
            entry["f"] = {"kind": "constant",
                          "value": [_real(x) for x in spec.value]}
        else:
            entry["f"] = {"kind": "samples",
                          "value": [[_real(x) for x in row]
                                    for row in spec.values]}
        if e in problem.g:
            entry["g"] = [_real(x) for x in problem.g[e]]
        edges.append(entry)
    pos = {e: k for k, e in enumerate(gr.edges)}
    blocks = [{"from": j, "to": i,
               "matrix": [[_real(x) for x in row] for row in m]}
              for (i, j), m in sorted(problem.B.blocks.items(),
                                      key=lambda kv: (pos[kv[0][0]],
                                                      pos[kv[0][1]]))]
    doc = {"edges": edges, "blocks": blocks, "mode": mode}
    if options:
        doc["options"] = options
    return doc


def _real(x):
    x = complex(x)
    if x.imag != 0.0:
        raise ValueError("problem files carry real data only")
    return x.real


def format_number(x):
    """Decimal with 17 significant digits; integers stay integral."""
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v == 0.0:
        return "0"  # avoid the non-round-tripping "-0"
    return f"{v:.17g}"


def _nonfinite_at(o):
    """Key path of the first non-finite float in o, in canonical_json's
    order, or None."""
    if isinstance(o, (float, np.floating)):
        return None if math.isfinite(o) else ""
    items = (sorted(o.items(), key=lambda kv: kv[0]) if isinstance(o, dict)
             else enumerate(o) if isinstance(o, (list, tuple, np.ndarray))
             else ())
    for k, v in items:
        at = _nonfinite_at(v)
        if at is not None:
            return f"{k}/{at}".rstrip("/")
    return None


def canonical_json(obj):
    """Deterministic JSON: sorted keys, 17-significant-digit numbers; a
    non-finite float, which JSON cannot carry, raises ValueError naming its
    key path."""

    def emit(o):
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, float, np.integer, np.floating)):
            if isinstance(o, (float, np.floating)) and not math.isfinite(o):
                raise ValueError(f"{_nonfinite_at(obj) or 'document'}: {o} "
                                 "is not finite and has no JSON form")
            return format_number(o)
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


def atomic_write(path, text):
    """Write via a temp file in the destination directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def solution_csv(report):
    """Trajectories as CSV: edge_id, t, then real and imaginary components.

    Column count is fixed by the largest edge dimension; lower-dimensional
    edges leave the surplus fields empty.  Each edge is written by one
    %-format call over a row template; the fields read as format_number
    would write them (adding 0.0 turns -0.0 into 0.0, printed "0").
    """
    dmax = max(report.solutions[e].states.shape[1] for e in report.edge_order)
    header = (["edge_id", "t"]
              + [f"re_{k}" for k in range(dmax)]
              + [f"im_{k}" for k in range(dmax)])
    parts = [",".join(header) + "\n"]
    for e in report.edge_order:
        sol = report.solutions[e]
        d = sol.states.shape[1]
        part = ",%.17g" * d + "," * (dmax - d)
        row = str(e).replace("%", "%%") + ",%.17g" + part + part + "\n"
        values = np.column_stack([sol.times, sol.states.real,
                                  sol.states.imag]) + 0.0
        parts.append(row * len(values) % tuple(values.ravel().tolist()))
    return "".join(parts)
