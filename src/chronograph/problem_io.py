"""Problem-file parsing and deterministic output serialization.

Problems travel as JSON documents; trajectories leave as CSV. A document is
checked in three layers, each rule in one place: the schema shipped
alongside this module checks the top level (edges, blocks, mode, options),
the skeleton pass (_skeleton) checks each edge and block object, and
_floats checks the numeric arrays as they are converted. The arrays are
converted one group of equal target shape at a time (_batched), by one
_floats call per group; only an array its group refuses is re-read on its
own by _matrix or _numbers, for the message that names it. All numeric
output is decimal with 17 significant digits, dictionary keys are emitted
sorted, and files are written atomically, so emitted documents are
byte-stable under a load/emit round trip.
"""

import functools
import gc
import json
import math
import numbers
import os
import sys
import tempfile
from importlib import resources
from json.encoder import encode_basestring as _quote
from operator import itemgetter

import jsonschema
import numpy as np

from .graph import TimeGraph
from .problem import (DEFAULT_STEPS, ConstantForcing, SampledForcing,
                      TimeGraphProblem, ZeroForcing, validate)


class ProblemFileError(Exception):
    """Problem document rejected; carries the list of messages."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@functools.cache
def _validator():
    """Validator for the shipped top-level schema, checked once per process."""
    schema = json.loads(resources.files("chronograph")
                        .joinpath("problem.schema.json")
                        .read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


class _Prechecked:
    """Validator-class stand-in that makes jsonschema.validate reuse _validator().

    jsonschema.validate(doc, schema, cls) runs cls.check_schema(schema), a
    metaschema check costing far more than validating a document's top level,
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


def _is_integer(value):
    # the JSON schema "integer" type: 1.0 is one, True is not
    return ((isinstance(value, int) and not isinstance(value, bool))
            or (isinstance(value, float) and value.is_integer()))


# The skeleton rules of the edge and block objects. A field rule returns
# the message for a value that breaks it, worded as jsonschema words the
# keyword it stands for, or None; a type fault is reported instead of a
# bound, as in jsonschema. An object is (field rules, required keys).

def _id(value):  # {"type": ["string", "integer"]}
    if not (isinstance(value, str) or _is_integer(value)):
        return f"{value!r} is not of type 'string', 'integer'"


def _count(value):  # {"type": "integer", "minimum": 1}
    if not _is_integer(value):
        return f"{value!r} is not of type 'integer'"
    if value < 1:
        return f"{value!r} is less than the minimum of 1"


def _length(value):  # {"type": "number", "exclusiveMinimum": 0}
    if not _is_number(type(value)):
        return f"{value!r} is not of type 'number'"
    if value <= 0:
        return f"{value!r} is less than or equal to the minimum of 0"


def _list(value):  # {"type": "array"}
    if not isinstance(value, list):
        return f"{value!r} is not of type 'array'"


def _nonempty_list(value):  # {"type": "array", "minItems": 1}
    if not isinstance(value, list):
        return f"{value!r} is not of type 'array'"
    if not value:
        return f"{value!r} should be non-empty"


_KINDS = ("zero", "constant", "samples")


def _kind(value):  # {"enum": _KINDS}
    if not (isinstance(value, str) and value in _KINDS):
        return f"{value!r} is not one of {list(_KINDS)!r}"


_FORCING = ({"kind": _kind, "value": _list}, ("kind",))
_EDGE = ({"id": _id, "length": _length, "dim": _count, "A": _nonempty_list,
          "f": _FORCING, "g": _nonempty_list, "steps": _count},
         ("id", "length", "dim", "A"))
_BLOCK = ({"from": _id, "to": _id, "matrix": _nonempty_list},
          ("from", "to", "matrix"))


def _object(value, path, spec, faults):
    """Append (path, message) for each fault of one object: its type, each
    missing key, its unknown keys, then each field's rule."""
    fields, required = spec
    if not isinstance(value, dict):
        faults.append((path, f"{value!r} is not of type 'object'"))
        return
    for key in required:
        if key not in value:
            faults.append((path, f"{key!r} is a required property"))
    extra = value.keys() - fields.keys()
    if extra:
        names = ", ".join(map(repr, sorted(extra, key=str)))
        verb = "was" if len(extra) == 1 else "were"
        faults.append((path, "Additional properties are not allowed "
                             f"({names} {verb} unexpected)"))
    for key, item in value.items():
        rule = fields.get(key)
        if type(rule) is tuple:
            _object(item, path + (key,), rule, faults)
        elif rule is not None:
            message = rule(item)
            if message is not None:
                faults.append((path + (key,), message))


def _skeleton(doc):
    """Check each edge and block object of a document whose top level the
    schema has passed; raise ProblemFileError with one message.

    Of several faults the message names the one jsonschema's best_match
    would: the shallowest path, then the greatest path, then the first
    found at that path (type, missing keys, unknown keys).
    """
    faults = []
    for k, e in enumerate(doc["edges"]):
        _object(e, ("edges", k), _EDGE, faults)
    for k, b in enumerate(doc.get("blocks", [])):
        _object(b, ("blocks", k), _BLOCK, faults)
    if faults:
        path, message = max(faults, key=lambda f: (-len(f[0]), f[0]))
        raise ProblemFileError([f"{'/'.join(map(str, path))}: {message}"])


def _first(items, pred):
    return next(k for k, x in enumerate(items) if pred(x))


def _flat(values, nested):
    """The entries of a list of numeric lists, rows (nested) or flat, in
    order."""
    if nested:
        return [x for v in values for row in v for x in row]
    return [x for v in values for x in v]


def _floats(flat):
    """Float array of a flat list of finite numbers, as (array, None), or
    (None, (k, message)) for the first fault: k is the index of an entry
    that is not a number or not finite, or None when a number is out of
    float range. The one conversion rule of every numeric array."""
    if not all(map(_is_number, set(map(type, flat)))):
        k = _first(flat, lambda x: not _is_number(type(x)))
        return None, (k, f"{flat[k]!r} is not of type 'number'")
    try:
        arr = np.array(flat, dtype=float)
    except OverflowError:
        return None, (None, "a number is out of float range")
    finite = np.isfinite(arr)
    if not finite.all():
        k = int(np.argmin(finite))
        return None, (k, f"{arr[k]} is not finite")
    return arr, None


def _numbers(value, path, errors, rows_ok=True):
    """Float array of a JSON number list, or None after appending errors.

    The skeleton pass promises only a list. Its entries must all be
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
    arr, fault = _floats(_flat([value], nested))
    if fault is not None:
        k, message = fault
        where = ("" if k is None else
                 f"/{k // width}/{k % width}" if nested else f"/{k}")
        errors.append(f"{path}{where}: {message}")
        return None
    return arr.reshape(len(value), width) if nested else arr


def _edge_id(value):
    """An edge id as the outputs write it.  The JSON schema "integer" type
    admits floats with zero fraction (1.0); they become ints, so one id has
    one text form in every output."""
    return int(value) if isinstance(value, float) else value


def _matrix(value, rows, cols, where, errors):
    """rows x cols float array of a JSON matrix (rows or one flat list), or
    None after appending errors."""
    arr = _numbers(value, where, errors)
    if arr is None:
        return None
    if arr.ndim == 1:
        if arr.size != rows * cols:
            errors.append(f"{where}: flat matrix length {arr.size} != {rows * cols}")
            return None
        return arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        errors.append(f"{where}: shape {arr.shape} != ({rows}, {cols})")
        return None
    return arr


def _vector(value, d, where, errors):
    """Float array of a flat JSON list of d numbers, or None after appending
    errors."""
    vec = _numbers(value, where, errors, rows_ok=False)
    if vec is None:
        return None
    if vec.shape != (d,):
        errors.append(f"{where}: length {vec.size} != {d}")
        return None
    return vec


def _group(values, members, shape):
    """(k, float array) for each values[k], k in members, that is the
    target shape, (rows,) or (rows, cols), as nested lists and converts on
    its own; one _floats call converts them all unless one fails."""
    rows, *cols = shape
    fit = [k for k in members
           if type(values[k]) is list and len(values[k]) == rows]
    if cols:
        listed = [row for k in fit for row in values[k]]
        if not (set(map(type, listed)) <= {list}
                and set(map(len, listed)) <= set(cols)):
            fit = [k for k in fit if all(type(row) is list
                                         and len(row) == cols[0]
                                         for row in values[k])]
    if not fit:
        return []
    arr, fault = _floats(_flat([values[k] for k in fit], bool(cols)))
    if fault is not None:  # keep the members that convert on their own
        fit = [k for k in fit
               if _floats(_flat([values[k]], bool(cols)))[1] is None]
        arr, _ = _floats(_flat([values[k] for k in fit], bool(cols)))
    return zip(fit, arr.reshape((len(fit),) + shape))


def _by_shape(values, shapes):
    """Float arrays of numeric lists given with their target shapes (None
    for none), one _group per shape: a list parallel to values, with None
    where _group refuses a value."""
    groups = {}
    for k, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(k)
    groups.pop(None, None)
    out = [None] * len(values)
    for shape, members in groups.items():
        for k, arr in _group(values, members, shape):
            out[k] = arr
    return out


def _batched(doc, dims):
    """Float arrays of the document's A, g, constant f.value and block
    matrix lists: four lists, parallel to the edges (three) and blocks,
    with None where an array is absent or refused. The loader re-reads a
    refused one with _matrix or _numbers for its message."""
    edges, blocks = doc["edges"], doc.get("blocks", [])
    square = [(d, d) for d in (int(e["dim"]) for e in edges)]
    vector = [shape[:1] for shape in square]
    forcing = [e.get("f", {"kind": "zero"}) for e in edges]
    pairs = [(_edge_id(b["to"]), _edge_id(b["from"])) for b in blocks]
    return (_by_shape([e["A"] for e in edges], square),
            _by_shape([e.get("g") for e in edges], vector),
            _by_shape([f.get("value") if f["kind"] == "constant" else None
                       for f in forcing], vector),
            _by_shape([b["matrix"] for b in blocks],
                      [(dims[i], dims[j]) if i in dims and j in dims else None
                       for i, j in pairs]))


def load_problem_dict(doc):
    """Build (problem, mode, options) from a parsed problem document.

    The schema checks the top level, _skeleton each edge and block object,
    and _batched the numeric arrays, each refused one re-read in document
    order by _matrix or _numbers. A fault of the top level or of an edge or
    block object raises ProblemFileError alone; the array faults and the
    model's own validation raise with every collected message.
    """
    try:
        jsonschema.validate(doc, _validator().schema, cls=_Prechecked)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "document"
        raise ProblemFileError([f"{path}: {exc.message}"]) from exc
    _skeleton(doc)

    dims = {_edge_id(e["id"]): int(e["dim"]) for e in doc["edges"]}
    A_arrays, g_arrays, f_arrays, matrix_arrays = _batched(doc, dims)

    errors = []
    edges = []
    lengths = {}
    operators = {}
    g = {}
    steps = {}
    forcing = {}
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
        steps[eid] = int(e.get("steps", DEFAULT_STEPS))
        A = A_arrays[k]
        if A is None:
            A = _matrix(e["A"], d, d, f"{where}/A", errors)
        if A is not None:
            operators[eid] = A
        if "g" in e:
            vec = g_arrays[k]
            if vec is None:
                vec = _vector(e["g"], d, f"{where}/g", errors)
            if vec is not None:
                g[eid] = vec
        f = e.get("f", {"kind": "zero"})
        kind = f["kind"]
        if kind == "zero":
            if "value" in f:
                errors.append(f"{where}/f/value: a zero forcing takes no "
                              "value")
        elif kind == "constant":
            val = f_arrays[k]
            if val is None:
                val = _vector(f.get("value", []), d, f"{where}/f/value",
                              errors)
            if val is not None:
                forcing[eid] = ConstantForcing(val)
        else:
            val = _numbers(f.get("value", []), f"{where}/f/value", errors)
            if val is None:
                continue
            if val.ndim == 1:
                val = val[:, None]
            if val.shape != (steps[eid] + 1, d):
                errors.append(
                    f"{where}/f/value: samples shape {val.shape} != "
                    f"({steps[eid] + 1}, {d})")
            else:
                forcing[eid] = SampledForcing(val)

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
        m = matrix_arrays[k]
        if m is None:
            m = _matrix(b["matrix"], dims[i], dims[j], f"blocks/{k}/matrix",
                        errors)
        if m is not None:
            blocks[(i, j)] = m
    if errors:
        raise ProblemFileError(errors)

    problem = TimeGraphProblem(
        graph=TimeGraph(tuple(edges), lengths, dims),
        operators=operators,
        B=blocks,
        g=g,
        forcing=forcing,
        steps=steps,
    )
    violations = validate(problem)
    if violations:
        raise ProblemFileError(violations)
    return problem, doc.get("mode", "parabolic"), doc.get("options", {})


def load_problem_file(path):
    """load_problem_dict of the JSON document at path.  A file that cannot
    be read or decoded raises ProblemFileError naming the path.  The cyclic
    garbage collector is paused while the file loads: the load allocates
    many containers that outlive it, and collecting passes over them would
    find next to no garbage."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return load_problem_dict(_read_json(path))
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ProblemFileError([f"cannot read {path}: {exc}"]) from exc
    except (ValueError, RecursionError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            why = str(exc)
        elif isinstance(exc, UnicodeDecodeError):
            why = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        elif isinstance(exc, RecursionError):
            why = "arrays or objects nested too deeply"
        else:  # int(): the only other ValueError json.load raises
            why = (f"an integer of more than "
                   f"{sys.get_int_max_str_digits()} digits")
        raise ProblemFileError([f"{path}: invalid JSON: {why}"]) from exc


def problem_to_dict(problem, mode, options):
    """Problem document for a model object (inverse of load_problem_dict)."""
    gr = problem.graph
    edges = []
    for e in gr.edges:
        entry = {
            "id": e,
            "length": float(gr.lengths[e]),
            "dim": int(gr.dims[e]),
            "A": _real_lists(problem.operators[e]),
            "steps": problem.steps_for(e),
        }
        spec = problem.forcing.get(e, ZeroForcing())
        if isinstance(spec, ZeroForcing):
            entry["f"] = {"kind": "zero"}
        elif isinstance(spec, ConstantForcing):
            entry["f"] = {"kind": "constant",
                          "value": _real_lists(spec.value)}
        else:
            entry["f"] = {"kind": "samples",
                          "value": _real_lists(spec.values)}
        if e in problem.g:
            entry["g"] = _real_lists(problem.g[e])
        edges.append(entry)
    pos = {e: k for k, e in enumerate(gr.edges)}
    blocks = [{"from": j, "to": i, "matrix": _real_lists(m)}
              for (i, j), m in sorted(problem.B.items(),
                                      key=lambda kv: (pos[kv[0][0]],
                                                      pos[kv[0][1]]))]
    doc = {"edges": edges, "blocks": blocks, "mode": mode}
    if options:
        doc["options"] = options
    return doc


def _real_lists(a):
    """The real parts of a complex array as nested lists of floats; an
    entry with a nonzero imaginary part is refused."""
    if a.imag.any():
        raise ValueError("problem files carry real data only")
    return a.real.tolist()


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
    key path.

    The exact types a report is made of are dispatched first, then their
    subclasses and numpy's types. Strings and keys are quoted by
    encode_basestring, the function json.dumps(s, ensure_ascii=False) runs
    after building an encoder for its argument.
    """

    def emit(o):
        t = type(o)
        if t is float and math.isfinite(o):
            return f"{o:.17g}" if o else "0"  # format_number's rule
        if t is int:
            return str(o)
        if t is str:
            return _quote(o)
        if t is list:
            return "[" + ",".join(map(emit, o)) + "]"
        if t is dict:
            return "{" + ",".join(
                _quote(str(k)) + ":" + emit(v)
                for k, v in sorted(o.items(), key=itemgetter(0))) + "}"
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
            return _quote(o)
        if isinstance(o, (list, tuple)):
            return emit(list(o))
        if isinstance(o, dict):
            return emit(dict(o))
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
    edges leave the surplus fields empty.  Every field reads as
    format_number would write it: 17 significant digits, and an exact zero
    (-0.0 too) is "0".

    The cost follows the nonzero values.  Each distinct time grid is
    formatted once per report, and its strings are joined into the row
    template of every edge on it.  A state column that is zero throughout
    a chunk is the literal "0" in the template; the chunk's other columns
    are filled in by one %-format call.
    """
    dmax = max(X.shape[-1] for X in report.states)
    header = (["edge_id", "t"]
              + [f"re_{k}" for k in range(dmax)]
              + [f"im_{k}" for k in range(dmax)])
    parts = [",".join(header) + "\n"]
    grids = {}  # bytes of a time row -> its formatted nodes
    for chunk, X in zip(report.chunks, report.states):
        _, rows, d = X.shape
        states = X.reshape(-1, d)
        values = np.concatenate((states.real, states.imag), axis=1)
        nonzero = values.any(axis=0)
        pad = "," * (dmax - d)
        fields = [",%.17g" if nz else ",0" for nz in nonzero]
        tail = "".join(fields[:d]) + pad + "".join(fields[d:]) + pad + "\n"
        if not nonzero.all():
            values = values[:, nonzero]
        values += 0.0  # -0.0 prints "-0"; format_number writes "0"
        edges = []
        for e, t in zip(chunk.edges, chunk.times + 0.0):
            key = t.tobytes()
            if key not in grids:
                nodes = "%.17g," * rows % tuple(t.tolist())
                grids[key] = nodes.split(",")[:-1]
            lead = str(e).replace("%", "%%") + ","
            edges.append(lead + (tail + lead).join(grids[key]) + tail)
        parts.append("".join(edges) % tuple(values.ravel().tolist()))
    return "".join(parts)
