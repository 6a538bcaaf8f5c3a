"""Independent output checker.

Recomputes what each verb's output must satisfy from the problem document
alone, with numpy and ``scipy.linalg.expm`` and none of chronograph's own
numerics:

- the boundary relation ||psi_- - B psi_+ - g|| / (1 + ||g||), read from
  the document and ``solution.csv``;
- for zero and constant forcing, the middle and last node of every edge
  (the first is the initial value c itself) against the closed form
  e^{tA} c + t phi1(tA) f, taken from the augmented exponential of
  [[A, f], [0, 0]] (A -> iH in Schrodinger mode);
- the solvability category printed by ``classify`` (and written by
  ``scenario``) against the benchmark's table of expected categories;
- ``compare`` reporting ``within_tolerance``.

Each check returns a list of error strings; empty means the output passed.
"""

import json
import os

import numpy as np
from scipy.linalg import expm

BOUNDARY_TOL = 1e-10
NODE_TOL = 1e-10


def read_problem(path):
    """Problem document with numpy arrays, edges in document order."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    schrodinger = doc.get("mode", "parabolic") == "schrodinger"
    edges = []
    for e in doc["edges"]:
        d = int(e["dim"])
        A = np.asarray(e["A"], dtype=float).reshape(d, d)
        f = e.get("f", {"kind": "zero"})
        if f["kind"] == "constant":
            fval = np.asarray(f["value"], dtype=float).reshape(d)
        elif f["kind"] == "zero":
            fval = np.zeros(d)
        else:
            fval = None  # sampled: no closed form here
        edges.append({
            "id": str(e["id"]),
            "length": float(e["length"]),
            "dim": d,
            "steps": int(e.get("steps", 100)),
            "A": 1j * A if schrodinger else A.astype(complex),
            "f": fval,
            "g": np.asarray(e.get("g", np.zeros(d)), dtype=float),
        })
    blocks = [(str(b["to"]), str(b["from"]), b["matrix"])
              for b in doc.get("blocks", [])]
    return edges, blocks


def state_values(edges):
    """Sum over edges of (steps + 1) * dim: the states a solve produces."""
    return sum((e["steps"] + 1) * e["dim"] for e in edges)


def read_solution_csv(path):
    """edge id -> (times, complex states) from a solution.csv."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        dmax = (len(header) - 2) // 2
        rows = {}
        for line in fh:
            fields = line.rstrip("\n").split(",")
            rows.setdefault(fields[0], []).append(fields[1:])
    out = {}
    for eid, recs in rows.items():
        d = sum(1 for x in recs[0][1:1 + dmax] if x != "")
        times = np.array([float(r[0]) for r in recs])
        re = np.array([[float(x) for x in r[1:1 + d]] for r in recs])
        im = np.array([[float(x) for x in r[1 + dmax:1 + dmax + d]]
                       for r in recs])
        out[eid] = (times, re + 1j * im)
    return out


def _closed_form(A, f, c, t):
    d = A.shape[0]
    aug = np.zeros((d + 1, d + 1), dtype=complex)
    aug[:d, :d] = A
    aug[:d, d] = f
    X = expm(t * aug)
    return X[:d, :d] @ c + X[:d, d]


def check_solution(problem_path, out_dir):
    """Check solution.csv in out_dir against the problem document."""
    edges, blocks = read_problem(problem_path)
    sol = read_solution_csv(os.path.join(out_dir, "solution.csv"))
    errors = []
    for e in edges:
        if e["id"] not in sol:
            errors.append(f"edge {e['id']}: missing from solution.csv")
            continue
        times, states = sol[e["id"]]
        K = e["steps"]
        if states.shape != (K + 1, e["dim"]):
            errors.append(f"edge {e['id']}: states shape {states.shape} != "
                          f"({K + 1}, {e['dim']})")
            continue
        grid = e["length"] * np.arange(K + 1) / K
        if not np.allclose(times, grid, rtol=1e-12, atol=1e-12):
            errors.append(f"edge {e['id']}: time grid differs")
        if e["f"] is None:
            continue
        for k in (K // 2, K):
            want = _closed_form(e["A"], e["f"], states[0], grid[k])
            err = np.linalg.norm(states[k] - want)
            if not err <= NODE_TOL * (1.0 + np.linalg.norm(want)):
                errors.append(f"edge {e['id']} node {k}: closed-form "
                              f"error {err:.3e}")
    if errors:
        return errors

    off = {}
    n = 0
    for e in edges:
        off[e["id"]] = (n, e["dim"])
        n += e["dim"]
    B = np.zeros((n, n), dtype=complex)
    for i, j, m in blocks:
        (si, di), (sj, dj) = off[i], off[j]
        B[si:si + di, sj:sj + dj] = np.asarray(m, dtype=float).reshape(di, dj)
    minus = np.concatenate([sol[e["id"]][1][0] for e in edges])
    plus = np.concatenate([sol[e["id"]][1][-1] for e in edges])
    g = np.concatenate([e["g"] for e in edges])
    res = np.linalg.norm(minus - B @ plus - g) / (1.0 + np.linalg.norm(g))
    if not res <= BOUNDARY_TOL:
        errors.append(f"boundary relation residual {res:.3e}")
    return errors


def check_category(found, expected):
    if found != expected:
        return [f"category {found!r}, expected {expected!r}"]
    return []


def check_classify(stdout, expected):
    try:
        found = json.loads(stdout)["category"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"classify output unreadable: {exc}"]
    return check_category(found, expected)


def check_report_category(out_dir, expected):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        found = json.load(fh)["solvability"]["category"]
    return check_category(found, expected)


def check_compare(out_dir):
    with open(os.path.join(out_dir, "compare.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("within_tolerance") is not True:
        return [f"compare not within tolerance: {doc}"]
    return []
