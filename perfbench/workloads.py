"""Seeded problem generators and the request list of each workload.

Every problem document a workload reads is built here from the seed and
written to disk before timing starts, so chronograph sees only files. The
generators use numpy alone; nothing here imports chronograph.

A request is a tuple ``(verb, target, out_dir)``:

- ``("scenario", (preset_id, overrides), out_dir)`` materializes a preset
  and writes ``out_dir/problem.json`` with the solve outputs; overrides
  are (key, value) pairs, so that requests stay hashable;
- ``("solve", path, out_dir)``, ``("compare", path, out_dir)`` and
  ``("classify", path, None)`` read a problem file.

Alongside the requests each workload returns ``expected``: the solvability
category every problem must classify as, keyed by problem path (for a
scenario request, the ``problem.json`` it emits).
"""

import json
import os

import numpy as np

IVP = "IVP_SEQUENCE"
CAUCHY = "CAUCHY_SEQUENCE"
GLOBAL = "GLOBAL_ONLY"

# Expected category of each preset, read off its coupling pattern: a
# self-loop alone is CAUCHY_SEQUENCE, an off-diagonal cycle GLOBAL_ONLY,
# anything acyclic without self-loops IVP_SEQUENCE.
PRESET_CATEGORIES = {
    "periodic": CAUCHY,
    "phase_shift": CAUCHY,
    "jump_condition": CAUCHY,
    "tadpole": CAUCHY,
    "splitting": IVP,
    "superposition": IVP,
    "cycle": GLOBAL,
    "multi_loop": CAUCHY,
    "time_travel": GLOBAL,
    "time_travel_multiverse": IVP,
    "groundhog": CAUCHY,
    "lions_chain": IVP,
    "frequency_shift": IVP,
}

LARGE_GRAPH_EDGES = 600
LARGE_GRAPH_STEPS = 20
WIDE_DIM = 96


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _scalar_edge(eid, a, f, g=None, steps=100):
    edge = {"id": eid, "length": 1.0, "dim": 1, "A": [[a]],
            "f": {"kind": "constant", "value": [f]}, "steps": steps}
    if g is not None:
        edge["g"] = [g]
    return edge


def cycle_doc(steps):
    """The ``cycle`` preset: four unit scalar edges closed head to tail."""
    edges = [_scalar_edge(e, -1.0, 1.0, g=1.0 if e == 0 else None,
                          steps=steps) for e in range(4)]
    blocks = [{"from": j, "to": (j + 1) % 4, "matrix": [[1.0]]}
              for j in range(4)]
    return {"edges": edges, "blocks": blocks, "mode": "parabolic"}


def frequency_shift_doc(dim, steps):
    """The ``frequency_shift`` preset at the given mode count."""
    A = np.diag([-(k + 1.0) for k in range(dim)]).tolist()

    def diag(mask):
        return np.diag([1.0 if mask(k) else 0.0 for k in range(dim)]).tolist()

    edges = []
    for e in range(5):
        edge = {"id": e, "length": 1.0, "dim": dim, "A": A,
                "f": {"kind": "zero"}, "steps": steps}
        if e == 0:
            edge["g"] = [1.0] * dim
        edges.append(edge)
    blocks = [
        {"from": 0, "to": 1, "matrix": diag(lambda k: k % 2 == 0)},
        {"from": 0, "to": 2, "matrix": diag(lambda k: k % 2 == 1)},
        {"from": 1, "to": 3, "matrix": diag(lambda k: k < dim // 2)},
        {"from": 2, "to": 3, "matrix": diag(lambda k: k >= dim // 2)},
        {"from": 3, "to": 4, "matrix": np.eye(dim, k=1).tolist()},
    ]
    return {"edges": edges, "blocks": blocks, "mode": "parabolic"}


def sampled_chain_doc(rng, steps):
    """Four quarter-length 2x2 edges chained by identity blocks, each with a
    symmetric negative-definite A and seeded smooth sampled forcing."""
    t = np.linspace(0.0, 0.25, steps + 1)
    edges = []
    for e in range(4):
        A = [[-2.0 - 0.5 * e, 0.5], [0.5, -1.0 - 0.25 * e]]
        amp, freq, phase = rng.uniform(0.5, 1.5, 3)
        samples = np.stack([amp * np.sin(2 * np.pi * freq * 4 * t + phase),
                            0.5 * amp * np.cos(2 * np.pi * freq * 4 * t)],
                           axis=1)
        edge = {"id": e, "length": 0.25, "dim": 2, "A": A,
                "f": {"kind": "samples", "value": samples.tolist()},
                "steps": steps}
        if e == 0:
            edge["g"] = [1.0, -0.5]
        edges.append(edge)
    blocks = [{"from": e - 1, "to": e, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
              for e in range(1, 4)]
    return {"edges": edges, "blocks": blocks, "mode": "parabolic"}


def schrodinger_doc(rng, dim, edges=3, steps=100):
    """A chain of edges sharing one seeded real symmetric H, coupled by
    identity blocks, so the unitarity check's commutator gate passes."""
    X = rng.standard_normal((dim, dim))
    H = (X + X.T) / (2.0 * np.sqrt(dim))
    out = []
    for e in range(edges):
        edge = {"id": e, "length": 1.0, "dim": dim, "A": H.tolist(),
                "steps": steps}
        if e == 0:
            edge["g"] = rng.standard_normal(dim).tolist()
            edge["f"] = {"kind": "zero"}
        else:
            edge["f"] = {"kind": "constant",
                         "value": (0.1 * rng.standard_normal(dim)).tolist()}
        out.append(edge)
    eye = np.eye(dim).tolist()
    blocks = [{"from": e - 1, "to": e, "matrix": eye}
              for e in range(1, edges)]
    return {"edges": out, "blocks": blocks, "mode": "schrodinger"}


def scalar_graph_doc(rng, n, steps, ring):
    """n scalar edges in a chain (IVP_SEQUENCE) or, with ring=True, closed
    into a loop by a weight below one (GLOBAL_ONLY, well conditioned)."""
    a = -rng.uniform(0.5, 2.0, n)
    f = rng.uniform(-1.0, 1.0, n)
    w = rng.uniform(0.5, 1.0, n)
    edges = [_scalar_edge(e, float(a[e]), float(f[e]),
                          g=1.0 if e == 0 else None, steps=steps)
             for e in range(n)]
    blocks = [{"from": e - 1, "to": e, "matrix": [[float(w[e])]]}
              for e in range(1, n)]
    if ring:
        blocks.append({"from": n - 1, "to": 0,
                       "matrix": [[float(rng.uniform(0.3, 0.9))]]})
    return {"edges": edges, "blocks": blocks, "mode": "parabolic"}


def _preset_group(pid, root, requests, expected, repeats=1):
    """scenario, solve and classify on the emitted file, repeated, then
    compare once."""
    out = os.path.join(root, pid)
    emitted = os.path.join(out, "problem.json")
    expected[emitted] = PRESET_CATEGORIES[pid]
    solve_out = os.path.join(out, "solve")
    compare_out = os.path.join(out, "compare")
    for path in (solve_out, compare_out):
        os.makedirs(path, exist_ok=True)
    requests.extend([("scenario", (pid, ()), out),
                     ("solve", emitted, solve_out),
                     ("classify", emitted, None)] * repeats)
    requests.append(("compare", emitted, compare_out))


def warmup(root):
    """The periodic preset through every verb: (requests, expected)."""
    requests, expected = [], {}
    _preset_group("periodic", root, requests, expected)
    return requests, expected


def build(workload, seed, root):
    """Write the workload's inputs under root.

    Returns (requests, expected, setup_request): one pass of requests (the
    benchmark cycles through it), the expected categories, and the request a
    fresh interpreter runs cold to measure set-up. The same seed always
    yields the same files and the same list.

    Requests much cheaper than the rest of their pass appear several times
    in it, so that each gets enough samples within one run.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    requests = []
    expected = {}

    def add_file(name, doc, category, classify_repeats=1):
        path = _write(os.path.join(root, name + ".json"), doc)
        out = os.path.join(root, name)
        os.makedirs(out, exist_ok=True)
        expected[path] = category
        requests.append(("solve", path, out))
        requests.extend([("classify", path, None)] * classify_repeats)
        return path

    if workload == "presets":
        # Presets are fixed documents, run in a fixed order whatever the
        # seed. Set-up runs the simplest preset end to end.
        for pid in PRESET_CATEGORIES:
            _preset_group(pid, root, requests, expected, repeats=6)
        setup = ("scenario", ("periodic", ()), os.path.join(root, "setup"))
        os.makedirs(setup[2], exist_ok=True)
        expected[os.path.join(setup[2], "problem.json")] = CAUCHY
    elif workload == "long_horizon":
        first = add_file("cycle", cycle_doc(10_000), GLOBAL, 5)
        add_file("frequency_shift", frequency_shift_doc(8, 5000), IVP, 5)
        add_file("sampled_chain", sampled_chain_doc(rng, 5000), IVP)
        setup = ("classify", first, None)
    elif workload == "wide_state":
        out = os.path.join(root, "frequency_shift")
        os.makedirs(out, exist_ok=True)
        emitted = os.path.join(out, "problem.json")
        expected[emitted] = IVP
        requests.append(("scenario", ("frequency_shift",
                                      (("dim", WIDE_DIM), ("steps", 200))),
                         out))
        requests.append(("classify", emitted, None))
        first = add_file("schrodinger", schrodinger_doc(rng, 64), IVP)
        setup = ("classify", first, None)
    elif workload == "large_graph":
        first = add_file("chain", scalar_graph_doc(
            rng, LARGE_GRAPH_EDGES, LARGE_GRAPH_STEPS, ring=False), IVP, 3)
        add_file("ring", scalar_graph_doc(
            rng, LARGE_GRAPH_EDGES, LARGE_GRAPH_STEPS, ring=True), GLOBAL, 3)
        setup = ("classify", first, None)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests, expected, setup
