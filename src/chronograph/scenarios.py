"""Named scenario presets, materialized as problem-file dictionaries.

Each builder returns the plain JSON-able document that the file loader
accepts, with every default spelled out so emitted runs are self-describing.
Unless a construction dictates otherwise, scalar presets use A = [-1], unit
edge length, constant forcing 1 and 100 substeps.
"""

import numpy as np

SCENARIO_IDS = (
    "periodic", "phase_shift", "jump_condition", "tadpole", "splitting",
    "superposition", "cycle", "multi_loop", "time_travel",
    "time_travel_multiverse", "groundhog", "lions_chain", "frequency_shift",
)

_DEFAULT_STEPS = 100


def _edge(eid, length=1.0, dim=1, A=None, f=None, g=None, steps=_DEFAULT_STEPS):
    doc = {
        "id": eid,
        "length": float(length),
        "dim": int(dim),
        "A": A if A is not None else [[-1.0]],
        "f": f if f is not None else {"kind": "constant", "value": [1.0]},
        "steps": int(steps),
    }
    if g is not None:
        doc["g"] = list(g)
    return doc


def _block(i, j, matrix):
    return {"from": j, "to": i, "matrix": matrix}


def _scalar_blocks(entries):
    return [_block(i, j, [[float(w)]]) for (i, j), w in entries.items()]


# Overrides that only one preset reads; steps applies to every preset.
_ONLY_FOR = {"alpha": "phase_shift", "dim": "frequency_shift"}


def build_scenario(scenario_id, overrides=None):
    """Materialize one preset as a problem-file document.

    Recognized overrides: alpha (phase_shift weight), dim (frequency_shift
    mode count), steps (substeps applied to every edge); dim and steps are
    at least 1.  An override the chosen preset does not read is rejected,
    not ignored.
    """
    if scenario_id not in SCENARIO_IDS:
        raise KeyError(f"unknown scenario {scenario_id!r}")
    overrides = dict(overrides or {})
    for key in sorted(overrides.keys() & _ONLY_FOR.keys()):
        if _ONLY_FOR[key] != scenario_id:
            raise ValueError(f"override {key!r} does not apply to scenario "
                             f"{scenario_id!r} (only to {_ONLY_FOR[key]})")
    alpha = float(overrides.pop("alpha", 2.0))
    dim = int(overrides.pop("dim", 8))
    steps = overrides.pop("steps", None)
    if overrides:
        raise ValueError(f"unknown overrides: {sorted(overrides)}")
    for key, value in (("dim", dim), ("steps", steps)):
        if value is not None and int(value) < 1:
            raise ValueError(f"override {key!r} must be >= 1, got {value}")

    if scenario_id == "periodic":
        doc = {
            "edges": [_edge(0, g=None)],
            "blocks": _scalar_blocks({(0, 0): 1.0}),
        }
    elif scenario_id == "phase_shift":
        doc = {
            "edges": [_edge(0)],
            "blocks": _scalar_blocks({(0, 0): alpha}),
        }
    elif scenario_id == "jump_condition":
        # homogeneous edge; the transmission inhomogeneity is the jump itself
        doc = {
            "edges": [_edge(0, f={"kind": "zero"}, g=[1.0])],
            "blocks": _scalar_blocks({(0, 0): 1.0}),
        }
    elif scenario_id == "tadpole":
        doc = {
            "edges": [_edge(0), _edge(1, f={"kind": "zero"})],
            "blocks": _scalar_blocks({(0, 0): 1.0, (1, 0): 1.0}),
        }
    elif scenario_id == "splitting":
        doc = {
            "edges": [_edge(0, g=[2.0]), _edge(1), _edge(2)],
            "blocks": _scalar_blocks({(1, 0): 1.0, (2, 0): 1.0}),
        }
    elif scenario_id == "superposition":
        doc = {
            "edges": [_edge(0, g=[1.0]), _edge(1, g=[0.5]), _edge(2)],
            "blocks": _scalar_blocks({(2, 0): 1.0, (2, 1): 1.0}),
        }
    elif scenario_id == "cycle":
        # four edges joined head to tail; the loop is reflected by the
        # boundary conditions, so only a global solve works
        doc = {
            "edges": [_edge(0, g=[1.0]), _edge(1), _edge(2), _edge(3)],
            "blocks": _scalar_blocks(
                {(1, 0): 1.0, (2, 1): 1.0, (3, 2): 1.0, (0, 3): 1.0}),
        }
    elif scenario_id == "multi_loop":
        # a line passing three self-coupled loops of different lengths; each
        # loop partially resets its own state and takes over the incoming one
        doc = {
            "edges": [
                _edge(0, g=[1.0]),
                _edge(1, length=0.5),
                _edge(2, length=1.0),
                _edge(3, length=1.5),
                _edge(4),
            ],
            "blocks": _scalar_blocks({
                (1, 0): 1.0, (1, 1): 0.5,
                (2, 1): 1.0, (2, 2): 0.5,
                (3, 2): 1.0, (3, 3): 0.5,
                (4, 3): 1.0,
            }),
        }
    elif scenario_id == "time_travel":
        # an edge feeding back into its own past: edge 1 restarts from both
        # edge 0's end and the returning edge 3
        doc = {
            "edges": [_edge(0, g=[1.0]), _edge(1), _edge(2), _edge(3)],
            "blocks": _scalar_blocks(
                {(1, 0): 1.0, (1, 3): 1.0, (2, 1): 1.0, (3, 1): 1.0}),
        }
    elif scenario_id == "time_travel_multiverse":
        # the returning branch merges into a separate copy of the timeline,
        # so nothing feeds back and the system stays a sequence of IVPs
        doc = {
            "edges": [_edge(0, g=[1.0]), _edge(1), _edge(2), _edge(3),
                      _edge(4)],
            "blocks": _scalar_blocks(
                {(1, 0): 1.0, (2, 1): 1.0, (3, 1): 1.0, (4, 0): 1.0,
                 (4, 3): 1.0}),
        }
    elif scenario_id == "groundhog":
        # neutrally stable loop with a sign-flipped return map: the fixed
        # point exists, but rho(BE) = 1 defeats any contraction argument
        doc = {
            "edges": [
                _edge(0, g=[1.0]),
                _edge(1, A=[[0.0]], f={"kind": "zero"}),
                _edge(2),
            ],
            "blocks": _scalar_blocks({(1, 0): 1.0, (1, 1): -1.0, (2, 1): 1.0}),
        }
    elif scenario_id == "lions_chain":
        # step-function operator in time: four quarter-length edges chained by
        # identity blocks, each with its own symmetric negative-definite matrix
        edges = []
        blocks = []
        for j in range(4):
            A = [[-2.0 - 0.5 * j, 0.5], [0.5, -1.0 - 0.25 * j]]
            edges.append(_edge(j, length=0.25, dim=2, A=A,
                               f={"kind": "constant", "value": [1.0, 0.5]},
                               g=[1.0, -0.5] if j == 0 else None))
            if j > 0:
                blocks.append(_block(j, j - 1, [[1.0, 0.0], [0.0, 1.0]]))
        doc = {"edges": edges, "blocks": blocks}
    elif scenario_id == "frequency_shift":
        # mode-resolved couplings: a source edge split by even/odd mode
        # projections, recombined by low/high projections, then passed through
        # the truncated down-shift (top mode mapped to zero)
        d = dim
        A = np.diag([-(k + 1.0) for k in range(d)]).tolist()
        shift = np.eye(d, k=1).tolist()
        p_even = np.diag([1.0 if k % 2 == 0 else 0.0 for k in range(d)]).tolist()
        p_odd = np.diag([0.0 if k % 2 == 0 else 1.0 for k in range(d)]).tolist()
        p_low = np.diag([1.0 if k < d // 2 else 0.0 for k in range(d)]).tolist()
        p_high = np.diag([0.0 if k < d // 2 else 1.0 for k in range(d)]).tolist()
        zero = {"kind": "zero"}
        doc = {
            "edges": [
                _edge(0, dim=d, A=A, f=zero, g=[1.0] * d),
                _edge(1, dim=d, A=A, f=zero),
                _edge(2, dim=d, A=A, f=zero),
                _edge(3, dim=d, A=A, f=zero),
                _edge(4, dim=d, A=A, f=zero),
            ],
            "blocks": [
                _block(1, 0, p_even),
                _block(2, 0, p_odd),
                _block(3, 1, p_low),
                _block(3, 2, p_high),
                _block(4, 3, shift),
            ],
        }

    doc["mode"] = "parabolic"
    if steps is not None:
        for e in doc["edges"]:
            e["steps"] = int(steps)
    return doc
