"""Spans around chronograph's public functions, recorded from outside.

A Tracer replaces each traced function by a wrapper under every name it is
reachable by: the defining module's attribute and every ``from ... import``
binding in the other chronograph modules (``solver.validate``,
``cli.diagnose`` ...). Patching only the defining module would miss those
callers. ``uninstall`` puts every original back.

Each call records a span (name, start, end, parent span, request id). Spans
stay in memory; ``summary`` folds them into per-function calls, busy time
and self time (busy time minus the time covered by child spans).
"""

import hashlib
import sys
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "name start end parent request")

# (layer, module attribute path) of every traced function; the metric name
# is "<layer>.<path>". jsonschema.validate is traced where problem_io looks
# it up, as an attribute of the jsonschema module.
TRACED = (
    ("cli", "main"), ("cli", "run_solve"), ("cli", "run_scenario"),
    ("cli", "run_compare"),
    ("scenarios", "build_scenario"),
    ("problem_io", "load_problem_file"), ("problem_io", "load_problem_dict"),
    ("problem_io", "jsonschema.validate"), ("problem_io", "problem_to_dict"),
    ("problem_io", "canonical_json"), ("problem_io", "solution_csv"),
    ("problem_io", "atomic_write"),
    ("problem", "validate"), ("problem", "diagnose"),
    ("problem", "forcing_node_values"),
    ("matfun", "expm"), ("matfun", "expm_phi12"), ("matfun", "rcond_estimate"),
    ("matfun", "rcond_identity_scale"), ("matfun", "solve_linear"),
    ("matfun", "hermitian_eig"), ("matfun", "funm_hermitian"),
    ("solver", "solve"), ("solver", "assemble_monodromy"),
    ("solver", "forced_terminal_integrals"), ("solver", "solve_boundary"),
    ("solver", "propagate"), ("solver", "energy_defect_of"),
    ("solver", "solution_grade"),
    ("graph", "classify_solvability"), ("graph", "pattern_of"),
    ("oracle", "cn_solve"), ("oracle", "picard_boundary"),
    ("variants", "schrodinger_effective"), ("variants", "unitarity_check"),
)

SPAN_NAMES = tuple(f"{layer}.{path}" for layer, path in TRACED)


def _expm_key(args, kwargs):
    A = np.ascontiguousarray(np.asarray(args[0] if args else kwargs["A"],
                                        dtype=complex))
    t = args[1] if len(args) > 1 else kwargs.get("t", 1.0)
    h = hashlib.blake2b(A.tobytes(), digest_size=16)
    h.update(repr((A.shape, float(t))).encode())
    return h.digest()


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.expm_inputs = set()
        self.csv_bytes = 0
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == "matfun.expm":
                self.expm_inputs.add(_expm_key(args, kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.request)
            if name == "problem_io.solution_csv":
                self.csv_bytes += len(result.encode("utf-8"))
            return result

        return traced

    def install(self):
        """Patch every traced function under every name it is bound to."""
        import chronograph  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "chronograph" or name.startswith("chronograph.")]
        try:
            for layer, path in TRACED:
                owner = sys.modules[f"chronograph.{layer}"]
                *inner, attr = path.split(".")
                for part in inner:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{layer}.{path}", original)
                for module in [owner] + modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """name -> {"calls", "busy_s", "self_s"} over the recorded spans.

        busy_s counts a span only when no enclosing span has the same name,
        so a function reached recursively is not counted twice.
        """
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in SPAN_NAMES}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for k, span in enumerate(self.spans):
            dur = span.end - span.start
            row = out[span.name]
            row["calls"] += 1
            row["self_s"] += dur - child_time[k]
            parent = span.parent
            while parent is not None and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent is None:
                row["busy_s"] += dur
        return out
