"""The benchmark's workloads and metrics, and the BENCHMARK.json built from
them.

Run ``python3 perfbench/spec.py`` from the repository root to rewrite
BENCHMARK.json after changing anything here.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import SPAN_NAMES  # noqa: E402

RUN_SECONDS = 25

WORKLOADS = (
    ("presets", "all 13 presets through scenario, solve, classify and "
                "compare: fixed per-call cost of small problems, and the only "
                "workload that runs the CN oracle"),
    ("long_horizon", "5000-10000 steps per edge (cycle, frequency_shift "
                     "dim 8, sampled 2x2 chain): per-step recurrence, CSV "
                     "output and sample-array loading dominate"),
    ("wide_state", "frequency_shift dim 96 scenario and a dim-64 "
                   "Schrodinger chain: dense matrix exponentials, schema "
                   "validation of large matrices, unitarity check"),
    ("large_graph", "600 scalar edges as a chain and as a ring: the n=600 "
                    "boundary system, its SVDs and the O(n^2) scans dominate"),
)

# (name, unit, better, bound). Every workload reports every metric. The
# timing bounds are wide because this benchmark was tuned on a shared
# 2-core VM whose speed drifts by 10-15% over minutes; set-up keeps the
# largest bound.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("request_s.p50", "s", "lower", 0.24),
    ("solve_s.p50", "s", "lower", 0.24),
    ("classify_s.p50", "s", "lower", 0.24),
    ("state_values_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

# (name, unit, better), from the traced run, per pass of the request list.
PER_LAYER = tuple(
    (f"{name}.{field}", unit, "lower")
    for name in SPAN_NAMES
    for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
) + (
    ("matfun.expm.distinct_share", "ratio", "higher"),
    ("problem_io.solution_csv.bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
