"""sha256 of every output of every distinct benchmark request, and a diff of
two such maps.

    python3 tools/output_digests.py digest OUT.json [--checkout DIR]
    python3 tools/output_digests.py diff A.json B.json

digest builds the inputs of perfbench.workloads.build in a temporary
directory (the presets workload at seed 0, compare included; long_horizon,
wide_state and large_graph at seeds 0 and 1), runs each distinct request
once, in list order, through perfbench.verbs.run_request with one BLAS
thread, then runs chronograph.run_compare at LARGE_COMPARE_CFG on each
large_graph document (the 600-edge chain and ring), and writes
{key: sha256} as JSON. A key is

    <workload>/<seed>/<verb> <target>/<output file>

for each output file a request writes, and .../exit+stdout for its exit code
and captured stdout. Targets and stdout name paths relative to the
temporary root, so two checkouts give comparable maps. chronograph and the
perfbench modules are imported from the checkout (default: the one this
script lives in); nothing under perfbench/ is written to.

diff prints every key whose digest differs or that only one map has, and
exits 1 when there is one, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = (("presets", 0), ("long_horizon", 0), ("long_horizon", 1),
        ("wide_state", 0), ("wide_state", 1),
        ("large_graph", 0), ("large_graph", 1))
# No benchmark request runs the Crank-Nicolson oracle on more than one
# preset's few edges; compare on large_graph's documents runs it on 600-edge
# dim groups, and 200 reference steps keep each run to seconds.
LARGE_COMPARE_CFG = {"cn_steps": 200}
OUTPUT_FILES = {
    "scenario": ("problem.json", "solution.csv", "report.json"),
    "solve": ("solution.csv", "report.json"),
    "compare": ("compare.json",),
    "classify": (),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digests(checkout):
    """The digest map of the checkout's outputs."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for sub in ("src", "perfbench"):
        sys.path.insert(0, os.path.join(checkout, sub))
    import chronograph
    import workloads
    from verbs import run_request

    def large_compare(request):
        _, target, out_dir = request
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = chronograph.run_compare(
                target, dict(LARGE_COMPARE_CFG, out=out_dir))
        return code, buf.getvalue()

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in RUNS:
            root = os.path.join(tmp, f"{workload}-{seed}")
            requests, _, _ = workloads.build(workload, seed, root)
            runs = [(request, run_request)
                    for request in dict.fromkeys(requests)]
            if workload == "large_graph":
                runs += [(("compare", target, out_dir), large_compare)
                         for verb, target, out_dir in dict.fromkeys(requests)
                         if verb == "solve"]

            def rel(x):
                return os.path.relpath(x, root) if isinstance(x, str) else x

            for request, run in runs:
                verb, target, out_dir = request
                code, stdout = run(request)
                key = f"{workload}/{seed}/{verb} {rel(target)}"
                out[f"{key}/exit+stdout"] = _sha(
                    repr((code, stdout.replace(root, "<root>"))).encode())
                for name in OUTPUT_FILES[verb]:
                    path = os.path.join(out_dir, name)
                    with open(path, "rb") as fh:
                        out[f"{key}/{name}"] = _sha(fh.read())
    return out


def diff(a, b):
    """Lines naming every key on which the maps a and b differ."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"only in the first: {key}")
        elif key not in a:
            lines.append(f"only in the second: {key}")
        elif a[key] != b[key]:
            lines.append(f"differs: {key}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_dig = sub.add_parser("digest", help="write the digest map")
    p_dig.add_argument("out")
    p_dig.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    p_diff = sub.add_parser("diff", help="compare two digest maps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)

    if args.mode == "digest":
        out = digests(os.path.abspath(args.checkout))
        text = json.dumps(out, indent=1, sort_keys=True) + "\n"
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{len(out)} digests, map sha256 {_sha(text.encode())}")
        return 0
    maps = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as fh:
            maps.append(json.load(fh))
    lines = diff(*maps)
    print("\n".join(lines) if lines else
          f"all {len(maps[0])} digests equal")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
