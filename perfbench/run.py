"""chronograph benchmark: the four CLI verbs end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; chronograph is imported from ./src. One
client drives the public entry points (run_scenario, run_solve,
run_compare, cli.main(["classify", ...])) in-process, in a closed loop:
each request starts when the previous one has returned.

A run writes the workload's inputs (seeded) under .perfbench_work/, warms
up on the periodic preset, then cycles through the workload's request list
until S seconds of request time have passed and every request has run at
least once. Every request's output is checked
outside the timed region by check.py; a request whose output bytes equal
an already verified output of the same request counts as verified.

--trace 0 also measures set-up in fresh interpreters and prints the
end-to-end metrics. --trace 1 runs one untraced and one traced pass and
prints the per-layer metrics of the traced pass plus the tracing overhead;
its spans are written to .perfbench_work/spans-<workload>-<seed>.json.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it records the machine and settings, and per-verb detail
that is not gated (scenario and compare medians, the p90 over requests). Without ./src the
benchmark exits with code 2 and prints no result.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORK_DIR = ".perfbench_work"
OUTPUT_FILES = {
    "scenario": ("problem.json", "solution.csv", "report.json"),
    "solve": ("solution.csv", "report.json"),
    "compare": ("compare.json",),
    "classify": (),
}


class Runner:
    """Times requests and verifies every output outside the timed region."""

    def __init__(self, expected):
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self._verified = {}
        self._values = {}

    def run(self, request):
        """Run one request; return its wall time in seconds."""
        from verbs import run_request

        start = time.perf_counter()
        code, stdout = run_request(request)
        elapsed = time.perf_counter() - start
        self.verify(request, code, stdout)
        return elapsed

    def verify(self, request, code, stdout):
        self.attempted += 1
        verb, target, out_dir = request
        digest = hashlib.sha256(repr((code, stdout)).encode())
        for name in OUTPUT_FILES[verb]:
            try:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    digest.update(fh.read())
            except OSError:
                digest.update(b"missing " + name.encode())
        key = repr(request)
        if self._verified.get(key) == digest.digest():
            return
        errors = [f"exit code {code}"] if code != 0 else self._check(request,
                                                                    stdout)
        if errors:
            self.failed += 1
            for err in errors:
                print(f"check failed: {verb} {target}: {err}", file=sys.stderr)
            return
        self._verified[key] = digest.digest()

    def _check(self, request, stdout):
        import check

        verb, target, out_dir = request
        if verb == "classify":
            return check.check_classify(stdout, self.expected[target])
        if verb == "compare":
            return check.check_compare(out_dir)
        path = self.problem_path(request)
        return (check.check_solution(path, out_dir)
                + check.check_report_category(out_dir, self.expected[path]))

    @staticmethod
    def problem_path(request):
        verb, target, out_dir = request
        if verb == "scenario":
            return os.path.join(out_dir, "problem.json")
        return target

    def state_values(self, request):
        """(steps + 1) * dim summed over the edges a solve request solves."""
        import check

        path = self.problem_path(request)
        if path not in self._values:
            self._values[path] = check.state_values(check.read_problem(path)[0])
        return self._values[path]


def measure(runner, requests, seconds):
    """Cycle through requests until `seconds` of request time have passed
    and every request has run at least once; return {request: [times]}.

    A request listed several times in the pass pools its samples."""
    times = {request: [] for request in requests}
    busy = 0.0
    k = 0
    while k < len(requests) or busy < seconds:
        request = requests[k % len(requests)]
        dt = runner.run(request)
        busy += dt
        times[request].append(dt)
        k += 1
    return times


def probe_setup(runner, src, request):
    """import chronograph + one cold request in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), src,
         json.dumps(request)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        runner.attempted += 1
        runner.failed += 1
        print(f"setup probe failed:\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    runner.verify(request, result["code"], result["stdout"])
    return result["elapsed"]


def end_to_end(times, runner, setup):
    """End-to-end metrics, and the per-verb detail printed beside them.

    Each distinct request's time is its median over its samples, so one
    slow pass moves no percentile; percentiles are then taken over the
    distinct requests, which keeps the request mix the same in every run.
    """
    per_request = {request: statistics.median(ts)
                   for request, ts in times.items()}
    by_verb = {}
    for (verb, _, _), t in per_request.items():
        by_verb.setdefault(verb, []).append(t)
    solved = [(t, request) for request, t in per_request.items()
              if request[0] in ("solve", "scenario")]
    values = sum(runner.state_values(request) for _, request in solved)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_s.p50": (statistics.median(per_request.values()), "s"),
        "solve_s.p50": (statistics.median(by_verb["solve"]), "s"),
        "classify_s.p50": (statistics.median(by_verb["classify"]), "s"),
        "state_values_per_s": (values / sum(t for t, _ in solved), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    detail = {f"{verb}_s.p50": statistics.median(ts)
              for verb, ts in by_verb.items()}
    detail["request_s.p90"] = statistics.quantiles(
        per_request.values(), n=10, method="inclusive")[-1]
    detail["distinct_requests"] = len(per_request)
    detail["samples"] = sum(len(ts) for ts in times.values())
    return metrics, detail


def per_layer(tracer, untraced, traced):
    import spec

    metrics = {}
    for name, row in tracer.summary().items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    expm_calls = metrics["matfun.expm.calls"][0]
    metrics["matfun.expm.distinct_share"] = (
        len(tracer.expm_inputs) / expm_calls if expm_calls else 1.0, "ratio")
    metrics["problem_io.solution_csv.bytes"] = (tracer.csv_bytes, "bytes")
    metrics["trace.overhead_share"] = (
        (sum(traced) - sum(untraced)) / sum(untraced), "ratio")
    assert set(metrics) == {n for n, _, _ in spec.PER_LAYER}
    return metrics


def git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = os.path.join(root, ".git", name)
            if os.path.exists(loose):
                with open(loose, encoding="utf-8") as fh:
                    return fh.read().strip()
            with open(os.path.join(root, ".git", "packed-refs"),
                      encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + name):
                        return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_info(root, args):
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "CHRONOGRAPH_THREADS": os.environ.get("CHRONOGRAPH_THREADS",
                                              "unset (1)"),
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def bench(args, src, work, work_root):
    import tracing
    import workloads

    requests, expected, setup_request = workloads.build(
        args.workload, args.seed, os.path.join(work, "inputs"))
    warm_requests, warm_expected = workloads.warmup(os.path.join(work, "warm"))
    runner = Runner({**expected, **warm_expected})
    for request in warm_requests:
        runner.run(request)

    info = {}
    if not args.trace:
        setup = [probe_setup(runner, src, setup_request)
                 for _ in range(SETUP_PROBES)]
        setup = [s for s in setup if s is not None]
        if not setup:
            raise SystemExit("error: every set-up probe failed")
        times = measure(runner, requests, args.seconds)
        metrics, info["detail"] = end_to_end(times, runner, setup)
    else:
        untraced = [runner.run(request) for request in requests]
        tracer = tracing.Tracer()
        traced = []
        with tracer:
            for k, request in enumerate(requests):
                tracer.request = k
                traced.append(runner.run(request))
        spans_path = os.path.join(
            work_root, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in tracer.spans], fh)
        info["spans"] = os.path.relpath(spans_path)
        metrics = per_layer(tracer, untraced, traced)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def parse_args(argv):
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    # before numpy is first imported, so that BLAS starts single-threaded
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    args = parse_args(argv)
    if os.environ.get("CHRONOGRAPH_THREADS", "1") != "1":
        print("error: unset CHRONOGRAPH_THREADS; the benchmark measures one "
              "thread per solve", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chronograph", "__init__.py")):
        print("error: no ./src/chronograph here; run from the root of a "
              "chronograph checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import chronograph

    if not os.path.abspath(chronograph.__file__).startswith(src + os.sep):
        print(f"error: chronograph imported from {chronograph.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2

    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result, info = bench(args, src, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"machine": machine_info(root, args), "run": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
